#include "dram/wcd.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/units.hpp"

namespace pap::dram {

namespace {
constexpr int kMaxIterations = 10'000;
}

WcdAnalysis::WcdAnalysis(const Timings& timings,
                         const ControllerParams& controller,
                         const nc::TokenBucket& write_traffic)
    : t_(timings), c_(controller), writes_(write_traffic) {
  PAP_CHECK_MSG(t_.valid(), "invalid DRAM timing set");
  // Explicit messages for the two parameters that silently corrupt the
  // analysis if they slip through: n_wd == 0 divides by zero in the batch
  // count, n_cap < 0 makes the hit block negative.
  PAP_CHECK_MSG(c_.n_wd > 0, "write batch size n_wd must be >= 1");
  PAP_CHECK_MSG(c_.n_cap >= 0, "hit promotion cap n_cap must be >= 0");
  PAP_CHECK_MSG(c_.valid(), "invalid controller parameters");
  PAP_CHECK_MSG(analyzable(c_.policy),
                ("no analytic WCD bound for policy '" + to_string(c_.policy) +
                 "'")
                    .c_str());
  PAP_CHECK(writes_.burst >= 0.0 && writes_.rate >= 0.0);
}

WcdAnalysis::WcdAnalysis(const Timings& timings,
                         const ControllerConfig& controller,
                         const nc::TokenBucket& write_traffic)
    : WcdAnalysis(timings, controller.params(), write_traffic) {}

Time WcdAnalysis::miss_service_time(int n) const {
  PAP_CHECK(n >= 1);
  // Same-bank row misses are spaced by the row cycle tRC = tRAS + tRP.
  return t_.row_cycle() * n;
}

Time WcdAnalysis::hit_block_time() const {
  // Closed-page controllers never produce row hits, so no promoted-hit
  // block can delay the tagged miss: the WCD loses its O(N_cap) term. The
  // same holds for the kClosePage scheduler policy (auto-precharge) and for
  // kFcfs, which keeps rows open but never serves a hit ahead of an older
  // miss.
  if (c_.page_policy == PagePolicy::kClosedPage) return Time::zero();
  if (c_.policy == PolicyKind::kFcfs || c_.policy == PolicyKind::kClosePage) {
    return Time::zero();
  }
  if (c_.n_cap == 0) return Time::zero();
  // N_cap promoted hits back-to-back: first pays the CAS latency, the rest
  // stream at tBurst ("the time that it takes to serve a batch of hits is
  // convex with their number, hence scheduling them back-to-back generates
  // the largest delay").
  const Time full = t_.tCL + t_.tBurst * c_.n_cap;
  if (c_.policy == PolicyKind::kStarvationGuard) {
    // Promotion only happens while the tagged miss is younger than the age
    // cap; one more in-flight hit can still complete after it crosses it.
    return std::min(full, c_.age_cap + t_.tCL + t_.tBurst);
  }
  return full;
}

Time WcdAnalysis::write_batch_time() const {
  // N_wd same-bank row-miss writes plus the read->write and write->read bus
  // turnarounds that bracket the batch.
  return t_.write_cycle() * c_.n_wd + t_.switch_read_to_write() +
         t_.switch_write_to_read();
}

std::int64_t WcdAnalysis::write_batches_within(Time window) const {
  // Worst-case write-queue state when the tagged read arrives: the
  // watermark policy lets up to W_high writes accumulate *before* t = 0
  // without being served (they arrived in the past, so the token bucket —
  // which constrains arrivals inside the analysis window — does not exclude
  // them). Within the window the bucket admits b + r*T further writes.
  // Batches of N_wd are triggered whenever the cumulative write count
  // crosses a multiple of N_wd beyond the batches already owed at t = 0:
  //   k(T) = floor((W_high + b + r*T) / N_wd) - floor(W_high / N_wd).
  const double total =
      static_cast<double>(c_.w_high) + writes_.burst +
      writes_.rate * window.nanos();
  const auto owed_before =
      static_cast<std::int64_t>(c_.w_high / c_.n_wd);  // served in the past
  return static_cast<std::int64_t>(std::floor(total / c_.n_wd + 1e-9)) -
         owed_before;
}

std::int64_t WcdAnalysis::refreshes_within(Time window) const {
  // One refresh may already be due when the tagged read arrives
  // (phase-adversarial), plus one per elapsed tREFI.
  return floor_div(window, t_.tREFI) + 1;
}

double WcdAnalysis::interference_utilization() const {
  // Window growth per unit window: each ns of window admits `rate` writes
  // costing write_cycle each (turnarounds amortised per batch) plus
  // refresh overhead tRFC per tREFI.
  const double write_share =
      writes_.rate *
      (t_.write_cycle().nanos() +
       (t_.switch_read_to_write() + t_.switch_write_to_read()).nanos() /
           static_cast<double>(c_.n_wd));
  const double refresh_share = t_.tRFC / t_.tREFI;
  return write_share + refresh_share;
}

// Kept out of line: inlined into service_curve_view's per-point loop at
// -O3, the iteration state no longer fits in registers and the whole curve
// ran ~1.3x slower (GCC 12, BM_WcdServiceCurve/128).
[[gnu::noinline]] std::pair<Time, int> WcdAnalysis::fixpoint_from(
    Time counted_base, Time warm, bool* converged) const {
  Time window = std::max(counted_base, warm);
  int iters = 0;
  *converged = true;
  for (;;) {
    ++iters;
    const std::int64_t k = write_batches_within(window);
    const std::int64_t r = refreshes_within(window);
    const Time next =
        counted_base + write_batch_time() * k + t_.tRFC * r;
    if (next == window) break;
    // Divergence guard: past write-service saturation the window grows
    // geometrically; cut off at one second of simulated time (far beyond
    // any deadline of interest) before integer arithmetic could overflow.
    if (next > Time::sec(1) || iters >= kMaxIterations) {
      *converged = false;
      window = std::max(window, next);
      break;
    }
    PAP_CHECK_MSG(next > window, "fixpoint iteration must be monotone");
    window = next;
  }
  return {window, iters};
}

std::pair<Time, int> WcdAnalysis::fixpoint(Time base, bool hits_in_window,
                                           bool* converged) const {
  const Time hit_block = hit_block_time();
  const Time counted_base = hits_in_window ? base + hit_block : base;
  auto [window, iters] = fixpoint_from(counted_base, counted_base, converged);
  // The tagged read completes at the end of the schedule; for the lower
  // bound the hit block is appended after the counting window.
  const Time total = hits_in_window ? window : window + hit_block;
  return {total, iters};
}

WcdBounds WcdAnalysis::bounds(int n) const {
  WcdBounds out;
  bool conv_up = true;
  bool conv_lo = true;
  const Time base = miss_service_time(n);
  auto [upper, it_up] = fixpoint(base, /*hits_in_window=*/true, &conv_up);
  auto [lower, it_lo] = fixpoint(base, /*hits_in_window=*/false, &conv_lo);
  out.upper = upper;
  out.lower = std::min(lower, upper);
  out.iterations_upper = it_up;
  out.iterations_lower = it_lo;
  out.converged = conv_up && conv_lo;
  return out;
}

namespace {

/// Assemble the service curve from its (t_N, N) points. The asymptotic rate
/// comes from the last step (requests per ns under steady interference).
nc::Curve curve_from_wcd_points(const std::vector<std::pair<Time, double>>& points,
                                Time row_cycle, bool truncated) {
  // A truncated point list means the next queue position's window blew
  // through the divergence cut-off: past write-service saturation no finite
  // window serves it, so the curve ends flat — zero asymptotic rate — and
  // an empty list is the all-zero service.
  if (points.empty()) return nc::Curve::constant(0.0);
  double tail;
  if (truncated) {
    tail = 0.0;
  } else if (points.size() >= 2) {
    const double dt =
        (points.back().first - points[points.size() - 2].first).nanos();
    tail = dt > 0 ? 1.0 / dt : 0.0;
  } else {
    tail = 1.0 / row_cycle.nanos();
  }
  std::vector<std::pair<double, double>> pts;
  pts.reserve(points.size());
  for (const auto& [tt, nn] : points) pts.emplace_back(tt.nanos(), nn);
  return nc::Curve::from_points(pts, tail);
}

}  // namespace

nc::Curve WcdAnalysis::service_curve(int max_n) const {
  // Scratch storage private to this copy-out; nothing else resets it.
  thread_local nc::Arena scratch(1 << 12);
  scratch.reset();
  return nc::to_curve(service_curve_view(max_n, scratch));
}

nc::CurveView WcdAnalysis::service_curve_view(int max_n,
                                              nc::Arena& arena) const {
  // Each queue position adds exactly one row cycle to the counted window
  // base, so the least fixpoints satisfy LFP_n >= LFP_{n-1} + tRC: the
  // previous window (plus tRC) is a valid warm start that the monotone
  // iteration refines to the identical least fixpoint. Total cost is one
  // full fixpoint plus a handful of catch-up iterations per point. The
  // points stay integer Times so the tail slope comes from the same
  // Time-difference expression as curve_from_wcd_points, bit for bit.
  PAP_CHECK(max_n >= 1);
  const Time hit_block = hit_block_time();
  auto* times = arena.alloc<Time>(static_cast<std::size_t>(max_n));
  auto* counts = arena.alloc<double>(static_cast<std::size_t>(max_n));
  Time prev = Time::zero();
  bool truncated = false;
  int npoints = 0;
  for (int n = 1; n <= max_n; ++n) {
    const Time counted_base = miss_service_time(n) + hit_block;
    const Time warm =
        (n == 1) ? counted_base : std::max(counted_base, prev + t_.row_cycle());
    bool conv = true;
    Time window = fixpoint_from(counted_base, warm, &conv).first;
    if (!conv && warm > counted_base) {
      // Past saturation the cut-off window depends on the starting iterate;
      // redo this point cold so the curve matches the per-point analysis.
      window = fixpoint_from(counted_base, counted_base, &conv).first;
    }
    if (!conv) {
      // This and every deeper position diverged: the curve ends here.
      truncated = true;
      break;
    }
    prev = window;
    times[n - 1] = window;
    counts[n - 1] = static_cast<double>(n);
    ++npoints;
  }
  if (npoints == 0) return nc::constant_view(arena, 0.0);
  double tail;
  if (truncated) {
    tail = 0.0;
  } else if (npoints >= 2) {
    const double dt = (times[npoints - 1] - times[npoints - 2]).nanos();
    tail = dt > 0 ? 1.0 / dt : 0.0;
  } else {
    tail = 1.0 / t_.row_cycle().nanos();
  }
  auto* px = arena.alloc<double>(static_cast<std::size_t>(max_n));
  for (int n = 0; n < npoints; ++n) px[n] = times[n].nanos();
  return nc::from_points_view(arena, px, counts,
                              static_cast<std::uint32_t>(npoints), tail);
}

nc::Curve WcdAnalysis::service_curve_reference(int max_n) const {
  PAP_CHECK(max_n >= 1);
  std::vector<std::pair<Time, double>> points;
  points.reserve(static_cast<std::size_t>(max_n));
  bool truncated = false;
  for (int n = 1; n <= max_n; ++n) {
    const WcdBounds b = bounds(n);
    if (!b.converged) {
      truncated = true;
      break;
    }
    points.emplace_back(b.upper, static_cast<double>(n));
  }
  return curve_from_wcd_points(points, t_.row_cycle(), truncated);
}

Time WcdAnalysis::gap_bound() const {
  // The upper bound's window exceeds the lower bound's by the hit block;
  // the extra window can admit at most ceil(extra * r / N_wd) + 1 batches
  // and ceil(extra / tREFI) + 1 refreshes, each extension amplified near
  // saturation by 1 / (1 - utilization).
  const double u = interference_utilization();
  if (u >= 1.0) return Time::max();
  const double extra_ns = hit_block_time().nanos() / (1.0 - u);
  const auto tipped_batches = static_cast<std::int64_t>(
      std::ceil(extra_ns * writes_.rate / c_.n_wd) + 1);
  const auto tipped_refreshes =
      static_cast<std::int64_t>(std::ceil(extra_ns / t_.tREFI.nanos()) + 1);
  return Time::from_ns(extra_ns) + write_batch_time() * tipped_batches +
         t_.tRFC * tipped_refreshes;
}

WcdBounds table2_row(const Timings& timings, const ControllerParams& ctrl,
                     double write_gbps, int n) {
  // Table II: "The write arrival rate varies between 4 and 7 Gbps, assuming
  // a burst of 8." Requests are 64-byte cache lines (BL8 on a x8 device).
  const auto bucket = nc::TokenBucket::from_rate(Rate::gbps(write_gbps),
                                                 kCacheLineBytes,
                                                 /*burst_requests=*/8.0);
  WcdAnalysis analysis(timings, ctrl, bucket);
  return analysis.bounds(n);
}

}  // namespace pap::dram
