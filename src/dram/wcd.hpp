// Worst-case delay (WCD) analysis of the FR-FCFS DRAM controller
// (Section IV-A of the paper; full derivation in Andreozzi et al.,
// COMPSAC 2020 [14], which this module re-derives from the paper's
// description).
//
// Problem: bound the delay of a read *miss* that enters the read queue at
// position N, when
//  * all requests target the same bank (worst case, per the paper),
//  * writes arrive shaped by a token bucket (burst b, rate r),
//  * row hits are promoted ahead of misses, at most N_cap back-to-back,
//  * writes are served in batches of N_wd under the watermark policy,
//  * a refresh (tRFC) may be scheduled every tREFI.
//
// Algorithm (paper steps 1-4):
//  1. T_N  = time to serve the N read misses  (N * tRC, tRC = tRAS + tRP);
//  2. T_H  = time to serve N_cap promoted hits back-to-back
//            (tCL + N_cap * tBurst) — placing them as one block maximises
//            the delay (their service time is convex in the run length);
//  3. add the write batches that can interfere within T: each batch is
//     N_wd row-miss writes (N_wd * tWrCycle) plus both bus turnarounds;
//     the number of batches is limited by the token bucket:
//     k(T) = floor((b + r*T) / N_wd);
//  4. add the refreshes within T: R(T) = floor(T / tREFI) + 1 (a refresh
//     may be due at the instant the tagged read arrives), each tRFC.
// Steps 3-4 iterate until T converges ("every time that T is increased,
// new write batches or refreshes may be included").
//
// Upper vs lower bound: the upper bound counts interference over the window
// *including* the back-to-back hit block (which may admit write batches
// that no feasible schedule can realise); the lower bound schedules the
// hits as soon as possible — they do not enlarge the window used to count
// batches and refreshes. Both use the same fixpoint, so
// lower <= upper always, the gap is zero-to-negligible until the write rate
// approaches the controller's write-service capacity, where the window
// extension tips floor() over into whole extra batches — reproducing the
// blow-up in the last line of Table II.
#pragma once

#include <optional>
#include <vector>

#include "common/time.hpp"
#include "dram/controller.hpp"
#include "dram/timing.hpp"
#include "nc/arrival.hpp"
#include "nc/batch.hpp"
#include "nc/curve.hpp"

namespace pap::dram {

struct WcdBounds {
  Time lower;
  Time upper;
  int iterations_lower = 0;
  int iterations_upper = 0;
  bool converged = true;
};

class WcdAnalysis {
 public:
  /// `write_traffic` is in requests: burst in requests, rate in requests/ns
  /// (use nc::TokenBucket::from_rate to build it from a line rate).
  /// Aborts when `controller.policy` has no analytic bound — gate on
  /// `analyzable()` first.
  WcdAnalysis(const Timings& timings, const ControllerParams& controller,
              const nc::TokenBucket& write_traffic);

  /// Validated-builder convenience overload.
  WcdAnalysis(const Timings& timings, const ControllerConfig& controller,
              const nc::TokenBucket& write_traffic);

  /// Which arbitration policies this analysis can bound: everything except
  /// kWriteDrain, whose drain length is not limited by N_wd (the fixpoint's
  /// write-batch term assumes batches of exactly N_wd writes).
  static bool analyzable(PolicyKind kind) { return policy_analyzable(kind); }

  /// Bounds on the WCD of a read miss entering the read queue at (1-based)
  /// position `n` — i.e. n misses, the tagged one last, must be served.
  WcdBounds bounds(int n) const;

  Time upper_bound(int n) const { return bounds(n).upper; }
  Time lower_bound(int n) const { return bounds(n).lower; }

  /// "The curve that joins points (t_N, N) is a service curve for this
  /// system" — built from the upper bounds for N = 1..max_n, extended with
  /// the asymptotic service rate.
  ///
  /// Incremental: the counted window base grows by exactly one row cycle per
  /// queue position, so LFP_n >= LFP_{n-1} + tRC and each point's fixpoint
  /// warm-starts from the previous one — the whole curve costs one fixpoint
  /// run plus O(1) amortised refinement per point instead of re-running the
  /// iteration from scratch for every N. Produces bit-identical points to
  /// service_curve_reference (Time is integer picoseconds).
  nc::Curve service_curve(int max_n) const;

  /// The one construction of the curve, on arena storage — zero heap
  /// allocation; the returned view lives in `arena`. service_curve copies
  /// it out; core::E2eAnalysis uses it directly.
  nc::CurveView service_curve_view(int max_n, nc::Arena& arena) const;

  /// The pre-optimization construction (one cold fixpoint per point,
  /// O(max_n * iterations)); retained for benchmarking and as the oracle the
  /// incremental version is tested against.
  nc::Curve service_curve_reference(int max_n) const;

  /// Long-run fraction of controller time consumed by write batches and
  /// refreshes; the fixpoint converges iff this is < 1.
  double interference_utilization() const;

  /// Analytic bound on (upper - lower): the hit block can tip at most
  /// ceil extra batches/refreshes, amplified near saturation — the O(N_cap)
  /// gap bound mentioned in the paper.
  Time gap_bound() const;

  // --- exposed building blocks (tested individually) ---
  Time miss_service_time(int n) const;   ///< step 1
  /// Step 2, per arbitration policy: FR-FCFS pays the full promoted-hit
  /// block tCL + N_cap * tBurst; the starvation guard caps it at
  /// age_cap + tCL + tBurst (promotion stops once the tagged miss is older
  /// than the cap, plus one in-flight hit); FCFS and close-page never
  /// promote, so the term vanishes.
  Time hit_block_time() const;
  Time write_batch_time() const;         ///< one batch incl. turnarounds
  std::int64_t write_batches_within(Time window) const;  ///< step 3 count
  std::int64_t refreshes_within(Time window) const;      ///< step 4 count

 private:
  /// Iterate steps 3-4 over a window that always contains `base` plus the
  /// interference; when `hits_in_window`, the hit block extends the window
  /// used for counting (upper bound), otherwise it is appended after the
  /// fixpoint (lower bound).
  std::pair<Time, int> fixpoint(Time base, bool hits_in_window,
                                bool* converged) const;

  /// Core iteration: least fixpoint of
  ///   W = counted_base + batches(W) * batch_time + refreshes(W) * tRFC
  /// starting from max(counted_base, warm). Any warm <= the least fixpoint
  /// yields the same result; service_curve exploits this to reuse the
  /// previous point's window.
  std::pair<Time, int> fixpoint_from(Time counted_base, Time warm,
                                     bool* converged) const;

  Timings t_;
  ControllerParams c_;
  nc::TokenBucket writes_;
};

/// Convenience: reproduce one row of Table II. Write rate in Gbps over
/// 64-byte requests, burst of 8 requests, position `n`.
WcdBounds table2_row(const Timings& timings, const ControllerParams& ctrl,
                     double write_gbps, int n);

}  // namespace pap::dram
