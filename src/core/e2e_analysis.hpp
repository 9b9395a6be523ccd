// End-to-end service composition across heterogeneous shared resources —
// the analysis behind Fig. 6: a transmission crosses its source's
// injection link, a sequence of wormhole NoC links, and optionally the
// FR-FCFS DRAM controller; each resource contributes a service curve, the
// chain is their min-plus convolution, and the horizontal deviation
// against the application's token bucket is the provable end-to-end delay
// bound ("pay bursts only once").
//
// Cross-traffic handling (soundness over tightness):
//  * every link a flow crosses — including the injection link it shares
//    with co-located applications — contributes a blind-multiplexing
//    residual of the link's service under the other flows' arrival curves;
//  * interferer burstiness grows along paths. Bursts at hop k are
//    propagated with per-link *aggregate delay bounds*: the links are FIFO
//    (FCFS grant order in the simulator), so h(alpha_total, beta_link)
//    bounds any packet's delay through the link, and a flow's burst at hop
//    k is b + r * (sum of the delay bounds of its first k links). Link
//    delays and bursts form a monotone fixpoint, iterated to convergence;
//    links whose aggregate rate reaches capacity (or whose fixpoint
//    diverges) make every flow crossing them unbounded.
//
// Closed form on the NoC side: every link is a rate-latency server and
// every cross-traffic aggregate a sum of token buckets, so each blind
// residual is again rate-latency, the chain of residuals is
// rate-latency(min rate, sum of latencies), and a link's aggregate delay
// is latency + burst / rate. The NoC stages (propagate_flat, chain_for and
// the final deviation of a NoC-only flow) work on those scalars
// (blind_residual, link_delay, rate_latency_deviation); the general view
// kernels of nc/batch.hpp run only where a curve is not rate-latency: the
// DRAM service, its convolution with the chain and the deviation against
// that.
// The randomized cross-validation in tests/e2e_fuzz_test.cpp checks the
// resulting bounds against the NoC simulator over random flow sets.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/exact_sum.hpp"
#include "core/qos_spec.hpp"
#include "dram/controller.hpp"
#include "dram/timing.hpp"
#include "dram/wcd.hpp"
#include "nc/arena.hpp"
#include "nc/batch.hpp"
#include "nc/bounds.hpp"
#include "nc/ops.hpp"
#include "nc/service.hpp"
#include "noc/network.hpp"

namespace pap::core {

struct PlatformModel {
  noc::NocConfig noc;
  dram::Timings dram = dram::ddr3_1600();
  dram::ControllerConfig dram_ctrl;
  /// Aggregate write traffic at the controller assumed by the WCD analysis
  /// (requests; the admission controller adds admitted apps' writes).
  nc::TokenBucket background_writes{8.0, 0.0};
  /// Depth of the DRAM service curve (max queue position analysed).
  int dram_service_depth = 32;
};

/// A shared segment on a flow's path: a router output channel, or the
/// source node's injection link.
struct PathLink {
  noc::LinkId link{0, noc::Direction::kLocal};
  bool injection = false;
  friend bool operator==(const PathLink&, const PathLink&) = default;
};

/// Blind-multiplexing residual of a rate-latency link under token-bucket
/// cross traffic, [beta_{R,T} - gamma_{b,r}]^+ =
/// beta_{R - r, T + (b + r T) / (R - r)}; a rate <= 0 means the link is
/// saturated. Agrees with nc::residual_blind_view on the same curves to
/// rounding (tests/core_e2e_test.cpp).
nc::RateLatency blind_residual(nc::RateLatency link, nc::TokenBucket cross);

/// Horizontal deviation of a token bucket of burst `burst` (any rate up to
/// link.rate) against a rate-latency link: latency + burst / rate. It is
/// bit-equal to nc::h_deviation_view on those curves, except for the zero
/// bucket (burst and rate 0), whose deviation is 0.
double link_delay(nc::RateLatency link, double burst);

/// The horizontal deviation of a token bucket against a rate-latency
/// curve with a positive latency, in closed form and bit-equal to
/// nc::h_deviation_view on affine_view(alpha) and rate_latency_view(beta):
/// 0 for the zero bucket, unbounded when alpha's rate exceeds beta's or
/// beta's rate is within the kernels' 1e-9 tolerance of 0, otherwise
/// link_delay(beta, alpha.burst).
std::optional<double> rate_latency_deviation(nc::TokenBucket alpha,
                                             nc::RateLatency beta);

/// The DRAM users of a flow set, as exact totals of their token buckets.
/// The totals do not depend on the order users are added or removed in, so
/// a load kept resident and updated per admit and release equals one summed
/// afresh from the set, bit for bit after rounding.
struct DramLoad {
  ExactSum burst;
  ExactSum rate;
  std::size_t users = 0;

  void add(nc::TokenBucket b) {
    burst.add(b.burst);
    rate.add(b.rate);
    ++users;
  }
  void remove(nc::TokenBucket b) {
    burst.add(-b.burst);
    rate.add(-b.rate);
    --users;
  }
};

class E2eAnalysis {
 public:
  explicit E2eAnalysis(PlatformModel model);

  /// Link capacity in packets/ns for `flits`-sized packets.
  double link_rate(int flits) const;

  /// Per-hop base latency (arbitration-free router traversal).
  Time hop_latency() const;

  /// The flow's path into caller-owned storage (resized to the path
  /// length): the injection link, the route's channels in its dimension
  /// order, then the ejection port. A warm caller allocates nothing.
  void links_into(const AppRequirement& req, std::vector<PathLink>* out) const;

  /// Full end-to-end bound of `req` against the admitted set `others`:
  /// NoC path (+ DRAM when used). An entry of `others` with req's app id
  /// is replaced by req in the flow set; otherwise req is appended. Runs the
  /// slice API below for that one index on the calling thread's
  /// nc::Arena (reset on entry, like e2e_bounds_into).
  std::optional<Time> e2e_bound(const AppRequirement& req,
                                const std::vector<AppRequirement>& others) const;

  /// Bounds for every flow of the set in one pass, into caller-owned
  /// storage. Identical to calling `e2e_bound(flows[i], flows)` per flow,
  /// but the paths and the burst-propagation fixpoint — the dominant cost —
  /// are computed once and shared. The admission controller re-proves every
  /// admitted application on each decision, which is exactly this shape;
  /// the flow-by-flow form repeats the fixpoint N times on identical input.
  /// (*out)[i] is empty when flow i has no bounded delay. A flow set holds
  /// each app id at most once. The whole analysis — paths, the
  /// burst-propagation fixpoint, every intermediate curve — runs on the
  /// calling thread's nc::Arena (reset once on entry),
  /// so a warm steady state (arena blocks grown, *out at capacity) makes
  /// zero heap allocations per decision.
  void e2e_bounds_into(const std::vector<AppRequirement>& flows,
                       std::vector<std::optional<Time>>* out) const;

  const PlatformModel& model() const { return model_; }

  // --- flow-set slice API (arena path) ---
  //
  // The building blocks of e2e_bounds_into, exposed so callers that manage
  // their own flow-set slices — the incremental admission engine re-proves
  // only the dirty connected component of a decision — can run the exact
  // batch pipeline over a subset. The arithmetic is order-sensitive only in
  // the per-link user summation, which follows the (vector index, hop)
  // order of `flows`; a caller that presents flows in admission order gets
  // bit-identical values to the full batch run (docs/admission.md). The
  // DRAM buckets are exact sums (DramLoad), so they depend on the set of
  // DRAM users alone, not on its order.

  /// All flows' paths concatenated: flow f's links are
  /// links[off[f] .. off[f + 1]). Both arrays live in the arena.
  struct FlatPaths {
    PathLink* links = nullptr;
    std::uint32_t* off = nullptr;  // flows.size() + 1 entries
  };
  FlatPaths flat_paths(const std::vector<AppRequirement>& flows,
                       nc::Arena& arena) const;

  /// The link-delay / burst fixpoint over flat arena storage: per-flow,
  /// per-hop burst sizes (in each flow's own packets); bursts is indexed
  /// like FlatPaths::links. converged == false means the fixpoint
  /// diverged; flow_unbounded[f] marks flows crossing an unstable link.
  /// The per-link user lists the fixpoint sums over are kept as a CSR:
  /// (flow, hop) entry fh crosses distinct link link_of[fh], and link l's
  /// users are users[users_off[l] .. users_off[l + 1]) in (flow, hop)
  /// order.
  struct LinkUser {
    std::uint32_t flow;
    std::uint32_t fh;  // flat (flow, hop) index into bursts
  };
  struct PropagatedFlat {
    double* bursts = nullptr;
    bool* flow_unbounded = nullptr;
    bool converged = false;
    const std::uint32_t* link_of = nullptr;
    const std::uint32_t* users_off = nullptr;
    const LinkUser* users = nullptr;
  };
  PropagatedFlat propagate_flat(const std::vector<AppRequirement>& flows,
                                const FlatPaths& paths,
                                nc::Arena& arena) const;

  /// The residual NoC service chain of flows[self_idx] (convolution of the
  /// per-link blind residuals), or nullopt when a link on the path is
  /// saturated; the returned rate-latency view lives in `arena`. Each hop's
  /// cross traffic is summed as scalars from the link's user list in
  /// `propagated`, so the cost is the number of users of the flow's own
  /// links.
  std::optional<nc::CurveView> chain_view_for(
      const std::vector<AppRequirement>& flows, std::size_t self_idx,
      const PropagatedFlat& propagated, const FlatPaths& paths,
      nc::Arena& arena) const;

  /// The same chain as its (rate, latency) pair: chain_view_for is
  /// nc::rate_latency_view of this.
  std::optional<nc::RateLatency> chain_for(
      const std::vector<AppRequirement>& flows, std::size_t self_idx,
      const PropagatedFlat& propagated, const FlatPaths& paths) const;

  /// Residual DRAM read services of one flow set's DRAM users, shared per
  /// contract. A user's residual depends on the set only through two
  /// buckets over the *other* users: the write bucket (background plus
  /// their traffic, which feeds the write-batch interference) and the read
  /// bucket (their traffic, which occupies queue positions ahead). Both
  /// come from the set's exact DramLoad in O(1): round(background + total
  /// - self) and round(total - self). Against one load they are therefore
  /// a function of the user's own (b, r) bucket, and the table is keyed on
  /// its bits: the curve pipeline (WCD service curve, convex minorant,
  /// blind residual) runs once per distinct contract, and every other user
  /// of that contract costs one probe. Equal input bits give equal output
  /// bits, so sharing never changes a value. The table and every view it
  /// returns live in `arena`.
  class DramResiduals {
   public:
    DramResiduals(const E2eAnalysis& analysis, const DramLoad& load,
                  nc::Arena& arena);

    /// The residual read service of `user` — one of the load's users,
    /// counted in it with user.traffic — against all the others.
    nc::CurveView service_for(const AppRequirement& user);

    /// Curve pipelines run so far: the distinct contracts looked up.
    std::uint32_t pipelines() const { return used_; }

   private:
    struct Entry {
      std::uint64_t key[2];  // bits of the user's own (b, r)
      nc::CurveView service;
      bool used;
    };
    Entry* find_slot(const std::uint64_t* key) const;
    void grow();

    const E2eAnalysis& analysis_;
    DramLoad load_;
    nc::Arena& arena_;
    Entry* slots_ = nullptr;
    std::uint32_t cap_ = 0;
    std::uint32_t used_ = 0;
  };

  /// The end-to-end bound of `req` over its NoC chain (chain_for): the
  /// chain convolved with req's DRAM residual from `dram` when req uses the
  /// DRAM (both are convex), then the horizontal deviation against req's
  /// token bucket — in closed form (rate_latency_deviation) when the
  /// service is the chain alone. nullopt when that deviation is unbounded.
  std::optional<Time> bound_over_chain(const AppRequirement& req,
                                       nc::RateLatency chain,
                                       DramResiduals& dram,
                                       nc::Arena& arena) const;

  /// The residual DRAM read service of `req` against the entries of
  /// `dram_flows[0..n)` with another app id: their buckets are summed
  /// exactly, so the result is bit-equal to DramResiduals::service_for(req)
  /// over the same set, in any order. Callers that need the residual of
  /// several users of one set share a DramResiduals instead.
  nc::CurveView dram_service_from(const AppRequirement& req,
                                  const AppRequirement* const* dram_flows,
                                  std::size_t n, nc::Arena& arena) const;

 private:
  /// The residual read service of a DRAM user against `load`, where
  /// `self` is the user's own bucket when the load counts it, or null when
  /// the load holds the other users only: the WCD service curve under the
  /// write bucket (background plus the others' traffic), its convex
  /// minorant, and the blind residual under the read bucket (the others'
  /// traffic). Each bucket is rounded once from the exact totals.
  nc::CurveView dram_residual(const DramLoad& load,
                              const nc::TokenBucket* self,
                              nc::Arena& arena) const;

  /// Writes req's path (hop_count + 2 links, links_into's order) to out.
  void write_path(const AppRequirement& req, PathLink* out) const;

  PlatformModel model_;
  noc::Mesh2D mesh_;
};

}  // namespace pap::core
