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
// The randomized cross-validation in tests/e2e_fuzz_test.cpp checks the
// resulting bounds against the NoC simulator over random flow sets.
#pragma once

#include <optional>
#include <vector>

#include "core/qos_spec.hpp"
#include "dram/controller.hpp"
#include "dram/timing.hpp"
#include "dram/wcd.hpp"
#include "nc/arena.hpp"
#include "nc/batch.hpp"
#include "nc/bounds.hpp"
#include "nc/ops.hpp"
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

class E2eAnalysis {
 public:
  explicit E2eAnalysis(PlatformModel model);

  /// Link capacity in packets/ns for `flits`-sized packets.
  double link_rate(int flits) const;

  /// Per-hop base latency (arbitration-free router traversal).
  Time hop_latency() const;

  /// The flow's path: injection link, then the XY route's channels.
  std::vector<PathLink> links_of(const AppRequirement& req) const;

  /// Full end-to-end bound of `req` against the admitted set `others`:
  /// NoC path (+ DRAM when used). An entry of `others` with req's app id
  /// stands for req in the flow set; otherwise req is appended. Runs the
  /// slice API below for that one index on the calling thread's
  /// nc::Arena (reset on entry, like e2e_bounds_into).
  std::optional<Time> e2e_bound(const AppRequirement& req,
                                const std::vector<AppRequirement>& others) const;

  /// Bounds for every flow of the set in one pass. Identical to calling
  /// `e2e_bound(flows[i], flows)` per flow, but the paths and the
  /// burst-propagation fixpoint — the dominant cost — are computed once
  /// and shared. The admission controller re-proves every admitted
  /// application on each decision, which is exactly this shape; the
  /// flow-by-flow form repeats the fixpoint N times on identical input.
  /// bounds[i] is empty when flow i has no bounded delay.
  std::vector<std::optional<Time>> e2e_bounds(
      const std::vector<AppRequirement>& flows) const;

  /// e2e_bounds with caller-owned output storage. The whole analysis —
  /// paths, the burst-propagation fixpoint, every intermediate curve — runs
  /// on the calling thread's nc::Arena (reset once on entry), so a warm
  /// steady state (arena blocks grown, *out at capacity) makes zero heap
  /// allocations per decision.
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
  // bit-identical values to the full batch run (docs/admission.md).

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
  struct PropagatedFlat {
    double* bursts = nullptr;
    bool* flow_unbounded = nullptr;
    bool converged = false;
  };
  PropagatedFlat propagate_flat(const std::vector<AppRequirement>& flows,
                                const FlatPaths& paths,
                                nc::Arena& arena) const;

  /// The residual NoC service chain of flows[self_idx] (convolution of the
  /// per-link blind residuals), or nullopt when a link on the path is
  /// saturated; the returned view lives in `arena`.
  std::optional<nc::CurveView> chain_view_for(
      const std::vector<AppRequirement>& flows, std::size_t self_idx,
      const PropagatedFlat& propagated, const FlatPaths& paths,
      nc::Arena& arena) const;

  /// Residual DRAM read service for `req` given the set `others` (their
  /// writes feed the write-batch interference; their reads occupy queue
  /// positions ahead); the returned view lives in `arena`.
  nc::CurveView dram_service_view(const AppRequirement& req,
                                  const std::vector<AppRequirement>& others,
                                  nc::Arena& arena) const;

  /// dram_service_view over a pre-filtered list: `dram_flows[0..n)` must
  /// hold exactly the uses_dram flows of the set, in the same relative
  /// order the full flow vector would present them (admission order);
  /// `req` itself may appear and is skipped by app id. The write/read
  /// aggregation then sums in the same order as dram_service_view over the
  /// full vector, so the result is bit-identical. Pointers are borrowed
  /// for the call.
  nc::CurveView dram_service_from(const AppRequirement& req,
                                  const AppRequirement* const* dram_flows,
                                  std::size_t n, nc::Arena& arena) const;

 private:
  PlatformModel model_;
  noc::Mesh2D mesh_;
};

}  // namespace pap::core
