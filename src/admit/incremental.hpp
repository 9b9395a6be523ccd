// Incremental admission control: the batch analysis, one component at a
// time (docs/admission.md).
//
// core::AdmissionController's batch path re-proves *every* admitted flow on
// every decision — O(flows) per admit/release, which caps the "millions of
// users" north star. This engine keeps the converged fixpoint state
// resident between decisions:
//
//  * flows live in flat slot-indexed arrays (stable FlowSlot ids handed
//    out from a free list), each holding the committed requirement, its
//    admission sequence number, cached end-to-end bound, and — for
//    DRAM-using flows — the cached residual NoC service chain;
//  * links hold their member flows (ascending admission order), so the
//    *dirty set* of a decision — the links on the arriving/leaving flow's
//    path, the flows sharing them, and the transitive closure — is one BFS
//    over the membership graph;
//  * only the dirty set is re-propagated, re-run cold through the exact
//    batch pipeline (E2eAnalysis' flow-set slice API) in admission order;
//    everything outside the closure keeps its previously converged state —
//    the flow-dimension analogue of warm-starting the NC fixpoint.
//
// Exactness, not approximation: the burst-propagation fixpoint factors
// over connected components of the flow/link sharing graph (a joint sweep
// never mixes values across components), so re-running just the dirty
// component in canonical order reproduces the full batch run bit for bit.
// Every decision is decision-identical — same grants, same rejection
// strings — and every cached bound is ps-exact against
// E2eAnalysis::e2e_bounds_into over the same flow set; the seeded churn in
// tests/admit_incremental_test.cpp and bench/admission_churn.cpp pin this.
//
// DRAM is the one globally shared resource: its residual service depends
// on the whole uses_dram set, not on NoC sharing. The engine keeps that
// set's exact bucket totals resident (core::DramLoad, O(1) per DRAM admit
// or release) and caches each DRAM flow's NoC chain — a rate-latency
// curve, kept as its (rate, latency) pair. When the DRAM population
// changes, it re-derives the clean DRAM flows' bounds by convolving each
// cached chain with the fresh DRAM residual: O(dram flows) bound refreshes
// per DRAM churn event, independent of the NoC component sizes, and still
// bit-identical (the chain is a pure function of the flow's unchanged
// component, and the exact totals do not depend on order). The residuals
// come from one E2eAnalysis::DramResiduals per evaluation: O(1) scalar
// work per flow, and one curve pipeline per distinct contract.
//
// A release rejects nothing, so it re-proves nothing: it unregisters the
// flow and adds its still-live links (and a bit if the DRAM load changed)
// to a pending set. The next request folds that closure into its own
// evaluation when its dirty closure covers it, or commits it first;
// current_bound and stats() commit it before reading, so every value a
// caller sees is the exact post-release one.
//
// Per-decision bookkeeping stays off O(flows): links are found through a
// table indexed by the packed link id (one uint32 per router port), and
// the admission order is only materialised where it is needed — the
// dirty component (sorted by seq), the failing flows and the DRAM users.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/e2e_analysis.hpp"
#include "core/qos_spec.hpp"

namespace pap::admit {

/// Stable handle of a registered flow; reused via a free list after
/// release, so long-lived engines stay compact under churn.
using FlowSlot = std::uint32_t;
inline constexpr FlowSlot kInvalidSlot = 0xffffffffu;

/// Decision counters plus the incremental-work telemetry papd's
/// admission_stats endpoint reports.
struct EngineStats {
  std::uint64_t admissions = 0;
  std::uint64_t rejections = 0;
  std::uint64_t releases = 0;
  /// Dirty-set sizes: the totals sum every evaluation (route attempts and
  /// pending closures), last_* is the most recent request's share (0 after
  /// a release) — the work done, not the O(live_flows) of a batch run.
  std::uint64_t dirty_flows_total = 0;
  std::uint64_t dirty_links_total = 0;
  std::uint64_t last_dirty_flows = 0;
  std::uint64_t last_dirty_links = 0;
  /// Live flows whose component failed to converge within the iteration
  /// cap. Non-zero means the batch oracle would prove nothing for anyone:
  /// current_bound returns nullopt for every flow until it clears.
  std::uint64_t diverged_flows = 0;
  std::size_t live_flows = 0;
  std::size_t live_links = 0;
};

class IncrementalAdmission {
 public:
  explicit IncrementalAdmission(core::PlatformModel model);

  /// Decision-identical to core::AdmissionController::request on the same
  /// admission history: same route-retry order, same grant fields, same
  /// rejection strings (the failing flow is the admission-order-first one,
  /// exactly as the batch scan reports it).
  Expected<core::AdmissionGrant> request(const core::AppRequirement& req);

  /// Unregister a flow, O(path); its component is re-proved by the next
  /// request, current_bound or stats(). Always succeeds for an admitted app.
  Status release(noc::AppId app);

  /// Cached bound of an admitted app — the value the last batch run over
  /// the full flow set would report, served O(1) once what releases left
  /// pending is re-proved (for a DRAM flow, also the DRAM bounds).
  std::optional<Time> current_bound(noc::AppId app);

  bool contains(noc::AppId app) const;
  std::size_t size() const { return app_index_.size(); }

  /// Live flows in canonical (admission) order — exactly the vector the
  /// batch oracle would hold. Sorts the live slots by seq, O(n log n); for
  /// tests and introspection.
  std::vector<core::AppRequirement> flows() const;

  /// Counters with live_flows/live_links/diverged_flows filled in. Re-proves
  /// the pending closure first, so diverged_flows is the post-release count.
  EngineStats stats();

  /// Pending links, each listed once: at most the links live when the run
  /// of releases began, 0 after a request. For tests and introspection.
  std::size_t pending_links() const { return pending_links_.size(); }

  const core::E2eAnalysis& analysis() const { return analysis_; }

 private:
  /// A uint32 list that keeps up to N entries inside the owning struct and
  /// moves to the heap beyond that (until clear()). A dirty-set BFS then
  /// reads a flow's links and a link's members from the cache line it is
  /// already on, instead of chasing one heap block per visit.
  template <std::size_t N>
  class InlineList {
   public:
    const std::uint32_t* begin() const {
      return spill_.empty() ? inline_ : spill_.data();
    }
    const std::uint32_t* end() const { return begin() + size_; }
    bool empty() const { return size_ == 0; }

    void push_back(std::uint32_t v) {
      if (spill_.empty() && size_ < N) {
        inline_[size_++] = v;
        return;
      }
      if (spill_.empty()) spill_.assign(inline_, inline_ + size_);
      spill_.push_back(v);
      ++size_;
    }

    /// Removes the first entry equal to v (which must be present), keeping
    /// the order of the others.
    void erase(std::uint32_t v) {
      std::uint32_t* data = spill_.empty() ? inline_ : spill_.data();
      std::uint32_t* at = std::find(data, data + size_, v);
      std::copy(at + 1, data + size_, at);
      --size_;
      if (!spill_.empty()) spill_.pop_back();
    }

    void clear() {
      size_ = 0;
      spill_.clear();
    }

   private:
    std::uint32_t size_ = 0;
    std::uint32_t inline_[N] = {};
    std::vector<std::uint32_t> spill_;  // all entries once N is exceeded
  };

  /// AppId -> FlowSlot by open addressing (linear probing, load <= 1/2,
  /// backward-shift deletion): a lookup reads one cache line, where a
  /// node-based map reads a bucket and a node.
  class AppTable {
   public:
    /// kInvalidSlot when `app` is absent.
    FlowSlot find(noc::AppId app) const;
    /// `app` must be absent.
    void insert(noc::AppId app, FlowSlot slot);
    /// `app` must be present.
    void erase(noc::AppId app);
    std::size_t size() const { return size_; }

   private:
    struct Entry {
      noc::AppId app = 0;
      FlowSlot slot = kInvalidSlot;  // kInvalidSlot: empty
    };
    std::size_t home(noc::AppId app) const;
    std::size_t index_of(noc::AppId app) const;
    void grow();

    std::vector<Entry> table_;
    std::size_t size_ = 0;
  };

  // The fields a dirty-set BFS reads (seq, mark, links) come first, so a
  // visit touches the start of the struct only.
  struct FlowState {
    std::uint64_t seq = 0;        // admission order, never reused
    std::uint32_t mark = 0;       // BFS visitation epoch
    bool live = false;
    bool diverged = false;        // component hit the iteration cap
    bool chain_valid = false;     // `chain` holds the NoC chain
    InlineList<6> links;          // indices into links_
    std::optional<Time> bound;    // cached e2e bound
    nc::RateLatency chain;        // cached NoC chain (uses_dram only)
    core::AppRequirement req;     // committed route order
  };

  struct LinkState {
    std::uint32_t id : 31 = 0;    // packed link id (link_id())
    std::uint32_t pending : 1 = 0;  // listed in pending_links_
    std::uint32_t mark = 0;       // BFS visitation epoch
    InlineList<6> members;        // live members, ascending seq
  };

  /// One tentative evaluation: the dirty component(s) re-run cold, plus
  /// the DRAM-coupled bound refreshes. Nothing is committed until the
  /// decision passes (admit) or unconditionally (flush).
  struct Eval {
    std::vector<core::AppRequirement> flows;  // dirty reqs (+candidate last)
    bool converged = true;
    std::vector<std::optional<Time>> bounds;  // parallel to flows
    std::vector<nc::RateLatency> chains;      // NoC chains of dram flows
    std::vector<char> chain_ok;
    bool dram_refreshed = false;              // dram_clean lists them all
    std::vector<FlowSlot> dram_clean;         // clean dram flows re-bounded
    std::vector<std::optional<Time>> dram_clean_bounds;
  };

  void begin_mark();
  void seed(std::uint32_t l);  // mark and queue link l unless marked
  /// BFS over the membership graph from already-marked seed links; fills
  /// `out` with the (marked) reachable live flows, ascending seq.
  void dirty_closure(std::vector<FlowSlot>* out);
  /// Counts `dirty` into the totals. With `refresh_dram`, the clean DRAM
  /// flows are re-bounded against the tentative DRAM population too.
  void evaluate(const core::AppRequirement* candidate,
                const std::vector<FlowSlot>& dirty, bool refresh_dram,
                Eval* ev);
  /// Re-prove and commit the pending closure; with `dram`, re-bound the
  /// clean DRAM flows against the committed DRAM load too.
  void flush(bool dram);
  /// Empty string when every tentative flow keeps its guarantee; otherwise
  /// the exact batch rejection message (admission-order-first failure).
  std::string first_failure(const core::AppRequirement& req,
                            const core::AppRequirement* candidate,
                            const std::vector<FlowSlot>& dirty,
                            const Eval& ev) const;
  void apply_eval(const std::vector<FlowSlot>& dirty, Eval* ev);
  /// Cache a (re)proved bound and keep failing_seqs_ consistent with it.
  void set_bound(FlowSlot s, std::optional<Time> b);
  FlowSlot alloc_slot();
  /// Router, exit port and injection flag packed into one index below
  /// cols * rows * 16.
  static std::uint32_t link_id(const core::PathLink& l);
  std::uint32_t intern_link(const core::PathLink& l);

  core::E2eAnalysis analysis_;

  std::vector<FlowState> flows_;
  std::vector<FlowSlot> free_slots_;
  std::vector<LinkState> links_;
  std::vector<std::uint32_t> free_links_;
  /// links_ index of each live link by link_id(); kNoLink when not live.
  std::vector<std::uint32_t> link_by_id_;
  std::size_t live_links_ = 0;
  AppTable app_index_;
  /// The DRAM users in admission order (seq -> slot), so a refresh lists
  /// them in the order the rejection scan reports failures in.
  std::map<std::uint64_t, FlowSlot> dram_by_seq_;
  /// Exact bucket totals of the live DRAM users.
  core::DramLoad dram_load_;
  /// The pending set: links of flows released since the last re-proof
  /// (skipped once dead), and whether the DRAM load changed since.
  std::vector<std::uint32_t> pending_links_;
  bool pending_dram_ = false;
  /// Live flows whose cached bound misses (nullopt or past the deadline),
  /// seq -> slot — consulted so a decision can report the admission-order
  /// first failure without touching clean flows.
  std::map<std::uint64_t, FlowSlot> failing_seqs_;
  std::uint64_t diverged_count_ = 0;
  std::uint64_t next_seq_ = 1;

  // BFS visitation epoch (marks are epoch-tagged, so no per-decision
  // clearing).
  std::uint32_t epoch_ = 0;

  // Decision scratch, reused so a warm engine allocates little per call.
  std::vector<FlowSlot> dirty_;
  std::vector<core::PathLink> cand_links_;
  std::vector<std::uint32_t> bfs_stack_;
  Eval ev_;
  std::uint64_t marked_links_ = 0;

  EngineStats stats_;
};

}  // namespace pap::admit
