// End-to-end admission control (Section V, Fig. 6).
//
// "Admission control can be used as an alternative method to provide
// applications with a global resource arbitration. It allows to decouple
// the data layer where transmission is performed, from the control layer
// responsible for allocation and arbitration of available resources. ...
// Whenever an application is granted admission, E2E access allocation of a
// sequence of shared network and memory resources is achieved."
//
// The controller admits an application iff, *with the newcomer included*,
// every admitted application still has a proven end-to-end delay bound
// within its deadline — computed with the compositional NC analysis of
// e2e_analysis.hpp. On admission it returns the shaper parameters every
// enforcement point must be programmed with (the rates the RM distributes
// via confMsg).
//
// Two engines prove the same decisions (docs/admission.md):
//  * kBatch re-proves every admitted flow per decision with one
//    E2eAnalysis::e2e_bounds_into pass — O(flows) per decision, simple,
//    and the oracle the incremental engine is tested against;
//  * kIncremental keeps converged fixpoint state resident and re-proves
//    only the decision's dirty component (admit::IncrementalAdmission) —
//    bounded per-decision work under churn, decision-identical and
//    bound-ps-exact versus the batch path.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "admit/incremental.hpp"
#include "common/status.hpp"
#include "core/e2e_analysis.hpp"
#include "core/qos_spec.hpp"

namespace pap::core {

enum class AdmissionEngine {
  kBatch,        ///< full re-proof per decision (the oracle)
  kIncremental,  ///< dirty-component re-proof (admit::IncrementalAdmission)
};

class AdmissionController {
 public:
  explicit AdmissionController(PlatformModel model,
                               AdmissionEngine engine = AdmissionEngine::kBatch);

  /// Try to admit `req`. On success the grant is recorded and returned;
  /// on failure the error names the application whose guarantee would
  /// break (possibly the newcomer itself).
  Expected<AdmissionGrant> request(const AppRequirement& req);

  /// Release a previously admitted application (terMsg processing).
  Status release(noc::AppId app);

  /// Bound of an admitted app under the current mix — the value the last
  /// full analysis proved, served from the decision cache (no re-analysis;
  /// the incremental engine may first re-prove what releases left
  /// pending).
  std::optional<Time> current_bound(noc::AppId app);

  /// Admitted applications in admission order. O(1) on the batch engine;
  /// the incremental engine gathers its resident state on each call.
  const std::vector<AppRequirement>& admitted() const;

  const E2eAnalysis& analysis() const {
    return incremental_ ? incremental_->analysis() : analysis_;
  }

  AdmissionEngine engine() const {
    return incremental_ ? AdmissionEngine::kIncremental
                        : AdmissionEngine::kBatch;
  }

  /// The incremental engine, for stats introspection; null on kBatch.
  /// Mutable, because IncrementalAdmission::stats() first re-proves what
  /// releases left pending.
  admit::IncrementalAdmission* incremental() const {
    return incremental_.get();
  }

  /// Number of currently admitted applications. O(1) on both engines.
  std::size_t size() const {
    return incremental_ ? incremental_->size() : admitted_.size();
  }

  std::uint64_t admissions() const {
    return incremental_ ? incremental_->stats().admissions : admissions_;
  }
  std::uint64_t rejections() const {
    return incremental_ ? incremental_->stats().rejections : rejections_;
  }

 private:
  E2eAnalysis analysis_;
  std::unique_ptr<admit::IncrementalAdmission> incremental_;  // kIncremental
  std::vector<AppRequirement> admitted_;
  /// App-id -> position in admitted_, so duplicate checks, release and
  /// current_bound never scan the admitted vector.
  std::unordered_map<noc::AppId, std::size_t> index_;
  /// Bounds of admitted_ under the current mix: the tentative bounds of
  /// the last successful admission, refreshed on release. Parallel to
  /// admitted_.
  std::vector<std::optional<Time>> admitted_bounds_;
  /// Decision scratch, reused across request() calls so a warm controller
  /// allocates nothing per decision (the analysis itself runs on the
  /// calling thread's nc::Arena — see E2eAnalysis::e2e_bounds_into).
  std::vector<AppRequirement> tentative_;
  std::vector<std::optional<Time>> bounds_;
  mutable std::vector<AppRequirement> gathered_;  // admitted() on kIncremental
  std::uint64_t admissions_ = 0;
  std::uint64_t rejections_ = 0;
};

}  // namespace pap::core
