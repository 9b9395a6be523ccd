#include "admit/incremental.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "nc/batch.hpp"

namespace pap::admit {

namespace {

std::uint64_t mix_link(const core::PathLink& l) {
  return splitmix64_mix((static_cast<std::uint64_t>(l.link.router) << 4) |
                        (static_cast<std::uint64_t>(l.link.out) << 1) |
                        (l.injection ? 1u : 0u));
}

std::string saturated_msg(const std::string& newcomer,
                          const std::string& victim) {
  return "admitting '" + newcomer + "' would leave '" + victim +
         "' without a bounded end-to-end delay (resource saturated)";
}

std::string broken_msg(const std::string& newcomer, const std::string& victim,
                       Time bound, Time deadline) {
  return "admitting '" + newcomer + "' would break '" + victim + "': bound " +
         bound.to_string() + " > deadline " + deadline.to_string();
}

}  // namespace

std::size_t IncrementalAdmission::PathLinkHash::operator()(
    const core::PathLink& l) const {
  return static_cast<std::size_t>(mix_link(l));
}

IncrementalAdmission::IncrementalAdmission(core::PlatformModel model)
    : analysis_(std::move(model)) {}

void IncrementalAdmission::begin_mark() {
  ++epoch_;
  if (epoch_ == 0) {  // wrapped: clear every stale tag
    std::fill(flow_mark_.begin(), flow_mark_.end(), 0u);
    std::fill(link_mark_.begin(), link_mark_.end(), 0u);
    epoch_ = 1;
  }
  marked_links_ = 0;
  bfs_stack_.clear();
}

void IncrementalAdmission::dirty_closure(std::vector<FlowSlot>* out) {
  out->clear();
  while (!bfs_stack_.empty()) {
    const std::uint32_t l = bfs_stack_.back();
    bfs_stack_.pop_back();
    for (const FlowSlot s : links_[l].members) {
      if (flow_mark_[s] == epoch_) continue;
      flow_mark_[s] = epoch_;
      out->push_back(s);
      for (const std::uint32_t fl : flows_[s].links) {
        if (link_mark_[fl] != epoch_) {
          link_mark_[fl] = epoch_;
          ++marked_links_;
          bfs_stack_.push_back(fl);
        }
      }
    }
  }
  // Canonical (admission) order: the batch oracle's vector order, which
  // fixes the per-link floating-point summation order bit for bit.
  std::sort(out->begin(), out->end(), [this](FlowSlot a, FlowSlot b) {
    return flows_[a].seq < flows_[b].seq;
  });
}

void IncrementalAdmission::evaluate(const core::AppRequirement* candidate,
                                    const std::vector<FlowSlot>& dirty,
                                    bool dram_set_changed, Eval* ev) {
  nc::Arena& arena = nc::thread_arena();
  arena.reset();
  ev->flows.clear();
  ev->converged = true;
  ev->dram_clean.clear();
  ev->dram_clean_bounds.clear();
  for (const FlowSlot s : dirty) ev->flows.push_back(flows_[s].req);
  if (candidate) ev->flows.push_back(*candidate);
  const std::size_t n = ev->flows.size();
  ev->bounds.assign(n, std::nullopt);
  ev->chains.clear();
  ev->chains.resize(n);
  ev->chain_ok.assign(n, 0);

  bool any_dram = dram_set_changed;
  for (const auto& f : ev->flows) {
    if (any_dram) break;
    any_dram = f.uses_dram;
  }
  dram_ptrs_.clear();
  if (any_dram) {
    // The tentative uses_dram population in admission order: the exact
    // subsequence dram_service_view would filter out of the batch vector.
    for (const auto& [seq, s] : dram_by_seq_) dram_ptrs_.push_back(&flows_[s].req);
    if (candidate && candidate->uses_dram) dram_ptrs_.push_back(candidate);
  }

  if (n > 0) {
    const core::E2eAnalysis::FlatPaths paths =
        analysis_.flat_paths(ev->flows, arena);
    const core::E2eAnalysis::PropagatedFlat prop =
        analysis_.propagate_flat(ev->flows, paths, arena);
    if (!prop.converged) {
      ev->converged = false;
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        if (prop.flow_unbounded[i]) continue;
        const auto chain =
            analysis_.chain_view_for(ev->flows, i, prop, paths, arena);
        if (!chain) continue;
        nc::CurveView service = *chain;
        if (ev->flows[i].uses_dram) {
          const nc::CurveView dram =
              analysis_.dram_service_from(ev->flows[i], dram_ptrs_.data(),
                                          dram_ptrs_.size(), arena);
          service = nc::convolve_view(arena, *chain, dram);
          ev->chains[i] = nc::to_curve(*chain);
          ev->chain_ok[i] = 1;
        }
        const auto h = nc::h_deviation_view(
            nc::affine_view(arena, ev->flows[i].traffic.burst,
                            ev->flows[i].traffic.rate),
            service);
        if (h) ev->bounds[i] = Time::from_ns(*h);
      }
    }
  }

  if (dram_set_changed) {
    // The DRAM residual of every *clean* dram flow shifted under it; its
    // NoC component did not, so the cached chain convolved with the fresh
    // DRAM service reproduces the batch value exactly.
    for (const auto& [seq, s] : dram_by_seq_) {
      if (flow_mark_[s] == epoch_) continue;  // dirty: evaluated above
      flow_mark_[s] = epoch_;
      const FlowState& fs = flows_[s];
      std::optional<Time> b;
      if (fs.chain_valid) {
        const nc::CurveView chain = nc::to_view(arena, fs.chain);
        const nc::CurveView dram = analysis_.dram_service_from(
            fs.req, dram_ptrs_.data(), dram_ptrs_.size(), arena);
        const nc::CurveView service = nc::convolve_view(arena, chain, dram);
        const auto h = nc::h_deviation_view(
            nc::affine_view(arena, fs.req.traffic.burst, fs.req.traffic.rate),
            service);
        if (h) b = Time::from_ns(*h);
      }
      ev->dram_clean.push_back(s);
      ev->dram_clean_bounds.push_back(b);
    }
  }
}

std::string IncrementalAdmission::first_failure(
    const core::AppRequirement& req, const core::AppRequirement* candidate,
    const std::vector<FlowSlot>& dirty, const Eval& ev) const {
  std::uint64_t cleared = 0;
  if (ev.converged) {
    for (const FlowSlot s : dirty) {
      if (flows_[s].diverged) ++cleared;
    }
  }
  if (!ev.converged || diverged_count_ > cleared) {
    // The joint fixpoint hits the iteration cap, so the batch run proves
    // nothing for anyone: the scan fails on the admission-order first flow.
    const core::AppRequirement* first =
        by_seq_.empty() ? candidate : &flows_[by_seq_.begin()->second].req;
    return saturated_msg(req.name, first->name);
  }

  std::uint64_t best_seq = UINT64_MAX;
  std::optional<Time> best_bound;
  Time best_deadline;
  const std::string* best_name = nullptr;
  for (const std::uint64_t seq : failing_seqs_) {
    const FlowSlot s = by_seq_.find(seq)->second;
    if (flow_mark_[s] == epoch_) continue;  // re-evaluated in this attempt
    best_seq = seq;
    best_bound = flows_[s].bound;
    best_deadline = flows_[s].req.deadline;
    best_name = &flows_[s].req.name;
    break;
  }
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const FlowSlot s = dirty[i];
    if (flows_[s].seq >= best_seq) break;
    const auto& b = ev.bounds[i];
    if (!b || *b > flows_[s].req.deadline) {
      best_seq = flows_[s].seq;
      best_bound = b;
      best_deadline = flows_[s].req.deadline;
      best_name = &flows_[s].req.name;
      break;
    }
  }
  for (std::size_t k = 0; k < ev.dram_clean.size(); ++k) {
    const FlowSlot s = ev.dram_clean[k];
    if (flows_[s].seq >= best_seq) break;
    const auto& b = ev.dram_clean_bounds[k];
    if (!b || *b > flows_[s].req.deadline) {
      best_seq = flows_[s].seq;
      best_bound = b;
      best_deadline = flows_[s].req.deadline;
      best_name = &flows_[s].req.name;
      break;
    }
  }
  if (best_name) {
    return !best_bound
               ? saturated_msg(req.name, *best_name)
               : broken_msg(req.name, *best_name, *best_bound, best_deadline);
  }
  if (candidate) {
    const auto& b = ev.bounds.back();
    if (!b) return saturated_msg(req.name, candidate->name);
    if (*b > candidate->deadline) {
      return broken_msg(req.name, candidate->name, *b, candidate->deadline);
    }
  }
  return std::string();
}

void IncrementalAdmission::apply_eval(const std::vector<FlowSlot>& dirty,
                                      Eval* ev) {
  if (ev->converged) {
    for (std::size_t i = 0; i < dirty.size(); ++i) {
      FlowState& fs = flows_[dirty[i]];
      if (fs.diverged) {
        fs.diverged = false;
        --diverged_count_;
      }
      fs.chain_valid = ev->chain_ok[i] != 0;
      if (fs.chain_valid) fs.chain = std::move(ev->chains[i]);
      set_bound(fs, ev->bounds[i]);
    }
  } else {
    for (const FlowSlot s : dirty) {
      FlowState& fs = flows_[s];
      if (!fs.diverged) {
        fs.diverged = true;
        ++diverged_count_;
      }
      fs.chain_valid = false;
      set_bound(fs, std::nullopt);
    }
  }
  for (std::size_t k = 0; k < ev->dram_clean.size(); ++k) {
    // Chain untouched: only the DRAM residual moved.
    set_bound(flows_[ev->dram_clean[k]], ev->dram_clean_bounds[k]);
  }
}

void IncrementalAdmission::set_bound(FlowState& fs, std::optional<Time> b) {
  fs.bound = b;
  if (!b || *b > fs.req.deadline) {
    failing_seqs_.insert(fs.seq);
  } else {
    failing_seqs_.erase(fs.seq);
  }
}

FlowSlot IncrementalAdmission::alloc_slot() {
  if (!free_slots_.empty()) {
    const FlowSlot s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  const FlowSlot s = static_cast<FlowSlot>(flows_.size());
  flows_.emplace_back();
  flow_mark_.push_back(0);
  return s;
}

std::uint32_t IncrementalAdmission::intern_link(const core::PathLink& l) {
  const auto it = link_index_.find(l);
  if (it != link_index_.end()) return it->second;
  std::uint32_t idx;
  if (!free_links_.empty()) {
    idx = free_links_.back();
    free_links_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(links_.size());
    links_.emplace_back();
    link_mark_.push_back(0);
  }
  links_[idx].key = l;
  links_[idx].live = true;
  links_[idx].members.clear();
  link_index_.emplace(l, idx);
  return idx;
}

Expected<core::AdmissionGrant> IncrementalAdmission::request(
    const core::AppRequirement& req) {
  if (app_index_.count(req.app) != 0) {
    ++stats_.rejections;
    return Expected<core::AdmissionGrant>::error(
        "app " + std::to_string(req.app) + " already admitted");
  }

  // Route computation (Sec. IV), mirrored from the batch controller: the
  // requested dimension order first, then the flipped order.
  std::string first_error;
  for (int attempt = 0; attempt < 2; ++attempt) {
    core::AppRequirement candidate = req;
    if (attempt == 1) {
      candidate.route_order = req.route_order == noc::Mesh2D::RouteOrder::kXY
                                  ? noc::Mesh2D::RouteOrder::kYX
                                  : noc::Mesh2D::RouteOrder::kXY;
    }
    const std::vector<core::PathLink> cand_links =
        analysis_.links_of(candidate);

    begin_mark();
    for (const core::PathLink& l : cand_links) {
      const auto it = link_index_.find(l);
      if (it == link_index_.end()) continue;
      if (link_mark_[it->second] == epoch_) continue;
      link_mark_[it->second] = epoch_;
      ++marked_links_;
      bfs_stack_.push_back(it->second);
    }
    dirty_closure(&dirty_);
    stats_.last_dirty_flows = dirty_.size();
    stats_.last_dirty_links = marked_links_;
    stats_.dirty_flows_total += dirty_.size();
    stats_.dirty_links_total += marked_links_;

    evaluate(&candidate, dirty_, candidate.uses_dram, &ev_);
    std::string error = first_failure(req, &candidate, dirty_, ev_);
    if (!error.empty()) {
      if (attempt == 0) first_error = std::move(error);
      continue;
    }

    // Commit: the dirty component's refreshed state, then the newcomer.
    apply_eval(dirty_, &ev_);
    const FlowSlot s = alloc_slot();
    FlowState& fs = flows_[s];
    fs.req = candidate;
    fs.seq = next_seq_++;
    fs.live = true;
    fs.diverged = false;
    fs.links.clear();
    for (const core::PathLink& l : cand_links) {
      const std::uint32_t idx = intern_link(l);
      fs.links.push_back(idx);
      links_[idx].members.push_back(s);  // max seq: list stays sorted
    }
    fs.chain_valid = ev_.chain_ok.back() != 0;
    if (fs.chain_valid) fs.chain = std::move(ev_.chains.back());
    set_bound(fs, ev_.bounds.back());
    app_index_.emplace(candidate.app, s);
    by_seq_.emplace(fs.seq, s);
    if (candidate.uses_dram) dram_by_seq_.emplace(fs.seq, s);

    ++stats_.admissions;
    core::AdmissionGrant grant;
    grant.app = req.app;
    grant.noc_shaper = req.traffic;
    grant.e2e_bound = *fs.bound;
    grant.route_order = candidate.route_order;
    return grant;
  }
  ++stats_.rejections;
  return Expected<core::AdmissionGrant>::error(first_error +
                                               " (alternate route also fails)");
}

Status IncrementalAdmission::release(noc::AppId app) {
  const auto it = app_index_.find(app);
  if (it == app_index_.end()) {
    return Status::error("app " + std::to_string(app) + " not admitted");
  }
  const FlowSlot slot = it->second;

  begin_mark();
  flow_mark_[slot] = epoch_;  // the leaver is not part of the dirty set
  for (const std::uint32_t idx : flows_[slot].links) {
    if (link_mark_[idx] == epoch_) continue;
    link_mark_[idx] = epoch_;
    ++marked_links_;
    bfs_stack_.push_back(idx);
  }
  dirty_closure(&dirty_);
  stats_.last_dirty_flows = dirty_.size();
  stats_.last_dirty_links = marked_links_;
  stats_.dirty_flows_total += dirty_.size();
  stats_.dirty_links_total += marked_links_;

  const bool dram_changed = flows_[slot].req.uses_dram;

  // Unregister before re-proving: the evaluation must see the post-release
  // flow set (and the post-release DRAM population).
  FlowState& fs = flows_[slot];
  for (const std::uint32_t idx : fs.links) {
    auto& members = links_[idx].members;
    members.erase(std::find(members.begin(), members.end(), slot));
    if (members.empty()) {
      link_index_.erase(links_[idx].key);
      links_[idx].live = false;
      free_links_.push_back(idx);
    }
  }
  app_index_.erase(it);
  by_seq_.erase(fs.seq);
  if (dram_changed) dram_by_seq_.erase(fs.seq);
  failing_seqs_.erase(fs.seq);
  if (fs.diverged) --diverged_count_;
  fs.live = false;
  fs.diverged = false;
  fs.chain_valid = false;
  fs.chain = nc::Curve();
  fs.bound.reset();
  fs.links.clear();
  fs.req = core::AppRequirement{};
  free_slots_.push_back(slot);

  evaluate(nullptr, dirty_, dram_changed, &ev_);
  apply_eval(dirty_, &ev_);
  ++stats_.releases;
  return Status::ok();
}

std::optional<Time> IncrementalAdmission::current_bound(noc::AppId app) const {
  const auto it = app_index_.find(app);
  if (it == app_index_.end()) return std::nullopt;
  // A diverged component anywhere makes the global fixpoint miss its
  // iteration cap, which the batch analysis reports as "nothing provable".
  if (diverged_count_ > 0) return std::nullopt;
  return flows_[it->second].bound;
}

bool IncrementalAdmission::contains(noc::AppId app) const {
  return app_index_.count(app) != 0;
}

std::vector<core::AppRequirement> IncrementalAdmission::flows() const {
  std::vector<core::AppRequirement> out;
  out.reserve(by_seq_.size());
  for (const auto& [seq, s] : by_seq_) out.push_back(flows_[s].req);
  return out;
}

EngineStats IncrementalAdmission::stats() const {
  EngineStats s = stats_;
  s.live_flows = app_index_.size();
  s.live_links = link_index_.size();
  s.diverged_flows = diverged_count_;
  return s;
}

}  // namespace pap::admit
