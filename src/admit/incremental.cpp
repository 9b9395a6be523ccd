#include "admit/incremental.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "nc/batch.hpp"

namespace pap::admit {

namespace {

constexpr std::uint32_t kNoLink = 0xffffffffu;

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

std::size_t IncrementalAdmission::AppTable::home(noc::AppId app) const {
  return static_cast<std::size_t>(splitmix64_mix(app)) & (table_.size() - 1);
}

std::size_t IncrementalAdmission::AppTable::index_of(noc::AppId app) const {
  std::size_t i = home(app);
  while (table_[i].slot != kInvalidSlot && table_[i].app != app) {
    i = (i + 1) & (table_.size() - 1);
  }
  return i;
}

FlowSlot IncrementalAdmission::AppTable::find(noc::AppId app) const {
  return table_.empty() ? kInvalidSlot : table_[index_of(app)].slot;
}

void IncrementalAdmission::AppTable::insert(noc::AppId app, FlowSlot slot) {
  if (2 * (size_ + 1) > table_.size()) grow();
  table_[index_of(app)] = Entry{app, slot};
  ++size_;
}

void IncrementalAdmission::AppTable::erase(noc::AppId app) {
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless their home lies cyclically in (hole, entry].
  const std::size_t mask = table_.size() - 1;
  std::size_t hole = index_of(app);
  for (std::size_t j = (hole + 1) & mask; table_[j].slot != kInvalidSlot;
       j = (j + 1) & mask) {
    const std::size_t k = home(table_[j].app);
    const bool stays = hole < j ? (hole < k && k <= j) : (hole < k || k <= j);
    if (stays) continue;
    table_[hole] = table_[j];
    hole = j;
  }
  table_[hole].slot = kInvalidSlot;
  --size_;
}

void IncrementalAdmission::AppTable::grow() {
  std::vector<Entry> old = std::move(table_);
  table_.assign(old.empty() ? 16 : 2 * old.size(), Entry{});
  for (const Entry& e : old) {
    if (e.slot != kInvalidSlot) table_[index_of(e.app)] = e;
  }
}

IncrementalAdmission::IncrementalAdmission(core::PlatformModel model)
    : analysis_(std::move(model)),
      link_by_id_(static_cast<std::size_t>(analysis_.model().noc.cols) *
                      static_cast<std::size_t>(analysis_.model().noc.rows) *
                      16,
                  kNoLink) {}

std::uint32_t IncrementalAdmission::link_id(const core::PathLink& l) {
  return (l.link.router << 4) | (static_cast<std::uint32_t>(l.link.out) << 1) |
         (l.injection ? 1u : 0u);
}

void IncrementalAdmission::begin_mark() {
  ++epoch_;
  if (epoch_ == 0) {  // wrapped: clear every stale tag
    for (FlowState& fs : flows_) fs.mark = 0;
    for (LinkState& ls : links_) ls.mark = 0;
    epoch_ = 1;
  }
  marked_links_ = 0;
  bfs_stack_.clear();
}

void IncrementalAdmission::seed(std::uint32_t l) {
  if (links_[l].mark == epoch_) return;
  links_[l].mark = epoch_;
  ++marked_links_;
  bfs_stack_.push_back(l);
}

void IncrementalAdmission::dirty_closure(std::vector<FlowSlot>* out) {
  out->clear();
  while (!bfs_stack_.empty()) {
    const std::uint32_t l = bfs_stack_.back();
    bfs_stack_.pop_back();
    for (const FlowSlot s : links_[l].members) {
      if (flows_[s].mark == epoch_) continue;
      flows_[s].mark = epoch_;
      out->push_back(s);
      for (const std::uint32_t fl : flows_[s].links) seed(fl);
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
                                    bool refresh_dram, Eval* ev) {
  stats_.dirty_flows_total += dirty.size();
  stats_.dirty_links_total += marked_links_;
  nc::Arena& arena = nc::thread_arena();
  arena.reset();
  ev->flows.clear();
  ev->converged = true;
  ev->dram_refreshed = refresh_dram;
  ev->dram_clean.clear();
  ev->dram_clean_bounds.clear();
  for (const FlowSlot s : dirty) ev->flows.push_back(flows_[s].req);
  if (candidate) ev->flows.push_back(*candidate);
  const std::size_t n = ev->flows.size();
  ev->bounds.assign(n, std::nullopt);
  ev->chains.assign(n, nc::RateLatency{});
  ev->chain_ok.assign(n, 0);

  // One residual table over the tentative DRAM population for the dirty
  // loop and the clean-DRAM refresh: every DRAM user of a contract class
  // shares one curve pipeline.
  core::DramLoad load = dram_load_;
  if (candidate && candidate->uses_dram) load.add(candidate->traffic);
  core::E2eAnalysis::DramResiduals dram(analysis_, load, arena);

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
        const auto chain = analysis_.chain_for(ev->flows, i, prop, paths);
        if (!chain) continue;
        if (ev->flows[i].uses_dram) {
          ev->chains[i] = *chain;
          ev->chain_ok[i] = 1;
        }
        ev->bounds[i] =
            analysis_.bound_over_chain(ev->flows[i], *chain, dram, arena);
      }
    }
  }

  if (refresh_dram) {
    // The DRAM residual of every *clean* dram flow shifted under it; its
    // NoC component did not, so the cached chain over the fresh DRAM
    // service reproduces the batch value exactly.
    for (const auto& [seq, s] : dram_by_seq_) {
      FlowState& fs = flows_[s];
      if (fs.mark == epoch_) continue;  // dirty: evaluated above
      fs.mark = epoch_;
      ev->dram_clean.push_back(s);
      ev->dram_clean_bounds.push_back(
          fs.chain_valid
              ? analysis_.bound_over_chain(fs.req, fs.chain, dram, arena)
              : std::nullopt);
    }
  }
}

void IncrementalAdmission::flush(bool dram) {
  if (pending_links_.empty() && !(dram && pending_dram_)) return;
  begin_mark();
  for (const std::uint32_t l : pending_links_) {
    if (!links_[l].members.empty()) seed(l);  // else died in a later release
  }
  dirty_closure(&dirty_);
  evaluate(nullptr, dirty_, dram && pending_dram_, &ev_);
  apply_eval(dirty_, &ev_);
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
    // Rare, so the admission-order first live flow is found by a scan.
    const core::AppRequirement* first = candidate;
    std::uint64_t first_seq = UINT64_MAX;
    for (const FlowState& fs : flows_) {
      if (fs.live && fs.seq < first_seq) {
        first_seq = fs.seq;
        first = &fs.req;
      }
    }
    return saturated_msg(req.name, first->name);
  }

  // The first clean failure on record, unless a re-evaluated flow fails
  // before it; the dirty and the re-bounded clean DRAM flows ascend in seq.
  FlowSlot best = kInvalidSlot;
  std::optional<Time> best_bound;
  for (const auto& [seq, s] : failing_seqs_) {
    if (flows_[s].mark == epoch_) continue;  // re-evaluated in this attempt
    best = s;
    best_bound = flows_[s].bound;
    break;
  }
  const auto scan = [&](const std::vector<FlowSlot>& slots,
                        const std::vector<std::optional<Time>>& bounds) {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const FlowState& fs = flows_[slots[i]];
      if (best != kInvalidSlot && fs.seq >= flows_[best].seq) return;
      if (!bounds[i] || *bounds[i] > fs.req.deadline) {
        best = slots[i];
        best_bound = bounds[i];
        return;
      }
    }
  };
  scan(dirty, ev.bounds);
  scan(ev.dram_clean, ev.dram_clean_bounds);
  if (best != kInvalidSlot) {
    const core::AppRequirement& victim = flows_[best].req;
    return !best_bound ? saturated_msg(req.name, victim.name)
                       : broken_msg(req.name, victim.name, *best_bound,
                                    victim.deadline);
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
      fs.chain = ev->chains[i];
      set_bound(dirty[i], ev->bounds[i]);
    }
  } else {
    for (const FlowSlot s : dirty) {
      FlowState& fs = flows_[s];
      if (!fs.diverged) {
        fs.diverged = true;
        ++diverged_count_;
      }
      fs.chain_valid = false;
      set_bound(s, std::nullopt);
    }
  }
  for (std::size_t k = 0; k < ev->dram_clean.size(); ++k) {
    // Chain untouched: only the DRAM residual moved.
    set_bound(ev->dram_clean[k], ev->dram_clean_bounds[k]);
  }
  if (ev->dram_refreshed) pending_dram_ = false;
  // Both callers evaluate a closure that contains the pending one.
  for (const std::uint32_t idx : pending_links_) links_[idx].pending = 0;
  pending_links_.clear();
}

void IncrementalAdmission::set_bound(FlowSlot s, std::optional<Time> b) {
  FlowState& fs = flows_[s];
  fs.bound = b;
  if (!b || *b > fs.req.deadline) {
    failing_seqs_.emplace(fs.seq, s);
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
  return s;
}

std::uint32_t IncrementalAdmission::intern_link(const core::PathLink& l) {
  const std::uint32_t id = link_id(l);
  if (link_by_id_[id] != kNoLink) return link_by_id_[id];
  std::uint32_t idx;
  if (!free_links_.empty()) {
    idx = free_links_.back();
    free_links_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(links_.size());
    links_.emplace_back();
  }
  links_[idx].id = id;
  links_[idx].members.clear();
  link_by_id_[id] = idx;
  ++live_links_;
  return idx;
}

Expected<core::AdmissionGrant> IncrementalAdmission::request(
    const core::AppRequirement& req) {
  if (app_index_.find(req.app) != kInvalidSlot) {
    ++stats_.rejections;
    return Expected<core::AdmissionGrant>::error(
        "app " + std::to_string(req.app) + " already admitted");
  }

  const std::uint64_t flows_before = stats_.dirty_flows_total;
  const std::uint64_t links_before = stats_.dirty_links_total;
  const auto note_work = [&] {
    stats_.last_dirty_flows = stats_.dirty_flows_total - flows_before;
    stats_.last_dirty_links = stats_.dirty_links_total - links_before;
  };
  const auto candidate_closure = [this] {
    begin_mark();
    for (const core::PathLink& l : cand_links_) {
      const std::uint32_t idx = link_by_id_[link_id(l)];
      if (idx != kNoLink) seed(idx);
    }
    dirty_closure(&dirty_);
  };

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
    analysis_.links_into(candidate, &cand_links_);

    // A closure that covers the pending one re-proves it in this
    // evaluation; otherwise the pending closure is committed on its own
    // first (the flush reuses the marks, so the closure is redone).
    candidate_closure();
    if (!std::all_of(pending_links_.begin(), pending_links_.end(),
                     [this](std::uint32_t l) {
                       return links_[l].members.empty() ||
                              links_[l].mark == epoch_;
                     })) {
      flush(/*dram=*/false);
      candidate_closure();
    }

    // A DRAM newcomer shifts every DRAM residual; a stale refresh left by
    // a release is due before any decision reads the bounds.
    evaluate(&candidate, dirty_, candidate.uses_dram || pending_dram_, &ev_);
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
    for (const core::PathLink& l : cand_links_) {
      const std::uint32_t idx = intern_link(l);
      fs.links.push_back(idx);
      links_[idx].members.push_back(s);  // max seq: list stays sorted
    }
    fs.chain_valid = ev_.chain_ok.back() != 0;
    fs.chain = ev_.chains.back();
    set_bound(s, ev_.bounds.back());
    app_index_.insert(candidate.app, s);
    if (candidate.uses_dram) {
      dram_by_seq_.emplace(fs.seq, s);
      dram_load_.add(candidate.traffic);
    }

    ++stats_.admissions;
    note_work();
    core::AdmissionGrant grant;
    grant.app = req.app;
    grant.noc_shaper = req.traffic;
    grant.e2e_bound = *fs.bound;
    grant.route_order = candidate.route_order;
    return grant;
  }
  // Rejected: nothing was committed, so the pending closure (if both
  // attempts folded it) is still owed; commit it now, once.
  flush(/*dram=*/false);
  ++stats_.rejections;
  note_work();
  return Expected<core::AdmissionGrant>::error(first_error +
                                               " (alternate route also fails)");
}

Status IncrementalAdmission::release(noc::AppId app) {
  const FlowSlot slot = app_index_.find(app);
  if (slot == kInvalidSlot) {
    return Status::error("app " + std::to_string(app) + " not admitted");
  }

  // Unregister only: a release can break no guarantee, so the leaver's
  // component is re-proved by whatever reads it next.
  FlowState& fs = flows_[slot];
  for (const std::uint32_t idx : fs.links) {
    LinkState& ls = links_[idx];
    ls.members.erase(slot);
    if (ls.members.empty()) {
      link_by_id_[ls.id] = kNoLink;
      --live_links_;
      free_links_.push_back(idx);
    } else if (!ls.pending) {
      ls.pending = 1;
      pending_links_.push_back(idx);
    }
  }
  app_index_.erase(app);
  if (fs.req.uses_dram) {
    dram_by_seq_.erase(fs.seq);
    dram_load_.remove(fs.req.traffic);
    pending_dram_ = true;
  }
  failing_seqs_.erase(fs.seq);
  if (fs.diverged) --diverged_count_;
  fs.live = false;  // a commit re-initialises every other field on reuse
  free_slots_.push_back(slot);

  stats_.last_dirty_flows = 0;
  stats_.last_dirty_links = 0;
  ++stats_.releases;
  return Status::ok();
}

std::optional<Time> IncrementalAdmission::current_bound(noc::AppId app) {
  const FlowSlot slot = app_index_.find(app);
  if (slot == kInvalidSlot) return std::nullopt;
  flush(flows_[slot].req.uses_dram);
  // A diverged component anywhere makes the global fixpoint miss its
  // iteration cap, which the batch analysis reports as "nothing provable".
  if (diverged_count_ > 0) return std::nullopt;
  return flows_[slot].bound;
}

bool IncrementalAdmission::contains(noc::AppId app) const {
  return app_index_.find(app) != kInvalidSlot;
}

std::vector<core::AppRequirement> IncrementalAdmission::flows() const {
  std::vector<FlowSlot> live;
  live.reserve(app_index_.size());
  for (FlowSlot s = 0; s < flows_.size(); ++s) {
    if (flows_[s].live) live.push_back(s);
  }
  std::sort(live.begin(), live.end(), [this](FlowSlot a, FlowSlot b) {
    return flows_[a].seq < flows_[b].seq;
  });
  std::vector<core::AppRequirement> out;
  out.reserve(live.size());
  for (const FlowSlot s : live) out.push_back(flows_[s].req);
  return out;
}

EngineStats IncrementalAdmission::stats() {
  flush(/*dram=*/false);
  EngineStats s = stats_;
  s.live_flows = app_index_.size();
  s.live_links = live_links_;
  s.diverged_flows = diverged_count_;
  return s;
}

}  // namespace pap::admit
