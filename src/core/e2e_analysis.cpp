#include "core/e2e_analysis.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace pap::core {

namespace {
constexpr int kMaxFixpointIters = 200;
constexpr double kBurstDivergenceCap = 1e7;  // packets; clearly unstable

/// Table hash of a DramResiduals key (two words), chained through
/// splitmix64's finalizer like propagate_flat's link table.
std::uint64_t hash_key(const std::uint64_t* key) {
  return splitmix64_mix(splitmix64_mix(key[0]) ^ key[1]);
}

/// The exact load of the uses_dram flows of `flows`.
DramLoad dram_load(const std::vector<AppRequirement>& flows) {
  DramLoad load;
  for (const auto& f : flows) {
    if (f.uses_dram) load.add(f.traffic);
  }
  return load;
}

}  // namespace

nc::RateLatency blind_residual(nc::RateLatency link, nc::TokenBucket cross) {
  const double rate = link.rate - cross.rate;
  if (rate <= 0.0) return nc::RateLatency{rate, 0.0};
  return nc::RateLatency{
      rate,
      link.latency + (cross.burst + cross.rate * link.latency) / rate};
}

double link_delay(nc::RateLatency link, double burst) {
  return link.latency + burst / link.rate;
}

std::optional<double> rate_latency_deviation(nc::TokenBucket alpha,
                                             nc::RateLatency beta) {
  // The deviation kernel's tolerance (nc/batch.cpp kEps): a rate within it
  // of 0 is flat, and an arrival rate within it above beta's still counts
  // as sustainable.
  constexpr double kEps = 1e-9;
  if (alpha.burst == 0.0 && alpha.rate == 0.0) return 0.0;
  if (beta.rate <= kEps || alpha.rate > beta.rate + kEps) return std::nullopt;
  return link_delay(beta, alpha.burst);
}

E2eAnalysis::E2eAnalysis(PlatformModel model)
    : model_(std::move(model)), mesh_(model_.noc.cols, model_.noc.rows) {}

double E2eAnalysis::link_rate(int flits) const {
  return 1.0 / (model_.noc.flit_time.nanos() * flits);
}

Time E2eAnalysis::hop_latency() const {
  return model_.noc.router_latency + model_.noc.flit_time;
}

void E2eAnalysis::links_into(const AppRequirement& req,
                             std::vector<PathLink>* out) const {
  out->resize(static_cast<std::size_t>(mesh_.hop_count(req.src, req.dst)) + 2);
  write_path(req, out->data());
}

void E2eAnalysis::write_path(const AppRequirement& req, PathLink* out) const {
  // The injection link, then Mesh2D::route's dimension-ordered walk, then
  // the ejection port at the destination.
  PAP_CHECK_MSG(static_cast<int>(req.src) < mesh_.num_nodes() &&
                    static_cast<int>(req.dst) < mesh_.num_nodes(),
                "flow endpoint outside the mesh");
  std::size_t w = 0;
  out[w++] = PathLink{noc::LinkId{req.src, noc::Direction::kLocal}, true};
  noc::NodeId at = req.src;
  int x = mesh_.x_of(req.src);
  int y = mesh_.y_of(req.src);
  const int dx = mesh_.x_of(req.dst);
  const int dy = mesh_.y_of(req.dst);
  const auto walk_x = [&] {
    while (x != dx) {
      const auto dir = x < dx ? noc::Direction::kEast : noc::Direction::kWest;
      out[w++] = PathLink{noc::LinkId{at, dir}, false};
      x += x < dx ? 1 : -1;
      at = mesh_.node(x, y);
    }
  };
  const auto walk_y = [&] {
    while (y != dy) {
      const auto dir = y < dy ? noc::Direction::kNorth : noc::Direction::kSouth;
      out[w++] = PathLink{noc::LinkId{at, dir}, false};
      y += y < dy ? 1 : -1;
      at = mesh_.node(x, y);
    }
  };
  if (req.route_order == noc::Mesh2D::RouteOrder::kXY) {
    walk_x();
    walk_y();
  } else {
    walk_y();
    walk_x();
  }
  out[w] = PathLink{noc::LinkId{at, noc::Direction::kLocal}, false};
}

void E2eAnalysis::e2e_bounds_into(const std::vector<AppRequirement>& flows,
                                  std::vector<std::optional<Time>>* out) const {
  // One arena rewind per decision; every curve below lives in the arena (or
  // on the stack) until the next call, so the steady state allocates
  // nothing.
  nc::Arena& arena = nc::thread_arena();
  arena.reset();
  out->clear();
  out->resize(flows.size());
  if (flows.empty()) return;
  const FlatPaths paths = flat_paths(flows, arena);
  const PropagatedFlat propagated = propagate_flat(flows, paths, arena);
  if (!propagated.converged) return;  // fixpoint diverged: nothing bounded
  DramResiduals residuals(*this, dram_load(flows), arena);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (propagated.flow_unbounded[i]) continue;
    const auto chain = chain_for(flows, i, propagated, paths);
    if (chain) (*out)[i] = bound_over_chain(flows[i], *chain, residuals, arena);
  }
}

E2eAnalysis::FlatPaths E2eAnalysis::flat_paths(
    const std::vector<AppRequirement>& flows, nc::Arena& arena) const {
  // links_into() for every flow, without the per-flow vectors: the path
  // length is known up front (injection + Manhattan hops + ejection), so
  // one arena block holds all paths and the route walk writes in place.
  const std::size_t nflows = flows.size();
  auto* off = arena.alloc<std::uint32_t>(nflows + 1);
  off[0] = 0;
  for (std::size_t f = 0; f < nflows; ++f) {
    const int hops = mesh_.hop_count(flows[f].src, flows[f].dst);
    off[f + 1] = off[f] + static_cast<std::uint32_t>(hops) + 2;
  }
  auto* links = arena.alloc<PathLink>(off[nflows]);
  for (std::size_t f = 0; f < nflows; ++f) write_path(flows[f], links + off[f]);
  return FlatPaths{links, off};
}

E2eAnalysis::PropagatedFlat E2eAnalysis::propagate_flat(
    const std::vector<AppRequirement>& flows, const FlatPaths& paths,
    nc::Arena& arena) const {
  // The link-delay / burst fixpoint described in the header, on flat arena
  // storage; the per-link delays are closed form (link_delay).
  const std::size_t nflows = flows.size();
  const std::uint32_t* off = paths.off;
  const std::uint32_t total = off[nflows];

  // Distinct links plus, per (flow, hop), the index of its link. Dedup is
  // an arena-backed open-addressing table (load factor <= 1/2) keyed on the
  // packed link id; indices are assigned in first-occurrence order, so
  // `links` matches a linear scan's output exactly in O(total).
  auto* links = arena.alloc<PathLink>(total);
  auto* link_of = arena.alloc<std::uint32_t>(total);
  std::uint32_t nlinks = 0;
  std::uint32_t cap = 16;
  while (cap < 2 * total) cap <<= 1;
  auto* table = arena.alloc<std::uint32_t>(cap);
  for (std::uint32_t i = 0; i < cap; ++i) table[i] = UINT32_MAX;
  for (std::uint32_t fh = 0; fh < total; ++fh) {
    const PathLink& l = paths.links[fh];
    // Router id, direction (3 bits) and the injection flag pack into one
    // word; splitmix64's finalizer spreads it over the table.
    const std::uint64_t key =
        splitmix64_mix((static_cast<std::uint64_t>(l.link.router) << 4) |
                       (static_cast<std::uint64_t>(l.link.out) << 1) |
                       (l.injection ? 1u : 0u));
    std::uint32_t slot = static_cast<std::uint32_t>(key) & (cap - 1);
    for (;;) {
      const std::uint32_t k = table[slot];
      if (k == UINT32_MAX) {
        table[slot] = nlinks;
        links[nlinks] = l;
        link_of[fh] = nlinks;
        ++nlinks;
        break;
      }
      if (links[k] == l) {
        link_of[fh] = k;
        break;
      }
      slot = (slot + 1) & (cap - 1);
    }
  }
  // users[l] as a flat CSR list, filled in global (flow, hop) order, so the
  // floating-point sums below accumulate in flow-set order.
  auto* users_off = arena.alloc<std::uint32_t>(nlinks + 1);
  for (std::uint32_t l = 0; l <= nlinks; ++l) users_off[l] = 0;
  for (std::uint32_t fh = 0; fh < total; ++fh) ++users_off[link_of[fh] + 1];
  for (std::uint32_t l = 0; l < nlinks; ++l) users_off[l + 1] += users_off[l];
  auto* users = arena.alloc<LinkUser>(total);
  {
    auto* fill = arena.alloc<std::uint32_t>(nlinks);
    for (std::uint32_t l = 0; l < nlinks; ++l) fill[l] = users_off[l];
    for (std::size_t f = 0; f < nflows; ++f) {
      for (std::uint32_t fh = off[f]; fh < off[f + 1]; ++fh) {
        users[fill[link_of[fh]]++] =
            LinkUser{static_cast<std::uint32_t>(f), fh};
      }
    }
  }

  PropagatedFlat out;
  out.link_of = link_of;
  out.users_off = users_off;
  out.users = users;
  out.bursts = arena.alloc<double>(total);
  out.flow_unbounded = arena.alloc<bool>(nflows);
  for (std::size_t f = 0; f < nflows; ++f) {
    out.flow_unbounded[f] = false;
    for (std::uint32_t fh = off[f]; fh < off[f + 1]; ++fh) {
      out.bursts[fh] = flows[f].traffic.burst;
    }
  }

  // Stability pre-check: aggregate flit rate below capacity on every link.
  auto* link_unstable = arena.alloc<bool>(nlinks);
  for (std::uint32_t l = 0; l < nlinks; ++l) {
    double flit_rate = 0.0;
    for (std::uint32_t u = users_off[l]; u < users_off[l + 1]; ++u) {
      const auto& fl = flows[users[u].flow];
      flit_rate += fl.traffic.rate * fl.flits_per_packet;
    }
    link_unstable[l] =
        flit_rate >= 1.0 / model_.noc.flit_time.nanos() - 1e-12;
  }

  // Link betas in flit units are rate-latency: one flit per flit_time;
  // router channels add the hop pipeline latency, the injection link only
  // its own serialization start. Against the links' token-bucket load the
  // deviation is closed form (link_delay), and the pre-check above leaves
  // only links with spare rate.
  const double beta_rate = 1.0 / model_.noc.flit_time.nanos();
  const double inj_latency = model_.noc.flit_time.nanos();
  const double hop_latency_ns = hop_latency().nanos();

  // Fixpoint: link delays from current bursts; bursts from prefix delays.
  auto* delay = arena.alloc<double>(nlinks);
  for (std::uint32_t l = 0; l < nlinks; ++l) delay[l] = 0.0;
  for (int iter = 0; iter < kMaxFixpointIters; ++iter) {
    bool changed = false;
    for (std::uint32_t l = 0; l < nlinks; ++l) {
      if (link_unstable[l]) continue;
      double burst_flits = 0.0;
      for (std::uint32_t u = users_off[l]; u < users_off[l + 1]; ++u) {
        burst_flits +=
            out.bursts[users[u].fh] * flows[users[u].flow].flits_per_packet;
      }
      const double d = link_delay(
          nc::RateLatency{beta_rate,
                          links[l].injection ? inj_latency : hop_latency_ns},
          burst_flits);
      if (d > delay[l] + 1e-9) {
        delay[l] = d;
        changed = true;
      }
    }
    for (std::size_t f = 0; f < nflows; ++f) {
      double prefix = 0.0;
      for (std::uint32_t fh = off[f]; fh < off[f + 1]; ++fh) {
        if (fh > off[f]) {
          const std::uint32_t l = link_of[fh - 1];
          if (link_unstable[l]) prefix = kBurstDivergenceCap;
          prefix += delay[l];
        }
        const double want =
            flows[f].traffic.burst + flows[f].traffic.rate * prefix;
        if (want > out.bursts[fh] + 1e-9) {
          out.bursts[fh] = std::min(want, kBurstDivergenceCap);
          changed = true;
        }
      }
    }
    if (!changed) {
      // Converged: flows crossing unstable links are unbounded.
      for (std::size_t f = 0; f < nflows; ++f) {
        for (std::uint32_t fh = off[f]; fh < off[f + 1]; ++fh) {
          if (link_unstable[link_of[fh]]) out.flow_unbounded[f] = true;
          if (out.bursts[fh] >= kBurstDivergenceCap) {
            out.flow_unbounded[f] = true;
          }
        }
      }
      out.converged = true;
      return out;
    }
  }
  // Did not converge: treat the whole set as unstable (conservative).
  out.converged = false;
  return out;
}

std::optional<nc::CurveView> E2eAnalysis::chain_view_for(
    const std::vector<AppRequirement>& flows, std::size_t self_idx,
    const PropagatedFlat& propagated, const FlatPaths& paths,
    nc::Arena& arena) const {
  const auto chain = chain_for(flows, self_idx, propagated, paths);
  if (!chain) return std::nullopt;
  return nc::rate_latency_view(arena, chain->rate, chain->latency);
}

std::optional<nc::RateLatency> E2eAnalysis::chain_for(
    const std::vector<AppRequirement>& flows, std::size_t self_idx,
    const PropagatedFlat& propagated, const FlatPaths& paths) const {
  // Per hop: the link guarantee in this flow's packet units, minus the
  // cross traffic with propagated (conservative) bursts normalised to this
  // flow's packet service time via the flit ratio. The cross traffic of a
  // hop is the link's user list, which is in (flow, hop) order: summing its
  // first entry per other flow is the flow-set-order sum. Link and cross
  // traffic stay rate-latency and token bucket, so each residual and the
  // chain are closed form (blind_residual).
  const AppRequirement& req = flows[self_idx];
  const std::uint32_t* off = paths.off;
  const double rate = link_rate(req.flits_per_packet);
  const double inj_latency = model_.noc.flit_time.nanos();
  const double hop_latency_ns = hop_latency().nanos();

  nc::RateLatency chain{rate, 0.0};
  for (std::uint32_t mh = off[self_idx]; mh < off[self_idx + 1]; ++mh) {
    nc::TokenBucket cross;
    const std::uint32_t l = propagated.link_of[mh];
    std::uint32_t prev_flow = UINT32_MAX;
    for (std::uint32_t u = propagated.users_off[l];
         u < propagated.users_off[l + 1]; ++u) {
      const LinkUser& user = propagated.users[u];
      if (user.flow == self_idx || user.flow == prev_flow) continue;
      prev_flow = user.flow;
      const AppRequirement& other = flows[user.flow];
      const double scale = static_cast<double>(other.flits_per_packet) /
                           static_cast<double>(req.flits_per_packet);
      cross.burst += propagated.bursts[user.fh] * scale;
      cross.rate += other.traffic.rate * scale;
    }
    const nc::RateLatency residual = blind_residual(
        nc::RateLatency{rate, paths.links[mh].injection ? inj_latency
                                                        : hop_latency_ns},
        cross);
    if (residual.rate <= 1e-15) return std::nullopt;  // saturated
    chain.rate = std::min(chain.rate, residual.rate);
    chain.latency += residual.latency;
  }
  return chain;
}

std::optional<Time> E2eAnalysis::bound_over_chain(const AppRequirement& req,
                                                  nc::RateLatency chain,
                                                  DramResiduals& dram,
                                                  nc::Arena& arena) const {
  std::optional<double> h;
  if (req.uses_dram) {
    const nc::CurveView service = nc::convolve_view(
        arena, nc::rate_latency_view(arena, chain.rate, chain.latency),
        dram.service_for(req));
    h = nc::h_deviation_view(
        nc::affine_view(arena, req.traffic.burst, req.traffic.rate), service);
  } else {
    h = rate_latency_deviation(req.traffic, chain);
  }
  if (!h) return std::nullopt;
  return Time::from_ns(*h);
}

E2eAnalysis::DramResiduals::DramResiduals(const E2eAnalysis& analysis,
                                          const DramLoad& load,
                                          nc::Arena& arena)
    : analysis_(analysis), load_(load), arena_(arena) {}

E2eAnalysis::DramResiduals::Entry* E2eAnalysis::DramResiduals::find_slot(
    const std::uint64_t* key) const {
  // Open addressing, linear probing; the load factor stays <= 1/2.
  std::uint32_t slot =
      static_cast<std::uint32_t>(hash_key(key)) & (cap_ - 1);
  for (;;) {
    Entry& e = slots_[slot];
    if (!e.used || std::equal(key, key + 2, e.key)) return &e;
    slot = (slot + 1) & (cap_ - 1);
  }
}

void E2eAnalysis::DramResiduals::grow() {
  // Start small — a contract-class population has a handful of buckets and
  // a one-shot lookup needs one — and double at half load. The old slots
  // stay in the arena until its next reset.
  const Entry* old = slots_;
  const std::uint32_t old_cap = cap_;
  cap_ = old_cap == 0 ? 16 : 2 * old_cap;
  slots_ = arena_.alloc<Entry>(cap_);
  for (std::uint32_t i = 0; i < cap_; ++i) slots_[i].used = false;
  for (std::uint32_t i = 0; i < old_cap; ++i) {
    if (old[i].used) *find_slot(old[i].key) = old[i];
  }
}

nc::CurveView E2eAnalysis::DramResiduals::service_for(
    const AppRequirement& user) {
  // Against one load a user's buckets are a function of its own bucket, so
  // that is the key: a repeat contract costs one probe.
  const std::uint64_t key[2] = {
      std::bit_cast<std::uint64_t>(user.traffic.burst),
      std::bit_cast<std::uint64_t>(user.traffic.rate)};
  if (cap_ == 0) grow();  // first lookup: a NoC-only pass never builds it
  Entry* e = find_slot(key);
  if (e->used) return e->service;
  if (2 * (used_ + 1) > cap_) {
    grow();
    e = find_slot(key);
  }
  std::copy(key, key + 2, e->key);
  e->service = analysis_.dram_residual(load_, &user.traffic, arena_);
  e->used = true;
  ++used_;
  return e->service;
}

nc::CurveView E2eAnalysis::dram_residual(const DramLoad& load,
                                         const nc::TokenBucket* self,
                                         nc::Arena& arena) const {
  // Aggregate write pressure at the controller: the background bucket plus
  // every other DRAM user's traffic (conservatively all of it counted as
  // writes for the batch interference — writes are the traffic class that
  // interrupts reads under FR-FCFS). The other users' reads occupy queue
  // positions ahead of ours: their bucket is subtracted from the aggregate
  // read service.
  const nc::TokenBucket own = self ? *self : nc::TokenBucket{0.0, 0.0};
  const nc::TokenBucket bg = model_.background_writes;
  const nc::TokenBucket writes{load.burst.value_with({-own.burst, bg.burst}),
                               load.rate.value_with({-own.rate, bg.rate})};
  dram::WcdAnalysis wcd(model_.dram, model_.dram_ctrl, writes);
  const nc::CurveView convex = nc::convex_minorant_view(
      arena, wcd.service_curve_view(model_.dram_service_depth, arena));
  if (load.users <= (self ? 1u : 0u)) return convex;  // no other user
  return nc::residual_blind_view(
      arena, convex,
      nc::affine_view(arena, load.burst.value_with({-own.burst}),
                      load.rate.value_with({-own.rate})));
}

nc::CurveView E2eAnalysis::dram_service_from(
    const AppRequirement& req, const AppRequirement* const* dram_flows,
    std::size_t n, nc::Arena& arena) const {
  // The other users' totals directly: one exact sum per coordinate.
  DramLoad others;
  for (std::size_t i = 0; i < n; ++i) {
    if (dram_flows[i]->app != req.app) others.add(dram_flows[i]->traffic);
  }
  return dram_residual(others, nullptr, arena);
}

std::optional<Time> E2eAnalysis::e2e_bound(
    const AppRequirement& req,
    const std::vector<AppRequirement>& others) const {
  // The flow set with `req` included: an entry of `others` with req's app
  // id is replaced by it, otherwise req is appended.
  std::vector<AppRequirement> flows;
  flows.reserve(others.size() + 1);
  std::size_t self_idx = others.size();
  for (const auto& o : others) {
    if (o.app == req.app) self_idx = flows.size();
    flows.push_back(o.app == req.app ? req : o);
  }
  if (self_idx == others.size()) {
    self_idx = flows.size();
    flows.push_back(req);
  }
  // The e2e_bounds_into pipeline for one index.
  nc::Arena& arena = nc::thread_arena();
  arena.reset();
  const FlatPaths paths = flat_paths(flows, arena);
  const PropagatedFlat propagated = propagate_flat(flows, paths, arena);
  if (!propagated.converged || propagated.flow_unbounded[self_idx]) {
    return std::nullopt;
  }
  const auto chain = chain_for(flows, self_idx, propagated, paths);
  if (!chain) return std::nullopt;
  DramResiduals residuals(*this, dram_load(flows), arena);
  return bound_over_chain(req, *chain, residuals, arena);
}

}  // namespace pap::core
