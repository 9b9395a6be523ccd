#include "core/e2e_analysis.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace pap::core {

namespace {
constexpr int kMaxFixpointIters = 200;
constexpr double kBurstDivergenceCap = 1e7;  // packets; clearly unstable

/// Stack storage for the tiny (<= 2 segment) curves the fixpoint builds in
/// its inner loop — token-bucket arrivals and rate-latency link betas. Using
/// the stack instead of the arena keeps the arena from growing with the
/// iteration count.
struct SmallCurve {
  double x[2];
  double y[2];
  double s[2];
  nc::MutCurveView mut() { return nc::MutCurveView{x, y, s, 0, 2}; }
};

/// nc::affine_view on stack storage.
nc::CurveView affine_into(SmallCurve& buf, double value0, double slope) {
  nc::MutCurveView m = buf.mut();
  m.x[0] = 0.0;
  m.y[0] = value0;
  m.slope[0] = slope;
  m.n = 1;
  nc::normalize_view(&m);
  return m;
}

/// nc::rate_latency_view on stack storage.
nc::CurveView rate_latency_into(SmallCurve& buf, double rate, double latency) {
  PAP_CHECK(rate >= 0.0 && latency >= 0.0);
  if (latency <= 0.0) return affine_into(buf, 0.0, rate);
  nc::MutCurveView m = buf.mut();
  m.x[0] = 0.0;
  m.y[0] = 0.0;
  m.slope[0] = 0.0;
  m.x[1] = latency;
  m.y[1] = 0.0;
  m.slope[1] = rate;
  m.n = 2;
  nc::normalize_view(&m);
  return m;
}

/// The delay bound of `req` given its residual NoC chain: the chain is
/// convolved with the DRAM residual under the DRAM users of `flows` when
/// req uses the DRAM (both are convex), then bounded by the horizontal
/// deviation against req's token bucket.
std::optional<Time> bound_over_chain(const E2eAnalysis& analysis,
                                     const AppRequirement& req,
                                     nc::CurveView chain,
                                     const std::vector<AppRequirement>& flows,
                                     nc::Arena& arena) {
  nc::CurveView service = chain;
  if (req.uses_dram) {
    service = nc::convolve_view(arena, service,
                                analysis.dram_service_view(req, flows, arena));
  }
  SmallCurve abuf;
  const auto h = nc::h_deviation_view(
      affine_into(abuf, req.traffic.burst, req.traffic.rate), service);
  if (!h) return std::nullopt;
  return Time::from_ns(*h);
}

}  // namespace

E2eAnalysis::E2eAnalysis(PlatformModel model)
    : model_(std::move(model)), mesh_(model_.noc.cols, model_.noc.rows) {}

double E2eAnalysis::link_rate(int flits) const {
  return 1.0 / (model_.noc.flit_time.nanos() * flits);
}

Time E2eAnalysis::hop_latency() const {
  return model_.noc.router_latency + model_.noc.flit_time;
}

std::vector<PathLink> E2eAnalysis::links_of(const AppRequirement& req) const {
  std::vector<PathLink> out;
  out.push_back(PathLink{noc::LinkId{req.src, noc::Direction::kLocal}, true});
  noc::NodeId at = req.src;
  for (const auto dir : mesh_.route(req.src, req.dst, req.route_order)) {
    out.push_back(PathLink{noc::LinkId{at, dir}, false});
    if (dir != noc::Direction::kLocal) at = mesh_.neighbor(at, dir);
  }
  return out;
}

std::vector<std::optional<Time>> E2eAnalysis::e2e_bounds(
    const std::vector<AppRequirement>& flows) const {
  std::vector<std::optional<Time>> out;
  e2e_bounds_into(flows, &out);
  return out;
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
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (propagated.flow_unbounded[i]) continue;
    const auto chain = chain_view_for(flows, i, propagated, paths, arena);
    if (chain) (*out)[i] = bound_over_chain(*this, flows[i], *chain, flows, arena);
  }
}

E2eAnalysis::FlatPaths E2eAnalysis::flat_paths(
    const std::vector<AppRequirement>& flows, nc::Arena& arena) const {
  // links_of() for every flow, without the per-flow vectors: the path
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
  for (std::size_t f = 0; f < nflows; ++f) {
    const AppRequirement& req = flows[f];
    std::uint32_t w = off[f];
    links[w++] = PathLink{noc::LinkId{req.src, noc::Direction::kLocal}, true};
    noc::NodeId at = req.src;
    // Mirror of Mesh2D::route + links_of's walk.
    int x = mesh_.x_of(req.src);
    int y = mesh_.y_of(req.src);
    const int dx = mesh_.x_of(req.dst);
    const int dy = mesh_.y_of(req.dst);
    const auto walk_x = [&] {
      while (x != dx) {
        const auto dir = x < dx ? noc::Direction::kEast : noc::Direction::kWest;
        links[w++] = PathLink{noc::LinkId{at, dir}, false};
        at = mesh_.neighbor(at, dir);
        x += x < dx ? 1 : -1;
      }
    };
    const auto walk_y = [&] {
      while (y != dy) {
        const auto dir =
            y < dy ? noc::Direction::kNorth : noc::Direction::kSouth;
        links[w++] = PathLink{noc::LinkId{at, dir}, false};
        at = mesh_.neighbor(at, dir);
        y += y < dy ? 1 : -1;
      }
    };
    if (req.route_order == noc::Mesh2D::RouteOrder::kXY) {
      walk_x();
      walk_y();
    } else {
      walk_y();
      walk_x();
    }
    links[w++] = PathLink{noc::LinkId{at, noc::Direction::kLocal}, false};
    PAP_CHECK(w == off[f + 1]);
  }
  return FlatPaths{links, off};
}

E2eAnalysis::PropagatedFlat E2eAnalysis::propagate_flat(
    const std::vector<AppRequirement>& flows, const FlatPaths& paths,
    nc::Arena& arena) const {
  // The link-delay / burst fixpoint described in the header, on flat arena
  // storage; the per-link h_deviation runs on stack curves.
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
  struct User {
    std::uint32_t flow;
    std::uint32_t fh;  // flat (flow, hop) index into bursts
  };
  auto* users = arena.alloc<User>(total);
  {
    auto* fill = arena.alloc<std::uint32_t>(nlinks);
    for (std::uint32_t l = 0; l < nlinks; ++l) fill[l] = users_off[l];
    for (std::size_t f = 0; f < nflows; ++f) {
      for (std::uint32_t fh = off[f]; fh < off[f + 1]; ++fh) {
        users[fill[link_of[fh]]++] = User{static_cast<std::uint32_t>(f), fh};
      }
    }
  }

  PropagatedFlat out;
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

  // Loop-invariant link betas in flit units: one flit per flit_time; router
  // channels add the hop pipeline latency, the injection link only its own
  // serialization start.
  SmallCurve bi;
  SmallCurve bh;
  const double beta_rate = 1.0 / model_.noc.flit_time.nanos();
  const nc::CurveView beta_inj =
      rate_latency_into(bi, beta_rate, model_.noc.flit_time.nanos());
  const nc::CurveView beta_hop =
      rate_latency_into(bh, beta_rate, hop_latency().nanos());

  // Fixpoint: link delays from current bursts; bursts from prefix delays.
  auto* delay = arena.alloc<double>(nlinks);
  for (std::uint32_t l = 0; l < nlinks; ++l) delay[l] = 0.0;
  for (int iter = 0; iter < kMaxFixpointIters; ++iter) {
    bool changed = false;
    for (std::uint32_t l = 0; l < nlinks; ++l) {
      if (link_unstable[l]) continue;
      double burst_flits = 0.0;
      double rate_flits = 0.0;
      for (std::uint32_t u = users_off[l]; u < users_off[l + 1]; ++u) {
        const auto& fl = flows[users[u].flow];
        burst_flits += out.bursts[users[u].fh] * fl.flits_per_packet;
        rate_flits += fl.traffic.rate * fl.flits_per_packet;
      }
      SmallCurve abuf;
      const auto d = nc::h_deviation_view(
          affine_into(abuf, burst_flits, rate_flits),
          links[l].injection ? beta_inj : beta_hop);
      if (!d) {
        link_unstable[l] = true;
        changed = true;
        continue;
      }
      if (*d > delay[l] + 1e-9) {
        delay[l] = *d;
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
  // Per hop: the link guarantee in this flow's packet units, minus the
  // cross traffic with propagated (conservative) bursts normalised to this
  // flow's packet service time via the flit ratio; the chain is the
  // convolution of the residuals. The link curve is arena-backed (not
  // stack) because it *is* the residual — and thus the chain — on hops
  // without cross traffic, so it must outlive this loop iteration.
  const AppRequirement& req = flows[self_idx];
  const std::uint32_t* off = paths.off;

  nc::CurveView chain{};
  bool first = true;
  for (std::uint32_t mh = off[self_idx]; mh < off[self_idx + 1]; ++mh) {
    const PathLink& my_link = paths.links[mh];
    const nc::CurveView link = nc::rate_latency_view(
        arena, link_rate(req.flits_per_packet),
        my_link.injection ? model_.noc.flit_time.nanos()
                          : hop_latency().nanos());
    nc::CurveView cross{};
    bool any_cross = false;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (f == self_idx) continue;
      for (std::uint32_t fh = off[f]; fh < off[f + 1]; ++fh) {
        if (paths.links[fh] == my_link) {
          const double scale = static_cast<double>(flows[f].flits_per_packet) /
                               static_cast<double>(req.flits_per_packet);
          const nc::CurveView oc =
              nc::affine_view(arena, propagated.bursts[fh] * scale,
                              flows[f].traffic.rate * scale);
          cross = any_cross
                      ? nc::combine_view(arena, cross, oc, nc::CombineOp::kAdd)
                      : oc;
          any_cross = true;
          break;
        }
      }
    }
    const nc::CurveView residual =
        any_cross ? nc::residual_blind_view(arena, link, cross) : link;
    if (residual.final_slope() <= 1e-15) return std::nullopt;  // saturated
    chain = first ? residual : nc::convolve_view(arena, chain, residual);
    first = false;
  }
  return chain;
}

nc::CurveView E2eAnalysis::dram_service_view(
    const AppRequirement& req, const std::vector<AppRequirement>& others,
    nc::Arena& arena) const {
  // The filter preserves vector order, so dram_service_from sums in
  // flow-set order. The pointer array lives in the arena — no heap traffic
  // per call.
  auto** dram_flows = arena.alloc<const AppRequirement*>(others.size());
  std::size_t n = 0;
  for (const auto& o : others) {
    if (o.uses_dram) dram_flows[n++] = &o;
  }
  return dram_service_from(req, dram_flows, n, arena);
}

nc::CurveView E2eAnalysis::dram_service_from(const AppRequirement& req,
                                             const AppRequirement* const* dram_flows,
                                             std::size_t n, nc::Arena& arena) const {
  // Aggregate write pressure at the controller: the background bucket plus
  // every other DRAM user's traffic (conservatively all of it counted as
  // writes for the batch interference — writes are the traffic class that
  // interrupts reads under FR-FCFS).
  nc::TokenBucket writes = model_.background_writes;
  for (std::size_t i = 0; i < n; ++i) {
    const AppRequirement* o = dram_flows[i];
    if (o->app == req.app) continue;
    writes.burst += o->traffic.burst;
    writes.rate += o->traffic.rate;
  }
  dram::WcdAnalysis analysis(model_.dram, model_.dram_ctrl, writes);
  const nc::CurveView aggregate =
      analysis.service_curve_view(model_.dram_service_depth, arena);
  // Reads of the other apps occupy queue positions ahead of ours: subtract
  // their arrival curves from the aggregate read service.
  nc::CurveView cross_reads{};
  bool any = false;
  for (std::size_t i = 0; i < n; ++i) {
    const AppRequirement* o = dram_flows[i];
    if (o->app == req.app) continue;
    const nc::CurveView oc =
        nc::affine_view(arena, o->traffic.burst, o->traffic.rate);
    cross_reads =
        any ? nc::combine_view(arena, cross_reads, oc, nc::CombineOp::kAdd)
            : oc;
    any = true;
  }
  const nc::CurveView convex = nc::convex_minorant_view(arena, aggregate);
  return any ? nc::residual_blind_view(arena, convex, cross_reads) : convex;
}

std::optional<Time> E2eAnalysis::e2e_bound(
    const AppRequirement& req,
    const std::vector<AppRequirement>& others) const {
  // The flow set with `req` included exactly once: an entry of `others`
  // with req's app id stands for it (the last one, if several do),
  // otherwise req is appended.
  std::vector<AppRequirement> flows;
  flows.reserve(others.size() + 1);
  std::size_t self_idx = others.size();
  for (const auto& o : others) {
    if (o.app == req.app) self_idx = flows.size();
    flows.push_back(o);
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
  const auto chain = chain_view_for(flows, self_idx, propagated, paths, arena);
  if (!chain) return std::nullopt;
  return bound_over_chain(*this, req, *chain, others, arena);
}

}  // namespace pap::core
