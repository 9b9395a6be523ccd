// admit_churn — one papd admission session under release/re-admit churn.
//
// The session runs the incremental engine on papd's largest mesh (16x16)
// and holds ~1.5k resident flows. Link sharing is confined to 2x2-router
// tiles (24 flows each), and exactly one flow in twelve also uses the
// DRAM, so ~128 DRAM flows are resident. One connection, depth 1: the
// resource manager waits for each verdict, so this is a closed loop.
//
// A NoC-only decision re-proves its tile; a DRAM decision re-derives every
// DRAM flow's bound (the O(d^2) residual), so the p50 falls on the former
// and the p99 on the latter. Sessions bypass papd's LRU and coalescing.
//
// Correctness, outside the timed window: papd's reply transcript must equal
// an in-process core::AdmissionController (incremental) replay of the same
// request stream, byte for byte, and afterwards every cached bound must be
// ps-exact against one E2eAnalysis::e2e_bounds_into pass over the final
// flows.
#include <algorithm>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/admission.hpp"
#include "noc/topology.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "probes.hpp"

namespace perfbench {

namespace {

constexpr int kSide = 16;            // session mesh side (papd's cap)
constexpr int kTilesPerSide = kSide / 2;
constexpr int kFlowsPerTile = 24;
constexpr int kFlows = kTilesPerSide * kTilesPerSide * kFlowsPerTile;
constexpr int kDramEvery = 12;       // one flow in twelve uses the DRAM
constexpr int kSetups = 5;           // daemon start + fill repetitions
constexpr double kWindowS = 1.0;     // statistics window (see Windows)
// Decisions/s counts each decision's time capped at its window's p95 (see
// Windows::capped_rate): over ten seeds the uncapped rate spread 0.39 of
// its median, set by host stalls on a few percent of decisions.
constexpr double kRateCap = 0.95;
constexpr const char* kOpenSession =
    "{\"id\":0,\"op\":\"admission_open\",\"params\":{\"mesh_cols\":16,"
    "\"mesh_rows\":16,\"engine\":\"incremental\"}}";

struct Flow {
  std::int64_t app = 0;
  double burst = 1.0, rate = 0.0, deadline_ns = 0.0;
  int sx = 0, sy = 0, dx = 0, dy = 0;
  bool dram = false;
};

/// The seeded resident population: per tile, flows between the tile's four
/// routers (XY routes never leave the tile); a seeded twelfth use DRAM.
std::vector<Flow> make_flows(std::uint64_t seed) {
  pap::Rng rng(seed ^ 0xad317c0ffeeull);
  std::vector<Flow> flows;
  flows.reserve(kFlows);
  for (int t = 0; t < kTilesPerSide * kTilesPerSide; ++t) {
    const int bx = 2 * (t % kTilesPerSide);
    const int by = 2 * (t / kTilesPerSide);
    for (int f = 0; f < kFlowsPerTile; ++f) {
      Flow fl;
      fl.app = static_cast<std::int64_t>(flows.size()) + 1;
      const auto src = rng.next_below(4);
      const auto dst = (src + 1 + rng.next_below(3)) % 4;
      fl.sx = bx + static_cast<int>(src % 2);
      fl.sy = by + static_cast<int>(src / 2);
      fl.dx = bx + static_cast<int>(dst % 2);
      fl.dy = by + static_cast<int>(dst / 2);
      fl.burst = static_cast<double>(rng.uniform(1, 4));
      fl.rate = 0.0005 * static_cast<double>(rng.uniform(1, 6));
      fl.deadline_ns = 4000.0 + 500.0 * static_cast<double>(rng.uniform(0, 4));
      flows.push_back(fl);
    }
  }
  std::vector<std::size_t> order(flows.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  for (std::size_t k = 0; k < flows.size() / kDramEvery; ++k) {
    Flow& fl = flows[order[k]];
    fl.dram = true;
    // Small contracts: the DRAM residual stays bounded for all of them
    // (bursts of 2 or rates of 1e-5 saturate it below ~150 flows).
    fl.burst = 1.0;
    fl.rate = 1e-6 * static_cast<double>(rng.uniform(1, 3));
    fl.deadline_ns = 200000.0;
  }
  return flows;
}

std::string admit_line(std::int64_t id, std::int64_t session, const Flow& f) {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"admission_admit\",\"params\":{\"session\":" +
         std::to_string(session) + ",\"app\":" + std::to_string(f.app) +
         ",\"burst\":" + num(f.burst) + ",\"rate\":" + num(f.rate) +
         ",\"src_x\":" + std::to_string(f.sx) +
         ",\"src_y\":" + std::to_string(f.sy) +
         ",\"dst_x\":" + std::to_string(f.dx) +
         ",\"dst_y\":" + std::to_string(f.dy) +
         ",\"deadline_ns\":" + num(f.deadline_ns) +
         ",\"uses_dram\":" + (f.dram ? "true" : "false") + "}}";
}

std::string release_line(std::int64_t id, std::int64_t session,
                         const Flow& f) {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"admission_release\",\"params\":{\"session\":" +
         std::to_string(session) + ",\"app\":" + std::to_string(f.app) + "}}";
}

struct Decision {
  std::string line;
  std::string reply;
  std::size_t flow = 0;
  bool release = false;
};

/// The session's request stream as papd saw it, plus the timed samples.
struct Transcript {
  std::vector<Decision> decisions;  // fill first, then churn
  std::size_t fill = 0;             // number of fill decisions
};

/// A fresh daemon, one session, every flow admitted in seeded order.
bool setup_session(const Options& opt, const std::vector<Flow>& flows,
                   Daemon* daemon, LineConn* conn, Transcript* tr,
                   std::int64_t* session, std::string* error) {
  if (!daemon->start(opt.papd, "papd.sock", error)) return false;
  if (!conn->connect("papd.sock", error)) return false;
  std::string reply;
  double sid = 0;
  if (!conn->call(kOpenSession, &reply) ||
      !reply_number(reply, "session", &sid)) {
    *error = "admission_open failed: " + reply.substr(0, 200);
    return false;
  }
  *session = static_cast<std::int64_t>(sid);
  tr->decisions.clear();
  pap::Rng rng(opt.seed ^ 0xf111f111ull);
  std::vector<std::size_t> order(flows.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  for (const std::size_t k : order) {
    Decision d;
    d.flow = k;
    d.line = admit_line(static_cast<std::int64_t>(tr->decisions.size()) + 1,
                        *session, flows[k]);
    if (!conn->call(d.line, &d.reply)) {
      *error = "transport failure during fill";
      return false;
    }
    tr->decisions.push_back(std::move(d));
  }
  tr->fill = tr->decisions.size();
  return true;
}

struct ReplaySpans {
  int parse, render, fill;
  int request[2], release[2];  // [noc, dram]
  explicit ReplaySpans(Spans& s)
      : parse(s.intern("serve.parse")),
        render(s.intern("serve.render")),
        fill(s.intern("admit.fill")),
        request{s.intern("admit.request.noc"), s.intern("admit.request.dram")},
        release{s.intern("admit.release.noc"),
                s.intern("admit.release.dram")} {}
};

pap::core::PlatformModel session_model() {
  pap::core::PlatformModel model;
  model.noc.cols = kSide;
  model.noc.rows = kSide;
  return model;
}

/// Replays a transcript, decision by decision, on an in-process
/// core::AdmissionController (incremental engine), rendering each reply the
/// way papd's session endpoints do (serve/sessions.cpp).
class Replayer {
 public:
  Replayer(const std::vector<Flow>& flows, const Transcript& tr, Spans& spans)
      : flows_(flows),
        tr_(tr),
        spans_(spans),
        ids_(spans),
        ac_(session_model(), pap::core::AdmissionEngine::kIncremental) {}

  void step(std::size_t i) {
    const auto t0 = Clock::now();
    if (i == tr_.fill) at_churn = ac_.incremental()->stats();
    const Decision& d = tr_.decisions[i];
    const std::string expected = decide(i, d);
    wall_us += us_between(t0, Clock::now());
    papd.add(d.reply);
    replay.add(expected);
    if (expected != d.reply) {
      if (mismatches == 0) {
        first_bad = "decision " + std::to_string(i) + ": papd '" +
                    d.reply.substr(0, 160) + "' replay '" +
                    expected.substr(0, 160) + "'";
      }
      ++mismatches;
    }
  }

  pap::core::AdmissionController& controller() { return ac_; }

  long mismatches = 0;
  std::string first_bad;
  Digest papd, replay;  ///< transcript digests: received vs recomputed
  double wall_us = 0.0;
  pap::admit::EngineStats at_churn;  ///< engine counters when churn began
  long churn_admits = 0, churn_rejects = 0;

 private:
  std::string decide(std::size_t i, const Decision& d) {
    using namespace pap;
    const bool churn = i >= tr_.fill;
    const int cls = flows_[d.flow].dram ? 1 : 0;
    const auto rid = static_cast<std::int64_t>(i);
    std::optional<Expected<serve::Request>> parsed;
    {
      auto s = spans_.scope(ids_.parse, rid);
      parsed.emplace(serve::parse_request(d.line));
    }
    if (!*parsed) return "<unparseable request>";
    const serve::Request& req = parsed->value();
    const std::int64_t app = req.params.at("app").as_int();
    exp::Result out(req.op);
    out.add("app", app);
    if (d.release) {
      Status st = Status::ok();
      {
        auto s = spans_.scope(ids_.release[cls], rid);
        st = ac_.release(static_cast<noc::AppId>(app));
      }
      out.add("released", st.is_ok());
      if (!st.is_ok()) out.add("reason", st.message());
    } else {
      const exp::Params& p = req.params;
      core::AppRequirement a;
      a.app = static_cast<noc::AppId>(app);
      a.name = "app" + std::to_string(a.app);
      a.traffic = nc::TokenBucket{p.at("burst").as_double(),
                                  p.at("rate").as_double()};
      a.src = mesh_.node(static_cast<int>(p.at("src_x").as_int()),
                         static_cast<int>(p.at("src_y").as_int()));
      a.dst = mesh_.node(static_cast<int>(p.at("dst_x").as_int()),
                         static_cast<int>(p.at("dst_y").as_int()));
      a.deadline = Time::from_ns(p.at("deadline_ns").as_double());
      a.uses_dram = p.at("uses_dram").as_bool();
      std::optional<Expected<core::AdmissionGrant>> grant;
      {
        auto s = spans_.scope(churn ? ids_.request[cls] : ids_.fill, rid);
        grant.emplace(ac_.request(a));
      }
      if (*grant) {
        const core::AdmissionGrant& g = grant->value();
        out.add("admitted", true);
        out.add("bound", g.e2e_bound);
        out.add("shaper_rate", exp::Value{g.noc_shaper.rate, 6});
        out.add("route_order", g.route_order == noc::Mesh2D::RouteOrder::kXY
                                   ? std::string("xy")
                                   : std::string("yx"));
      } else {
        out.add("admitted", false);
        out.add("reason", grant->error_message());
        if (churn) ++churn_rejects;
      }
      if (churn) ++churn_admits;
    }
    auto s = spans_.scope(ids_.render, rid);
    return serve::ok_reply(req.id, serve::render_result(out));
  }

  const std::vector<Flow>& flows_;
  const Transcript& tr_;
  Spans& spans_;
  const ReplaySpans ids_;
  const pap::noc::Mesh2D mesh_{kSide, kSide};
  pap::core::AdmissionController ac_;
};

}  // namespace

int run_admit_churn(const Options& opt, Report& report) {
  const std::vector<Flow> flows = make_flows(opt.seed);
  std::optional<IdleSpinners> spinners(std::in_place);  // while papd runs

  // --- set-up, repeated; the last daemon and session stay for the churn ---
  Samples setup;
  auto daemon = std::make_unique<Daemon>();
  LineConn conn;
  Transcript tr;
  std::int64_t session = 0;
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) {
      conn.close();
      daemon->stop();
      daemon = std::make_unique<Daemon>();
    }
    std::string error;
    const auto t0 = Clock::now();
    if (!setup_session(opt, flows, daemon.get(), &conn, &tr, &session,
                       &error)) {
      std::fprintf(stderr, "perfbench: admit_churn set-up: %s\n",
                   error.c_str());
      return 1;
    }
    setup.add(us_between(t0, Clock::now()) / 1e6);
  }
  std::vector<bool> resident(flows.size(), false);
  std::size_t fill_rejects = 0;
  for (const Decision& d : tr.decisions) {
    resident[d.flow] = d.reply.find("\"admitted\":true") != std::string::npos;
    if (!resident[d.flow] && fill_rejects++ == 0) {
      report.note("first fill rejection: " + d.reply.substr(0, 300));
    }
  }

  // --- churn: release + re-admit seeded resident flows, depth 1 ---
  pap::Rng rng(opt.seed ^ 0xc4c4c4c4ull);
  Samples noc_us, dram_us;
  Windows latency(kWindowS);  // by decision start; its count is throughput
  bool transport_ok = true;
  const auto t0 = Clock::now();
  const auto stop_at = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(opt.seconds));
  latency.close(opt.seconds);
  auto decide = [&](std::size_t k, bool release) {
    Decision d;
    d.flow = k;
    d.release = release;
    const auto id = static_cast<std::int64_t>(tr.decisions.size()) + 1;
    d.line = release ? release_line(id, session, flows[k])
                     : admit_line(id, session, flows[k]);
    const auto s0 = Clock::now();
    transport_ok = conn.call(d.line, &d.reply);
    const double us = us_between(s0, Clock::now());
    latency.add(us_between(t0, s0) / 1e6, us);
    (flows[k].dram ? dram_us : noc_us).add(us);
    resident[k] = release ? false
                          : d.reply.find("\"admitted\":true") != std::string::npos;
    tr.decisions.push_back(std::move(d));
  };
  while (transport_ok && Clock::now() < stop_at) {
    const std::size_t k = rng.next_below(flows.size());
    if (resident[k]) decide(k, true);
    if (transport_ok) decide(k, false);
  }
  const std::size_t churn_n = tr.decisions.size() - tr.fill;

  std::string reply;
  double lru_hit_ratio = 0.0, coalesced_ratio = 0.0;
  if (!transport_ok) {
    report.note("churn: transport failure");
  } else if (!conn.call(kStatsRequest, &reply) ||
             !cache_ratios(reply, &lru_hit_ratio, &coalesced_ratio)) {
    report.note("papd stats endpoint unavailable");
  }
  const double peak_rss = daemon->peak_rss_mb();
  conn.close();
  if (!daemon->stop()) report.note("papd did not drain cleanly");
  spinners.reset();

  // --- correctness: in-process incremental replay + batch oracle. A traced
  // run replays twice, interleaved decision by decision, so the two walls
  // see the same machine and their ratio is the tracing overhead. ---
  Spans untraced(false), spans(opt.trace);
  Replayer r(flows, tr, untraced);
  std::optional<Replayer> traced_r;
  if (opt.trace) traced_r.emplace(flows, tr, spans);
  for (std::size_t i = 0; i < tr.decisions.size(); ++i) {
    r.step(i);
    if (traced_r) traced_r->step(i);
  }
  pap::core::AdmissionController& ac = r.controller();
  report.attempt(static_cast<long>(tr.decisions.size()));
  report.fail(r.mismatches);
  if (r.mismatches > 0) {
    report.wrong(std::to_string(r.mismatches) +
                 " papd replies differ from the in-process replay; first: " +
                 r.first_bad);
  }
  const std::vector<pap::core::AppRequirement> final_flows = ac.admitted();
  std::vector<std::optional<pap::Time>> oracle;
  ac.analysis().e2e_bounds_into(final_flows, &oracle);
  std::size_t inexact = 0, resident_dram = 0;
  for (std::size_t i = 0; i < final_flows.size(); ++i) {
    const auto cached = ac.current_bound(final_flows[i].app);
    if (!cached || !oracle[i] || cached->picos() != oracle[i]->picos()) {
      ++inexact;
    }
    if (final_flows[i].uses_dram) ++resident_dram;
  }
  if (inexact > 0) {
    report.wrong(std::to_string(inexact) +
                 " cached bounds differ from the batch oracle");
  }
  report.note("admit_churn: " + std::to_string(final_flows.size()) +
              " resident flows (" + std::to_string(resident_dram) +
              " DRAM), " + std::to_string(churn_n) + " churn decisions, " +
              "transcript digest papd " + r.papd.hex() + " replay " +
              r.replay.hex());
  report.note("admit_churn: NoC decisions p50 " + num(noc_us.median()) +
              " p99 " + num(noc_us.quantile(0.99)) + " us (n=" +
              std::to_string(noc_us.size()) + "), DRAM decisions p10 " +
              num(dram_us.quantile(0.1)) + " p50 " + num(dram_us.median()) +
              " p90 " + num(dram_us.quantile(0.9)) + " us (n=" +
              std::to_string(dram_us.size()) + ")");

  if (!opt.trace) {
    report.note("quantiles and rates: medians over " +
                std::to_string(latency.whole_windows()) + " windows of " +
                num(kWindowS) + " s; p99 " + num(latency.quantile(0.99)) +
                " us");
    report.timing("setup_s", setup.median(), "s", setup.size());
    report.timing("req_p50_us", latency.quantile(0.5), "us",
                  latency.samples());
    report.timing("req_p95_us", latency.quantile(0.95), "us",
                  latency.samples());
    report.note("uncapped decisions/s " + num(latency.rate()));
    report.timing("throughput_rps", latency.capped_rate(kRateCap), "1/s",
                  latency.samples());
    report.metric("peak_rss_mb", peak_rss, "MB");
    return 0;
  }

  // --- traced run: per-layer probes on the same stream ---
  const Replayer& tr_r = *traced_r;
  if (tr_r.mismatches > 0 || tr_r.replay.value() != r.replay.value()) {
    report.wrong("traced replay disagrees with the untraced one");
  }
  const pap::core::AdmissionController& traced = traced_r->controller();
  const pap::admit::EngineStats at_end = traced.incremental()->stats();
  // The batch oracle pass, one call and stage by stage.
  const StageSpans stage_ids(spans);
  {
    auto s = spans.scope(spans.intern("core.e2e_bounds_into"));
    traced.analysis().e2e_bounds_into(final_flows, &oracle);
  }
  if (!staged_e2e_pass(traced.analysis(), final_flows, oracle, spans,
                       stage_ids)) {
    report.wrong("staged e2e pass differs from e2e_bounds_into");
  }
  probe_service_curves(traced.analysis().model(), final_flows, spans,
                       stage_ids);

  // AnalysisService::submit -> reply without the socket: the session path
  // of papd's service layer (workers 2, like the daemon), sequential.
  Samples service_us;
  {
    pap::serve::ServiceConfig cfg;
    cfg.workers = 2;
    const IdleSpinners service_spinners;  // worker hand-offs, as with papd
    pap::serve::AnalysisService service(cfg);
    (void)submit_and_poll(service, kOpenSession);
    const int admit_span = spans.intern("serve.session.admit");
    const int release_span = spans.intern("serve.session.release");
    for (std::size_t i = 0; i < tr.decisions.size(); ++i) {
      const Decision& d = tr.decisions[i];
      std::string got;
      if (i < tr.fill) {
        got = submit_and_poll(service, d.line);
      } else {
        auto s = spans.scope(d.release ? release_span : admit_span,
                             static_cast<std::int64_t>(i));
        const auto s0 = Clock::now();
        got = submit_and_poll(service, d.line);
        service_us.add(us_between(s0, Clock::now()));
      }
      if (got != d.reply) {
        report.wrong("in-process service reply differs at decision " +
                     std::to_string(i));
        break;
      }
    }
  }
  if (!opt.spans_out.empty() && !spans.write_csv(opt.spans_out)) {
    report.note("could not write " + opt.spans_out);
  }

  const SpanTable t = spans.aggregate();
  const double decisions = static_cast<double>(std::max<std::size_t>(1, churn_n));
  report.metric("serve.parse.mean_us", mean_us(t, "serve.parse"), "us");
  report.metric("serve.render.mean_us", mean_us(t, "serve.render"), "us");
  report.timing("serve.service_p50_us", service_us.median(), "us",
                service_us.size());
  report.metric("serve.transport_p50_us",
                latency.quantile(0.5) - service_us.median(), "us");
  report.metric("serve.lru_hit_ratio", lru_hit_ratio, "ratio");
  report.metric("serve.coalesced_ratio", coalesced_ratio, "ratio");
  report.metric("serve.session.admit.mean_us",
                mean_us(t, "serve.session.admit"), "us");
  report.metric("serve.session.release.mean_us",
                mean_us(t, "serve.session.release"), "us");
  report.metric("core.e2e_bounds_into.calls",
                static_cast<double>(span_count(t, "core.e2e_bounds_into")),
                "count");
  report.metric("core.e2e_bounds_into.mean_us",
                mean_us(t, "core.e2e_bounds_into"), "us");
  report.metric("core.e2e_bounds_into.flows_per_call",
                static_cast<double>(final_flows.size()), "count");
  report_stage_split(t, report);
  for (const char* name : {"admit.request.noc", "admit.request.dram",
                           "admit.release.noc", "admit.release.dram"}) {
    report.timing(std::string(name) + ".mean_us", mean_us(t, name), "us",
                  span_count(t, name));
  }
  report.metric("admit.dirty_flows_per_decision",
                static_cast<double>(at_end.dirty_flows_total -
                                    tr_r.at_churn.dirty_flows_total) /
                    decisions,
                "count");
  report.metric("admit.dirty_links_per_decision",
                static_cast<double>(at_end.dirty_links_total -
                                    tr_r.at_churn.dirty_links_total) /
                    decisions,
                "count");
  report.metric("admit.resident_flows",
                static_cast<double>(final_flows.size()), "count");
  report.metric("admit.resident_dram_flows", static_cast<double>(resident_dram),
                "count");
  report.metric("admit.reject_ratio",
                tr_r.churn_admits > 0
                    ? static_cast<double>(tr_r.churn_rejects) /
                          static_cast<double>(tr_r.churn_admits)
                    : 0.0,
                "ratio");
  report.metric("dram.service_curve.mean_us", mean_us(t, "dram.service_curve"),
                "us");
  report_trace_summary(report, t, tr_r.wall_us / r.wall_us,
                       latency.samples());
  return 0;
}

}  // namespace perfbench
