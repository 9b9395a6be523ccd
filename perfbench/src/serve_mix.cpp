// serve_mix — stateless papd traffic over the Unix socket.
//
// Request i of a run is a pure function of (seed, i): about half repeat a
// hot set far smaller than papd's LRU, the rest carry a unique key. The
// mix is admission_check (2-16 apps on an 8x8 mesh, some using DRAM, so
// the batch engine runs), wcd_bound (varied n, policy and device) and
// nc_delay. Two timed phases run against one daemon, over one connection
// driven by one polling thread:
//
//   open loop   — requests sent on a fixed schedule; latency runs from a
//                 request's *scheduled* send time to its reply, so
//                 generator stalls count against the server;
//   closed loop — a fixed window of requests in flight; throughput.
//
// Every reply is then checked, outside the timed window, against
// ok_reply(id, render_result(dispatch(...))) computed in this process. The
// traced run replays the same requests in process with spans around the
// serve / core / dram / nc entry points.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <unordered_map>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/admission.hpp"
#include "dram/timing.hpp"
#include "dram/wcd.hpp"
#include "nc/bounds.hpp"
#include "nc/service.hpp"
#include "noc/topology.hpp"
#include "serve/handlers.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "probes.hpp"

namespace perfbench {

namespace {

constexpr int kMesh = 8;             // admission_check mesh side
constexpr int kHotSet = 40;          // distinct hot requests (LRU holds 4096)
constexpr double kOpenRate = 3000.0; // open-loop offered load, req/s
constexpr double kOpenShare = 0.5;   // of --seconds; the rest is closed loop
constexpr double kWindowS = 0.5;     // statistics window (see Windows)
constexpr int kWindow = 8;           // closed-loop requests in flight
constexpr int kSetups = 9;           // daemon start + warm-up repetitions
constexpr std::size_t kProbeCap = 400;  // cold requests per op in probes
constexpr std::int64_t kWarmIds = 1000000000;  // ids of warm-up requests

const char* const kPolicies[] = {"frfcfs", "fcfs", "close_page",
                                 "starvation_guard"};
const char* const kDevices[] = {"ddr3_1600", "ddr4_2400", "lpddr4_3200"};

struct AppSpec {
  double burst = 1.0;
  double rate = 0.0;
  int sx = 0, sy = 0, dx = 0, dy = 0;
  double deadline_ns = 2000.0;
  bool dram = false;
  bool critical = true;
};

enum class Op { kAdmission, kWcd, kNc };
const char* op_name(Op op) {
  switch (op) {
    case Op::kAdmission: return "admission_check";
    case Op::kWcd: return "wcd_bound";
    case Op::kNc: return "nc_delay";
  }
  return "?";
}

struct MixRequest {
  Op op = Op::kNc;
  bool hot = false;
  std::vector<AppSpec> apps;  // admission_check
  double gbps = 0.0, burst_requests = 8.0;  // wcd_bound
  int n = 1;
  std::string policy, device;
  double a_burst = 0.0, a_rate = 0.0, s_rate = 0.0, s_latency = 0.0;  // nc
  std::string params;  // rendered JSON object

  std::string line(std::int64_t id) const {
    return "{\"id\":" + std::to_string(id) + ",\"op\":\"" + op_name(op) +
           "\",\"params\":" + params + "}";
  }
};

std::string render_params(const MixRequest& r) {
  std::string p;
  switch (r.op) {
    case Op::kAdmission: {
      p = "{\"mesh_cols\":" + std::to_string(kMesh) +
          ",\"mesh_rows\":" + std::to_string(kMesh) + ",\"apps\":[";
      for (std::size_t i = 0; i < r.apps.size(); ++i) {
        const AppSpec& a = r.apps[i];
        if (i > 0) p += ',';
        p += "{\"burst\":" + num(a.burst) + ",\"rate\":" + num(a.rate) +
             ",\"src_x\":" + std::to_string(a.sx) +
             ",\"src_y\":" + std::to_string(a.sy) +
             ",\"dst_x\":" + std::to_string(a.dx) +
             ",\"dst_y\":" + std::to_string(a.dy) +
             ",\"deadline_ns\":" + num(a.deadline_ns) +
             ",\"uses_dram\":" + (a.dram ? "true" : "false") +
             ",\"critical\":" + (a.critical ? "true" : "false") + "}";
      }
      p += "]}";
      break;
    }
    case Op::kWcd:
      p = "{\"write_gbps\":" + num(r.gbps) + ",\"n\":" + std::to_string(r.n) +
          ",\"burst_requests\":" + num(r.burst_requests) +
          ",\"dram\":{\"policy\":\"" + r.policy + "\",\"device\":\"" +
          r.device + "\"}}";
      break;
    case Op::kNc:
      p = "{\"arrival\":{\"burst\":" + num(r.a_burst) +
          ",\"rate\":" + num(r.a_rate) + "},\"service\":{\"rate\":" +
          num(r.s_rate) + ",\"latency_ns\":" + num(r.s_latency) + "}}";
      break;
  }
  return p;
}

/// Op of mix position `pick` in [0, 20): 8 admission_check, 7 wcd_bound,
/// 5 nc_delay.
Op op_at(std::uint64_t pick) {
  return pick < 8 ? Op::kAdmission : pick < 15 ? Op::kWcd : Op::kNc;
}

/// Draw one request of kind `op` (`n_apps` apps for admission_check).
/// `unique` > 0 is folded into a parameter so that no two cold requests
/// share a cache key (hot requests pass 0).
MixRequest draw(pap::Rng& rng, Op op, int n_apps, std::uint64_t unique) {
  MixRequest r;
  r.op = op;
  const double tag = static_cast<double>(unique) * 1e-3;
  if (op == Op::kAdmission) {
    for (int i = 0; i < n_apps; ++i) {
      AppSpec a;
      a.burst = static_cast<double>(rng.uniform(1, 8));
      a.rate = 0.001 * static_cast<double>(rng.uniform(1, 12));
      a.sx = static_cast<int>(rng.uniform(0, kMesh - 1));
      a.sy = static_cast<int>(rng.uniform(0, kMesh - 1));
      a.dx = static_cast<int>(rng.uniform(0, kMesh - 1));
      a.dy = static_cast<int>(rng.uniform(0, kMesh - 1));
      if (a.dx == a.sx && a.dy == a.sy) a.dx = (a.sx + 1) % kMesh;
      a.dram = rng.next_below(4) == 0;
      a.deadline_ns = 100.0 * static_cast<double>(rng.uniform(10, 60)) +
                      (a.dram ? 20000.0 : 0.0) + (i == 0 ? tag : 0.0);
      a.critical = rng.next_below(3) != 0;
      r.apps.push_back(a);
    }
  } else if (op == Op::kWcd) {
    r.gbps = 0.5 + 0.1 * static_cast<double>(rng.uniform(0, 55));
    r.n = static_cast<int>(rng.uniform(1, 64));
    r.burst_requests = 8.0 + tag * 1e-3;
    r.policy = kPolicies[rng.next_below(4)];
    r.device = kDevices[rng.next_below(3)];
  } else {
    r.a_burst = static_cast<double>(rng.uniform(1, 64)) + tag;
    r.a_rate = 0.5 + 0.1 * static_cast<double>(rng.uniform(0, 100));
    r.s_rate = 12.8;
    r.s_latency = static_cast<double>(rng.uniform(50, 550));
  }
  r.params = render_params(r);
  return r;
}

/// The deterministic request stream of one run.
class Stream {
 public:
  /// The hot set is stratified — two whole cycles of the op mix, app counts
  /// 2..16 in turn — so every seed's hot set has the same shape and the
  /// hot-path latency compares across seeds.
  explicit Stream(std::uint64_t seed) : seed_(seed) {
    pap::Rng hot(seed ^ 0x5eed0f0075e7ull);
    int n_admission = 0;
    for (int i = 0; i < kHotSet; ++i) {
      const Op op = op_at(static_cast<std::uint64_t>(i % 20));
      const int n_apps = 2 + (op == Op::kAdmission ? n_admission++ % 15 : 0);
      hot_.push_back(draw(hot, op, n_apps, 0));
    }
  }
  const std::vector<MixRequest>& hot() const { return hot_; }

  /// Request i: hot with probability 3/5, otherwise a fresh unique key.
  /// Not exactly 1/2, so that the median falls inside the hot population
  /// rather than on the edge between the two.
  MixRequest at(std::uint64_t i) const {
    pap::Rng rng(seed_ * 0x9E3779B97F4A7C15ull + i + 1);
    if (rng.next_below(5) < 3) {
      MixRequest r = hot_[rng.next_below(kHotSet)];
      r.hot = true;
      return r;
    }
    const Op op = op_at(rng.next_below(20));
    return draw(rng, op, static_cast<int>(rng.uniform(2, 16)), i + 1);
  }

 private:
  std::uint64_t seed_;
  std::vector<MixRequest> hot_;
};

struct Sent {
  std::int64_t id = 0;
  MixRequest req;
  std::string reply;  // empty = lost
};

pap::core::AppRequirement to_requirement(const AppSpec& s, int index,
                                         const pap::noc::Mesh2D& mesh) {
  // The handler's construction (serve/handlers.cpp, admission_check).
  pap::core::AppRequirement a;
  a.app = static_cast<pap::noc::AppId>(index + 1);
  a.name = "app" + std::to_string(a.app);
  a.traffic.burst = s.burst;
  a.traffic.rate = s.rate;
  a.src = mesh.node(s.sx, s.sy);
  a.dst = mesh.node(s.dx, s.dy);
  a.deadline = pap::Time::from_ns(s.deadline_ns);
  a.uses_dram = s.dram;
  if (s.critical) a.asil = pap::sched::Asil::kC;
  return a;
}

struct SpanIds {
  int request, parse, render, service;
  int dispatch[3];
  int e2e, wcd_bounds, delay_bound;
  StageSpans stages;

  explicit SpanIds(Spans& s)
      : request(s.intern("serve.request")),
        parse(s.intern("serve.parse")),
        render(s.intern("serve.render")),
        service(s.intern("serve.service")),
        dispatch{s.intern("serve.dispatch.admission_check"),
                 s.intern("serve.dispatch.wcd_bound"),
                 s.intern("serve.dispatch.nc_delay")},
        e2e(s.intern("core.e2e_bounds_into")),
        wcd_bounds(s.intern("dram.bounds")),
        delay_bound(s.intern("nc.delay_bound")),
        stages(s) {}
};

/// The expected reply of each sent request, computed in process as
/// ok_reply(id, render_result(dispatch(...))) and memoized by cache key the
/// way papd's LRU serves repeats.
class Verifier {
 public:
  Verifier(Spans& spans, const SpanIds& ids) : spans_(spans), ids_(ids) {}

  void check(const Sent& s) {
    const auto t0 = Clock::now();
    const std::string expected = expect(s);
    wall_us += us_between(t0, Clock::now());
    if (s.reply != expected) {
      if (mismatches == 0) {
        first_bad = "id " + std::to_string(s.id) + ": got '" +
                    s.reply.substr(0, 160) + "' want '" +
                    expected.substr(0, 160) + "'";
      }
      ++mismatches;
    }
  }

  long mismatches = 0;
  std::string first_bad;
  double wall_us = 0.0;

 private:
  std::string expect(const Sent& s) {
    auto span = spans_.scope(ids_.request, s.id);
    const std::string line = s.req.line(s.id);
    std::optional<pap::Expected<pap::serve::Request>> parsed;
    {
      auto p = spans_.scope(ids_.parse);
      parsed.emplace(pap::serve::parse_request(line));
    }
    if (!*parsed) return "<unparseable request>";
    const pap::serve::Request& req = parsed->value();
    const std::string key = req.key();
    auto it = memo_.find(key);
    if (it == memo_.end()) {
      pap::serve::HandlerOutcome out;
      {
        auto d = spans_.scope(ids_.dispatch[static_cast<int>(s.req.op)]);
        out = pap::serve::dispatch(req.op, req.params, limits_);
      }
      auto r = spans_.scope(ids_.render);
      std::string payload =
          out.ok ? pap::serve::render_result(out.result)
                 : std::string("<handler error: ") + out.error.message + ">";
      it = memo_.emplace(key, std::move(payload)).first;
    }
    return pap::serve::ok_reply(req.id, it->second);
  }

  Spans& spans_;
  const SpanIds& ids_;
  const pap::serve::HandlerLimits limits_;
  std::unordered_map<std::string, std::string> memo_;
};

/// Per-layer probes over the cold requests: the batch admission pass with
/// its stage split, the DRAM WCD analysis and the NC delay bound, each
/// timed through its public entry point.
struct ProbeResult {
  bool exact = true;           ///< staged passes matched e2e_bounds_into
  double iterations_mean = 0;  ///< WCD fixpoint iterations (upper bound)
  std::size_t e2e_flows = 0;   ///< flows proven over all e2e passes
};

ProbeResult run_probes(const std::vector<Sent>& sent, Spans& spans,
                       const SpanIds& ids) {
  using namespace pap;
  core::PlatformModel model;
  model.noc.cols = kMesh;
  model.noc.rows = kMesh;
  const core::E2eAnalysis analysis(model);
  const noc::Mesh2D mesh(kMesh, kMesh);
  std::size_t n_adm = 0, n_wcd = 0, n_nc = 0;
  Samples iterations;
  ProbeResult res;
  std::vector<std::optional<Time>> bounds;
  for (const Sent& s : sent) {
    const MixRequest& r = s.req;
    if (r.hot) continue;
    if (r.op == Op::kAdmission && n_adm < kProbeCap) {
      ++n_adm;
      // The batch controller's decision loop: every offered app is proven
      // together with everything admitted before it, on up to two routes.
      std::vector<core::AppRequirement> admitted;
      for (std::size_t i = 0; i < r.apps.size(); ++i) {
        const core::AppRequirement req =
            to_requirement(r.apps[i], static_cast<int>(i), mesh);
        for (int attempt = 0; attempt < 2; ++attempt) {
          core::AppRequirement cand = req;
          if (attempt == 1) cand.route_order = noc::Mesh2D::RouteOrder::kYX;
          std::vector<core::AppRequirement> tentative = admitted;
          tentative.push_back(cand);
          {
            auto e = spans.scope(ids.e2e);
            analysis.e2e_bounds_into(tentative, &bounds);
          }
          res.e2e_flows += tentative.size();
          res.exact = staged_e2e_pass(analysis, tentative, bounds, spans,
                                      ids.stages) &&
                      res.exact;
          probe_service_curves(model, tentative, spans, ids.stages);
          bool ok = true;
          for (std::size_t k = 0; k < tentative.size(); ++k) {
            if (!bounds[k] || *bounds[k] > tentative[k].deadline) ok = false;
          }
          if (ok) {
            admitted = std::move(tentative);
            break;
          }
        }
      }
    } else if (r.op == Op::kWcd && n_wcd < kProbeCap) {
      ++n_wcd;
      // The wcd_bound handler's construction with its default knobs.
      dram::ControllerConfig ctrl;
      ctrl.policy(dram::parse_policy(r.policy).value());
      const auto built = ctrl.build();
      const auto timings = dram::device_by_name(r.device);
      if (!built || !timings) {
        res.exact = false;
        continue;
      }
      const auto bucket = nc::TokenBucket::from_rate(
          Rate::gbps(r.gbps), kCacheLineBytes, r.burst_requests);
      const dram::WcdAnalysis wcd(timings.value(), built.value(), bucket);
      dram::WcdBounds b;
      {
        auto w = spans.scope(ids.wcd_bounds);
        b = wcd.bounds(r.n);
      }
      iterations.add(b.iterations_upper);
    } else if (r.op == Op::kNc && n_nc < kProbeCap) {
      ++n_nc;
      const nc::Curve alpha = nc::TokenBucket{r.a_burst, r.a_rate}.to_curve();
      const nc::Curve beta = nc::RateLatency{r.s_rate, r.s_latency}.to_curve();
      auto d = spans.scope(ids.delay_bound);
      (void)nc::delay_bound(alpha, beta);
    }
  }
  res.iterations_mean = iterations.mean();
  return res;
}

/// papd start plus the hot-set warm-up, on a fresh daemon.
bool setup_daemon(const Options& opt, const Stream& stream, Daemon* daemon,
                  LineConn* conn, std::string* error) {
  if (!daemon->start(opt.papd, "papd.sock", error)) return false;
  if (!conn->connect("papd.sock", error)) return false;
  std::string reply;
  std::int64_t id = kWarmIds;
  for (const MixRequest& r : stream.hot()) {
    if (!conn->call(r.line(id++), &reply) ||
        reply.find("\"ok\":true") == std::string::npos) {
      *error = "warm-up request failed: " + reply.substr(0, 200);
      return false;
    }
  }
  return true;
}

}  // namespace

int run_serve_mix(const Options& opt, Report& report) {
  const Stream stream(opt.seed);
  std::optional<IdleSpinners> spinners(std::in_place);  // while papd runs

  // --- set-up, repeated; the last daemon stays up for the timed phases ---
  Samples setup;
  auto daemon = std::make_unique<Daemon>();
  LineConn conn;
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) {
      conn.close();
      daemon->stop();
      daemon = std::make_unique<Daemon>();
    }
    std::string error;
    const auto t0 = Clock::now();
    if (!setup_daemon(opt, stream, daemon.get(), &conn, &error)) {
      std::fprintf(stderr, "perfbench: serve_mix set-up: %s\n", error.c_str());
      return 1;
    }
    setup.add(us_between(t0, Clock::now()) / 1e6);
  }

  // --- open loop: fixed offered rate, latency from the scheduled send ---
  const auto n_open = static_cast<std::size_t>(
      std::llround(kOpenRate * opt.seconds * kOpenShare));
  std::vector<Sent> sent(n_open);
  for (std::size_t i = 0; i < n_open; ++i) {
    sent[i].id = static_cast<std::int64_t>(i);
    sent[i].req = stream.at(i);
  }
  std::vector<std::string> lines(n_open);
  for (std::size_t i = 0; i < n_open; ++i) lines[i] = sent[i].req.line(sent[i].id);
  // One thread polls: it sends each request when due and drains replies in
  // between, so neither side waits on a kernel wake-up.
  std::vector<Clock::time_point> due(n_open);
  const auto interval = std::chrono::nanoseconds(
      static_cast<std::int64_t>(1e9 / kOpenRate));
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < n_open; ++i) {
    due[i] = start + interval * static_cast<std::int64_t>(i);
  }
  Samples lag_us, hot_us, cold_us;
  lag_us.reserve(n_open);
  Windows latency(kWindowS);  // by scheduled send time
  latency.close(static_cast<double>(n_open) / kOpenRate);
  std::size_t next_send = 0, received = 0;
  std::string reply;
  bool transport_ok = true;
  while (transport_ok && received < n_open) {
    if (next_send < n_open && Clock::now() >= due[next_send]) {
      lag_us.add(us_between(due[next_send], Clock::now()));
      transport_ok = conn.send(lines[next_send++]);
      continue;
    }
    const int got = conn.try_read_line(&reply);
    if (got == 0) continue;
    const auto now = Clock::now();
    const long id = reply_id(reply);
    if (got < 0 || id < 0 || static_cast<std::size_t>(id) >= next_send ||
        !sent[static_cast<std::size_t>(id)].reply.empty()) {
      transport_ok = false;  // closed, or a reply we cannot match
      break;
    }
    const double us = us_between(due[static_cast<std::size_t>(id)], now);
    latency.add(us_between(start, due[static_cast<std::size_t>(id)]) / 1e6, us);
    (sent[static_cast<std::size_t>(id)].req.hot ? hot_us : cold_us).add(us);
    sent[static_cast<std::size_t>(id)].reply = std::move(reply);
    reply.clear();
    ++received;
  }
  if (!transport_ok) {
    report.note("open loop: transport failure after " +
                std::to_string(received) + " replies");
  }
  report.note("open loop: hot p50 " + num(hot_us.median()) + " p99 " +
              num(hot_us.quantile(0.99)) + " us (n=" +
              std::to_string(hot_us.size()) + "), cold p50 " +
              num(cold_us.median()) + " p99 " + num(cold_us.quantile(0.99)) +
              " us (n=" + std::to_string(cold_us.size()) + ")");

  // --- closed loop: fixed window; the end-to-end latency and throughput.
  // The server stays busy, so these figures do not hinge on how fast the
  // VM wakes idle papd threads, which the open loop above exposes. ---
  std::size_t closed_done = 0;
  Windows completions(kWindowS);  // send -> reply, by completion time
  if (received == n_open) {
    std::vector<Sent> closed;
    // id -> (index in `closed`, send time)
    std::unordered_map<std::int64_t, std::pair<std::size_t, Clock::time_point>>
        pending;
    const auto t0 = Clock::now();
    const auto stop_at =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(opt.seconds * (1.0 - kOpenShare)));
    std::uint64_t next = n_open;
    bool ok = true;
    auto send_next = [&] {
      Sent s;
      s.id = static_cast<std::int64_t>(next);
      s.req = stream.at(next++);
      pending.emplace(s.id, std::make_pair(closed.size(), Clock::now()));
      ok = ok && conn.send(s.req.line(s.id));
      closed.push_back(std::move(s));
    };
    for (int w = 0; w < kWindow; ++w) send_next();
    while (ok && !pending.empty()) {
      if (!conn.read_line(&reply)) {
        ok = false;
        break;
      }
      const auto it = pending.find(reply_id(reply));
      if (it == pending.end()) {
        ok = false;
        break;
      }
      const auto now = Clock::now();
      closed[it->second.first].reply = std::move(reply);
      reply.clear();
      completions.add(us_between(t0, now) / 1e6,
                      us_between(it->second.second, now));
      pending.erase(it);
      ++closed_done;
      if (now < stop_at) send_next();
    }
    completions.close(us_between(t0, stop_at) / 1e6);
    if (!ok) report.note("closed loop: transport failure");
    sent.insert(sent.end(), std::make_move_iterator(closed.begin()),
                std::make_move_iterator(closed.end()));
  }

  // --- papd's own counters: LRU hits and coalescing ---
  double lru_hit_ratio = 0.0, coalesced_ratio = 0.0;
  if (!conn.call(kStatsRequest, &reply) ||
      !cache_ratios(reply, &lru_hit_ratio, &coalesced_ratio)) {
    report.note("papd stats endpoint unavailable");
  }
  const double peak_rss = daemon->peak_rss_mb();
  conn.close();
  if (!daemon->stop()) report.note("papd did not drain cleanly");
  spinners.reset();

  // --- correctness, outside the timed window. A traced run verifies twice,
  // interleaved request by request, so the two walls see the same machine
  // and their ratio is the tracing overhead. ---
  Spans untraced(false), spans(opt.trace);
  const SpanIds untraced_ids(untraced), ids(spans);
  Verifier verifier(untraced, untraced_ids), traced_verifier(spans, ids);
  for (const Sent& s : sent) {
    verifier.check(s);
    if (opt.trace) traced_verifier.check(s);
  }
  const long mismatches = verifier.mismatches;
  if (traced_verifier.mismatches != (opt.trace ? mismatches : 0)) {
    report.wrong("traced replay disagrees with the untraced one");
  }
  long errors = 0, lost = 0;
  for (const Sent& s : sent) {
    if (s.reply.empty()) {
      ++lost;
    } else if (s.reply.find("\"ok\":true") == std::string::npos) {
      ++errors;
    }
  }
  report.attempt(static_cast<long>(sent.size()));
  report.fail(mismatches);  // lost and error replies are mismatches too
  if (mismatches > 0) {
    report.wrong(std::to_string(mismatches) + " of " +
                 std::to_string(sent.size()) + " replies differ from the " +
                 "in-process answer (" + std::to_string(errors) + " errors, " +
                 std::to_string(lost) + " lost); first: " +
                 verifier.first_bad);
  }
  report.note("serve_mix: " + std::to_string(n_open) + " open-loop at " +
              num(kOpenRate) + " req/s, " + std::to_string(closed_done) +
              " closed-loop (window " + std::to_string(kWindow) + "), " +
              std::to_string(mismatches) + " failed");

  const double p50 = latency.quantile(0.5);  // open loop
  report.note("open loop (from scheduled send): p50 " + num(p50) + " p95 " +
              num(latency.quantile(0.95)) + " p99 " +
              num(latency.quantile(0.99)) + " us (n=" +
              std::to_string(latency.samples()) + "); closed loop p99 " +
              num(completions.quantile(0.99)) + " us; medians over " +
              num(kWindowS) + " s windows");
  if (!opt.trace) {
    report.timing("setup_s", setup.median(), "s", setup.size());
    report.timing("req_p50_us", completions.quantile(0.5), "us",
                  completions.samples());
    report.timing("req_p95_us", completions.quantile(0.95), "us",
                  completions.samples());
    report.timing("throughput_rps", completions.rate(), "1/s",
                  completions.samples());
    report.metric("peak_rss_mb", peak_rss, "MB");
    return 0;
  }

  // --- traced run: per-layer probes on the same requests ---
  // AnalysisService::submit -> reply without the socket, same config as
  // papd (2 workers, default LRU), warmed with the hot set, sequential.
  Samples service_us;
  {
    pap::serve::ServiceConfig cfg;
    cfg.workers = 2;
    const IdleSpinners service_spinners;  // worker hand-offs, as with papd
    pap::serve::AnalysisService service(cfg);
    std::int64_t warm_id = kWarmIds;
    for (const MixRequest& r : stream.hot()) {
      (void)submit_and_poll(service, r.line(warm_id++));
    }
    long differ = 0;
    for (std::size_t i = 0; i < n_open; ++i) {
      auto s = spans.scope(ids.service, sent[i].id);
      const auto s0 = Clock::now();
      const std::string got = submit_and_poll(service, lines[i]);
      service_us.add(us_between(s0, Clock::now()));
      if (got != sent[i].reply) ++differ;
    }
    if (differ > 0) {
      report.wrong(std::to_string(differ) +
                   " in-process service replies differ from papd's");
    }
  }
  const ProbeResult probes = run_probes(sent, spans, ids);
  if (!probes.exact) {
    report.wrong("staged e2e pass differs from e2e_bounds_into");
  }
  if (!opt.spans_out.empty() && !spans.write_csv(opt.spans_out)) {
    report.note("could not write " + opt.spans_out);
  }

  const SpanTable t = spans.aggregate();
  const std::size_t e2e_calls = span_count(t, "core.e2e_bounds_into");
  report.metric("serve.parse.mean_us", mean_us(t, "serve.parse"), "us");
  report.metric("serve.render.mean_us", mean_us(t, "serve.render"), "us");
  report.timing("serve.service_p50_us", service_us.median(), "us",
                service_us.size());
  report.metric("serve.transport_p50_us", p50 - service_us.median(), "us");
  report.metric("serve.lru_hit_ratio", lru_hit_ratio, "ratio");
  report.metric("serve.coalesced_ratio", coalesced_ratio, "ratio");
  for (const char* op : {"admission_check", "wcd_bound", "nc_delay"}) {
    const std::string name = std::string("serve.dispatch.") + op;
    report.timing(name + ".mean_us", mean_us(t, name), "us", span_count(t, name));
  }
  report.metric("core.e2e_bounds_into.calls", static_cast<double>(e2e_calls),
                "count");
  report.metric("core.e2e_bounds_into.mean_us",
                mean_us(t, "core.e2e_bounds_into"), "us");
  report.metric("core.e2e_bounds_into.flows_per_call",
                e2e_calls == 0 ? 0.0
                               : static_cast<double>(probes.e2e_flows) /
                                     static_cast<double>(e2e_calls),
                "count");
  report_stage_split(t, report);
  report.metric("dram.service_curve.mean_us", mean_us(t, "dram.service_curve"),
                "us");
  report.metric("dram.bounds.mean_us", mean_us(t, "dram.bounds"), "us");
  report.metric("dram.bounds.iterations_mean", probes.iterations_mean,
                "count");
  report.metric("nc.delay_bound.mean_us", mean_us(t, "nc.delay_bound"), "us");
  report.timing("serve.open_loop_p50_us", p50, "us", latency.samples());
  report.timing("serve.open_loop_p95_us", latency.quantile(0.95), "us",
                latency.samples());
  report.timing("bench.gen_lag_p99_us", lag_us.quantile(0.99), "us",
                lag_us.size());
  report_trace_summary(report, t, traced_verifier.wall_us / verifier.wall_us,
                       latency.samples());
  return 0;
}

}  // namespace perfbench
