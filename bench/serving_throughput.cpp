// Serving-path benchmark and acceptance gate for the papd analysis
// service. Exercises an in-process AnalysisService (no sockets — this
// measures the service core: queueing, batching, caching, handler
// dispatch) and enforces the serving-layer guarantees:
//
//   1. throughput — sustained admission_check rate at 4 workers must stay
//      above 10k req/s (all-distinct parameters, so every request runs the
//      full admission analysis; cache hits would be cheating);
//   2. byte-identity — a served wcd_bound reply must render exactly the
//      bytes the offline path produces for the same parameters, metric by
//      metric (dram::table2_row + the JsonlSink value rendering), on every
//      timed request;
//   3. bounded overload — with the queue saturated, `overloaded` replies
//      must come back in well under 10 ms and the process RSS must stay
//      flat: backpressure sheds load instead of buffering it;
//   4. sharded fleet — four service shards behind the consistent-hash
//      router must answer byte-identically to one service, and because
//      routing happens on the cache identity every key has a home shard:
//      steady-state traffic over a bounded key population is all cache
//      hits, and the fleet must sustain >= 100k req/s aggregate;
//   5. disk warm restart — a service restarted over the same --cache-dir
//      must answer previously computed requests from the disk tier (every
//      timed request a disk hit: its LRU is off) with exactly the bytes
//      the first run produced;
//   6. request intake — the per-request layers in isolation, on
//      serve_mix-shaped admission_check lines: parse_request (2 and 16
//      apps), Request::key() and the handler's ParamReader pass (16 apps).
//      Rows only, no gate: they say which layer a serving change moved.
//   7. cold-request worker stages — the admission_check handler alone
//      (2 and 16 apps on 8x8; 2 apps on 16x16, where the admission
//      engine's per-link tables are largest for the least work) and
//      render_result of a 16-app result. Rows only, no gate.
//
// Results go to BENCH_serve.json in the pap-bench-v1 schema consumed by
// tools/bench_compare.py; the committed baseline lives at the repo root
// next to BENCH_nc.json / BENCH_sim.json.
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "dram/controller.hpp"
#include "dram/timing.hpp"
#include "dram/wcd.hpp"
#include "serve/client.hpp"
#include "serve/handlers.hpp"
#include "serve/param_reader.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using pap::serve::AnalysisService;
using pap::serve::ServiceConfig;

struct BenchRow {
  std::string name;
  double real_ns = 0.0;  // per operation
  long long iterations = 0;
};

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

std::string admission_request(long id, long variant) {
  // All-distinct rate pairs: every request is a fresh cache key.
  const double r0 = 0.001 + 0.0001 * static_cast<double>(variant % 997);
  const double r1 = 0.002 + 0.0001 * static_cast<double>(variant % 1009);
  return "{\"id\": " + std::to_string(id) +
         ", \"op\": \"admission_check\", \"params\": {"
         "\"mesh_cols\": 4, \"mesh_rows\": 4, \"noc_budget_gbps\": 64.0, "
         "\"apps\": ["
         "{\"burst\": 8, \"rate\": " + std::to_string(r0) +
         ", \"src_x\": 0, \"src_y\": 0, \"dst_x\": 3, \"dst_y\": 3, "
         "\"deadline_ns\": 40000, \"uses_dram\": true},"
         "{\"burst\": 4, \"rate\": " + std::to_string(r1) +
         ", \"src_x\": 1, \"src_y\": 2, \"dst_x\": 2, \"dst_y\": 0, "
         "\"deadline_ns\": 80000}"
         "]}}";
}

/// Section 1: closed-loop throughput over the full service path with
/// distinct parameters on every request.
BenchRow bench_admission_throughput() {
  ServiceConfig config;
  config.workers = 4;
  config.queue_capacity = 4096;
  AnalysisService service(config);

  constexpr long kRequests = 20000;
  constexpr int kSubmitters = 8;
  std::atomic<long> next{0};
  std::atomic<long> ok{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        const long i = next.fetch_add(1);
        if (i >= kRequests) return;
        const std::string reply = service.handle(admission_request(i, i));
        if (reply.find("\"ok\":true") != std::string::npos) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const double rps = static_cast<double>(kRequests) / seconds;

  std::printf("admission_check: %ld requests, %.2f s, %.0f req/s\n",
              kRequests, seconds, rps);
  check(ok.load() == kRequests, "all requests answered ok");
  check(rps >= 10000.0, "sustained >= 10k admission_check req/s at 4 workers");
  service.shutdown();
  return BenchRow{"BM_ServeAdmissionCheck", seconds * 1e9 / kRequests,
                  kRequests};
}

/// Mean ns per call of `op` over at least 0.2 s of batched calls.
template <class Op>
BenchRow time_layer(const std::string& name, Op&& op) {
  constexpr long kBatch = 256;
  long iterations = 0;
  const auto t0 = Clock::now();
  double elapsed_ns = 0.0;
  do {
    for (long i = 0; i < kBatch; ++i) op();
    iterations += kBatch;
    elapsed_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  } while (elapsed_ns < 2e8);
  const double ns = elapsed_ns / static_cast<double>(iterations);
  std::printf("%-40s %10.0f ns/op\n", name.c_str(), ns);
  return BenchRow{name, ns, iterations};
}

/// Section 2: a served wcd_bound reply carries exactly the offline bytes.
/// The row times the nine requests in turn, computed every time (the LRU
/// is off), through the full submit -> worker -> reply path.
BenchRow bench_wcd_byte_identity() {
  ServiceConfig config;
  config.workers = 2;
  config.cache_entries = 0;
  AnalysisService service(config);

  // The Table II configuration (bench/table2_wcd_bounds.cpp).
  const pap::dram::ControllerParams ctrl = pap::dram::ControllerConfig{}
                                               .n_cap(16)
                                               .watermarks(55, 28)
                                               .n_wd(16)
                                               .banks(1)
                                               .build()
                                               .value();
  constexpr int kN = 13;
  const auto timings = pap::dram::ddr3_1600();
  const std::vector<double> gbps = {0.5, 1.0, 2.0, 4.0,  5.0,
                                    6.0, 6.5, 7.0, 7.2};

  std::vector<std::string> lines;
  std::vector<std::string> expect;
  for (std::size_t i = 0; i < gbps.size(); ++i) {
    // Offline: the exact engine call and value rendering the batch bench
    // uses for a Table II row.
    const auto b = pap::dram::table2_row(timings, ctrl, gbps[i], kN);
    const auto bucket = pap::nc::TokenBucket::from_rate(
        pap::Rate::gbps(gbps[i]), pap::kCacheLineBytes, 8.0);
    pap::dram::WcdAnalysis analysis(timings, ctrl, bucket);
    pap::exp::Result offline("wcd_bound");
    offline.add("lower", b.lower)
        .add("upper", b.upper)
        .add("gap", b.upper - b.lower)
        .add("iterations_lower", b.iterations_lower)
        .add("iterations_upper", b.iterations_upper)
        .add("converged", b.converged)
        .add("interference_utilization",
             pap::exp::Value{analysis.interference_utilization(), 6});
    expect.push_back(pap::serve::ok_reply(static_cast<std::int64_t>(i),
                                          pap::serve::render_result(offline)));
    char line[160];
    std::snprintf(line, sizeof line,
                  "{\"id\": %zu, \"op\": \"wcd_bound\", "
                  "\"params\": {\"write_gbps\": %.17g}}",
                  i, gbps[i]);
    lines.emplace_back(line);
  }

  bool all_identical = true;
  std::size_t k = 0;
  const BenchRow row = time_layer("BM_ServeWcdBound", [&] {
    const std::string reply = service.handle(lines[k]);
    if (reply != expect[k] && all_identical) {
      all_identical = false;
      std::printf("  mismatch at %.1f GB/s:\n    served  %s\n    offline %s\n",
                  gbps[k], reply.c_str(), expect[k].c_str());
    }
    k = (k + 1) % lines.size();
  });
  check(all_identical,
        "wcd_bound replies byte-identical to offline table2_row rendering");
  service.shutdown();
  return row;
}

long rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      std::sscanf(line + 6, "%ld", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

/// Section 3: saturate a tiny service and verify overload replies are
/// immediate and allocation-free at steady state.
BenchRow bench_overload() {
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  config.cache_entries = 0;  // force every request through the queue
  // The worker parks before running a job until the flood is over, so the
  // worker and the queue stay provably full however fast a job runs.
  struct Hold {
    std::promise<void> release;
    std::shared_future<void> released{release.get_future().share()};
    std::atomic<bool> parked{false};
  };
  const auto hold = std::make_shared<Hold>();
  config.before_dispatch = [hold](const std::string&) {
    hold->parked.store(true);
    hold->released.wait();
  };
  AnalysisService service(config);

  // Fill the worker + queue with scenario simulations (distinct sim times,
  // so they cannot coalesce). The worker pops the first job and parks
  // (before_dispatch runs after the pop); only then do the other four
  // fill the queue to its capacity.
  std::atomic<int> slow_done{0};
  std::vector<std::string> slow;
  for (int i = 0; i < 5; ++i) {
    slow.push_back("{\"id\": " + std::to_string(i) +
                   ", \"op\": \"scenario_sim\", \"params\": {\"hogs\": " +
                   std::to_string(1 + i % 3) +
                   ", \"sim_time_us\": " + std::to_string(2000 + i) + "}}");
  }
  service.submit(slow[0], [&](std::string) { slow_done.fetch_add(1); });
  for (int i = 0; i < 100000 && !hold->parked.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  check(hold->parked.load(), "worker parked on the first job");
  for (std::size_t i = 1; i < slow.size(); ++i) {
    service.submit(slow[i], [&](std::string) { slow_done.fetch_add(1); });
  }

  // Flood with distinct admission checks. The worker is parked and the
  // queue is full for the whole flood, so every submit must bounce.
  constexpr long kFlood = 50000;
  const long rss_before = rss_kb();
  pap::LatencyHistogram overload_latency;
  long overloaded = 0;
  long accepted = 0;
  // Accepted requests reply later on a worker thread, so the reply target
  // must outlive this loop iteration: shared slots, written exactly once.
  struct ReplySlot {
    std::atomic<bool> done{false};
    std::string text;
  };
  for (long i = 0; i < kFlood; ++i) {
    const std::string line = admission_request(1000 + i, i);
    auto slot = std::make_shared<ReplySlot>();
    const auto t0 = Clock::now();
    service.submit(line, [slot](std::string reply) {
      slot->text = std::move(reply);
      slot->done.store(true, std::memory_order_release);
    });
    // Overload replies are synchronous by contract: done before submit
    // returned. Anything still pending was accepted into the queue.
    if (slot->done.load(std::memory_order_acquire) &&
        slot->text.find("\"code\":\"overloaded\"") != std::string::npos) {
      ++overloaded;
      overload_latency.add(pap::Time::from_ns(
          std::chrono::duration<double, std::nano>(Clock::now() - t0)
              .count()));
    } else {
      ++accepted;
    }
  }
  const long rss_after = rss_kb();

  std::printf("overload: %ld flooded, %ld overloaded, %ld accepted, "
              "RSS %ld -> %ld kB\n",
              kFlood, overloaded, accepted, rss_before, rss_after);
  check(overloaded == kFlood && slow_done.load() == 0,
        "backpressure engaged under flood (every submit bounced)");
  const double p99_ms = overload_latency.empty()
                            ? 1e9
                            : overload_latency.percentile(99).nanos() / 1e6;
  const double max_ms = overload_latency.empty()
                            ? 1e9
                            : overload_latency.max().nanos() / 1e6;
  std::printf("overload reply latency: p99 %.3f ms, max %.3f ms\n", p99_ms,
              max_ms);
  check(p99_ms < 10.0, "overloaded replies within 10 ms (p99)");
  check(rss_after - rss_before < 64 * 1024,
        "flat RSS under sustained overload (< 64 MB growth)");

  hold->release.set_value();
  service.shutdown();
  const double mean_ns = overload_latency.empty()
                             ? 0.0
                             : overload_latency.mean().nanos();
  return BenchRow{"BM_ServeOverloadReject", mean_ns, overloaded};
}

/// Section 4: a 4-shard fleet routed on the cache identity. Every distinct
/// computation has exactly one home shard, so a bounded key population is
/// computed once per key fleet-wide and then served from each home
/// shard's LRU — the steady state a papd fleet runs in. The gate is on
/// that steady state: >= 100k req/s aggregate, byte-identical to a single
/// service the whole way.
BenchRow bench_sharded_fleet() {
  constexpr std::size_t kShards = 4;
  constexpr int kKeys = 64;
  constexpr long kHot = 300000;
  constexpr int kSubmitters = 2;

  std::vector<std::unique_ptr<AnalysisService>> fleet;
  for (std::size_t s = 0; s < kShards; ++s) {
    ServiceConfig cfg;
    cfg.workers = 1;
    fleet.push_back(std::make_unique<AnalysisService>(cfg));
  }
  ServiceConfig ref_cfg;
  ref_cfg.workers = 1;
  AnalysisService reference(ref_cfg);

  // Warm phase: every key computed once on its home shard and once on the
  // reference — replies must match byte for byte. The population is
  // compact single-app admission checks: steady-state RM traffic repeats
  // a bounded set of admission questions, and parse cost scales with line
  // length, so the hot path measures serving overhead, not JSON length.
  std::vector<std::string> lines(kKeys);
  std::vector<std::size_t> home(kKeys);
  std::vector<std::string> expect(kKeys);
  std::set<std::size_t> shards_used;
  bool identical = true;
  for (int k = 0; k < kKeys; ++k) {
    lines[k] = "{\"id\":" + std::to_string(k) +
               ",\"op\":\"admission_check\",\"params\":{\"apps\":[{\"rate\":" +
               std::to_string(0.01 + 0.001 * k) + "}]}}";
    const auto req = pap::serve::parse_request(lines[k]);
    home[k] = pap::serve::Client::route(req.value().key(), kShards);
    shards_used.insert(home[k]);
    expect[k] = reference.handle(lines[k]);
    const std::string sharded = fleet[home[k]]->handle(lines[k]);
    if (sharded != expect[k]) identical = false;
  }
  check(identical, "4-shard replies byte-identical to single service");
  check(shards_used.size() == kShards, "routing uses every shard");

  // Steady state: closed-loop traffic over the warmed population, every
  // request answered from its home shard. Cache-hit replies fire
  // synchronously on the submitting thread by contract, so a plain slot
  // captures them — no future round trip per request.
  std::atomic<long> next{0};
  std::atomic<long> mismatches{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&] {
      std::string reply;
      auto capture = [&reply](std::string r) { reply = std::move(r); };
      for (;;) {
        const long i = next.fetch_add(1);
        if (i >= kHot) return;
        const int k = static_cast<int>(i % kKeys);
        reply.clear();
        fleet[home[k]]->submit(lines[k], capture);
        if (reply != expect[k]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const double rps = static_cast<double>(kHot) / seconds;

  long hits = 0;
  for (const auto& s : fleet) {
    hits += static_cast<long>(s->counts("admission_check").cache_hits);
  }
  std::printf("sharded fleet: %ld requests over %d keys x %zu shards, "
              "%.2f s, %.0f req/s aggregate, %ld cache hits\n",
              kHot, kKeys, kShards, seconds, rps, hits);
  check(mismatches.load() == 0, "hot-path replies byte-identical throughout");
  check(hits >= kHot, "steady state served from each key's home shard LRU");
  check(rps >= 100000.0, "sustained >= 100k req/s aggregate across 4 shards");

  for (auto& s : fleet) s->shutdown();
  reference.shutdown();
  return BenchRow{"BM_ServeShardedHot", seconds * 1e9 / kHot, kHot};
}

/// Section 5: restart warmth. A fresh service over the same cache
/// directory must serve previously computed answers from disk —
/// byte-identical, without rerunning the analysis.
BenchRow bench_disk_warm_restart() {
  const std::string dir =
      "bench_serve_diskcache-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_dir = dir;

  const std::vector<double> gbps = {0.5, 1.0, 2.0, 4.0,  5.0,
                                    6.0, 6.5, 7.0, 7.2};
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < gbps.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{\"id\": %zu, \"op\": \"wcd_bound\", "
                  "\"params\": {\"write_gbps\": %.17g}}",
                  i, gbps[i]);
    lines.emplace_back(buf);
  }

  // Cold run: compute and persist.
  std::vector<std::string> first(gbps.size());
  {
    AnalysisService service(cfg);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      first[i] = service.handle(lines[i]);
    }
    service.shutdown();
  }

  // Restart: a new service over the same directory, its LRU off, so
  // every timed request is served from disk.
  cfg.cache_entries = 0;
  AnalysisService restarted(cfg);
  bool identical = true;
  std::size_t k = 0;
  const BenchRow row = time_layer("BM_ServeDiskWarmRestart", [&] {
    if (restarted.handle(lines[k]) != first[k]) identical = false;
    k = (k + 1) % lines.size();
  });
  const auto disk_hits = restarted.counts("wcd_bound").disk_hits;

  std::printf("disk warm restart: %lld requests, %llu disk hits\n",
              row.iterations, static_cast<unsigned long long>(disk_hits));
  check(disk_hits == static_cast<std::uint64_t>(row.iterations),
        "every request after the restart answered from disk");
  check(identical, "disk-served replies byte-identical to the first run");

  restarted.shutdown();
  std::filesystem::remove_all(dir);
  return row;
}

/// A serve_mix-shaped admission_check line: `apps` apps on a `mesh` x
/// `mesh` mesh (endpoints in its 8x8 corner), in the member order
/// perfbench's serve_mix writes.
std::string intake_line(int apps, int mesh = 8) {
  auto num = [](double v) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  };
  std::string p = "{\"mesh_cols\":" + std::to_string(mesh) +
                  ",\"mesh_rows\":" + std::to_string(mesh) + ",\"apps\":[";
  for (int i = 0; i < apps; ++i) {
    if (i > 0) p += ',';
    p += "{\"burst\":" + std::to_string(1 + i % 8) +
         ",\"rate\":" + num(0.001 * (1 + i % 12)) +
         ",\"src_x\":" + std::to_string(i % 8) +
         ",\"src_y\":" + std::to_string((i / 8) % 8) +
         ",\"dst_x\":" + std::to_string((i + 3) % 8) +
         ",\"dst_y\":" + std::to_string((i + 5) % 8) +
         ",\"deadline_ns\":" + num(100.0 * (10 + i % 50) + 0.125 * i) +
         ",\"uses_dram\":" + (i % 4 == 0 ? "true" : "false") +
         ",\"critical\":" + (i % 3 != 0 ? "true" : "false") + "}";
  }
  p += "]}";
  return "{\"id\":12345,\"op\":\"admission_check\",\"params\":" + p + "}";
}

/// The parameter reads handle_admission_check makes, in its order.
bool read_admission_params(const pap::exp::Params& params) {
  pap::serve::ParamReader r(params);
  r.get_int("mesh_cols", 4, 2, 16);
  r.get_int("mesh_rows", 4, 2, 16);
  r.get_double("noc_budget_gbps", 64.0, 0.001, 1e6);
  r.get_double("burst_packets", 4.0, 0.0, 1e6);
  const int n = r.count_indexed("apps", 32);
  for (int i = 0; i < n; ++i) {
    const std::string k = "apps." + std::to_string(i) + ".";
    r.get_double(k + "burst", 1.0, 0.0, 1e6);
    r.require(k + "rate");
    r.get_double(k + "rate", 0.0, 0.0, 1e6);
    r.get_int(k + "src_x", 0, 0, 7);
    r.get_int(k + "src_y", 0, 0, 7);
    r.get_int(k + "dst_x", 7, 0, 7);
    r.get_int(k + "dst_y", 0, 0, 7);
    r.get_double(k + "deadline_ns", 2000.0, 0.001, 1e9);
    r.get_bool(k + "uses_dram", false);
    r.get_bool(k + "critical", true);
  }
  r.finish();
  return !r.failed();
}

/// Section 6: the request-intake layers, one row each.
std::vector<BenchRow> bench_intake_layers() {
  std::vector<BenchRow> rows;
  std::size_t sink = 0;
  for (int apps : {2, 16}) {
    const std::string line = intake_line(apps);
    const auto parsed = pap::serve::parse_request(line);
    check(parsed.has_value(), std::to_string(apps) + "-app intake line parses");
    rows.push_back(time_layer(
        "BM_ServeParseRequest/" + std::to_string(apps), [&] {
          sink += pap::serve::parse_request(line).value().params.size();
        }));
  }
  const auto req = pap::serve::parse_request(intake_line(16));
  if (!req.has_value()) return rows;
  const pap::serve::Request& r = req.value();
  check(r.params.size() == 16 * 9 + 2, "16-app line flattens to 146 keys");
  rows.push_back(time_layer("BM_ServeRequestKey/16",
                            [&] { sink += r.key().size(); }));
  check(read_admission_params(r.params),
        "16-app admission_check parameters read without error");
  rows.push_back(time_layer("BM_ServeParamRead/16", [&] {
    sink += read_admission_params(r.params) ? 1 : 0;
  }));
  if (sink == 0) std::printf("(unreachable: keeps the timed calls)\n");
  return rows;
}

/// Section 7: the two worker stages of a cold admission_check, one row
/// each: the handler (dispatch) and render_result.
std::vector<BenchRow> bench_worker_stages() {
  struct Case {
    std::string name;
    int apps, mesh;
  };
  const std::vector<Case> cases = {
      {"BM_ServeAdmissionCheckDispatch/2", 2, 8},
      {"BM_ServeAdmissionCheckDispatch/16", 16, 8},
      {"BM_ServeAdmissionCheckDispatch/2/mesh16", 2, 16}};
  const pap::serve::HandlerLimits limits;
  std::vector<BenchRow> rows;
  std::size_t sink = 0;
  pap::exp::Result sixteen;
  for (const Case& c : cases) {
    const auto req = pap::serve::parse_request(intake_line(c.apps, c.mesh));
    const auto out = pap::serve::dispatch(req.value().op, req.value().params,
                                          limits);
    check(out.ok, c.name + " line is answered");
    if (!out.ok) continue;
    if (c.apps == 16) sixteen = out.result;
    rows.push_back(time_layer(c.name, [&] {
      sink += pap::serve::dispatch(req.value().op, req.value().params, limits)
                  .result.metrics()
                  .size();
    }));
  }
  rows.push_back(time_layer("BM_ServeRenderResult/16", [&] {
    sink += pap::serve::render_result(sixteen).size();
  }));
  if (sink == 0) std::printf("(unreachable: keeps the timed calls)\n");
  return rows;
}

bool write_report(const std::string& path, const std::vector<BenchRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "serving_throughput: cannot write %s\n",
                 path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"pap-bench-v1\",\n");
  std::fprintf(f, "  \"suite\": \"serve\",\n");
  std::fprintf(f, "  \"build_type\": \"%s\",\n", PAP_BUILD_TYPE);
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"real_ns\": %.6g, "
                 "\"cpu_ns\": %.6g, \"iterations\": %lld}%s\n",
                 r.name.c_str(), r.real_ns, r.real_ns, r.iterations,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("serving_throughput: wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out-dir=", 10) == 0) {
      out_dir = argv[i] + 10;
    } else if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    }
  }

  std::printf("== serving throughput ==\n");
  std::vector<BenchRow> rows;
  rows.push_back(bench_admission_throughput());
  std::printf("== wcd byte identity ==\n");
  rows.push_back(bench_wcd_byte_identity());
  std::printf("== overload behaviour ==\n");
  rows.push_back(bench_overload());
  std::printf("== sharded fleet ==\n");
  rows.push_back(bench_sharded_fleet());
  std::printf("== disk warm restart ==\n");
  rows.push_back(bench_disk_warm_restart());
  std::printf("== request intake ==\n");
  for (auto& row : bench_intake_layers()) rows.push_back(std::move(row));
  std::printf("== cold-request worker stages ==\n");
  for (auto& row : bench_worker_stages()) rows.push_back(std::move(row));

  if (!write_report(out_dir + "/BENCH_serve.json", rows)) return 1;
  if (g_failures > 0) {
    std::printf("serving_throughput: %d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("serving_throughput: all checks passed\n");
  return 0;
}
