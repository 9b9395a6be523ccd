// AnalysisService behaviour: batching, caching, backpressure, determinism
// across the compute/cache/coalesce paths, concurrent submitters, the
// graceful-drain contract and the per-endpoint stats. The tests use the ServiceConfig::before_dispatch
// seam to hold a worker at a known point, which turns the inherently racy
// coalescing and overload windows into deterministic ones.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.hpp"
#include "serve/service.hpp"

namespace pap::serve {
namespace {

using namespace std::chrono_literals;

// A reusable gate: workers block in before_dispatch until opened. Held by
// shared_ptr so a detached worker outliving a test still touches valid
// memory.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> waiting{0};

  void wait_at_gate() {
    ++waiting;
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return open; });
  }
  void open_gate() {
    {
      std::lock_guard<std::mutex> lk(mu);
      open = true;
    }
    cv.notify_all();
  }
  /// Spin until a worker is parked at the gate (bounded).
  bool await_worker(int n = 1) {
    for (int i = 0; i < 20000 && waiting.load() < n; ++i) {
      std::this_thread::sleep_for(100us);
    }
    return waiting.load() >= n;
  }
};

std::string admission_line(int id, int variant = 0) {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"admission_check\",\"params\":{\"apps\":[{\"rate\":0.00" +
         std::to_string(1 + variant % 9) + "}]}}";
}

std::string nc_line(int id, double rate) {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"nc_delay\",\"params\":{\"arrival\":{\"burst\":8,\"rate\":" +
         std::to_string(rate) + "},\"service\":{\"rate\":2.0," +
         "\"latency_ns\":50}}}";
}

TEST(Service, AnswersEveryEndpointAndControlOp) {
  ServiceConfig cfg;
  cfg.workers = 2;
  AnalysisService svc(cfg);

  EXPECT_EQ(svc.handle(R"({"id":1,"op":"ping"})"),
            R"({"id":1,"ok":true,"result":{"label":"pong","metrics":{}}})");

  const std::string stats = svc.handle(R"({"id":2,"op":"stats"})");
  EXPECT_NE(stats.find("\"ok\":true"), stats.npos);
  EXPECT_NE(stats.find("\"endpoints\""), stats.npos);

  const std::string adm = svc.handle(admission_line(3));
  EXPECT_NE(adm.find("\"id\":3,\"ok\":true"), adm.npos) << adm;
  EXPECT_NE(adm.find("\"admitted\":1"), adm.npos) << adm;

  const std::string wcd = svc.handle(
      R"({"id":4,"op":"wcd_bound","params":{"write_gbps":4.0}})");
  EXPECT_NE(wcd.find("\"id\":4,\"ok\":true"), wcd.npos) << wcd;
  EXPECT_NE(wcd.find("\"upper\":"), wcd.npos) << wcd;

  const std::string ncd = svc.handle(nc_line(5, 1.0));
  EXPECT_NE(ncd.find("\"bounded\":true"), ncd.npos) << ncd;

  const std::string sim = svc.handle(
      R"({"id":6,"op":"scenario_sim","params":{"sim_time_us":50}})");
  EXPECT_NE(sim.find("\"id\":6,\"ok\":true"), sim.npos) << sim;

  const std::string bad = svc.handle(R"({"id":7,"op":"no_such_op"})");
  EXPECT_NE(bad.find("\"code\":\"bad_request\""), bad.npos) << bad;

  const std::string parse = svc.handle("not json");
  EXPECT_NE(parse.find("\"code\":\"parse_error\""), parse.npos) << parse;

  const std::string badparam = svc.handle(
      R"({"id":8,"op":"wcd_bound","params":{"write_gbps":4,"typo":1}})");
  EXPECT_NE(badparam.find("unknown parameter 'typo'"), badparam.npos)
      << badparam;
}

TEST(Service, ScenarioSimAcceptsInlinePapText) {
  ServiceConfig cfg;
  cfg.workers = 1;
  AnalysisService svc(cfg);

  // A full `.pap` scenario shipped in the request (docs/scenarios.md).
  const std::string good = svc.handle(
      R"({"id":1,"op":"scenario_sim","params":{)"
      R"("scenario":"scenario soc\nname served\nsim_time 50us\nhogs 1\n"}})");
  EXPECT_NE(good.find("\"id\":1,\"ok\":true"), good.npos) << good;
  EXPECT_NE(good.find("\"label\":\"served\""), good.npos) << good;
  EXPECT_NE(good.find("\"rt_p99\""), good.npos) << good;

  // dram and admission kinds are served through the same door.
  const std::string dram = svc.handle(
      R"({"id":2,"op":"scenario_sim","params":{)"
      R"("scenario":"scenario dram\nname d\nsim_time 100us\n"}})");
  EXPECT_NE(dram.find("\"id\":2,\"ok\":true"), dram.npos) << dram;
  EXPECT_NE(dram.find("\"read_p99\""), dram.npos) << dram;

  // Parse failures are typed bad_request replies carrying line/column.
  const std::string bad = svc.handle(
      R"({"id":3,"op":"scenario_sim","params":{)"
      R"("scenario":"scenario soc\nhogs minus_one\n"}})");
  EXPECT_NE(bad.find("\"code\":\"bad_request\""), bad.npos) << bad;
  EXPECT_NE(bad.find("line 2, col 6"), bad.npos) << bad;

  // `scenario` is exclusive: mixing it with knob params is rejected.
  const std::string mixed = svc.handle(
      R"({"id":4,"op":"scenario_sim","params":{)"
      R"("scenario":"scenario soc\n","hogs":2}})");
  EXPECT_NE(mixed.find("\"code\":\"bad_request\""), mixed.npos) << mixed;

  // Serving caps hold on the text path too: sim_time, trace masters.
  const std::string capped = svc.handle(
      R"({"id":5,"op":"scenario_sim","params":{)"
      R"("scenario":"scenario soc\nsim_time 30ms\n"}})");
  EXPECT_NE(capped.find("\"code\":\"bad_request\""), capped.npos) << capped;
  EXPECT_NE(capped.find("serving cap"), capped.npos) << capped;

  const std::string traced = svc.handle(
      R"({"id":6,"op":"scenario_sim","params":{)"
      R"("scenario":"scenario soc\nmaster t trace file=x.trace\n"}})");
  EXPECT_NE(traced.find("\"code\":\"bad_request\""), traced.npos) << traced;
  EXPECT_NE(traced.find("trace masters are not allowed"), traced.npos)
      << traced;
}

TEST(Service, NonFiniteScenarioTimesAreBadRequestsNotCrashes) {
  ServiceConfig cfg;
  cfg.workers = 1;
  AnalysisService svc(cfg);
  // A NaN fault time used to reach the simulation kernel as INT64_MIN and
  // abort the daemon.
  const std::string nan = svc.handle(
      R"({"id":1,"op":"scenario_sim","params":{)"
      R"("scenario":"scenario soc\nsim_time 50us\nfaults dram@nanus=5us\n"}})");
  EXPECT_NE(nan.find("\"code\":\"bad_request\""), nan.npos) << nan;
  EXPECT_NE(nan.find("line 3, col 8"), nan.npos) << nan;

  const std::string next = svc.handle(
      R"({"id":2,"op":"scenario_sim","params":{)"
      R"("scenario":"scenario soc\nsim_time 50us\nhogs 1\n"}})");
  EXPECT_NE(next.find("\"id\":2,\"ok\":true"), next.npos) << next;
}

TEST(Service, ScenarioSimTextSizeIsBounded) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.handlers.max_scenario_text = 64;
  AnalysisService svc(cfg);
  const std::string small = svc.handle(
      R"({"id":1,"op":"scenario_sim","params":{)"
      R"("scenario":"scenario soc\nsim_time 50us\n"}})");
  EXPECT_NE(small.find("\"ok\":true"), small.npos) << small;
  const std::string big = svc.handle(
      R"({"id":2,"op":"scenario_sim","params":{"scenario":"scenario soc\n# )" +
      std::string(80, 'x') + R"(\n"}})");
  EXPECT_NE(big.find("\"code\":\"bad_request\""), big.npos) << big;
  EXPECT_NE(big.find("exceeds 64 bytes"), big.npos) << big;
}

TEST(Service, WcdBoundPolicyAndDeviceAreStrictlyValidated) {
  ServiceConfig cfg;
  cfg.workers = 1;
  AnalysisService svc(cfg);

  // Defaults (frfcfs / ddr3_1600) and the explicit spelling of the same
  // configuration must produce byte-identical result payloads.
  auto result_of = [](const std::string& reply) {
    const auto at = reply.find("\"result\"");
    return at == reply.npos ? reply : reply.substr(at);
  };
  const std::string defaults = svc.handle(
      R"({"id":1,"op":"wcd_bound","params":{"write_gbps":4.0}})");
  const std::string spelled = svc.handle(
      R"({"id":2,"op":"wcd_bound","params":{"write_gbps":4.0,)"
      R"("dram":{"policy":"frfcfs","device":"ddr3_1600"}}})");
  EXPECT_NE(defaults.find("\"ok\":true"), defaults.npos) << defaults;
  EXPECT_EQ(result_of(defaults), result_of(spelled));

  // Every analyzable policy answers; a different device shifts the bound.
  for (const std::string policy : {"fcfs", "close_page", "starvation_guard"}) {
    const std::string r = svc.handle(
        R"({"id":3,"op":"wcd_bound","params":{"write_gbps":4.0,)"
        R"("dram":{"policy":")" + policy + R"("}}})");
    EXPECT_NE(r.find("\"ok\":true"), r.npos) << r;
  }
  const std::string ddr4 = svc.handle(
      R"({"id":4,"op":"wcd_bound","params":{"write_gbps":4.0,)"
      R"("dram":{"device":"ddr4_2400"}}})");
  EXPECT_NE(ddr4.find("\"ok\":true"), ddr4.npos) << ddr4;
  EXPECT_NE(result_of(ddr4), result_of(defaults));

  // Unknown policy: a typed bad_request naming the valid set — not a crash.
  const std::string bad_policy = svc.handle(
      R"({"id":5,"op":"wcd_bound","params":{"write_gbps":4.0,)"
      R"("dram":{"policy":"lifo"}}})");
  EXPECT_NE(bad_policy.find("\"code\":\"bad_request\""), bad_policy.npos)
      << bad_policy;
  EXPECT_NE(bad_policy.find("starvation_guard"), bad_policy.npos)
      << bad_policy;

  // write_drain exists but has no analytic bound: refused, not aborted.
  const std::string unbounded = svc.handle(
      R"({"id":6,"op":"wcd_bound","params":{"write_gbps":4.0,)"
      R"("dram":{"policy":"write_drain"}}})");
  EXPECT_NE(unbounded.find("\"code\":\"bad_request\""), unbounded.npos)
      << unbounded;
  EXPECT_NE(unbounded.find("no analytic WCD bound"), unbounded.npos)
      << unbounded;

  const std::string bad_device = svc.handle(
      R"({"id":7,"op":"wcd_bound","params":{"write_gbps":4.0,)"
      R"("dram":{"device":"ddr5_6400"}}})");
  EXPECT_NE(bad_device.find("\"code\":\"bad_request\""), bad_device.npos)
      << bad_device;
  EXPECT_NE(bad_device.find("lpddr4_3200"), bad_device.npos) << bad_device;

  // Invalid controller-knob combinations surface the builder's diagnostic.
  const std::string inverted = svc.handle(
      R"({"id":8,"op":"wcd_bound","params":{"write_gbps":4.0,)"
      R"("w_high":4,"w_low":9}})");
  EXPECT_NE(inverted.find("\"code\":\"bad_request\""), inverted.npos)
      << inverted;
  EXPECT_NE(inverted.find("w_high >= w_low"), inverted.npos) << inverted;

  // scenario_sim shares the same strict policy/device validation.
  const std::string sim_bad = svc.handle(
      R"({"id":9,"op":"scenario_sim","params":{"dram":{"policy":"lifo"}}})");
  EXPECT_NE(sim_bad.find("\"code\":\"bad_request\""), sim_bad.npos) << sim_bad;
  const std::string sim_ok = svc.handle(
      R"({"id":10,"op":"scenario_sim","params":{"sim_time_us":50,)"
      R"("dram":{"policy":"close_page","device":"lpddr4_3200"}}})");
  EXPECT_NE(sim_ok.find("\"ok\":true"), sim_ok.npos) << sim_ok;
}

TEST(Service, CacheHitsAreByteIdenticalToComputedReplies) {
  ServiceConfig cfg;
  cfg.workers = 1;
  AnalysisService svc(cfg);

  const std::string first = svc.handle(nc_line(10, 1.25));
  ASSERT_EQ(svc.counts("nc_delay").cache_hits, 0u);
  const std::string second = svc.handle(nc_line(10, 1.25));
  EXPECT_EQ(svc.counts("nc_delay").cache_hits, 1u);
  // The reply carries no computed-vs-cached marker: bytes are identical.
  EXPECT_EQ(first, second);
  // A different id on the same params hits the cache too, with only the id
  // differing in the reply.
  const std::string third = svc.handle(nc_line(11, 1.25));
  EXPECT_EQ(svc.counts("nc_delay").cache_hits, 2u);
  EXPECT_NE(third, second);
  EXPECT_EQ(third.substr(third.find(",\"ok\"")),
            second.substr(second.find(",\"ok\"")));
}

// nc_delay's arrival burst defaults to 0. A zero-burst token bucket
// against beta_{0.25, 20} still waits the 20 ns latency (the deviation's
// right-hand limit at t = 0), not 0.
TEST(Service, NcDelayWithTheDefaultZeroBurstWaitsTheLatency) {
  ServiceConfig cfg;
  cfg.workers = 1;
  AnalysisService svc(cfg);
  const std::string reply = svc.handle(
      R"({"id":1,"op":"nc_delay","params":{"arrival":{"rate":0.01},)"
      R"("service":{"rate":0.25,"latency_ns":20}}})");
  EXPECT_NE(reply.find("\"ok\":true"), reply.npos) << reply;
  EXPECT_NE(reply.find("\"delay\":20.000,"), reply.npos) << reply;
}

TEST(Service, CacheDisabledRecomputesEveryTime) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_entries = 0;
  AnalysisService svc(cfg);
  const std::string a = svc.handle(nc_line(1, 0.5));
  const std::string b = svc.handle(nc_line(1, 0.5));
  EXPECT_EQ(a, b);  // deterministic handlers: same bytes either way
  EXPECT_EQ(svc.counts("nc_delay").cache_hits, 0u);
  EXPECT_EQ(svc.counts("nc_delay").ok, 2u);
}

TEST(Service, CoalescesIdenticalInFlightRequests) {
  auto gate = std::make_shared<Gate>();
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.before_dispatch = [gate](const std::string&) { gate->wait_at_gate(); };
  AnalysisService svc(cfg);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> replies;
  auto collect = [&](std::string r) {
    std::lock_guard<std::mutex> lk(mu);
    replies.push_back(std::move(r));
    cv.notify_all();
  };

  // First request parks the single worker at the gate...
  svc.submit(nc_line(100, 3.0), collect);
  ASSERT_TRUE(gate->await_worker());
  // ...so these identical requests provably arrive while it is in flight
  // and must coalesce onto it (ids differ; identity is op+params).
  svc.submit(nc_line(101, 3.0), collect);
  svc.submit(nc_line(102, 3.0), collect);
  EXPECT_EQ(svc.counts("nc_delay").coalesced, 2u);
  EXPECT_EQ(svc.counts("nc_delay").requests, 3u);

  gate->open_gate();
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, 10s, [&] { return replies.size() == 3; }));
  }
  EXPECT_EQ(svc.counts("nc_delay").ok, 3u);
  // One handler run fanned out to all three waiters: identical payloads.
  std::set<std::string> payloads;
  std::set<std::string> ids;
  for (const auto& r : replies) {
    ids.insert(r.substr(0, r.find(",\"ok\"")));
    payloads.insert(r.substr(r.find(",\"ok\"")));
  }
  EXPECT_EQ(payloads.size(), 1u);
  EXPECT_EQ(ids.size(), 3u);
}

TEST(Service, OverloadRepliesAreSynchronousAndStructured) {
  auto gate = std::make_shared<Gate>();
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  cfg.cache_entries = 0;
  cfg.before_dispatch = [gate](const std::string&) { gate->wait_at_gate(); };
  AnalysisService svc(cfg);

  std::atomic<int> done{0};
  auto count = [&](std::string) { ++done; };
  // Worker busy + queue slot taken = saturated.
  svc.submit(nc_line(1, 1.0), count);
  ASSERT_TRUE(gate->await_worker());
  svc.submit(nc_line(2, 2.0), count);

  // The next distinct request must be rejected inline on this thread.
  std::string overload_reply;
  svc.submit(nc_line(3, 3.0),
             [&](std::string r) { overload_reply = std::move(r); });
  ASSERT_FALSE(overload_reply.empty());
  EXPECT_NE(overload_reply.find("\"id\":3,\"ok\":false"), overload_reply.npos);
  EXPECT_NE(overload_reply.find("\"code\":\"overloaded\""),
            overload_reply.npos);
  EXPECT_NE(overload_reply.find("capacity 1"), overload_reply.npos);
  EXPECT_EQ(svc.counts("nc_delay").overloaded, 1u);

  // Control ops still answer inline while saturated.
  EXPECT_NE(svc.handle(R"({"id":9,"op":"ping"})").find("pong"),
            std::string::npos);

  gate->open_gate();
  svc.shutdown();
  EXPECT_EQ(done.load(), 2);  // both accepted requests completed
}

TEST(Service, ShutdownDrainsEveryAcceptedRequest) {
  auto gate = std::make_shared<Gate>();
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 64;
  cfg.cache_entries = 0;
  cfg.before_dispatch = [gate](const std::string&) { gate->wait_at_gate(); };
  AnalysisService svc(cfg);

  constexpr int kAccepted = 8;
  std::atomic<int> replies{0};
  std::atomic<int> ok{0};
  for (int i = 0; i < kAccepted; ++i) {
    svc.submit(nc_line(i, 0.1 + 0.1 * i), [&](std::string r) {
      if (r.find("\"ok\":true") != std::string::npos) ++ok;
      ++replies;
    });
  }
  ASSERT_TRUE(gate->await_worker(2));

  // Drain from another thread; open the gate once the drain has begun so
  // new-intake rejection below provably happens while draining.
  std::thread drainer([&] { EXPECT_TRUE(svc.shutdown(10s)); });
  std::this_thread::sleep_for(10ms);
  std::string late;
  svc.submit(nc_line(99, 9.0), [&](std::string r) { late = std::move(r); });
  EXPECT_NE(late.find("\"code\":\"shutting_down\""), late.npos) << late;
  gate->open_gate();
  drainer.join();

  // Drained == every accepted reply was delivered, none dropped.
  EXPECT_EQ(replies.load(), kAccepted);
  EXPECT_EQ(ok.load(), kAccepted);
}

TEST(Service, ShutdownDeadlineExpiresWithStuckWorker) {
  auto gate = std::make_shared<Gate>();
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.before_dispatch = [gate](const std::string&) { gate->wait_at_gate(); };
  auto svc = std::make_unique<AnalysisService>(cfg);

  // Captured by value: the detached worker may deliver this reply after the
  // test body has moved on, so nothing it touches can live on this stack.
  auto replied = std::make_shared<std::atomic<bool>>(false);
  svc->submit(nc_line(1, 1.0), [replied](std::string) { *replied = true; });
  ASSERT_TRUE(gate->await_worker());
  EXPECT_FALSE(svc->shutdown(50ms));  // worker is parked: cannot drain
  EXPECT_FALSE(replied->load());
  // Releasing the gate lets the detached worker finish against the
  // shared-pointer-held state; destroying the service first proves the
  // state outlives it.
  svc.reset();
  gate->open_gate();
  std::this_thread::sleep_for(50ms);
}

TEST(Service, ConcurrentSubmittersAllGetExactlyOneReply) {
  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 4096;
  AnalysisService svc(cfg);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::atomic<int> replies{0};
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // A mix of distinct and shared keys: exercises cache, coalescing
        // and plain queueing together.
        const double rate = 0.1 + 0.05 * ((t * kPerThread + i) % 17);
        const std::string r = svc.handle(nc_line(t * kPerThread + i, rate));
        if (r.find("\"ok\":true") != std::string::npos) ++ok;
        ++replies;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(replies.load(), kThreads * kPerThread);
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  EXPECT_EQ(svc.counts("nc_delay").ok, kThreads * kPerThread);
  EXPECT_EQ(svc.counts("nc_delay").requests, kThreads * kPerThread);
  // With only 17 distinct keys most of the load was absorbed by the cache
  // (plus whatever coalesced during warm-up) rather than recomputed.
  EXPECT_GE(svc.counts("nc_delay").cache_hits +
                svc.counts("nc_delay").coalesced,
            static_cast<std::uint64_t>(kThreads * kPerThread - 17));
}

// Concurrency hammer for the per-endpoint stats slots (run under TSan in
// CI): submitters on many threads move analysis, session and error counts
// while another thread keeps reading `stats_json()`. No increment may be
// lost, and no snapshot may be torn: a snapshot never shows more outcomes
// than requests, more LRU/disk hits than ok replies, or a count lower
// than an earlier snapshot's.
TEST(Service, EndpointStatsNeverLoseOrTearUnderConcurrentSubmitters) {
  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 4096;
  AnalysisService svc(cfg);

  constexpr int kThreads = 6;  // <= HandlerLimits::max_sessions
  constexpr int kPerThread = 150;
  constexpr int kKeys = 17;
  const char* const kOps[] = {"nc_delay", "wcd_bound", "admission_open",
                              "admission_stats"};
  std::atomic<bool> done{false};
  std::atomic<long> snapshots{0};
  std::thread reader([&] {
    std::map<std::string, std::map<std::string, std::uint64_t>> last;
    while (!done.load()) {
      const auto parsed = json_parse(svc.stats_json());
      ASSERT_TRUE(parsed.has_value()) << parsed.error_message();
      const JsonValue* endpoints = parsed.value().get("endpoints");
      ASSERT_NE(endpoints, nullptr);
      for (const auto& [op, fields] : endpoints->object_v) {
        std::map<std::string, std::uint64_t> now;
        for (const auto& [name, v] : fields.object_v) {
          if (v.kind == JsonValue::Kind::kInt) {
            now[name] = static_cast<std::uint64_t>(v.int_v);
          }
        }
        EXPECT_LE(now["ok"] + now["errors"] + now["overloaded"],
                  now["requests"])
            << op;
        EXPECT_LE(now["coalesced"], now["requests"]) << op;
        EXPECT_LE(now["cache_hits"] + now["disk_hits"], now["ok"]) << op;
        for (const auto& [name, v] : last[op]) {
          EXPECT_GE(now[name], v) << op << "/" << name;
        }
        last[op] = now;
      }
      ++snapshots;
    }
  });

  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&svc, t] {
      const std::string open = svc.handle(
          R"({"id":1,"op":"admission_open","params":{}})");
      const auto at = open.find("\"session\":");
      ASSERT_NE(at, std::string::npos) << open;
      const std::string session =
          std::to_string(std::stoi(open.substr(at + 10)));
      for (int i = 0; i < kPerThread; ++i) {
        const int id = t * kPerThread + i;
        (void)svc.handle(nc_line(id, 0.1 + 0.05 * (id % kKeys)));
        (void)svc.handle(R"({"id":2,"op":"wcd_bound","params":{"typo":1}})");
        (void)svc.handle(R"({"id":3,"op":"admission_stats","params":)"
                         R"({"session":)" + session + "}}");
        (void)svc.handle(R"({"id":4,"op":"ping"})");
      }
    });
  }
  for (auto& t : submitters) t.join();
  done.store(true);
  reader.join();
  EXPECT_GT(snapshots.load(), 0);

  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  const EndpointCounts nc = svc.counts("nc_delay");
  EXPECT_EQ(nc.requests, kTotal);
  EXPECT_EQ(nc.ok, kTotal);
  EXPECT_EQ(nc.errors, 0u);
  // Each distinct key runs its handler once; every other request is an
  // LRU hit or rides the in-flight run.
  EXPECT_EQ(nc.cache_hits + nc.coalesced, kTotal - kKeys);
  const EndpointCounts wcd = svc.counts("wcd_bound");
  EXPECT_EQ(wcd.requests, kTotal);
  EXPECT_EQ(wcd.errors, kTotal);
  EXPECT_EQ(wcd.ok, 0u);
  EXPECT_EQ(svc.counts("admission_open").ok,
            static_cast<std::uint64_t>(kThreads));
  const EndpointCounts stats = svc.counts("admission_stats");
  EXPECT_EQ(stats.requests, kTotal);
  EXPECT_EQ(stats.ok, kTotal);
  EXPECT_EQ(stats.cache_hits + stats.coalesced, 0u);
  // Every ok reply also landed in its endpoint's latency histogram.
  const auto final_stats = json_parse(svc.stats_json());
  ASSERT_TRUE(final_stats.has_value());
  for (const char* op : kOps) {
    const JsonValue* e = final_stats.value().get("endpoints")->get(op);
    ASSERT_NE(e, nullptr) << op;
    EXPECT_EQ(e->get("latency_us")->get("count")->int_v,
              e->get("ok")->int_v)
        << op;
  }
}

TEST(Service, StatsJsonIsWellFormedAndCountsRequests) {
  AnalysisService svc(ServiceConfig{});
  (void)svc.handle(nc_line(1, 1.0));
  (void)svc.handle(nc_line(2, 1.0));  // cache hit
  const std::string stats = svc.stats_json();
  EXPECT_NE(stats.find("\"nc_delay\":{\"requests\":2,\"ok\":2,\"errors\":0,"
                       "\"cache_hits\":1"),
            stats.npos)
      << stats;
  EXPECT_NE(stats.find("\"service\":{\"workers\":4"), stats.npos) << stats;
  EXPECT_NE(stats.find("\"latency_us\":{\"count\":2"), stats.npos) << stats;
}

// The whole `stats` reply after a fixed, sequential request sequence on one
// worker that reaches every endpoint kind (control, analysis, session) and
// every count a sequential run can move: computed, LRU-hit, disk-hit and
// failed analysis requests, session decisions and a session error, plus an
// unknown op and a parse error, which no endpoint counts. Only the latency
// digits vary between runs; they are masked.
TEST(Service, StatsReplyIsPinnedForAFixedSequence) {
  const std::string dir = "serve_service_test-stats-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_entries = 64;
  cfg.cache_dir = dir;
  const std::string wcd =
      R"({"id":1,"op":"wcd_bound","params":{"write_gbps":3.5}})";
  {
    AnalysisService warm(cfg);  // leaves one wcd_bound answer on disk
    ASSERT_NE(warm.handle(wcd).find("\"ok\":true"), std::string::npos);
  }
  AnalysisService svc(cfg);
  const std::string lines[] = {
      R"({"id":1,"op":"ping"})",
      admission_line(2),
      admission_line(3),  // LRU hit
      wcd,                // disk hit
      R"({"id":5,"op":"wcd_bound","params":{"write_gbps":4,"typo":1}})",
      nc_line(6, 1.0),
      R"({"id":7,"op":"scenario_sim","params":{"sim_time_us":50}})",
      R"({"id":8,"op":"no_such_op"})",
      "not json",
      R"({"id":10,"op":"admission_open","params":{}})",
      R"({"id":11,"op":"admission_admit","params":{"session":1,"app":7,)"
      R"("rate":0.01,"dst_x":3,"dst_y":3}})",
      R"({"id":12,"op":"admission_admit","params":{"session":1,"app":7,)"
      R"("rate":0.01,"dst_x":3,"dst_y":3}})",
      R"({"id":13,"op":"admission_release","params":{"session":1,"app":7}})",
      R"({"id":14,"op":"admission_stats","params":{"session":1}})",
      R"({"id":15,"op":"admission_close","params":{"session":1}})",
      R"({"id":16,"op":"admission_stats","params":{"session":1}})",
      R"({"id":17,"op":"stats"})",
  };
  for (const std::string& l : lines) (void)svc.handle(l);
  const std::string reply = svc.handle(R"({"id":18,"op":"stats"})");
  std::filesystem::remove_all(dir);

  const std::regex digits(R"re(("(p50|p95|p99|max)":)[0-9.]+)re");
  const std::string masked = std::regex_replace(reply, digits, "$1#");
  const auto endpoint = [](const char* op, const char* counts, int n) {
    std::string out = std::string("\"") + op + "\":{" + counts +
                      ",\"latency_us\":{\"count\":" + std::to_string(n);
    if (n > 0) out += ",\"p50\":#,\"p95\":#,\"p99\":#,\"max\":#";
    return out + "}}";
  };
  const std::string want =
      R"({"id":18,"ok":true,"result":{"service":{"workers":1,)"
      R"("queue_capacity":1024,"cache_entries":64,"queue_depth":0,)"
      R"("draining":false,"open_sessions":0},"endpoints":{)" +
      endpoint("admission_check",
               R"("requests":2,"ok":2,"errors":0,"cache_hits":1,)"
               R"("disk_hits":0,"coalesced":0,"overloaded":0)",
               2) +
      "," +
      endpoint("wcd_bound",
               R"("requests":2,"ok":1,"errors":1,"cache_hits":0,)"
               R"("disk_hits":1,"coalesced":0,"overloaded":0)",
               1) +
      "," +
      endpoint("nc_delay",
               R"("requests":1,"ok":1,"errors":0,"cache_hits":0,)"
               R"("disk_hits":0,"coalesced":0,"overloaded":0)",
               1) +
      "," +
      endpoint("scenario_sim",
               R"("requests":1,"ok":1,"errors":0,"cache_hits":0,)"
               R"("disk_hits":0,"coalesced":0,"overloaded":0)",
               1) +
      "," +
      endpoint("admission_open",
               R"("requests":1,"ok":1,"errors":0,"cache_hits":0,)"
               R"("disk_hits":0,"coalesced":0,"overloaded":0)",
               1) +
      "," +
      endpoint("admission_admit",
               R"("requests":2,"ok":2,"errors":0,"cache_hits":0,)"
               R"("disk_hits":0,"coalesced":0,"overloaded":0)",
               2) +
      "," +
      endpoint("admission_release",
               R"("requests":1,"ok":1,"errors":0,"cache_hits":0,)"
               R"("disk_hits":0,"coalesced":0,"overloaded":0)",
               1) +
      "," +
      endpoint("admission_stats",
               R"("requests":2,"ok":1,"errors":1,"cache_hits":0,)"
               R"("disk_hits":0,"coalesced":0,"overloaded":0)",
               1) +
      "," +
      endpoint("admission_close",
               R"("requests":1,"ok":1,"errors":0,"cache_hits":0,)"
               R"("disk_hits":0,"coalesced":0,"overloaded":0)",
               1) +
      "}}}";
  EXPECT_EQ(masked, want);
}

}  // namespace
}  // namespace pap::serve
