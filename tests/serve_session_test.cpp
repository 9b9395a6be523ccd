// Stateful admission sessions over the serving layer (serve/sessions.hpp).
//
// The load-bearing properties: session ops bypass every caching tier (two
// byte-identical admit requests are different decisions against evolving
// state), replies are deterministic functions of the session history, the
// incremental and batch engines answer identically through the service
// door, and the caps in HandlerLimits turn into typed overload replies
// rather than unbounded state.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "serve/endpoints.hpp"
#include "serve/service.hpp"
#include "serve/sessions.hpp"

namespace pap::serve {
namespace {

std::string line(int id, const std::string& op, const std::string& params) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"" + op +
         "\",\"params\":{" + params + "}}";
}

std::string admit_params(int session, int app, double rate, int sx, int sy,
                         int dx, int dy, double deadline_ns = 2000.0) {
  return "\"session\":" + std::to_string(session) +
         ",\"app\":" + std::to_string(app) +
         ",\"rate\":" + std::to_string(rate) + ",\"src_x\":" +
         std::to_string(sx) + ",\"src_y\":" + std::to_string(sy) +
         ",\"dst_x\":" + std::to_string(dx) + ",\"dst_y\":" +
         std::to_string(dy) + ",\"deadline_ns\":" + std::to_string(deadline_ns);
}

/// The reply minus its id, for byte-comparing answers across requests.
std::string payload_of(const std::string& reply) {
  const auto at = reply.find(",\"ok\"");
  return at == std::string::npos ? reply : reply.substr(at);
}

TEST(ServeSession, LifecycleThroughTheService) {
  ServiceConfig cfg;
  cfg.workers = 2;
  AnalysisService svc(cfg);

  const std::string open = svc.handle(
      line(1, "admission_open", "\"mesh_cols\":4,\"mesh_rows\":4"));
  EXPECT_NE(open.find("\"id\":1,\"ok\":true"), open.npos) << open;
  EXPECT_NE(open.find("\"session\":1"), open.npos) << open;
  EXPECT_NE(open.find("\"engine\":\"incremental\""), open.npos) << open;

  const std::string admit =
      svc.handle(line(2, "admission_admit", admit_params(1, 7, 0.01, 0, 0, 3, 3)));
  EXPECT_NE(admit.find("\"ok\":true"), admit.npos) << admit;
  EXPECT_NE(admit.find("\"admitted\":true"), admit.npos) << admit;
  EXPECT_NE(admit.find("\"bound\":"), admit.npos) << admit;
  EXPECT_NE(admit.find("\"shaper_rate\":"), admit.npos) << admit;
  EXPECT_NE(admit.find("\"route_order\":\"xy\""), admit.npos) << admit;

  const std::string stats =
      svc.handle(line(3, "admission_stats", "\"session\":1"));
  EXPECT_NE(stats.find("\"flows\":1"), stats.npos) << stats;
  EXPECT_NE(stats.find("\"decisions\":1"), stats.npos) << stats;
  EXPECT_NE(stats.find("\"admissions\":1"), stats.npos) << stats;
  EXPECT_NE(stats.find("\"live_links\":"), stats.npos) << stats;

  const std::string release = svc.handle(
      line(4, "admission_release", "\"session\":1,\"app\":7"));
  EXPECT_NE(release.find("\"released\":true"), release.npos) << release;

  // Stats is a read-only op: only admit and release count as decisions.
  const std::string close =
      svc.handle(line(5, "admission_close", "\"session\":1"));
  EXPECT_NE(close.find("\"decisions\":2"), close.npos) << close;

  // The session is gone: further ops are typed bad_request errors.
  const std::string gone =
      svc.handle(line(6, "admission_stats", "\"session\":1"));
  EXPECT_NE(gone.find("\"code\":\"bad_request\""), gone.npos) << gone;
  EXPECT_NE(gone.find("unknown session 1"), gone.npos) << gone;
}

TEST(ServeSession, IdenticalAdmitLinesAreDistinctDecisionsNotCacheHits) {
  ServiceConfig cfg;
  cfg.workers = 1;
  AnalysisService svc(cfg);
  (void)svc.handle(line(1, "admission_open", ""));

  // Byte-identical params twice. A cached (or coalesced) reply would
  // repeat "admitted":true; the live controller rejects the duplicate id.
  const std::string params = admit_params(1, 5, 0.01, 0, 0, 2, 2);
  const std::string first = svc.handle(line(2, "admission_admit", params));
  const std::string second = svc.handle(line(2, "admission_admit", params));
  EXPECT_NE(first.find("\"admitted\":true"), first.npos) << first;
  EXPECT_NE(second.find("\"admitted\":false"), second.npos) << second;
  EXPECT_NE(second.find("already admitted"), second.npos) << second;
  EXPECT_EQ(svc.counts("admission_admit").cache_hits, 0u);
  EXPECT_EQ(svc.counts("admission_admit").coalesced, 0u);
  EXPECT_EQ(svc.counts("admission_admit").requests, 2u);
  EXPECT_EQ(svc.counts("admission_admit").ok, 2u);
}

TEST(ServeSession, IncrementalAndBatchEnginesAnswerByteIdentically) {
  ServiceConfig cfg;
  cfg.workers = 1;
  AnalysisService svc(cfg);
  (void)svc.handle(line(1, "admission_open", "\"engine\":\"incremental\""));
  (void)svc.handle(line(2, "admission_open", "\"engine\":\"batch\""));

  // A deterministic mix of admits (some duplicates, some saturating) and
  // releases, driven into both sessions; every reply must match bytes.
  std::uint32_t lcg = 1234567u;
  auto next = [&lcg] { return lcg = lcg * 1664525u + 1013904223u; };
  for (int i = 0; i < 60; ++i) {
    const int app = 1 + static_cast<int>(next() % 12);
    std::string a;
    std::string b;
    if (next() % 4 == 0) {
      a = svc.handle(line(100 + i, "admission_release",
                          "\"session\":1,\"app\":" + std::to_string(app)));
      b = svc.handle(line(200 + i, "admission_release",
                          "\"session\":2,\"app\":" + std::to_string(app)));
    } else {
      const double rate = 0.005 + 0.005 * static_cast<double>(next() % 10);
      const int sx = static_cast<int>(next() % 4);
      const int sy = static_cast<int>(next() % 4);
      const int dx = static_cast<int>(next() % 4);
      const int dy = static_cast<int>(next() % 4);
      const std::string pa = admit_params(1, app, rate, sx, sy, dx, dy, 900.0);
      const std::string pb = admit_params(2, app, rate, sx, sy, dx, dy, 900.0);
      a = svc.handle(line(100 + i, "admission_admit", pa));
      b = svc.handle(line(200 + i, "admission_admit", pb));
    }
    ASSERT_EQ(payload_of(a), payload_of(b)) << "decision " << i;
  }
  // Both engines saw real traffic, not just rejections.
  const std::string sa = svc.handle(line(901, "admission_stats", "\"session\":1"));
  const std::string sb = svc.handle(line(902, "admission_stats", "\"session\":2"));
  EXPECT_NE(sa.find("\"engine\":\"incremental\""), sa.npos) << sa;
  EXPECT_NE(sb.find("\"engine\":\"batch\""), sb.npos) << sb;
  EXPECT_EQ(sa.find("\"admissions\":0"), sa.npos) << sa;
}

TEST(ServeSession, CapsComeBackAsTypedOverloads) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.handlers.max_sessions = 2;
  cfg.handlers.max_session_flows = 2;
  AnalysisService svc(cfg);

  EXPECT_NE(svc.handle(line(1, "admission_open", "")).find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(svc.handle(line(2, "admission_open", "")).find("\"ok\":true"),
            std::string::npos);
  const std::string third = svc.handle(line(3, "admission_open", ""));
  EXPECT_NE(third.find("\"code\":\"overloaded\""), third.npos) << third;
  EXPECT_NE(third.find("session cap reached (2 open)"), third.npos) << third;

  // Closing one frees the slot.
  (void)svc.handle(line(4, "admission_close", "\"session\":2"));
  EXPECT_NE(svc.handle(line(5, "admission_open", "")).find("\"ok\":true"),
            std::string::npos);

  // Flow cap: the third resident flow is refused before analysis runs.
  (void)svc.handle(line(6, "admission_admit", admit_params(1, 1, 0.001, 0, 0, 1, 0)));
  (void)svc.handle(line(7, "admission_admit", admit_params(1, 2, 0.001, 0, 1, 1, 1)));
  const std::string full =
      svc.handle(line(8, "admission_admit", admit_params(1, 3, 0.001, 0, 2, 1, 2)));
  EXPECT_NE(full.find("\"code\":\"overloaded\""), full.npos) << full;
  EXPECT_NE(full.find("session flow cap reached (2)"), full.npos) << full;
  // A release makes room again.
  (void)svc.handle(line(9, "admission_release", "\"session\":1,\"app\":1"));
  const std::string retry =
      svc.handle(line(10, "admission_admit", admit_params(1, 3, 0.001, 0, 2, 1, 2)));
  EXPECT_NE(retry.find("\"admitted\":true"), retry.npos) << retry;
}

TEST(ServeSession, ParametersAreStrictlyValidated) {
  ServiceConfig cfg;
  cfg.workers = 1;
  AnalysisService svc(cfg);
  (void)svc.handle(line(1, "admission_open", "\"mesh_cols\":3,\"mesh_rows\":3"));

  const std::string bad_engine =
      svc.handle(line(2, "admission_open", "\"engine\":\"oracle\""));
  EXPECT_NE(bad_engine.find("must be \\\"incremental\\\" or \\\"batch\\\""),
            bad_engine.npos)
      << bad_engine;

  const std::string unknown_key = svc.handle(
      line(3, "admission_admit",
           admit_params(1, 1, 0.01, 0, 0, 1, 1) + ",\"typo\":1"));
  EXPECT_NE(unknown_key.find("unknown parameter 'typo'"), unknown_key.npos)
      << unknown_key;

  const std::string off_mesh = svc.handle(
      line(4, "admission_admit", admit_params(1, 1, 0.01, 0, 0, 5, 0)));
  EXPECT_NE(off_mesh.find("outside the session's 3x3 mesh"), off_mesh.npos)
      << off_mesh;

  const std::string no_session =
      svc.handle(line(5, "admission_stats", "\"session\":42"));
  EXPECT_NE(no_session.find("unknown session 42"), no_session.npos)
      << no_session;

  const std::string missing =
      svc.handle(line(6, "admission_admit", "\"session\":1,\"app\":1"));
  EXPECT_NE(missing.find("\"code\":\"bad_request\""), missing.npos) << missing;

  const std::string bad_order = svc.handle(
      line(7, "admission_admit",
           admit_params(1, 1, 0.01, 0, 0, 1, 1) + ",\"route_order\":\"zz\""));
  EXPECT_NE(bad_order.find("must be \\\"xy\\\" or \\\"yx\\\""), bad_order.npos)
      << bad_order;
}

/// Every error reply the ops on an open session share, byte for byte: a
/// missing, non-integer, out-of-range or unknown `session`, an unknown
/// extra key, and which fault wins when one request has two.
TEST(ServeSession, SessionErrorRepliesArePinned) {
  ServiceConfig cfg;
  cfg.workers = 1;
  AnalysisService svc(cfg);
  (void)svc.handle(line(1, "admission_open", ""));
  const std::vector<std::pair<std::string, std::string>> ops = {
      {"admission_admit", ",\"app\":1,\"rate\":0.01"},
      {"admission_release", ",\"app\":1"},
      {"admission_stats", ""},
      {"admission_close", ""}};
  const std::string range = "'session' out of range [1, 9223372036854775807]";
  const std::vector<std::string> messages = {
      "missing required parameter 'session'",
      "'session' must be an integer",
      "'session' must be an integer",
      range,
      "unknown session 99",
      "unknown parameter 'typo'",
      "unknown parameter 'typo'",
      range,
      "'route_order' must be \\\"xy\\\" or \\\"yx\\\"",
      "unknown parameter 'typo'"};
  int id = 10;
  for (const auto& [op, rest] : ops) {
    const std::string order = ",\"route_order\":\"zz\"";
    std::vector<std::string> params = {
        rest.empty() ? "" : rest.substr(1),        // missing
        "\"session\":\"1\"" + rest,                // a string
        "\"session\":1.5" + rest,                  // not an integer
        "\"session\":0" + rest,                    // out of range
        "\"session\":99" + rest,                   // unknown
        "\"session\":1" + rest + ",\"typo\":1",    // unknown key
        "\"session\":99" + rest + ",\"typo\":1",   // key beats session
        "\"session\":0,\"typo\":1"};               // range beats key
    if (op == "admission_admit") {
      // The route order is checked after every key, before the session.
      params.push_back("\"session\":99" + rest + order);
      params.push_back("\"session\":1" + rest + order + ",\"typo\":1");
    }
    for (std::size_t i = 0; i < params.size(); ++i, ++id) {
      EXPECT_EQ(svc.handle(line(id, op, params[i])),
                "{\"id\":" + std::to_string(id) +
                    ",\"ok\":false,\"error\":{\"code\":\"bad_request\","
                    "\"message\":\"" + messages[i] + "\"}}")
          << op << " {" << params[i] << "}";
    }
  }
  // None of these requests touched the open session.
  EXPECT_NE(svc.handle(line(id, "admission_stats", "\"session\":1"))
                .find("\"decisions\":0"),
            std::string::npos);
}

TEST(ServeSession, StatsJsonListsSessionEndpointsAndOpenCount) {
  ServiceConfig cfg;
  cfg.workers = 1;
  AnalysisService svc(cfg);
  (void)svc.handle(line(1, "admission_open", ""));
  const std::string stats = svc.stats_json();
  EXPECT_NE(stats.find("\"open_sessions\":1"), stats.npos) << stats;
  for (const Endpoint& e : kEndpoints) {
    if (e.kind != EndpointKind::kSession) continue;
    EXPECT_NE(stats.find("\"" + std::string(e.op) + "\":{"), stats.npos)
        << e.op;
  }
  EXPECT_NE(stats.find("\"admission_open\":{\"requests\":1,\"ok\":1"),
            stats.npos)
      << stats;
}

TEST(ServeSession, RegistryIsDirectlyDrivable) {
  HandlerLimits limits;
  SessionRegistry reg(limits);
  EXPECT_EQ(find_endpoint("admission_admit")->kind, EndpointKind::kSession);
  EXPECT_EQ(find_endpoint("admission_check")->kind, EndpointKind::kAnalysis);
  EXPECT_EQ(reg.open_sessions(), 0u);

  exp::Params open;
  const auto opened = reg.open(open);
  ASSERT_TRUE(opened.ok);
  EXPECT_EQ(opened.result.at("session").as_int(), 1);
  EXPECT_EQ(reg.open_sessions(), 1u);

  // Session ids are never reused: determinism of id assignment is part of
  // the replayable-transcript contract.
  exp::Params close;
  close.set("session", exp::Value{static_cast<std::int64_t>(1)});
  ASSERT_TRUE(reg.close(close).ok);
  const auto reopened = reg.open(open);
  ASSERT_TRUE(reopened.ok);
  EXPECT_EQ(reopened.result.at("session").as_int(), 2);
}

// An admit or release that found the session before admission_close erased
// it must not complete against the detached session: every op reply that
// says ok must be one of the decisions the close reply counts. Several
// threads keep the session mutex contended so that, in most rounds, some
// of them hold the session pointer and wait on its mutex while the close
// runs.
TEST(ServeSession, OpsRacingCloseAreCountedOrRefused) {
  constexpr int kRounds = 40;
  constexpr int kThreads = 4;
  HandlerLimits limits;
  SessionRegistry reg(limits);
  for (int round = 0; round < kRounds; ++round) {
    const auto opened = reg.open(exp::Params{});
    ASSERT_TRUE(opened.ok);
    const std::int64_t sid = opened.result.at("session").as_int();

    std::atomic<std::int64_t> ok_replies{0};
    std::atomic<int> finished{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&reg, &ok_replies, &finished, sid, t] {
        exp::Params admit;
        admit.set("session", exp::Value{sid});
        admit.set("app", exp::Value{static_cast<std::int64_t>(t + 1)});
        admit.set("rate", exp::Value{0.01});
        admit.set("dst_x", exp::Value{static_cast<std::int64_t>(3)});
        admit.set("dst_y", exp::Value{static_cast<std::int64_t>(t)});
        exp::Params release;
        release.set("session", exp::Value{sid});
        release.set("app", exp::Value{static_cast<std::int64_t>(t + 1)});
        for (bool admitting = true;; admitting = !admitting) {
          const auto reply =
              admitting ? reg.admit(admit) : reg.release(release);
          if (!reply.ok) {
            EXPECT_NE(reply.error.message.find("unknown session"),
                      std::string::npos)
                << reply.error.message;
            finished.fetch_add(1);
            return;
          }
          ok_replies.fetch_add(1);
        }
      });
    }
    while (ok_replies.load() < 8 * kThreads && finished.load() < kThreads) {
      std::this_thread::yield();
    }
    exp::Params close;
    close.set("session", exp::Value{sid});
    const auto closed = reg.close(close);
    for (auto& w : workers) w.join();
    ASSERT_TRUE(closed.ok);
    EXPECT_EQ(ok_replies.load(), closed.result.at("decisions").as_int())
        << "round " << round;
  }
  EXPECT_EQ(reg.open_sessions(), 0u);
}

}  // namespace
}  // namespace pap::serve
