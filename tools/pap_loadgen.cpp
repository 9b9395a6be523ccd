// pap_loadgen — closed-loop load generator for papd.
//
// Opens C connections, keeps up to P requests pipelined on each, and
// drives a deterministic request mix: request i's operation and parameters
// are pure functions of i, and ids are assigned globally (id == i). That
// determinism is the point — two runs against two server instances must
// produce byte-identical reply sets, which the CI smoke job asserts by
// diffing `--dump` outputs (replies sorted by id).
//
//   pap_loadgen --unix /tmp/papd.sock --requests 10000 --connections 8
//   pap_loadgen --tcp 7171 --requests 1000 --dump replies.txt
//   pap_loadgen --shard unix:/tmp/papd0.sock --shard unix:/tmp/papd1.sock ...
//
// Sharded mode (`--shard ENDPOINT`, repeatable; unix:PATH / tcp:PORT /
// tcp:HOST:PORT): every request is routed to its home shard by
// `serve::Client::route` over the request's cache identity — the same
// consistent hash every other client uses, so shard caches stay hot. The
// reply set is byte-identical to a single-daemon run over the same
// requests, which the CI smoke job asserts with `cmp` on `--dump` files.
//
// Prints achieved throughput and latency percentiles; exits nonzero when
// any reply was an error (use --expect-overload to tolerate `overloaded`
// replies when probing backpressure).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/grammar.hpp"
#include "common/stats.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string unix_path;
  std::string host = "127.0.0.1";
  int tcp_port = -1;
  std::vector<std::string> shard_specs;  ///< non-empty = sharded fleet mode
  long requests = 1000;
  int connections = 4;
  int pipeline = 16;
  bool with_scenario = false;
  bool expect_overload = false;
  bool churn = false;  ///< stateful admission-session mode (see run_churn)
  std::string dump_path;
  bool quiet = false;
};

/// Deterministic request body for global index i. Parameter values cycle
/// with different periods so the request population mixes cache hits and
/// misses without any RNG.
std::string request_for(long i, const Options& opt) {
  const long slot = i % 10;
  std::string body = "{\"id\": " + std::to_string(i) + ", ";
  if (slot < 5) {
    // admission_check: two apps on a 4x4 mesh; rates cycle through 7 levels.
    const double r0 = 0.5 + 0.25 * static_cast<double>(i % 7);
    const double r1 = 0.25 + 0.25 * static_cast<double>((i / 7) % 5);
    body += "\"op\": \"admission_check\", \"params\": {"
            "\"mesh_cols\": 4, \"mesh_rows\": 4, \"noc_budget_gbps\": 12.0, "
            "\"apps\": ["
            "{\"burst\": 8, \"rate\": " + std::to_string(r0) +
            ", \"src_x\": 0, \"src_y\": 0, \"dst_x\": 3, \"dst_y\": 3, "
            "\"deadline_ns\": 4000, \"uses_dram\": true, \"critical\": true},"
            "{\"burst\": 4, \"rate\": " + std::to_string(r1) +
            ", \"src_x\": 1, \"src_y\": 2, \"dst_x\": 2, \"dst_y\": 0, "
            "\"deadline_ns\": 8000, \"uses_dram\": false, \"critical\": false}"
            "]}}";
  } else if (slot < 8) {
    // wcd_bound: the Table II write-rate axis, 0.5..6.0 GB/s in 12 steps.
    const double gbps = 0.5 + 0.5 * static_cast<double>(i % 12);
    body += "\"op\": \"wcd_bound\", \"params\": {\"write_gbps\": " +
            std::to_string(gbps) + "}}";
  } else if (slot == 8 || !opt.with_scenario) {
    const double burst = 4.0 + static_cast<double>(i % 4) * 4.0;
    const double rate = 1.0 + static_cast<double>(i % 9);
    body += "\"op\": \"nc_delay\", \"params\": {"
            "\"arrival\": {\"burst\": " + std::to_string(burst) +
            ", \"rate\": " + std::to_string(rate) + "}, "
            "\"service\": {\"rate\": 12.8, \"latency_ns\": 250}}}";
  } else {
    body += "\"op\": \"scenario_sim\", \"params\": {"
            "\"hogs\": " + std::to_string(i % 3) + ", "
            "\"memguard\": " + (i % 2 ? std::string("true") : std::string("false")) +
            ", \"sim_time_us\": 200}}";
  }
  return body;
}

struct WorkerResult {
  pap::LatencyHistogram latency;
  long ok = 0;
  long errors = 0;
  long overloaded = 0;
  std::map<long, std::string> replies;  // id -> reply line (sorted)
  std::string fatal;                    // transport failure, ends the run
};

/// True when the reply line is an error reply carrying the given code.
bool reply_has_code(const std::string& reply, const char* code) {
  return reply.find("\"ok\":false") != std::string::npos &&
         reply.find(std::string("\"code\":\"") + code + "\"") !=
             std::string::npos;
}

/// One worker: owns global indices i with i % connections == conn_index.
/// Single-endpoint mode keeps one pipelined connection; sharded mode keeps
/// one connection per shard and routes each request to its home shard by
/// the request's cache identity, still respecting the global pipeline cap.
void run_connection(const Options& opt, const pap::serve::ShardRouter* router,
                    int conn_index, WorkerResult* out) {
  std::vector<pap::serve::Client> clients;
  if (router != nullptr) {
    for (std::size_t s = 0; s < router->size(); ++s) {
      auto connected = router->connect(s);
      if (!connected) {
        out->fatal = connected.error_message();
        return;
      }
      clients.push_back(std::move(connected.value()));
    }
  } else {
    auto connected = opt.unix_path.empty()
                         ? pap::serve::Client::connect_tcp(opt.host,
                                                           opt.tcp_port)
                         : pap::serve::Client::connect_unix(opt.unix_path);
    if (!connected) {
      out->fatal = connected.error_message();
      return;
    }
    clients.push_back(std::move(connected.value()));
  }

  std::vector<long> ids;
  for (long i = conn_index; i < opt.requests; i += opt.connections) {
    ids.push_back(i);
  }

  std::unordered_map<long, Clock::time_point> sent_at;
  std::vector<long> outstanding(clients.size(), 0);
  std::size_t next = 0;
  long total_outstanding = 0;
  long completed = 0;
  const long total = static_cast<long>(ids.size());
  while (completed < total) {
    while (total_outstanding < opt.pipeline && next < ids.size()) {
      const long id = ids[next++];
      const std::string line = request_for(id, opt);
      std::size_t shard = 0;
      if (router != nullptr) {
        // Route by the protocol identity (op + canonical params) — the
        // exact key the shard's cache and coalescing layers use.
        auto parsed = pap::serve::parse_request(line);
        if (!parsed) {  // cannot happen: request_for emits valid lines
          out->fatal = "unroutable request: " + parsed.error_message();
          return;
        }
        shard = router->route(parsed.value().key());
      }
      sent_at[id] = Clock::now();
      const pap::Status sent = clients[shard].send_line(line);
      if (!sent) {
        out->fatal = sent.message();
        return;
      }
      ++outstanding[shard];
      ++total_outstanding;
    }
    // Read from the connection with the deepest pipeline — it is
    // guaranteed to owe us a reply, and draining the deepest first keeps
    // every shard's pipeline moving.
    std::size_t busiest = 0;
    for (std::size_t s = 1; s < outstanding.size(); ++s) {
      if (outstanding[s] > outstanding[busiest]) busiest = s;
    }
    auto reply = clients[busiest].read_line();
    if (!reply) {
      out->fatal = reply.error_message();
      return;
    }
    const std::string& line = reply.value();
    // Replies interleave arbitrarily; recover the id from the fixed prefix
    // `{"id":N,` every reply starts with.
    long id = -1;
    if (line.rfind("{\"id\":", 0) == 0) {
      id = std::strtol(line.c_str() + 6, nullptr, 10);
    }
    const auto it = id >= 0 ? sent_at.find(id) : sent_at.end();
    if (it == sent_at.end()) {
      out->fatal = "unmatched reply: " + line.substr(0, 120);
      return;
    }
    const double us = std::chrono::duration<double, std::micro>(Clock::now() -
                                                                it->second)
                          .count();
    out->latency.add(pap::Time::from_ns(us * 1000.0));
    sent_at.erase(it);
    --outstanding[busiest];
    --total_outstanding;
    ++completed;
    if (line.find("\"ok\":true") != std::string::npos) {
      ++out->ok;
    } else if (reply_has_code(line, "overloaded")) {
      ++out->overloaded;
    } else {
      ++out->errors;
    }
    if (!opt.dump_path.empty()) out->replies.emplace(id, line);
  }
}

/// Churn mode: one connection, one admission session, pipeline depth 1.
///
/// Stateful decisions are order-dependent, so unlike the stateless mix the
/// client must not pipeline: each decision is sent only after the previous
/// reply landed, making the reply transcript a pure function of the seeded
/// step sequence. Two fresh daemons driven with the same --requests
/// therefore produce byte-identical --dump files — the CI churn job
/// asserts exactly that with `cmp`.
int run_churn(const Options& opt) {
  auto connected = opt.unix_path.empty()
                       ? pap::serve::Client::connect_tcp(opt.host, opt.tcp_port)
                       : pap::serve::Client::connect_unix(opt.unix_path);
  if (!connected) {
    std::fprintf(stderr, "pap_loadgen: %s\n",
                 connected.error_message().c_str());
    return 1;
  }
  pap::serve::Client client = std::move(connected.value());

  pap::LatencyHistogram latency;
  long ok = 0;
  long errors = 0;
  std::map<long, std::string> replies;
  auto exchange = [&](long id, const std::string& line,
                      std::string* reply_out) -> bool {
    const auto sent_at = Clock::now();
    auto reply = client.call(line);
    if (!reply) {
      std::fprintf(stderr, "pap_loadgen: %s\n",
                   reply.error_message().c_str());
      return false;
    }
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - sent_at)
            .count();
    latency.add(pap::Time::from_ns(us * 1000.0));
    const std::string& text = reply.value();
    if (text.find("\"ok\":true") != std::string::npos) {
      ++ok;
    } else {
      ++errors;
    }
    if (!opt.dump_path.empty()) replies.emplace(id, text);
    if (reply_out != nullptr) *reply_out = text;
    return true;
  };

  const auto t0 = Clock::now();
  std::string opened;
  if (!exchange(0,
                "{\"id\":0,\"op\":\"admission_open\",\"params\":"
                "{\"mesh_cols\":8,\"mesh_rows\":8}}",
                &opened)) {
    return 1;
  }
  // Recover the session id from the open reply (1 on a fresh daemon; the
  // CI byte-compare relies on fresh daemons so ids line up across runs).
  const auto at = opened.find("\"session\":");
  if (at == std::string::npos) {
    std::fprintf(stderr, "pap_loadgen: admission_open failed: %s\n",
                 opened.c_str());
    return 1;
  }
  const long session = std::strtol(opened.c_str() + at + 10, nullptr, 10);

  // Seeded mix: ~1/3 releases (often of apps that are not resident — those
  // replies are data too), admits over 48 app ids criss-crossing the mesh
  // hard enough that grants, rejections and route fallbacks all occur.
  std::uint32_t lcg = 0x9e3779b9u;
  auto next = [&lcg] { return lcg = lcg * 1664525u + 1013904223u; };
  for (long i = 1; i <= opt.requests; ++i) {
    const long app = 1 + static_cast<long>(next() % 48);
    std::string body;
    if (next() % 3 == 0) {
      body = "{\"id\":" + std::to_string(i) +
             ",\"op\":\"admission_release\",\"params\":{\"session\":" +
             std::to_string(session) + ",\"app\":" + std::to_string(app) +
             "}}";
    } else {
      const double rate = 0.002 + 0.002 * static_cast<double>(next() % 12);
      const long sx = next() % 8, sy = next() % 8;
      const long dx = next() % 8, dy = next() % 8;
      body = "{\"id\":" + std::to_string(i) +
             ",\"op\":\"admission_admit\",\"params\":{\"session\":" +
             std::to_string(session) + ",\"app\":" + std::to_string(app) +
             ",\"rate\":" + std::to_string(rate) +
             ",\"burst\":" + std::to_string(1 + next() % 6) +
             ",\"src_x\":" + std::to_string(sx) +
             ",\"src_y\":" + std::to_string(sy) +
             ",\"dst_x\":" + std::to_string(dx) +
             ",\"dst_y\":" + std::to_string(dy) +
             ",\"deadline_ns\":" +
             std::to_string(600.0 + 200.0 * static_cast<double>(next() % 8)) +
             "}}";
    }
    if (!exchange(i, body, nullptr)) return 1;
  }
  if (!exchange(opt.requests + 1,
                "{\"id\":" + std::to_string(opt.requests + 1) +
                    ",\"op\":\"admission_stats\",\"params\":{\"session\":" +
                    std::to_string(session) + "}}",
                nullptr) ||
      !exchange(opt.requests + 2,
                "{\"id\":" + std::to_string(opt.requests + 2) +
                    ",\"op\":\"admission_close\",\"params\":{\"session\":" +
                    std::to_string(session) + "}}",
                nullptr)) {
    return 1;
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();

  if (!opt.dump_path.empty()) {
    std::FILE* f = std::fopen(opt.dump_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "pap_loadgen: cannot write %s\n",
                   opt.dump_path.c_str());
      return 1;
    }
    for (const auto& [id, line] : replies) std::fprintf(f, "%s\n", line.c_str());
    std::fclose(f);
  }
  if (!opt.quiet) {
    std::printf("churn:      %ld decisions (%ld ok, %ld errors)\n",
                opt.requests, ok, errors);
    std::printf("elapsed:    %.3f s  (%.0f decisions/s)\n", seconds,
                static_cast<double>(opt.requests) / seconds);
    if (!latency.empty()) {
      std::printf("latency us: p50 %.1f  p95 %.1f  p99 %.1f  max %.1f\n",
                  latency.percentile(50).nanos() / 1000.0,
                  latency.percentile(95).nanos() / 1000.0,
                  latency.percentile(99).nanos() / 1000.0,
                  latency.max().nanos() / 1000.0);
    }
  }
  return errors > 0 ? 1 : 0;
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--unix PATH | --tcp PORT | --shard EP...) [--host ADDR]\n"
      "          [--requests N] [--connections C] [--pipeline P]\n"
      "          [--with-scenario] [--expect-overload] [--churn]\n"
      "          [--dump FILE] [--quiet]\n"
      "--shard EP (repeatable) drives a papd fleet; EP is unix:PATH,\n"
      "tcp:PORT or tcp:HOST:PORT. Requests route to their home shard by\n"
      "consistent hash of the request identity.\n"
      "--churn drives one stateful admission session (pipeline depth 1,\n"
      "single connection, seeded admit/release mix); --requests counts\n"
      "decisions. Incompatible with --shard.\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_next = i + 1 < argc;
    int v = 0;
    if (arg == "--unix" && has_next) {
      opt.unix_path = argv[++i];
    } else if (arg == "--tcp" && has_next &&
               pap::parse_int(argv[++i], 1, 65535, &v)) {
      opt.tcp_port = v;
    } else if (arg == "--host" && has_next) {
      opt.host = argv[++i];
    } else if (arg == "--shard" && has_next) {
      opt.shard_specs.push_back(argv[++i]);
    } else if (arg == "--requests" && has_next &&
               pap::parse_int(argv[++i], 1, 100000000, &v)) {
      opt.requests = v;
    } else if (arg == "--connections" && has_next &&
               pap::parse_int(argv[++i], 1, 512, &v)) {
      opt.connections = v;
    } else if (arg == "--pipeline" && has_next &&
               pap::parse_int(argv[++i], 1, 4096, &v)) {
      opt.pipeline = v;
    } else if (arg == "--with-scenario") {
      opt.with_scenario = true;
    } else if (arg == "--expect-overload") {
      opt.expect_overload = true;
    } else if (arg == "--churn") {
      opt.churn = true;
    } else if (arg == "--dump" && has_next) {
      opt.dump_path = argv[++i];
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "pap_loadgen: bad argument '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (opt.unix_path.empty() && opt.tcp_port < 0 && opt.shard_specs.empty()) {
    usage(argv[0]);
    return 2;
  }
  if (opt.churn) {
    if (!opt.shard_specs.empty()) {
      std::fprintf(stderr,
                   "pap_loadgen: --churn needs a single endpoint (session "
                   "state lives on one daemon), not --shard\n");
      return 2;
    }
    return run_churn(opt);
  }
  if (opt.connections > opt.requests) {
    opt.connections = static_cast<int>(opt.requests);
  }

  pap::serve::ShardRouter router;
  if (!opt.shard_specs.empty()) {
    std::vector<pap::serve::ShardEndpoint> endpoints;
    for (const auto& spec : opt.shard_specs) {
      auto parsed = pap::serve::parse_endpoint(spec);
      if (!parsed) {
        std::fprintf(stderr, "pap_loadgen: %s\n",
                     parsed.error_message().c_str());
        return 2;
      }
      endpoints.push_back(std::move(parsed.value()));
    }
    router = pap::serve::ShardRouter(std::move(endpoints));
  }
  const pap::serve::ShardRouter* route_with =
      opt.shard_specs.empty() ? nullptr : &router;

  std::vector<WorkerResult> results(static_cast<std::size_t>(opt.connections));
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (int c = 0; c < opt.connections; ++c) {
    threads.emplace_back(run_connection, std::cref(opt), route_with, c,
                         &results[c]);
  }
  for (auto& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();

  pap::LatencyHistogram latency;
  long ok = 0, errors = 0, overloaded = 0;
  for (const auto& r : results) {
    if (!r.fatal.empty()) {
      std::fprintf(stderr, "pap_loadgen: %s\n", r.fatal.c_str());
      return 1;
    }
    latency.merge(r.latency);
    ok += r.ok;
    errors += r.errors;
    overloaded += r.overloaded;
  }

  if (!opt.dump_path.empty()) {
    std::FILE* f = std::fopen(opt.dump_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "pap_loadgen: cannot write %s\n",
                   opt.dump_path.c_str());
      return 1;
    }
    std::map<long, std::string> merged;
    for (auto& r : results) merged.insert(r.replies.begin(), r.replies.end());
    for (const auto& [id, line] : merged) {
      std::fprintf(f, "%s\n", line.c_str());
    }
    std::fclose(f);
  }

  if (!opt.quiet) {
    std::printf("requests:   %ld (%ld ok, %ld overloaded, %ld errors)\n",
                opt.requests, ok, overloaded, errors);
    std::printf("elapsed:    %.3f s  (%.0f req/s)\n", seconds,
                static_cast<double>(opt.requests) / seconds);
    if (!latency.empty()) {
      std::printf("latency us: p50 %.1f  p95 %.1f  p99 %.1f  max %.1f\n",
                  latency.percentile(50).nanos() / 1000.0,
                  latency.percentile(95).nanos() / 1000.0,
                  latency.percentile(99).nanos() / 1000.0,
                  latency.max().nanos() / 1000.0);
    }
  }

  if (errors > 0) return 1;
  if (overloaded > 0 && !opt.expect_overload) return 1;
  return 0;
}
