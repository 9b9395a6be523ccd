// papd — the predictable-automotive-platform analysis daemon.
//
// Serves the offline analysis engines (admission, WCD, network calculus,
// scenario simulation) over newline-delimited JSON on a Unix-domain socket
// and/or local TCP port. See docs/serving.md for the protocol.
//
//   papd --unix /tmp/papd.sock --workers 4
//   papd --tcp 7171 --queue 2048 --cache 8192
//
// SIGTERM/SIGINT trigger a graceful drain: listeners close, in-flight and
// queued requests finish and their replies flush, then the process exits 0.
// If the drain misses --drain-ms the process exits 1 instead.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/grammar.hpp"
#include "common/log.hpp"
#include "serve/server.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--unix PATH] [--tcp PORT] [--host ADDR] [--workers N]\n"
      "          [--reactors N] [--queue N] [--cache N] [--cache-dir DIR]\n"
      "          [--write-stall-ms N] [--drain-ms N] [--verbose]\n"
      "At least one of --unix / --tcp is required. --tcp 0 picks an\n"
      "ephemeral port (printed on stdout as 'papd: tcp port NNNN').\n"
      "--cache-dir enables the persistent result cache (survives restarts;\n"
      "safe to share read-mostly across a shard fleet).\n"
      "Analysis requests are cached and identical in-flight ones share one\n"
      "computation; session requests are never cached or shared.\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using pap::serve::Server;
  using pap::serve::ServerConfig;

  ServerConfig config;
  int drain_ms = 5000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_next = i + 1 < argc;
    int v = 0;
    if (arg == "--unix" && has_next) {
      config.unix_path = argv[++i];
    } else if (arg == "--tcp" && has_next &&
               pap::parse_int(argv[++i], 0, 65535, &v)) {
      config.tcp_port = v;
    } else if (arg == "--host" && has_next) {
      config.tcp_host = argv[++i];
    } else if (arg == "--workers" && has_next &&
               pap::parse_int(argv[++i], 1, 256, &v)) {
      config.service.workers = v;
    } else if (arg == "--queue" && has_next &&
               pap::parse_int(argv[++i], 1, 1 << 20, &v)) {
      config.service.queue_capacity = static_cast<std::size_t>(v);
    } else if (arg == "--cache" && has_next &&
               pap::parse_int(argv[++i], 0, 1 << 24, &v)) {
      config.service.cache_entries = static_cast<std::size_t>(v);
    } else if (arg == "--cache-dir" && has_next) {
      config.service.cache_dir = argv[++i];
    } else if (arg == "--reactors" && has_next &&
               pap::parse_int(argv[++i], 1, 64, &v)) {
      config.reactors = v;
    } else if (arg == "--write-stall-ms" && has_next &&
               pap::parse_int(argv[++i], 1, 600000, &v)) {
      config.write_stall = std::chrono::milliseconds(v);
    } else if (arg == "--drain-ms" && has_next &&
               pap::parse_int(argv[++i], 1, 600000, &v)) {
      drain_ms = v;
    } else if (arg == "--verbose") {
      pap::set_log_level(pap::LogLevel::kInfo);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "papd: bad argument '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (config.unix_path.empty() && config.tcp_port < 0) {
    usage(argv[0]);
    return 2;
  }
  config.drain_deadline = std::chrono::milliseconds(drain_ms);

  // Block the termination signals before any thread exists so every thread
  // inherits the mask; a dedicated sigwait below is then the only receiver.
  sigset_t term_set;
  sigemptyset(&term_set);
  sigaddset(&term_set, SIGTERM);
  sigaddset(&term_set, SIGINT);
  pthread_sigmask(SIG_BLOCK, &term_set, nullptr);

  Server server(config);
  const pap::Status started = server.start();
  if (!started) {
    std::fprintf(stderr, "papd: %s\n", started.message().c_str());
    return 1;
  }
  if (!config.unix_path.empty()) {
    std::fprintf(stdout, "papd: unix socket %s\n", config.unix_path.c_str());
  }
  if (server.tcp_port() >= 0) {
    std::fprintf(stdout, "papd: tcp port %d\n", server.tcp_port());
  }
  std::fprintf(stdout,
               "papd: ready (%d workers, %d reactors, queue %zu, cache %zu%s%s)\n",
               config.service.workers, config.reactors,
               config.service.queue_capacity, config.service.cache_entries,
               config.service.cache_dir.empty() ? "" : ", disk ",
               config.service.cache_dir.c_str());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&term_set, &sig);
  std::fprintf(stdout, "papd: %s received, draining\n", strsignal(sig));
  std::fflush(stdout);

  const bool drained = server.stop();
  std::fprintf(stdout, "papd: %s\n",
               drained ? "drained, exiting" : "drain deadline exceeded");
  std::fflush(stdout);
  return drained ? 0 : 1;
}
