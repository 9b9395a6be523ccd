// Socket-level end-to-end tests for the papd server: Unix and TCP
// listeners, pipelined request/reply framing, oversized-line recovery,
// in-process graceful stop, and the full SIGTERM drain contract against
// the real daemon binary (PAPD_BIN, fork/exec'd like an init system
// would): N requests in flight when the signal lands must all receive
// replies, new connections must be refused, and the process must exit 0.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/client.hpp"
#include "serve/inbox.hpp"
#include "serve/server.hpp"

namespace pap::serve {
namespace {

using namespace std::chrono_literals;

std::string test_socket_path(const std::string& tag) {
  return "serve_server_test-" + tag + "-" + std::to_string(::getpid()) +
         ".sock";
}

std::string nc_line(int id, double rate) {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"nc_delay\",\"params\":{\"arrival\":{\"burst\":8,\"rate\":" +
         std::to_string(rate) + "},\"service\":{\"rate\":2.0," +
         "\"latency_ns\":50}}}";
}

using Clock = std::chrono::steady_clock;

/// A raw nonblocking Unix-socket client for the slow-peer tests: a
/// cooperative Client would read its replies and unstick the very stalls
/// these tests need to create.
struct RawConn {
  int fd = -1;

  explicit RawConn(const std::string& path) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd);
      fd = -1;
      return;
    }
    ::fcntl(fd, F_SETFL, O_NONBLOCK);
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  /// Send all of `bytes` before `deadline`; false on timeout or error.
  bool send_all(const std::string& bytes, Clock::time_point deadline) {
    const char* data = bytes.data();
    std::size_t len = bytes.size();
    while (len > 0) {
      const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
      if (n > 0) {
        data += n;
        len -= static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno != EINTR && errno != EAGAIN &&
          errno != EWOULDBLOCK) {
        return false;
      }
      if (Clock::now() >= deadline) return false;
      pollfd p{fd, POLLOUT, 0};
      (void)::poll(&p, 1, 50);
    }
    return true;
  }

  /// Wait for at least one full reply line; false on timeout or EOF.
  bool read_line(Clock::time_point deadline) {
    std::string buf;
    for (;;) {
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n > 0) {
        buf.append(chunk, static_cast<std::size_t>(n));
        if (buf.find('\n') != std::string::npos) return true;
        continue;
      }
      if (n == 0) return false;
      if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
        return false;
      }
      if (Clock::now() >= deadline) return false;
      pollfd p{fd, POLLIN, 0};
      (void)::poll(&p, 1, 50);
    }
  }

  /// Read replies until the server closes the connection or the deadline
  /// passes. Returns {complete reply lines seen, connection closed}.
  std::pair<std::size_t, bool> drain(Clock::time_point deadline) {
    std::size_t lines = 0;
    for (;;) {
      char chunk[16 * 1024];
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n > 0) {
        for (ssize_t i = 0; i < n; ++i) lines += chunk[i] == '\n';
        continue;
      }
      if (n == 0) return {lines, true};
      if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
        return {lines, true};  // reset: the peer observed a failure too
      }
      if (Clock::now() >= deadline) return {lines, false};
      pollfd p{fd, POLLIN, 0};
      (void)::poll(&p, 1, 50);
    }
  }
};

/// A socket end owned through a shared_ptr, like a reactor's Conn: the
/// socket closes when the last reference drops.
struct OwnedSocket {
  int fd;
  ~OwnedSocket() { ::close(fd); }
};

/// True when `fd` reads end-of-file right now (its peer is closed).
bool peer_closed(int fd) {
  char c;
  return ::recv(fd, &c, 1, MSG_DONTWAIT) == 0;
}

/// A reactor whose loop has exited closes its inboxes. A connection handed
/// to it afterwards (an accept racing the exit, or a flush request from a
/// worker of an abandoned drain) must not be parked where nothing reads
/// it: the push is refused and the caller's drop closes the socket.
TEST(ReactorInbox, HandOffAfterLoopExitIsRefusedAndClosesTheSocket) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  Inbox<std::shared_ptr<OwnedSocket>> inbox;
  std::shared_ptr<OwnedSocket> early(new OwnedSocket{::dup(sv[0])});
  ASSERT_TRUE(inbox.push(early));
  EXPECT_EQ(early, nullptr);  // moved into the inbox
  // Closing hands back what the loop never took.
  auto leftover = inbox.close();
  ASSERT_EQ(leftover.size(), 1u);
  leftover.clear();

  std::shared_ptr<OwnedSocket> late(new OwnedSocket{sv[0]});
  EXPECT_FALSE(inbox.push(late));
  ASSERT_NE(late, nullptr);  // still the caller's
  EXPECT_EQ(late.use_count(), 1);
  EXPECT_TRUE(inbox.take().empty());
  EXPECT_FALSE(peer_closed(sv[1]));
  late.reset();
  EXPECT_TRUE(peer_closed(sv[1]));
  ::close(sv[1]);
}

TEST(Server, UnixSocketEndToEnd) {
  ServerConfig cfg;
  cfg.unix_path = test_socket_path("e2e");
  cfg.service.workers = 2;
  Server server(cfg);
  const Status st = server.start();
  ASSERT_TRUE(st.is_ok()) << st.message();

  auto client = Client::connect_unix(cfg.unix_path);
  ASSERT_TRUE(client.has_value()) << client.error_message();
  Client& c = client.value();

  auto pong = c.call(R"({"id":1,"op":"ping"})");
  ASSERT_TRUE(pong.has_value()) << pong.error_message();
  EXPECT_EQ(pong.value(),
            R"({"id":1,"ok":true,"result":{"label":"pong","metrics":{}}})");

  // Served analysis replies match the in-process service byte-for-byte.
  auto served = c.call(nc_line(2, 1.5));
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served.value(), server.service().handle(nc_line(2, 1.5)));

  // Malformed input gets a structured reply, and the connection survives.
  auto bad = c.call("this is not json");
  ASSERT_TRUE(bad.has_value());
  EXPECT_NE(bad.value().find("\"code\":\"parse_error\""), bad.value().npos);
  auto after = c.call(R"({"id":3,"op":"ping"})");
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(after.value().find("pong"), after.value().npos);

  EXPECT_TRUE(server.stop());
  EXPECT_FALSE(Client::connect_unix(cfg.unix_path).has_value());
}

TEST(Server, TcpEphemeralPortAndPipelining) {
  ServerConfig cfg;
  cfg.tcp_port = 0;  // ephemeral
  cfg.service.workers = 2;
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());
  ASSERT_GT(server.tcp_port(), 0);

  auto client = Client::connect_tcp("127.0.0.1", server.tcp_port());
  ASSERT_TRUE(client.has_value()) << client.error_message();
  Client& c = client.value();

  // Pipeline a burst, then collect: one reply per request, matched by id
  // (replies may arrive in any order).
  constexpr int kBurst = 32;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(c.send_line(nc_line(i, 0.1 + 0.01 * (i % 5))).is_ok());
  }
  std::set<int> ids;
  for (int i = 0; i < kBurst; ++i) {
    auto reply = c.read_line();
    ASSERT_TRUE(reply.has_value()) << reply.error_message();
    int id = -1;
    ASSERT_EQ(std::sscanf(reply.value().c_str(), "{\"id\":%d,", &id), 1)
        << reply.value();
    EXPECT_NE(reply.value().find("\"ok\":true"), reply.value().npos);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kBurst));

  EXPECT_TRUE(server.stop());
}

TEST(Server, OversizedLineGetsErrorAndConnectionRecovers) {
  ServerConfig cfg;
  cfg.unix_path = test_socket_path("oversize");
  cfg.service.parse.max_bytes = 1024;
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());

  auto client = Client::connect_unix(cfg.unix_path);
  ASSERT_TRUE(client.has_value());
  Client& c = client.value();

  // Far past the limit: the server must reply once with parse_error while
  // discarding the rest of the line, not buffer it and not drop the
  // connection.
  std::string huge = R"({"id":1,"op":")" + std::string(64 * 1024, 'x') + "\"}";
  auto reply = c.call(huge);
  ASSERT_TRUE(reply.has_value()) << reply.error_message();
  EXPECT_NE(reply.value().find("\"code\":\"parse_error\""),
            reply.value().npos);

  auto pong = c.call(R"({"id":2,"op":"ping"})");
  ASSERT_TRUE(pong.has_value());
  EXPECT_NE(pong.value().find("pong"), pong.value().npos);
  EXPECT_TRUE(server.stop());
}

TEST(Server, StopFlushesInFlightReplies) {
  ServerConfig cfg;
  cfg.unix_path = test_socket_path("drain");
  cfg.service.workers = 1;
  cfg.service.cache_entries = 0;
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());

  auto client = Client::connect_unix(cfg.unix_path);
  ASSERT_TRUE(client.has_value());
  Client& c = client.value();

  // Several slow-ish requests in flight on one worker, then stop(): every
  // accepted reply must still reach the client before stop returns.
  constexpr int kInFlight = 4;
  for (int i = 0; i < kInFlight; ++i) {
    ASSERT_TRUE(c.send_line(
                     "{\"id\":" + std::to_string(i) +
                     ",\"op\":\"scenario_sim\",\"params\":{\"sim_time_us\":" +
                     std::to_string(200 + i) + "}}")
                    .is_ok());
  }
  std::this_thread::sleep_for(20ms);  // let the reader ingest the lines
  EXPECT_TRUE(server.stop());

  std::set<int> ids;
  for (int i = 0; i < kInFlight; ++i) {
    auto reply = c.read_line();
    ASSERT_TRUE(reply.has_value()) << reply.error_message();
    int id = -1;
    ASSERT_EQ(std::sscanf(reply.value().c_str(), "{\"id\":%d,", &id), 1);
    EXPECT_NE(reply.value().find("\"ok\":true"), reply.value().npos)
        << reply.value();
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kInFlight));
  // After the drain the stream ends cleanly.
  EXPECT_FALSE(c.read_line().has_value());
}

// Regression: inline replies (LRU hits, parse errors, overload) fire on
// the reactor thread, and the old write path could block there up to 5 s
// per reply polling a stuck peer's socket — one client that pipelined
// cache hits without reading stalled EVERY connection on its reactor,
// cumulatively unbounded. Replies must never block the event loop: the
// leftover queues on the connection and flushes via EPOLLOUT.
TEST(Server, SlowPeerDoesNotStallOtherConnectionsOnItsReactor) {
  ServerConfig cfg;
  cfg.unix_path = test_socket_path("slowpeer");
  cfg.reactors = 1;  // victim and bystander provably share one event loop
  cfg.service.workers = 1;
  cfg.write_stall = std::chrono::milliseconds(400);
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());

  RawConn slow(cfg.unix_path);
  ASSERT_GE(slow.fd, 0);
  const std::string line = nc_line(1, 1.25) + "\n";
  // Warm the LRU so the flood below is answered inline on the reactor.
  ASSERT_TRUE(slow.send_all(line, Clock::now() + 2s));
  ASSERT_TRUE(slow.read_line(Clock::now() + 5s));

  // Pipeline thousands of cache-hit requests and never read a reply. The
  // replies overflow this client's socket buffers; the reactor must park
  // them and move on. (Bounded sends: pre-fix the server stopped reading
  // while wedged in its 5 s write polls, and this flood would hang.)
  std::string burst;
  for (int i = 0; i < 64; ++i) burst += line;
  const auto flood_deadline = Clock::now() + 3s;
  for (int i = 0; i < 64 && Clock::now() < flood_deadline; ++i) {
    if (!slow.send_all(burst, flood_deadline)) break;
  }

  // A bystander on the same reactor still gets answered promptly. The
  // bound is generous wall-clock slack for CI; a single pre-fix write
  // stall alone was 5 s.
  const auto t0 = Clock::now();
  auto bystander = Client::connect_unix(cfg.unix_path);
  ASSERT_TRUE(bystander.has_value()) << bystander.error_message();
  auto pong = bystander.value().call(R"({"id":2,"op":"ping"})");
  ASSERT_TRUE(pong.has_value()) << pong.error_message();
  EXPECT_NE(pong.value().find("pong"), pong.value().npos);
  EXPECT_LT(Clock::now() - t0, 2500ms)
      << "a stuck peer delayed an unrelated connection on the same reactor";
  EXPECT_TRUE(server.stop());
}

// Regression: when a reply could not be written within the stall bound it
// was silently dropped while the connection stayed open — a pipelined
// client that was momentarily slow was permanently desynced, waiting
// forever on a reply that never comes while later replies still arrive.
// A peer stuck past write_stall must be disconnected outright so it
// observes a clean failure instead of a hole in the reply stream.
TEST(Server, StalledPeerIsDisconnectedNotSilentlyDesynced) {
  ServerConfig cfg;
  cfg.unix_path = test_socket_path("stall");
  cfg.reactors = 1;
  cfg.service.workers = 1;
  cfg.write_stall = std::chrono::milliseconds(200);
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());

  RawConn conn(cfg.unix_path);
  ASSERT_GE(conn.fd, 0);
  const std::string line = nc_line(1, 2.5) + "\n";
  ASSERT_TRUE(conn.send_all(line, Clock::now() + 2s));
  ASSERT_TRUE(conn.read_line(Clock::now() + 5s));

  // Far more replies than the socket buffers absorb, never reading: the
  // connection's outbound buffer stalls and must be cut off.
  std::string burst;
  for (int i = 0; i < 64; ++i) burst += line;
  std::size_t sent = 1;
  const auto flood_deadline = Clock::now() + 3s;
  for (int i = 0; i < 128 && Clock::now() < flood_deadline; ++i) {
    if (!conn.send_all(burst, flood_deadline)) break;
    sent += 64;
  }

  // Hold the stall: read nothing for comfortably longer than write_stall,
  // so the queued replies sit with zero progress and the sweep must cut
  // the connection while we are away. (Draining immediately would unstick
  // the socket before the stall bound ever elapsed.)
  std::this_thread::sleep_for(1s);

  // Whatever was already delivered can be read, and then the stream ends
  // with EOF/reset inside a bounded window — never an open socket with a
  // silent gap.
  const auto [replies, closed] = conn.drain(Clock::now() + 10s);
  EXPECT_TRUE(closed)
      << "stalled connection was left open after dropping replies";
  EXPECT_LT(replies, sent)
      << "every reply was delivered — the test never created a stall";
  EXPECT_TRUE(server.stop());
}

// Regression: start() used to leave the bound Unix listener (and its
// socket file) behind when the TCP listener failed to come up afterwards —
// a half-started server nobody could stop() and a stale socket file that
// broke the next start. A failed start must unwind completely.
TEST(Server, StartFailureUnwindsUnixListenerAndSocketFile) {
  ServerConfig cfg;
  cfg.unix_path = test_socket_path("unwind");
  cfg.tcp_port = 7171;
  cfg.tcp_host = "definitely not an address";  // TCP setup fails after Unix
  Server server(cfg);
  const Status st = server.start();
  ASSERT_FALSE(st.is_ok());

  // The socket file is gone and nothing is listening on it.
  EXPECT_NE(::access(cfg.unix_path.c_str(), F_OK), 0)
      << "stale socket file left behind by failed start";
  EXPECT_FALSE(Client::connect_unix(cfg.unix_path).has_value());

  // The path is reusable immediately: a corrected config starts cleanly.
  ServerConfig good = cfg;
  good.tcp_port = -1;
  good.tcp_host = "127.0.0.1";
  Server retry(good);
  ASSERT_TRUE(retry.start().is_ok());
  auto c = Client::connect_unix(good.unix_path);
  ASSERT_TRUE(c.has_value()) << c.error_message();
  auto pong = c.value().call(R"({"id":1,"op":"ping"})");
  ASSERT_TRUE(pong.has_value());
  EXPECT_NE(pong.value().find("pong"), pong.value().npos);
  EXPECT_TRUE(retry.stop());
}

// Regression: ServerConfig::tcp_port was cast straight to uint16, so
// 70000 silently bound port 4464. Out-of-range ports must be refused by
// name before any socket is created.
TEST(Server, TcpPortOutOfRangeIsRefusedByName) {
  for (const int bad : {65536, 70000, 1 << 20}) {
    ServerConfig cfg;
    cfg.tcp_port = bad;
    Server server(cfg);
    const Status st = server.start();
    ASSERT_FALSE(st.is_ok()) << "port " << bad << " must not truncate";
    EXPECT_NE(st.message().find("out of range"), st.message().npos)
        << st.message();
    EXPECT_LT(server.tcp_port(), 0);
  }
}

// The satellite contract, against the real binary: SIGTERM with N requests
// in flight → all N replies delivered, new connections refused, exit 0.
TEST(Server, PapdBinarySigtermDrainsAndExitsZero) {
  const std::string sock = test_socket_path("papd");
  ::unlink(sock.c_str());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::execl(PAPD_BIN, "papd", "--unix", sock.c_str(), "--workers", "2",
            "--drain-ms", "8000", static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }

  // Wait for the socket to come up.
  Expected<Client> client = Expected<Client>::error("not yet connected");
  for (int i = 0; i < 200 && !client.has_value(); ++i) {
    std::this_thread::sleep_for(25ms);
    client = Client::connect_unix(sock);
  }
  ASSERT_TRUE(client.has_value()) << client.error_message();
  Client& c = client.value();

  // Size the slow requests from one timed probe, so the workload costs the
  // same wall time in every build type and under any machine load: each
  // in-flight request should take about kTargetMs, far inside the drain
  // deadline even serialised behind one another, yet far longer than the
  // 30 ms before SIGTERM. (The probe differs in dsu_partitioning, so no
  // in-flight request can be answered from its cached reply.)
  constexpr int kProbeSimUs = 1000;
  constexpr double kTargetMs = 150.0;
  const auto probe_start = Clock::now();
  ASSERT_TRUE(c.send_line("{\"id\":100,\"op\":\"scenario_sim\",\"params\":"
                          "{\"sim_time_us\":" +
                          std::to_string(kProbeSimUs) +
                          ",\"dsu_partitioning\":true}}")
                  .is_ok());
  auto probe = c.read_line();
  ASSERT_TRUE(probe.has_value()) << probe.error_message();
  ASSERT_NE(probe.value().find("\"ok\":true"), probe.value().npos)
      << probe.value();
  const double probe_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - probe_start)
          .count();
  // scenario_sim caps sim_time_us at 20000.
  const int sim_us = static_cast<int>(
      std::clamp(kProbeSimUs * kTargetMs / probe_ms, 100.0, 19000.0));

  // N slow requests in flight on two workers, then SIGTERM while they are
  // provably incomplete. Distinct sim times keep them out of the LRU.
  constexpr int kInFlight = 6;
  for (int i = 0; i < kInFlight; ++i) {
    ASSERT_TRUE(c.send_line(
                     "{\"id\":" + std::to_string(i) +
                     ",\"op\":\"scenario_sim\",\"params\":{\"sim_time_us\":" +
                     std::to_string(sim_us + 10 * i) + "}}")
                    .is_ok());
  }
  std::this_thread::sleep_for(30ms);  // lines ingested, most still queued
  ASSERT_EQ(::kill(pid, SIGTERM), 0);

  // Every accepted request drains to a reply.
  std::set<int> ids;
  for (int i = 0; i < kInFlight; ++i) {
    auto reply = c.read_line();
    ASSERT_TRUE(reply.has_value())
        << "reply " << i << ": " << reply.error_message();
    int id = -1;
    ASSERT_EQ(std::sscanf(reply.value().c_str(), "{\"id\":%d,", &id), 1);
    EXPECT_NE(reply.value().find("\"ok\":true"), reply.value().npos)
        << reply.value();
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kInFlight));

  // The daemon exits 0 once drained.
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // And a draining/stopped daemon accepts no new connections.
  EXPECT_FALSE(Client::connect_unix(sock).has_value());
  ::unlink(sock.c_str());
}

}  // namespace
}  // namespace pap::serve
