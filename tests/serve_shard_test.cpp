// Shard routing for a papd fleet: the rendezvous hash (Client::route),
// endpoint parsing, and the end-to-end property the router exists for —
// a 4-shard fleet answers every request byte-identically to one papd,
// because routing happens on the protocol identity (`Request::key()`) and
// handlers are pure.
//
// Also home to the connect_tcp port-range regression: before the fix the
// port was cast straight to uint16, so 70000 silently aliased to 4464 —
// a client asked for an out-of-range port and *connected to something*.

#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace pap::serve {
namespace {

std::string test_socket_path(const std::string& tag) {
  return "serve_shard_test-" + tag + "-" + std::to_string(::getpid()) +
         ".sock";
}

TEST(Route, DeterministicAndInRange) {
  for (int i = 0; i < 500; ++i) {
    const std::string key = "op\n{\"i\":" + std::to_string(i) + "}";
    for (std::size_t n : {1u, 2u, 4u, 7u, 16u}) {
      const std::size_t shard = Client::route(key, n);
      EXPECT_LT(shard, n);
      EXPECT_EQ(shard, Client::route(key, n)) << "route must be a function";
    }
  }
  EXPECT_EQ(Client::route("anything", 0), 0u);
  EXPECT_EQ(Client::route("anything", 1), 0u);
}

TEST(Route, SpreadsSimilarKeysEvenly) {
  // Keys that differ by one serial digit — the realistic worst case for a
  // weak mixer — must still spread close to uniformly.
  constexpr std::size_t kShards = 4;
  constexpr int kKeys = 8000;
  std::vector<int> per_shard(kShards, 0);
  for (int i = 0; i < kKeys; ++i) {
    ++per_shard[Client::route(
        "admission_check\n{\"tasks\":" + std::to_string(i) + "}", kShards)];
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    // Uniform would be 2000 per shard; allow a wide band.
    EXPECT_GT(per_shard[s], kKeys / 8) << "shard " << s << " starved";
    EXPECT_LT(per_shard[s], kKeys / 2) << "shard " << s << " overloaded";
  }
}

TEST(Route, GrowingTheFleetRemapsOnlyTowardTheNewShard) {
  // Rendezvous hashing: when the fleet grows n -> n+1, a key either keeps
  // its shard or moves to the NEW shard — never between old shards — and
  // only ~1/(n+1) of keys move at all.
  constexpr int kKeys = 8000;
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "wcd_bound\n{\"k\":" + std::to_string(i) + "}";
    const std::size_t before = Client::route(key, 4);
    const std::size_t after = Client::route(key, 5);
    if (after != before) {
      EXPECT_EQ(after, 4u) << "moved keys must land on the new shard";
      ++moved;
    }
  }
  // Expected fraction 1/5 = 20%; accept a generous band around it.
  EXPECT_GT(moved, kKeys / 10);
  EXPECT_LT(moved, kKeys * 3 / 10);
}

TEST(ParseEndpoint, AcceptsAllForms) {
  auto u = parse_endpoint("unix:/tmp/papd-0.sock");
  ASSERT_TRUE(u.has_value()) << u.error_message();
  EXPECT_EQ(u.value().unix_path, "/tmp/papd-0.sock");

  auto bare = parse_endpoint("/run/papd.sock");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare.value().unix_path, "/run/papd.sock");

  auto p = parse_endpoint("tcp:7171");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p.value().unix_path.empty());
  EXPECT_EQ(p.value().host, "127.0.0.1");
  EXPECT_EQ(p.value().port, 7171);

  auto hp = parse_endpoint("tcp:10.0.0.8:443");
  ASSERT_TRUE(hp.has_value());
  EXPECT_EQ(hp.value().host, "10.0.0.8");
  EXPECT_EQ(hp.value().port, 443);
}

TEST(ParseEndpoint, RejectsMalformedAndOutOfRange) {
  EXPECT_FALSE(parse_endpoint("").has_value());
  EXPECT_FALSE(parse_endpoint("unix:").has_value());
  EXPECT_FALSE(parse_endpoint("tcp:").has_value());
  EXPECT_FALSE(parse_endpoint("tcp:notaport").has_value());
  EXPECT_FALSE(parse_endpoint("tcp:0").has_value());
  EXPECT_FALSE(parse_endpoint("tcp:70000").has_value());
  EXPECT_FALSE(parse_endpoint("tcp:+80").has_value());  // digits only
  EXPECT_FALSE(parse_endpoint("tcp:10.0.0.8:65536").has_value());
}

// Regression: the tcp form split on the LAST colon, so "tcp::7171"
// silently produced an empty host and an IPv6 literal like
// "tcp:::1:7171" misparsed into host "::1" instead of a named error.
// Empty segments and IPv6 literals are rejected by name.
TEST(ParseEndpoint, RejectsEmptySegmentsAndIpv6Literals) {
  auto empty_host = parse_endpoint("tcp::7171");
  ASSERT_FALSE(empty_host.has_value());
  EXPECT_NE(empty_host.error_message().find("empty host"),
            empty_host.error_message().npos)
      << empty_host.error_message();

  auto empty_port = parse_endpoint("tcp:10.0.0.8:");
  ASSERT_FALSE(empty_port.has_value());
  EXPECT_NE(empty_port.error_message().find("port"),
            empty_port.error_message().npos)
      << empty_port.error_message();

  for (const char* ipv6 : {"tcp:::1:7171", "tcp:[::1]:7171",
                           "tcp:fe80::1:7171"}) {
    auto ep = parse_endpoint(ipv6);
    ASSERT_FALSE(ep.has_value()) << ipv6 << " must not misparse";
    EXPECT_NE(ep.error_message().find("IPv6"), ep.error_message().npos)
        << ep.error_message();
  }
}

// Regression for the silent uint16 truncation: connect_tcp(host, P+65536)
// used to alias to port P. With a live listener on P, the pre-fix code
// *successfully connected* to the wrong port; the fix must refuse with a
// named error instead, without ever touching the network.
TEST(Client, TcpPortOutOfRangeIsAnErrorNotATruncatedConnect) {
  ServerConfig cfg;
  cfg.tcp_port = 0;  // ephemeral
  cfg.service.workers = 1;
  Server server(cfg);
  ASSERT_TRUE(server.start().is_ok());
  const int port = server.tcp_port();
  ASSERT_GT(port, 0);

  auto aliased = Client::connect_tcp("127.0.0.1", port + 65536);
  ASSERT_FALSE(aliased.has_value())
      << "out-of-range port must not truncate onto a live listener";
  EXPECT_NE(aliased.error_message().find("out of range"),
            aliased.error_message().npos)
      << aliased.error_message();

  for (const int bad : {0, -1, 65536, 70000}) {
    auto c = Client::connect_tcp("127.0.0.1", bad);
    ASSERT_FALSE(c.has_value()) << "port " << bad;
    EXPECT_NE(c.error_message().find("out of range"), c.error_message().npos);
  }

  // The in-range connection still works.
  auto good = Client::connect_tcp("127.0.0.1", port);
  ASSERT_TRUE(good.has_value()) << good.error_message();
  EXPECT_TRUE(server.stop());
}

// ---- fleet end-to-end: 4 shards answer byte-identically to one papd ----

std::vector<std::string> request_mix() {
  std::vector<std::string> lines;
  int id = 0;
  for (int i = 0; i < 12; ++i) {
    lines.push_back(
        "{\"id\":" + std::to_string(id++) +
        ",\"op\":\"admission_check\",\"params\":{\"apps\":[{\"rate\":" +
        std::to_string(0.05 + 0.01 * i) + ",\"burst\":4}]}}");
    lines.push_back("{\"id\":" + std::to_string(id++) +
                    ",\"op\":\"wcd_bound\",\"params\":{\"write_gbps\":" +
                    std::to_string(4.0 + 0.2 * i) + "}}");
    lines.push_back(
        "{\"id\":" + std::to_string(id++) +
        ",\"op\":\"nc_delay\",\"params\":{\"arrival\":{\"burst\":8,"
        "\"rate\":" +
        std::to_string(0.5 + 0.1 * i) +
        "},\"service\":{\"rate\":2.0,\"latency_ns\":50}}}");
    lines.push_back("{\"id\":" + std::to_string(id++) + ",\"op\":\"ping\"}");
  }
  return lines;
}

TEST(ShardFleet, FourShardsByteIdenticalToSinglePapd) {
  constexpr std::size_t kShards = 4;

  // The reference: one in-process server.
  ServerConfig single_cfg;
  single_cfg.unix_path = test_socket_path("single");
  single_cfg.service.workers = 1;
  Server single(single_cfg);
  ASSERT_TRUE(single.start().is_ok());

  // The fleet: four servers on their own sockets.
  std::vector<std::unique_ptr<Server>> fleet;
  std::vector<ShardEndpoint> endpoints;
  for (std::size_t s = 0; s < kShards; ++s) {
    ServerConfig cfg;
    cfg.unix_path = test_socket_path("shard" + std::to_string(s));
    cfg.service.workers = 1;
    fleet.push_back(std::make_unique<Server>(cfg));
    ASSERT_TRUE(fleet.back()->start().is_ok());
    ShardEndpoint ep;
    ep.unix_path = cfg.unix_path;
    endpoints.push_back(ep);
  }
  const ShardRouter router(endpoints);
  ASSERT_EQ(router.size(), kShards);

  auto ref = Client::connect_unix(single_cfg.unix_path);
  ASSERT_TRUE(ref.has_value());
  std::vector<Client> shard_clients;
  for (std::size_t s = 0; s < kShards; ++s) {
    auto c = router.connect(s);
    ASSERT_TRUE(c.has_value()) << c.error_message();
    shard_clients.push_back(std::move(c.value()));
  }

  std::set<std::size_t> shards_used;
  for (const std::string& line : request_mix()) {
    const auto req = parse_request(line);
    ASSERT_TRUE(req.has_value()) << line;
    const std::size_t home = router.route(req.value().key());
    ASSERT_LT(home, kShards);
    shards_used.insert(home);

    auto sharded = shard_clients[home].call(line);
    auto reference = ref.value().call(line);
    ASSERT_TRUE(sharded.has_value()) << sharded.error_message();
    ASSERT_TRUE(reference.has_value()) << reference.error_message();
    EXPECT_EQ(sharded.value(), reference.value()) << line;
  }
  // The mix is wide enough that routing actually fans out.
  EXPECT_GT(shards_used.size(), 1u);

  // Repeats hit each key's home shard cache and stay byte-identical.
  for (const std::string& line : request_mix()) {
    const auto req = parse_request(line);
    const std::size_t home = router.route(req.value().key());
    auto again = shard_clients[home].call(line);
    auto reference = ref.value().call(line);
    ASSERT_TRUE(again.has_value());
    ASSERT_TRUE(reference.has_value());
    EXPECT_EQ(again.value(), reference.value());
  }

  for (auto& s : fleet) EXPECT_TRUE(s->stop());
  EXPECT_TRUE(single.stop());
}

// Out-of-range shard index is a named error, not a crash.
TEST(ShardRouter, ConnectRejectsBadIndex) {
  ShardEndpoint ep;
  ep.unix_path = "/nonexistent.sock";
  const ShardRouter router({ep});
  auto c = router.connect(3);
  ASSERT_FALSE(c.has_value());
  EXPECT_NE(c.error_message().find("out of range"), c.error_message().npos);
}

}  // namespace
}  // namespace pap::serve
