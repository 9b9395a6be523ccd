// Admission-control overlay: rate tables (Fig. 7), client lifecycle and the
// actMsg/terMsg/stopMsg/confMsg protocol, mode transitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/rng.hpp"
#include "rm/manager.hpp"
#include "rm/rate_table.hpp"
#include "sim/kernel.hpp"
#include "trace/tracer.hpp"

namespace pap::rm {
namespace {

TEST(RateTable, SymmetricDividesBudgetUniformly) {
  const auto t = RateTable::symmetric(Rate::gbps(8), 64, 4.0);
  const auto one = t.rate_for(1, {1});
  const auto four = t.rate_for(1, {1, 2, 3, 4});
  EXPECT_NEAR(one.rate / four.rate, 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(one.burst, 4.0);
}

TEST(RateTable, NonSymmetricPinsCriticalRates) {
  std::vector<AppQos> qos{{1, true, Rate::gbps(2)},
                          {2, false, Rate::gbps(0)},
                          {3, false, Rate::gbps(0)}};
  const auto t = RateTable::non_symmetric(Rate::gbps(8), 64, 4.0, qos).value();
  // Critical app keeps its rate in every mode.
  const auto alone = t.rate_for(1, {1});
  const auto crowded = t.rate_for(1, {1, 2, 3});
  EXPECT_DOUBLE_EQ(alone.rate, crowded.rate);
  // Best-effort apps share what remains: (8-2)/2 = 3 Gbps each.
  const auto be = t.rate_for(2, {1, 2, 3});
  const double expected_rate =
      Rate::gbps(3).requests_per_sec(64) / 1e9;
  EXPECT_NEAR(be.rate, expected_rate, 1e-9);
}

TEST(RateTable, NonSymmetricBestEffortShrinksWithMode) {
  std::vector<AppQos> qos{{1, true, Rate::gbps(4)},
                          {2, false, Rate::gbps(0)},
                          {3, false, Rate::gbps(0)}};
  const auto t = RateTable::non_symmetric(Rate::gbps(8), 64, 4.0, qos).value();
  const auto be_mode2 = t.rate_for(2, {1, 2});
  const auto be_mode3 = t.rate_for(2, {1, 2, 3});
  EXPECT_GT(be_mode2.rate, be_mode3.rate);
}

TEST(RateTable, NonSymmetricRejectsInfeasibleConfigurations) {
  // Critical guarantees beyond the budget are a configuration error, not a
  // crash: the factory reports it via Expected.
  const auto over = RateTable::non_symmetric(
      Rate::gbps(2), 64, 4.0,
      {{1, true, Rate::gbps(3)}, {2, false, Rate::gbps(0)}});
  ASSERT_FALSE(over.has_value());
  EXPECT_NE(over.error_message().find("NoC budget"), std::string::npos);

  const auto dup = RateTable::non_symmetric(
      Rate::gbps(8), 64, 4.0,
      {{1, true, Rate::gbps(1)}, {1, false, Rate::gbps(0)}});
  ASSERT_FALSE(dup.has_value());
  EXPECT_NE(dup.error_message().find("duplicate"), std::string::npos);

  EXPECT_FALSE(RateTable::non_symmetric(Rate::gbps(8), 0, 4.0, {}));
  EXPECT_FALSE(RateTable::non_symmetric(Rate::gbps(8), 64, 0.0, {}));
}

struct Fixture {
  sim::Kernel kernel;
  noc::NocConfig cfg;
  noc::Network net{kernel, cfg};
  ResourceManager rm{kernel, net, /*rm_node=*/0,
                     RateTable::symmetric(Rate::gbps(8), 64, 4.0)};

  noc::Packet packet(noc::AppId app, noc::NodeId src) {
    noc::Packet p;
    p.app = app;
    p.src = src;
    p.dst = net.mesh().node(3, 3);
    return p;
  }
};

TEST(Protocol, FirstSendTrappedUntilConfMsg) {
  Fixture f;
  auto* client = f.rm.add_client(f.net.mesh().node(1, 1), /*app=*/1);
  client->send(f.packet(1, f.net.mesh().node(1, 1)));
  EXPECT_EQ(client->state(), Client::State::kAwaitingAdmission);
  EXPECT_EQ(f.net.delivered(), 0u);
  f.kernel.run();
  EXPECT_EQ(client->state(), Client::State::kActive);
  EXPECT_EQ(f.net.delivered(), 1u);
  EXPECT_EQ(f.rm.stats().act_msgs, 1u);
  EXPECT_GE(f.rm.stats().conf_msgs, 1u);
  EXPECT_EQ(f.rm.mode(), 1);
}

TEST(Protocol, NonAuthorizedSendsRejected) {
  Fixture f;
  auto* client = f.rm.add_client(f.net.mesh().node(1, 1), 1);
  client->send(f.packet(/*app=*/9, f.net.mesh().node(1, 1)));  // wrong app
  client->send(f.packet(1, f.net.mesh().node(2, 2)));          // wrong node
  EXPECT_EQ(client->rejected(), 2u);
  EXPECT_EQ(client->state(), Client::State::kInactive);
}

TEST(Protocol, ActivationChangesModeForEveryone) {
  Fixture f;
  auto* c1 = f.rm.add_client(f.net.mesh().node(1, 0), 1);
  auto* c2 = f.rm.add_client(f.net.mesh().node(2, 0), 2);
  c1->send(f.packet(1, f.net.mesh().node(1, 0)));
  f.kernel.run();
  const double rate_alone = c1->shaper()->params().rate;
  c2->send(f.packet(2, f.net.mesh().node(2, 0)));
  f.kernel.run();
  EXPECT_EQ(f.rm.mode(), 2);
  // Symmetric policy: c1's rate halved after c2 joined.
  EXPECT_NEAR(c1->shaper()->params().rate, rate_alone / 2.0, 1e-12);
  EXPECT_GE(f.rm.stats().stop_msgs, 1u);  // c1 was stopped for the change
  EXPECT_EQ(f.rm.stats().mode_changes, 2u);
}

TEST(Protocol, TerminationRestoresRates) {
  Fixture f;
  auto* c1 = f.rm.add_client(f.net.mesh().node(1, 0), 1);
  auto* c2 = f.rm.add_client(f.net.mesh().node(2, 0), 2);
  c1->send(f.packet(1, f.net.mesh().node(1, 0)));
  c2->send(f.packet(2, f.net.mesh().node(2, 0)));
  f.kernel.run();
  EXPECT_EQ(f.rm.mode(), 2);
  c2->terminate();
  f.kernel.run();
  EXPECT_EQ(f.rm.mode(), 1);
  EXPECT_EQ(f.rm.stats().ter_msgs, 1u);
  EXPECT_EQ(f.rm.active_apps(), std::vector<noc::AppId>{1});
}

TEST(Protocol, StoppedClientQueuesTraffic) {
  Fixture f;
  auto* c1 = f.rm.add_client(f.net.mesh().node(1, 0), 1);
  c1->send(f.packet(1, f.net.mesh().node(1, 0)));
  f.kernel.run();
  // Direct injection of a stop and a conf (as during a mode change), with
  // seqs the RM has not used and the current epoch.
  ControlMessage stop;
  stop.type = MsgType::kStop;
  stop.app = c1->app();
  stop.node = c1->node();
  stop.seq = 1000;
  stop.epoch = f.rm.epoch();
  c1->on_stop(stop);
  c1->send(f.packet(1, f.net.mesh().node(1, 0)));
  EXPECT_EQ(c1->queued(), 1u);
  EXPECT_EQ(c1->state(), Client::State::kStopped);
  ControlMessage conf = stop;
  conf.type = MsgType::kConfigure;
  conf.mode = 1;
  conf.rate = nc::TokenBucket{4.0, 0.01};
  conf.seq = 1001;
  c1->on_configure(conf);
  f.kernel.run();
  EXPECT_EQ(c1->queued(), 0u);
  EXPECT_GT(c1->blocked_time(), Time::zero());
}

TEST(Protocol, RateEnforcedBetweenTransmissions) {
  // The Fig. 7 semantics: mode determines the minimum separation between
  // two transmissions of the same application.
  Fixture f;
  auto* c1 = f.rm.add_client(f.net.mesh().node(1, 0), 1);
  std::vector<Time> injections;  // client-release instants, not deliveries
  f.net.set_delivery_handler([&](const noc::Packet& p, Time) {
    injections.push_back(p.injected);
  });
  for (int i = 0; i < 6; ++i) {
    c1->send(f.packet(1, f.net.mesh().node(1, 0)));
  }
  f.kernel.run();
  ASSERT_EQ(injections.size(), 6u);
  std::sort(injections.begin(), injections.end());
  const auto bucket = f.rm.table().rate_for(1, {1});
  const auto min_sep = Time::from_ns(1.0 / bucket.rate);
  // After the burst allowance (4 packets), injections respect the rate.
  for (std::size_t i = 5; i < injections.size(); ++i) {
    EXPECT_GE(injections[i] - injections[i - 1] + Time::ns(1), min_sep);
  }
}

TEST(Protocol, ArrivalOrderProcessing) {
  // Two activations land close together; both mode changes are processed,
  // in order, ending at mode 2.
  Fixture f;
  auto* c1 = f.rm.add_client(f.net.mesh().node(1, 0), 1);
  auto* c2 = f.rm.add_client(f.net.mesh().node(3, 3), 2);
  std::vector<int> modes;
  f.rm.set_mode_trace([&](Time, int m, const auto&) { modes.push_back(m); });
  c1->send(f.packet(1, f.net.mesh().node(1, 0)));
  c2->send(f.packet(2, f.net.mesh().node(3, 3)));
  f.kernel.run();
  EXPECT_EQ(modes, (std::vector<int>{1, 2}));
}

// Randomized lifecycle fuzz: a seeded storm of activations/terminations.
// Invariants after quiescence: the RM's mode equals the surviving client
// count, every surviving client is Active with the correct symmetric rate,
// and no packet is lost (delivered == sent by surviving + terminated).
class ProtocolFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolFuzz, LifecycleStormKeepsInvariants) {
  Rng rng(GetParam());
  sim::Kernel kernel;
  noc::NocConfig cfg;
  noc::Network net{kernel, cfg};
  rm::ResourceManager rm{kernel, net, 0,
                         RateTable::symmetric(Rate::gbps(8), 64, 4.0)};
  constexpr int kApps = 6;
  std::vector<Client*> clients;
  for (int a = 0; a < kApps; ++a) {
    clients.push_back(
        rm.add_client(net.mesh().node(a % 4, a / 4 + 1),
                      static_cast<noc::AppId>(a + 1)));
  }
  std::vector<bool> terminated(kApps, false);
  std::uint64_t submitted = 0;
  // Random schedule of sends and terminations.
  Time t;
  for (int step = 0; step < 120; ++step) {
    t += Time::ns(rng.uniform(50, 2'000));
    const int a = static_cast<int>(rng.next_below(kApps));
    if (terminated[a]) continue;
    if (rng.chance(0.06) && step > 20) {
      kernel.schedule_at(t, [c = clients[a]] {
        if (c->state() != Client::State::kTerminated) c->terminate();
      });
      terminated[a] = true;
      continue;
    }
    noc::Packet p;
    p.id = submitted++;
    p.src = clients[a]->node();
    p.dst = net.mesh().node(3, 3);
    p.app = clients[a]->app();
    kernel.schedule_at(t, [c = clients[a], p] {
      if (c->state() != Client::State::kTerminated) c->send(p);
    });
  }
  kernel.run();

  // Invariant 1: mode equals the number of activated, unterminated apps.
  int expected_active = 0;
  for (int a = 0; a < kApps; ++a) {
    if (clients[a]->state() == Client::State::kActive) ++expected_active;
  }
  EXPECT_EQ(rm.mode(), expected_active);
  // Invariant 2: every active client carries the symmetric mode rate.
  for (int a = 0; a < kApps; ++a) {
    if (clients[a]->state() != Client::State::kActive) continue;
    const auto want = rm.table().rate_for(clients[a]->app(), rm.active_apps());
    EXPECT_NEAR(clients[a]->shaper()->params().rate, want.rate, 1e-12);
    EXPECT_EQ(clients[a]->current_mode(), rm.mode());
  }
  // Invariant 3: active clients drained their queues; every packet a
  // client released was delivered (terminated clients may abandon queued
  // packets — the app quit with work pending).
  std::uint64_t sent = 0;
  for (const auto* c : clients) {
    if (c->state() == Client::State::kActive) {
      EXPECT_EQ(c->queued(), 0u);
    }
    sent += c->sent();
  }
  EXPECT_EQ(net.delivered(), sent);
  // Invariant 4: protocol accounting is consistent.
  EXPECT_EQ(rm.stats().mode_changes,
            rm.stats().act_msgs + rm.stats().ter_msgs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

// Regression: mode() used to report active_apps().size() directly, so a
// reader probing mid-transition saw the *target* mode before any client had
// been reconfigured. mode() must report the committed mode and only advance
// at commit time.
TEST(Protocol, ModeReportsCommittedModeThroughInFlightTransition) {
  Fixture f;
  auto* c1 = f.rm.add_client(f.net.mesh().node(1, 0), 1);
  auto* c2 = f.rm.add_client(f.net.mesh().node(3, 3), 2);
  c1->send(f.packet(1, f.net.mesh().node(1, 0)));
  f.kernel.run();
  ASSERT_EQ(f.rm.mode(), 1);

  c2->send(f.packet(2, f.net.mesh().node(3, 3)));
  // Probe densely across the second transition. Whenever the membership
  // has already grown but the transition has not committed, mode() must
  // still report the old committed mode.
  const Time base = f.kernel.now();
  bool observed_in_flight = false;
  std::vector<int> modes_seen;
  for (int t = 0; t <= 5000; t += 10) {
    f.kernel.schedule_at(base + Time::ns(t), [&] {
      modes_seen.push_back(f.rm.mode());
      if (f.rm.active_apps().size() == 2 && f.rm.transitions().size() < 2) {
        observed_in_flight = true;
        EXPECT_EQ(f.rm.mode(), 1);
      }
    });
  }
  f.kernel.run();
  EXPECT_TRUE(observed_in_flight);
  EXPECT_EQ(f.rm.mode(), 2);
  EXPECT_TRUE(std::is_sorted(modes_seen.begin(), modes_seen.end()));
}

// A client may terminate while still awaiting its first confMsg: the actMsg
// and terMsg are then processed back-to-back, and the system ends where it
// started — mode 0 — without wedging or crashing.
TEST(Protocol, TerminateBeforeFirstConfMsg) {
  Fixture f;
  auto* c1 = f.rm.add_client(f.net.mesh().node(1, 0), 1);
  c1->send(f.packet(1, f.net.mesh().node(1, 0)));
  ASSERT_EQ(c1->state(), Client::State::kAwaitingAdmission);
  c1->terminate();
  EXPECT_EQ(c1->state(), Client::State::kTerminated);
  f.kernel.run();
  EXPECT_EQ(f.rm.mode(), 0);
  EXPECT_TRUE(f.rm.active_apps().empty());
  EXPECT_EQ(f.rm.stats().act_msgs, 1u);
  EXPECT_EQ(f.rm.stats().ter_msgs, 1u);
  EXPECT_EQ(f.rm.stats().mode_changes, 2u);
}

// Pins one ideal-channel run to the picosecond: overlapping activations, a
// terminate before admission, and a terMsg queued behind another actMsg
// while its client is still a member. Transition instants, every protocol
// counter, each client's blocked time / packets sent / final state and the
// "rm" trace track are all fixed here, so a change to the transition
// machine that moves any event shows up as a diff of this dump.
TEST(Protocol, IdealChannelRunIsPinned) {
  Fixture f;
  trace::Tracer tracer;
  f.kernel.set_tracer(&tracer);
  auto* c1 = f.rm.add_client(f.net.mesh().node(1, 0), 1);
  auto* c2 = f.rm.add_client(f.net.mesh().node(3, 3), 2);
  auto* c3 = f.rm.add_client(f.net.mesh().node(0, 2), 3);
  auto* c4 = f.rm.add_client(f.net.mesh().node(2, 1), 4);
  const auto send_at = [&](Time at, Client* c, int n) {
    f.kernel.schedule_at(at, [&f, c, n] {
      for (int i = 0; i < n; ++i) c->send(f.packet(c->app(), c->node()));
    });
  };
  // Overlapping activations: c2's actMsg lands during c1's transition.
  send_at(Time::zero(), c1, 5);
  send_at(Time::ns(3), c2, 3);
  // Terminate before admission: c3 quits while its actMsg is in flight.
  send_at(Time::ns(1), c3, 1);
  f.kernel.schedule_at(Time::ns(6), [c3] { c3->terminate(); });
  // c1 keeps sending through the later transitions.
  send_at(Time::ns(400), c1, 2);
  // c2 terminates just after c4 activates: c2's terMsg queues behind c4's
  // actMsg while c2 is still a member but already terminated.
  send_at(Time::ns(2000), c4, 4);
  f.kernel.schedule_at(Time::ns(2001), [c2] { c2->terminate(); });
  send_at(Time::ns(2030), c1, 3);
  f.kernel.run();

  std::ostringstream out;
  for (const auto& [start, commit] : f.rm.transitions()) {
    out << "transition " << start.picos() << " " << commit.picos() << "\n";
  }
  const ProtocolStats& s = f.rm.stats();
  out << "stats act=" << s.act_msgs << " ter=" << s.ter_msgs
      << " stop=" << s.stop_msgs << " conf=" << s.conf_msgs
      << " modes=" << s.mode_changes << " stop_acks=" << s.stop_acks
      << " conf_acks=" << s.conf_acks << " retx=" << s.retransmissions
      << " timeouts=" << s.timeouts << " dups=" << s.duplicates_discarded
      << " evictions=" << s.evictions << " degraded=" << s.degraded_entries
      << " degraded_ps=" << s.degraded_time.picos() << "\n";
  for (const Client* c : {c1, c2, c3, c4}) {
    out << "client " << c->app() << " blocked=" << c->blocked_time().picos()
        << " sent=" << c->sent() << " state=" << static_cast<int>(c->state())
        << "\n";
  }
  for (const auto& e : tracer.events()) {
    if (e.component != "rm") continue;
    out << e.ts_ps << " " << e.dur_ps << " " << static_cast<int>(e.type)
        << " " << e.name << " " << e.category << " " << e.value << "\n";
  }
  EXPECT_EQ(out.str(), R"(transition 12000 74000
transition 74000 153000
transition 153000 227000
transition 227000 326000
transition 2022000 2121000
transition 2121000 2215000
stats act=4 ter=2 stop=6 conf=11 modes=6 stop_acks=0 conf_acks=0 retx=0 timeouts=0 dups=0 evictions=0 degraded=0 degraded_ps=0
client 1 blocked=394000 sent=10 state=2
client 2 blocked=323000 sent=3 state=6
client 3 blocked=0 sent=0 state=6
client 4 blocked=178000 sent=4 state=2
0 12000 2 actMsg/app1 msg 0
1000 17000 2 actMsg/app3 msg 0
3000 37000 2 actMsg/app2 msg 0
6000 17000 2 terMsg/app3 msg 0
12000 0 3 mode_change/start mode 0
62000 12000 2 confMsg/app1 msg 0
74000 0 3 mode_change/commit mode 0
74000 0 4 mode  1
74000 0 3 mode_change/start mode 0
74000 12000 2 stopMsg/app1 msg 0
136000 12000 2 confMsg/app1 msg 0
136000 17000 2 confMsg/app3 msg 0
153000 0 3 mode_change/commit mode 0
153000 0 4 mode  2
153000 0 3 mode_change/start mode 0
153000 12000 2 stopMsg/app1 msg 0
215000 12000 2 confMsg/app1 msg 0
227000 0 3 mode_change/commit mode 0
227000 0 4 mode  1
227000 0 3 mode_change/start mode 0
227000 12000 2 stopMsg/app1 msg 0
289000 12000 2 confMsg/app1 msg 0
289000 37000 2 confMsg/app2 msg 0
326000 0 3 mode_change/commit mode 0
326000 0 4 mode  2
2000000 22000 2 actMsg/app4 msg 0
2001000 37000 2 terMsg/app2 msg 0
2022000 0 3 mode_change/start mode 0
2022000 12000 2 stopMsg/app1 msg 0
2084000 12000 2 confMsg/app1 msg 0
2084000 37000 2 confMsg/app2 msg 0
2084000 22000 2 confMsg/app4 msg 0
2121000 0 3 mode_change/commit mode 0
2121000 0 4 mode  3
2121000 0 3 mode_change/start mode 0
2121000 12000 2 stopMsg/app1 msg 0
2121000 22000 2 stopMsg/app4 msg 0
2193000 12000 2 confMsg/app1 msg 0
2193000 22000 2 confMsg/app4 msg 0
2215000 0 3 mode_change/commit mode 0
2215000 0 4 mode  2
)");
}

TEST(Protocol, DuplicateAppRegistrationForbidden) {
  Fixture f;
  f.rm.add_client(f.net.mesh().node(1, 0), 1);
  EXPECT_DEATH(f.rm.add_client(f.net.mesh().node(2, 0), 1),
               "duplicate add_client");
}

// Activate-then-terminate a single client: the termination transition has
// nobody left to stop or configure, and must still commit (to mode 0).
TEST(Protocol, ZeroClientModeChangeCommits) {
  Fixture f;
  auto* c1 = f.rm.add_client(f.net.mesh().node(1, 0), 1);
  c1->send(f.packet(1, f.net.mesh().node(1, 0)));
  f.kernel.run();
  c1->terminate();
  f.kernel.run();
  EXPECT_EQ(f.rm.mode(), 0);
  EXPECT_EQ(f.rm.stats().mode_changes, 2u);
  EXPECT_EQ(f.rm.transitions().size(), 2u);
}

// Same shape under the hardened protocol: both the stop and the conf phase
// of the termination transition are empty, and the commit must chain
// through the empty phases instead of waiting for acks that never come.
TEST(Protocol, ZeroClientModeChangeCommitsHardened) {
  Fixture f;
  ProtocolConfig pcfg;
  pcfg.hardened = true;
  f.rm.set_protocol_config(pcfg);
  auto* c1 = f.rm.add_client(f.net.mesh().node(1, 0), 1);
  c1->send(f.packet(1, f.net.mesh().node(1, 0)));
  f.kernel.run();
  EXPECT_EQ(f.rm.mode(), 1);
  c1->terminate();
  f.kernel.run();
  EXPECT_EQ(f.rm.mode(), 0);
  EXPECT_EQ(f.rm.stats().mode_changes, 2u);
  EXPECT_EQ(f.rm.transitions().size(), 2u);
  EXPECT_EQ(f.rm.stats().timeouts, 0u);
}

TEST(Protocol, DoubleTerminationForbidden) {
  Fixture f;
  auto* c1 = f.rm.add_client(f.net.mesh().node(1, 0), 1);
  c1->send(f.packet(1, f.net.mesh().node(1, 0)));
  f.kernel.run();
  c1->terminate();
  f.kernel.run();
  EXPECT_EQ(c1->state(), Client::State::kTerminated);
  EXPECT_DEATH(c1->terminate(), "double termination");
}

}  // namespace
}  // namespace pap::rm
