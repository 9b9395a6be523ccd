// Hardened RM control plane under injected faults: retransmission completes
// transitions despite message loss, silent-RM clients degrade to the safe
// static rate within the watchdog bound, crashed clients re-admit after
// restart, and the protocol's recovery accounting matches what the injector
// actually did. Everything is deterministic: same plan + seed => identical
// stats, asserted at the end.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "fault/injector.hpp"
#include "rm/manager.hpp"
#include "sim/kernel.hpp"

namespace pap::rm {
namespace {

struct Fixture {
  explicit Fixture(const std::string& plan_text, ProtocolConfig pcfg = {}) {
    pcfg.hardened = true;
    rm.set_protocol_config(pcfg);
    plan = fault::FaultPlan::parse(plan_text).value();
    injector.emplace(kernel, plan);
    injector->on_crash([this](int app) { client_of(app)->crash(); });
    injector->on_restart([this](int app) { client_of(app)->restart(); });
    if (injector->enabled()) {
      rm.set_injector(&*injector);
      injector->arm();
    }
  }

  Client* add(int column, noc::AppId app) {
    clients.push_back(rm.add_client(net.mesh().node(column, 1), app));
    return clients.back();
  }

  Client* client_of(int app) {
    for (auto* c : clients) {
      if (c->app() == static_cast<noc::AppId>(app)) return c;
    }
    ADD_FAILURE() << "no client for app " << app;
    return nullptr;
  }

  void send(Client* c) {
    noc::Packet p;
    p.src = c->node();
    p.dst = net.mesh().node(3, 3);
    p.app = c->app();
    c->send(p);
  }

  sim::Kernel kernel;
  noc::NocConfig cfg;
  noc::Network net{kernel, cfg};
  ResourceManager rm{kernel, net, /*rm_node=*/0,
                     RateTable::symmetric(Rate::gbps(8), 64, 4.0)};
  fault::FaultPlan plan;
  std::optional<fault::Injector> injector;
  std::vector<Client*> clients;
};

TEST(HardenedProtocol, NoFaultsBehavesLikeTheIdealChannel) {
  Fixture f("");
  auto* c1 = f.add(1, 1);
  auto* c2 = f.add(2, 2);
  f.send(c1);
  f.send(c2);
  f.kernel.run();
  EXPECT_EQ(f.rm.mode(), 2);
  EXPECT_EQ(c1->state(), Client::State::kActive);
  EXPECT_EQ(c2->state(), Client::State::kActive);
  EXPECT_EQ(f.rm.stats().retransmissions, 0u);
  EXPECT_EQ(f.rm.stats().timeouts, 0u);
  EXPECT_EQ(f.rm.stats().evictions, 0u);
  // Hardened bookkeeping runs even without faults: stops and confs acked.
  EXPECT_EQ(f.rm.stats().stop_acks, f.rm.stats().stop_msgs);
  EXPECT_EQ(f.rm.stats().conf_acks, f.rm.stats().conf_msgs);
}

// Acceptance (a): a dropped stopMsg no longer wedges the mode transition —
// the retransmission completes it.
TEST(HardenedProtocol, DroppedStopMsgRecoveredByRetransmission) {
  Fixture f("drop=stop:1:1");  // drop exactly the first stopMsg leg
  auto* c1 = f.add(1, 1);
  auto* c2 = f.add(2, 2);
  f.send(c1);
  f.kernel.run();
  ASSERT_EQ(f.rm.mode(), 1);
  f.send(c2);  // triggers a transition that must stop c1
  f.kernel.run();
  // The transition completed despite the loss.
  EXPECT_EQ(f.rm.mode(), 2);
  EXPECT_EQ(c1->state(), Client::State::kActive);
  EXPECT_EQ(c2->state(), Client::State::kActive);
  EXPECT_EQ(f.rm.transitions().size(), f.rm.stats().mode_changes);
  // Counters match the injected faults: the one dropped stop leg costs one
  // RM-side timeout+retransmit; the admission it stalls can additionally
  // cost the waiting client an act retransmit. Nothing exhausts its retry
  // budget, so every timeout produced a retransmission and nobody got
  // evicted.
  EXPECT_EQ(f.injector->stats().msgs_dropped, 1u);
  EXPECT_GE(f.rm.stats().timeouts, 1u);
  EXPECT_EQ(f.rm.stats().retransmissions, f.rm.stats().timeouts);
  EXPECT_EQ(f.rm.stats().evictions, 0u);
}

// Acceptance (b): when the RM goes quiet, a blocked client drops to the
// configured safe static rate within the watchdog bound instead of wedging.
TEST(HardenedProtocol, RmSilenceDegradesClientWithinWatchdogBound) {
  ProtocolConfig pcfg;
  pcfg.client_watchdog = Time::us(20);
  // Every confMsg leg is lost: after the stop phase the RM is effectively
  // silent towards the clients; retries exhaust and evict, and the blocked
  // clients must fall back to the safe rate on their own.
  Fixture f("drop=conf:1", pcfg);
  auto* c1 = f.add(1, 1);
  f.send(c1);

  std::vector<std::pair<Time, Client::State>> observed;
  for (int t = 0; t <= 200; ++t) {
    f.kernel.schedule_at(Time::us(t), [&observed, c1, &f] {
      observed.emplace_back(f.kernel.now(), c1->state());
    });
  }
  f.kernel.run();

  // The client ended degraded, at exactly the configured safe rate.
  EXPECT_EQ(c1->state(), Client::State::kDegraded);
  ASSERT_TRUE(c1->shaper().has_value());
  EXPECT_DOUBLE_EQ(c1->shaper()->params().rate, pcfg.safe_rate.rate);
  EXPECT_DOUBLE_EQ(c1->shaper()->params().burst, pcfg.safe_rate.burst);
  EXPECT_EQ(f.rm.stats().degraded_entries, 1u);
  EXPECT_GT(c1->degraded_time(), Time::zero());

  // Within the watchdog bound: once blocked, the client waits at most
  // client_watchdog after the RM's last sign of life. The RM's retry tail
  // (5 retries with doubling RTO from 2us) ends well before 70us, so by
  // 20us after that the fallback must have happened.
  Time degraded_at;
  for (const auto& [when, state] : observed) {
    if (state == Client::State::kDegraded) {
      degraded_at = when;
      break;
    }
  }
  EXPECT_GT(degraded_at, Time::zero());
  EXPECT_LE(degraded_at, Time::us(90));
  // And the degraded client still makes progress at the safe rate.
  f.send(c1);
  f.send(c1);
  f.kernel.run();
  EXPECT_GT(c1->sent(), 0u);
}

// Acceptance (c): a crashed-then-restarted client re-admits itself via a
// fresh actMsg and receives a fresh confMsg.
TEST(HardenedProtocol, CrashedClientReadmitsAfterRestart) {
  Fixture f("crash@30us=app1+10us");
  auto* c1 = f.add(1, 1);
  f.send(c1);
  f.kernel.schedule_at(Time::us(20), [&] { f.send(c1); });
  // While crashed (30..40us) sends are rejected.
  f.kernel.schedule_at(Time::us(35), [&] { f.send(c1); });
  // After restart the next send re-admits through a fresh actMsg.
  f.kernel.schedule_at(Time::us(45), [&] { f.send(c1); });

  std::vector<Client::State> at;
  for (const Time t : {Time::us(32), Time::us(42), Time::us(100)}) {
    f.kernel.schedule_at(t, [&at, c1] { at.push_back(c1->state()); });
  }
  f.kernel.run();

  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], Client::State::kCrashed);
  EXPECT_EQ(at[1], Client::State::kInactive);  // restarted, not yet admitted
  EXPECT_EQ(at[2], Client::State::kActive);    // fresh actMsg -> fresh conf
  EXPECT_EQ(c1->rejected(), 1u);               // the send at 35us
  EXPECT_EQ(f.injector->stats().crashes, 1u);
  EXPECT_EQ(f.injector->stats().restarts, 1u);
  // Two logical admissions => two act-triggered mode changes.
  EXPECT_EQ(f.rm.stats().act_msgs, 2u);
  EXPECT_EQ(f.rm.stats().mode_changes, 2u);
  EXPECT_EQ(f.rm.mode(), 1);
}

TEST(HardenedProtocol, DuplicatedConfDiscardedBySeqDedup) {
  Fixture f("dup=conf:1:1");  // duplicate exactly one confMsg leg
  auto* c1 = f.add(1, 1);
  f.send(c1);
  f.kernel.run();
  EXPECT_EQ(c1->state(), Client::State::kActive);
  EXPECT_EQ(f.injector->stats().msgs_duplicated, 1u);
  // The extra copy was delivered, re-acked (idempotent) and discarded.
  EXPECT_GE(f.rm.stats().duplicates_discarded, 1u);
  EXPECT_EQ(f.rm.mode(), 1);
}

TEST(HardenedProtocol, RetryExhaustionEvictsUnreachableClient) {
  ProtocolConfig pcfg;
  pcfg.max_retries = 2;
  // The crashed client never restarts; its stop legs can't be acked, so
  // the RM watchdog must evict it for the transition to complete.
  Fixture f("crash@5us=app1", pcfg);
  auto* c1 = f.add(1, 1);
  auto* c2 = f.add(2, 2);
  f.send(c1);
  f.kernel.schedule_at(Time::us(10), [&] { f.send(c2); });
  f.kernel.run();
  EXPECT_EQ(f.rm.stats().evictions, 1u);
  EXPECT_EQ(c2->state(), Client::State::kActive);
  // The dead app is out of the active set; the transition committed.
  EXPECT_EQ(f.rm.active_apps(), std::vector<noc::AppId>{2});
  EXPECT_EQ(f.rm.mode(), 1);
  EXPECT_EQ(f.rm.transitions().size(), f.rm.stats().mode_changes);
  EXPECT_EQ(c1->state(), Client::State::kCrashed);
}

using StatsTuple =
    std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
               std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
               std::uint64_t, std::int64_t, std::uint64_t, std::uint64_t>;

StatsTuple run_storm(std::uint64_t seed) {
  Fixture f("seed=" + std::to_string(seed) +
            ",drop=0.15,dup=0.1,reorder=0.2:500ns,crash@40us=app2+20us");
  auto* c1 = f.add(1, 1);
  auto* c2 = f.add(2, 2);
  auto* c3 = f.add(3, 3);
  for (int t = 0; t < 100; ++t) {
    f.kernel.schedule_at(Time::us(t), [&f, c1] { f.send(c1); });
    f.kernel.schedule_at(Time::us(t) + Time::ns(300), [&f, c2] { f.send(c2); });
    if (t % 3 == 0) {
      f.kernel.schedule_at(Time::us(t) + Time::ns(700),
                           [&f, c3] { f.send(c3); });
    }
  }
  f.kernel.run();
  const auto& s = f.rm.stats();
  const auto& i = f.injector->stats();
  std::uint64_t sent = 0;
  for (const auto* c : f.clients) sent += c->sent();
  return {s.mode_changes,   s.retransmissions,
          s.timeouts,       s.duplicates_discarded,
          s.evictions,      s.degraded_entries,
          s.stop_acks,      s.conf_acks,
          i.total(),        f.rm.stats().degraded_time.picos(),
          sent,             f.net.delivered()};
}

// Acceptance: faults enabled, same plan + same seed => byte-identical
// behaviour (stats, injections, deliveries).
TEST(HardenedProtocol, FaultedRunsAreDeterministicPerSeed) {
  const auto a = run_storm(5);
  const auto b = run_storm(5);
  EXPECT_EQ(a, b);
  const auto c = run_storm(6);
  EXPECT_NE(a, c);  // a different seed rolls a different fault sequence
}

TEST(HardenedProtocol, StormNeverWedgesATransition) {
  Fixture f("seed=9,drop=0.2,dup=0.1");
  auto* c1 = f.add(1, 1);
  auto* c2 = f.add(2, 2);
  for (int t = 0; t < 60; ++t) {
    f.kernel.schedule_at(Time::us(t), [&f, c1] { f.send(c1); });
    f.kernel.schedule_at(Time::us(t) + Time::ns(500),
                         [&f, c2] { f.send(c2); });
  }
  f.kernel.schedule_at(Time::us(30), [&] { c2->terminate(); });
  f.kernel.run();
  // Every started transition committed (possibly after evictions).
  EXPECT_EQ(f.rm.transitions().size(), f.rm.stats().mode_changes);
}

// A member that crashes and then terminates sends no terMsg; it must still
// leave. It acks nothing, so the next transition's stop leg to it exhausts
// its retries and the RM evicts it before configuring the others.
TEST(HardenedProtocol, CrashedThenTerminatedMemberIsEvicted) {
  Fixture f("");
  auto* c1 = f.add(1, 1);
  auto* c2 = f.add(2, 2);
  auto* c3 = f.add(3, 3);
  f.send(c1);
  f.send(c2);
  f.kernel.run();
  ASSERT_EQ(f.rm.mode(), 2);
  c2->crash();
  c2->terminate();
  EXPECT_FALSE(c2->ter_sent());
  f.send(c3);
  f.kernel.run();
  EXPECT_EQ(f.rm.active_apps(), (std::vector<noc::AppId>{1, 3}));
  EXPECT_EQ(f.rm.mode(), 2);
  EXPECT_EQ(f.rm.stats().evictions, 1u);
  EXPECT_EQ(f.rm.stats().ter_msgs, 0u);
  // The two members share the budget: 8 Gb/s of 64-byte packets, halved,
  // is 1/128 packet per ns.
  ASSERT_TRUE(c1->shaper().has_value());
  EXPECT_NEAR(c1->shaper()->params().rate, 0.0078125, 1e-12);
  EXPECT_EQ(c3->state(), Client::State::kActive);
  EXPECT_EQ(f.rm.transitions().size(), f.rm.stats().mode_changes);
}

TEST(HardenedProtocol, InjectorRequiresHardenedConfig) {
  sim::Kernel kernel;
  noc::NocConfig cfg;
  noc::Network net{kernel, cfg};
  ResourceManager rm{kernel, net, 0,
                     RateTable::symmetric(Rate::gbps(8), 64, 4.0)};
  fault::Injector injector(kernel, fault::FaultPlan::parse("drop=0.5").value());
  EXPECT_DEATH(rm.set_injector(&injector), "hardened");
}

}  // namespace
}  // namespace pap::rm
