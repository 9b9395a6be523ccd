// Ablation: control-plane fault tolerance — recovery latency and
// degraded-mode residency of the hardened RM protocol under message loss
// and client crashes.
//
// The paper's admission-control protocol (Section V) assumes an ideal
// control channel; an ASIL-rated platform cannot. This bench sweeps
//
//     loss probability x client crash x RNG seed
//
// over the hardened protocol (acks, bounded-backoff retransmission,
// RM-side eviction watchdog, client-side safe-rate fallback) and reports
// the protocol's recovery accounting plus per-transition recovery latency
// (commit - start). An extra `--faults=PLAN` on the command line is merged
// into every point's plan, so one-off what-if runs need no code change;
// `link@` faults take the NoC link down, while `dram@` faults are rejected
// up front (this world has no DRAM controller).
//
// Every point is deterministic: same plan + same seed => byte-identical
// stats (the CSV output is the CI determinism anchor, see ci.yml).
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "exp/runner.hpp"
#include "fault/injector.hpp"
#include "rm/manager.hpp"
#include "sim/kernel.hpp"

using namespace pap;

namespace {

struct PointResult {
  rm::ProtocolStats stats;
  fault::InjectionStats injected;
  std::uint64_t delivered = 0;
  Time degraded_residency;  ///< includes still-open intervals at sim end
  std::size_t transitions_completed = 0;
  Time recovery_max;
  Time recovery_mean;
  bool quiesced = false;  ///< every started transition committed
};

constexpr int kApps = 4;

PointResult run_point(double loss, bool crash, std::uint64_t seed,
                      const fault::FaultPlan& extra) {
  sim::Kernel kernel;
  noc::NocConfig cfg;
  noc::Network net(kernel, cfg);
  rm::ResourceManager manager(kernel, net, 0,
                              rm::RateTable::symmetric(Rate::gbps(4), 64, 4.0));
  rm::ProtocolConfig pcfg;
  pcfg.hardened = true;
  manager.set_protocol_config(pcfg);

  fault::FaultPlan plan;
  plan.set_seed(seed);
  if (loss > 0.0) {
    fault::FaultSpec drop;
    drop.kind = fault::FaultKind::kMsgDrop;
    drop.probability = loss;
    plan.add(drop);
  }
  if (crash) {
    fault::FaultSpec c;
    c.kind = fault::FaultKind::kClientCrash;
    c.at = Time::us(100);
    c.duration = Time::us(80);  // restarts at 180us
    c.app = 2;
    plan.add(c);
  }
  plan = plan.merged_with(extra);

  std::vector<rm::Client*> clients;
  for (noc::AppId a = 1; a <= kApps; ++a) {
    clients.push_back(
        manager.add_client(net.mesh().node(static_cast<int>(a - 1), 1), a));
  }

  fault::Injector injector(kernel, plan);
  injector.on_crash([&](int app) { clients[app - 1]->crash(); });
  injector.on_restart([&](int app) { clients[app - 1]->restart(); });
  injector.on_link_down([&net](int router, int port, Time until) {
    net.take_link_down(static_cast<noc::NodeId>(router),
                       static_cast<noc::Direction>(port), until);
  });
  if (injector.enabled()) {
    manager.set_injector(&injector);
    injector.arm();
  }

  // Four periodic senders, staggered activation. The finite send schedule
  // lets the kernel run to quiescence, so every started transition either
  // commits or wedges — the bench asserts it never wedges.
  for (int i = 0; i < kApps; ++i) {
    rm::Client* c = clients[static_cast<std::size_t>(i)];
    const Time start = Time::us(5 * (i + 1));
    for (int s = 0; s < 300; ++s) {
      kernel.schedule_at(start + Time::us(s), [c, &net] {
        noc::Packet p;
        p.src = c->node();
        p.dst = net.mesh().node(3, 3);
        p.app = c->app();
        c->send(p);
      });
    }
  }
  kernel.run();

  PointResult r;
  r.stats = manager.stats();
  r.injected = injector.stats();
  for (const auto* c : clients) {
    r.delivered += c->sent();
    r.degraded_residency += c->degraded_time();
  }
  r.transitions_completed = manager.transitions().size();
  r.quiesced = r.transitions_completed == r.stats.mode_changes;
  Time sum;
  for (const auto& [start, commit] : manager.transitions()) {
    const Time d = commit - start;
    sum += d;
    r.recovery_max = std::max(r.recovery_max, d);
  }
  if (r.transitions_completed > 0) {
    r.recovery_mean =
        Time::from_ns(sum.nanos() /
                      static_cast<double>(r.transitions_completed));
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = exp::parse_cli(argc, argv);
  fault::FaultPlan extra;  // already validated by parse_cli
  if (!cli.faults.empty()) extra = fault::FaultPlan::parse(cli.faults).value();
  const noc::NocConfig mesh;
  for (const fault::FaultSpec& s : extra.specs()) {
    std::string why;
    if (s.kind == fault::FaultKind::kDramStall) {
      why = "dram@ faults need a DRAM controller, and this bench has none";
    } else if (s.kind == fault::FaultKind::kLinkDown &&
               s.router >= mesh.cols * mesh.rows) {
      why = "link@ router r" + std::to_string(s.router) + " is outside the " +
            std::to_string(mesh.cols) + "x" + std::to_string(mesh.rows) +
            " mesh";
    }
    if (!why.empty()) {
      std::fprintf(stderr, "ablation_fault_recovery: --faults: %s\n",
                   why.c_str());
      return 64;  // EX_USAGE, as for a malformed plan
    }
  }

  print_heading(
      "Ablation — RM control-plane fault recovery (hardened protocol)");

  exp::Experiment experiment{
      "ablation_fault_recovery", [extra](const exp::Params& p) {
        const double loss = p.get_double("loss");
        const bool crash = p.get_bool("crash");
        const auto seed = static_cast<std::uint64_t>(p.get_int("seed"));
        const PointResult r = run_point(loss, crash, seed, extra);
        exp::Result out(p.label());
        out.set("loss", exp::Value{loss, 2})
            .set("crash", crash)
            .set("seed", static_cast<std::int64_t>(seed))
            .set("delivered", static_cast<std::int64_t>(r.delivered))
            .set("mode changes",
                 static_cast<std::int64_t>(r.stats.mode_changes))
            .set("retransmissions",
                 static_cast<std::int64_t>(r.stats.retransmissions))
            .set("timeouts", static_cast<std::int64_t>(r.stats.timeouts))
            .set("dups discarded",
                 static_cast<std::int64_t>(r.stats.duplicates_discarded))
            .set("evictions", static_cast<std::int64_t>(r.stats.evictions))
            .set("degraded entries",
                 static_cast<std::int64_t>(r.stats.degraded_entries))
            .set("degraded residency (us)",
                 exp::Value{r.degraded_residency.micros(), 3})
            .set("recovery mean (us)",
                 exp::Value{r.recovery_mean.micros(), 3})
            .set("recovery max (us)", exp::Value{r.recovery_max.micros(), 3})
            .set("faults injected",
                 static_cast<std::int64_t>(r.injected.total()))
            .set("quiesced", r.quiesced);
        return out;
      }};

  const auto sweep = exp::SweepBuilder{}
                         .axis("loss", {exp::Value{0.0, 2}, exp::Value{0.02, 2},
                                        exp::Value{0.1, 2}, exp::Value{0.25, 2}})
                         .axis("crash", {false, true})
                         .axis("seed", {1, 2, 3})
                         .build()
                         .value();

  exp::ConsoleTableSink table;
  exp::CsvSink csv(cli.out_dir + "/ablation_fault_recovery.csv");
  exp::JsonlSink jsonl(cli.out_dir + "/ablation_fault_recovery.jsonl");
  exp::Runner runner(exp::to_runner_options(cli));
  runner.add_sink(&table).add_sink(&csv).add_sink(&jsonl);
  const auto summary = runner.run(experiment, sweep);

  // Shape checks: (1) a fault-free point needs no recovery machinery;
  // (2) no point ever wedges a transition — the whole purpose of the
  // hardened protocol; (3) the scheduled crash (a deterministic fault,
  // unlike the probabilistic drops) always fires, with its restart.
  bool pass = true;
  for (const auto& r : summary.results()) {
    const bool clean =
        r.at("loss").as_double() == 0.0 && !r.at("crash").as_bool();
    if (clean && (r.at("retransmissions").as_int() != 0 ||
                  r.at("timeouts").as_int() != 0 ||
                  r.at("evictions").as_int() != 0)) {
      pass = false;
    }
    if (r.at("crash").as_bool() && r.at("faults injected").as_int() < 2) {
      pass = false;
    }
    if (!r.at("quiesced").as_bool()) pass = false;
  }

  std::printf("%s\n", summary.timing_summary().c_str());
  std::printf("\nshape check (clean points need no recovery; no transition "
              "ever wedges; faults fire where planned): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
