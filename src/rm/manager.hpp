// The Resource Manager (RM) of the admission-control overlay (Section V,
// Fig. 6).
//
// "The RM has a knowledge about the global state of the NoC (i.e., which
// sender is active) and which resources are occupied. Using these
// information, the RM may decrease or increase the injection rates for a
// particular node ... dynamically depending on the current system mode."
//
// One transition machine runs the paper's procedure: activation and
// termination messages are processed in arrival order; each starts a mode
// transition: stopMsg to every other member, then (once every stop is
// acknowledged) a confMsg per member carrying the new mode and rate, and
// the mode commits when every confMsg is acknowledged. Clients adjust
// their shapers and unblock as their confMsg lands.
//
// What "acknowledged" means is a property of the channel
// (ProtocolConfig::hardened):
//
//  * Ideal channel (default): every leg arrives exactly once, in order, so
//    a leg's delivery is its acknowledgement. No ack leg is sent and no
//    timer is armed; this is the paper's idealized protocol.
//  * Lossy channel: legs may be dropped, duplicated, delayed or reordered
//    by an attached fault::Injector. Clients ack stopMsg/confMsg; the RM
//    retransmits unacked legs with bounded exponential backoff and evicts
//    a client whose retries run out, so one dead node cannot wedge a
//    transition; clients degrade to a safe static rate when the RM goes
//    quiet. ProtocolStats accounts for the recovery work, the overhead
//    side of the trade-off analysis the paper asks for.
//
// Messages carry their seq/epoch headers on both channels; only the lossy
// one ever sees a duplicate or a stale copy.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fault/injector.hpp"
#include "noc/network.hpp"
#include "rm/client.hpp"
#include "rm/protocol.hpp"
#include "rm/rate_table.hpp"
#include "sim/kernel.hpp"

namespace pap::rm {

class ResourceManager {
 public:
  ResourceManager(sim::Kernel& kernel, noc::Network& network,
                  noc::NodeId rm_node, RateTable table,
                  Time processing_delay = Time::ns(50));

  /// Select the channel and its reliability knobs. Call before any client
  /// traffic; the default is the ideal channel.
  void set_protocol_config(ProtocolConfig config);
  const ProtocolConfig& protocol_config() const { return pcfg_; }

  /// Attach a fault injector (not owned; nullptr detaches). Every control
  /// leg — both directions, acks included — is interposed. Requires the
  /// lossy channel: on the ideal channel a delivery is its own ack, so a
  /// lost leg would never be recovered.
  void set_injector(fault::Injector* injector);
  fault::Injector* injector() const { return injector_; }

  /// Create the client supervising `app` at `node`. Owned by the RM; one
  /// client per app (duplicates are a configuration bug and abort).
  Client* add_client(noc::NodeId node, noc::AppId app);

  // --- protocol endpoints (invoked by clients; latency applied here) ---
  void send_act(Client* from);
  void send_ter(Client* from);
  /// One client -> RM leg: actMsg/terMsg (`seq` is the client's request
  /// id) or, on the lossy channel, an ack (`seq` names the acked message).
  void send_client_msg(Client* from, MsgType type, std::uint64_t seq);

  const std::vector<noc::AppId>& active_apps() const { return active_; }
  /// The last *committed* mode. Stable through in-flight transitions: it
  /// only advances when a reconfiguration completes (the instant the mode
  /// trace fires), never while stop/conf messages are still in the air.
  int mode() const { return mode_; }
  /// Mode-transition epoch: increments when a transition starts; stamped
  /// into every RM -> client message so stale copies are recognizable.
  std::uint64_t epoch() const { return epoch_; }
  const ProtocolStats& stats() const { return stats_; }
  const RateTable& table() const { return table_; }
  /// Every completed transition as (start, commit) instants — transition
  /// duration under faults is the recovery latency the fault bench sweeps.
  const std::vector<std::pair<Time, Time>>& transitions() const {
    return transitions_;
  }

  /// Trace hook fired after every completed mode change: (time, mode,
  /// (app, granted bucket) list) — drives the Fig. 7 bench.
  using ModeTraceFn = std::function<void(
      Time, int, const std::vector<std::pair<noc::AppId, nc::TokenBucket>>&)>;
  void set_mode_trace(ModeTraceFn fn) { on_mode_ = std::move(fn); }

 private:
  friend class Client;

  struct PendingEvent {
    bool activation;
    Client* client;
  };
  /// One unacked stopMsg/confMsg of the in-flight transition.
  struct Outstanding {
    Client* client;
    ControlMessage msg;
    int retries = 0;
    Time rto;
    sim::EventId timer;
  };
  enum class Phase { kIdle, kStopping, kConfiguring };

  Time control_latency(noc::NodeId node) const;
  /// Trace one leg as a span on the "rm" track (no-op without a tracer).
  void trace_leg(MsgType type, noc::AppId app, Time latency) const;
  /// One leg between the RM and `peer`, either direction, through the
  /// injector: `on_arrival` runs once per delivered copy.
  void send_leg(MsgType type, const Client& peer, sim::EventFn on_arrival);
  void maybe_process_next();
  void start_transition(PendingEvent ev);  ///< membership update, stop fan-out
  void send_reliable(Client* to, ControlMessage msg);
  void transmit(Outstanding& o);  ///< one leg, plus its retransmission timer
  /// A stopMsg/confMsg reaches its client; on the ideal channel the
  /// delivery also acknowledges it.
  void deliver(Client* to, const ControlMessage& msg);
  void acknowledge(std::uint64_t seq);
  void on_leg_timeout(std::uint64_t seq);
  void evict(std::size_t outstanding_index);
  void on_client_msg(Client* from, MsgType type, std::uint64_t seq);
  void phase_done();       ///< all outstanding legs acked or evicted
  void begin_configure();  ///< processing delay, then confMsg fan-out
  void commit();           ///< transition complete
  ProtocolStats& mutable_stats() { return stats_; }

  sim::Kernel& kernel_;
  noc::Network& network_;
  noc::NodeId rm_node_;
  RateTable table_;
  Time processing_delay_;
  ProtocolConfig pcfg_;
  fault::Injector* injector_ = nullptr;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<noc::AppId> active_;
  std::deque<PendingEvent> pending_;
  int mode_ = 0;  ///< committed mode (see mode())
  ProtocolStats stats_;
  ModeTraceFn on_mode_;
  std::vector<std::pair<Time, Time>> transitions_;
  Time transition_start_;

  // --- in-flight transition state ---
  std::uint64_t epoch_ = 0;
  std::uint64_t next_seq_ = 1;  ///< RM -> client message ids
  Phase phase_ = Phase::kIdle;
  std::vector<Outstanding> outstanding_;
  std::vector<std::pair<noc::AppId, nc::TokenBucket>> granted_;
  /// Client -> already-processed client-message seqs (act/ter dedup).
  std::unordered_map<const Client*, std::unordered_set<std::uint64_t>>
      seen_from_client_;
};

}  // namespace pap::rm
