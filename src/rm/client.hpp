// Client (local supervisor) of the admission-control overlay (Section V).
//
// "The role of clients is to prevent non-authorized accesses, adjust the
// access rates to the NoC for each application, release the NoC resources
// (inform the RM whenever an application terminates), and prevent
// unbounded NoC accesses. ... Whenever an application is activated and
// trying to conduct the first transmission its request is trapped by the
// client. It remains blocked until acknowledged by the RM with a confMsg."
//
// The client acts on each stopMsg/confMsg once, discarding duplicate
// deliveries by sequence number and stale ones by epoch. On the lossy
// channel (ProtocolConfig::hardened) it also acks every stopMsg/confMsg
// copy, retransmits its own actMsg with bounded exponential backoff, and
// runs a watchdog that — when the RM goes quiet while the client is
// blocked — degrades to a configured safe static rate (Memguard-style
// fallback) instead of wedging the application forever. On the ideal
// channel the RM takes the delivery itself as the ack and no timer runs.
// Fault injection can crash() and restart() the client; a restarted client
// re-admits itself through a fresh actMsg.
#pragma once

#include <deque>
#include <optional>
#include <unordered_set>

#include "nc/arrival.hpp"
#include "noc/network.hpp"
#include "rm/protocol.hpp"
#include "sim/kernel.hpp"

namespace pap::rm {

class ResourceManager;

class Client {
 public:
  enum class State {
    kInactive,           ///< app has not transmitted yet
    kAwaitingAdmission,  ///< first send trapped, actMsg issued
    kActive,             ///< admitted, rate-regulated
    kStopped,            ///< stopMsg received, awaiting confMsg
    kDegraded,           ///< RM silent; injecting at the safe static rate
    kCrashed,            ///< fault injection took the client down
    kTerminated,
  };

  Client(sim::Kernel& kernel, noc::Network& network, ResourceManager& rm,
         noc::NodeId node, noc::AppId app);

  // --- application-facing interface ---

  /// Submit a packet. The first call traps and triggers admission; later
  /// calls are queued and injected at the granted rate. Non-authorized
  /// sends (wrong app id) are dropped and counted, as are sends into a
  /// crashed client.
  void send(noc::Packet packet);

  /// The application finished; the client releases its resources (terMsg).
  void terminate();

  // --- fault-injection interface ---

  /// Crash: all supervisor state is lost (queue, shaper, dedup window,
  /// timers). Packets sent while crashed are rejected.
  void crash();
  /// Restart after a crash: the client comes back empty, as if never
  /// activated; the app's next send re-admits it via a fresh actMsg.
  void restart();

  // --- RM-facing interface (invoked after control-message latency) ---
  void on_stop(const ControlMessage& msg);
  void on_configure(const ControlMessage& msg);

  State state() const { return state_; }
  /// True once terminate() has sent a terMsg. The RM stops no such member:
  /// its termination is already on the way. A client that terminated
  /// without one (while inactive or crashed) acks nothing, so a membership
  /// it still holds ends by eviction.
  bool ter_sent() const { return ter_sent_; }
  noc::NodeId node() const { return node_; }
  noc::AppId app() const { return app_; }
  std::size_t queued() const { return queue_.size(); }
  std::uint64_t sent() const { return sent_; }
  std::uint64_t rejected() const { return rejected_; }
  Time blocked_time() const { return blocked_; }
  int current_mode() const { return mode_; }
  const std::optional<nc::TokenBucketShaper>& shaper() const {
    return shaper_;
  }
  /// Total time spent at the safe static rate, including a still-open
  /// degraded interval (measured up to the current simulated time).
  Time degraded_time() const;

 private:
  friend class ResourceManager;

  void pump();
  /// Screen one delivered stopMsg/confMsg copy: ack it on the lossy
  /// channel; true only for the first copy of a current message.
  bool accept(const ControlMessage& msg);
  void arm_watchdog();    ///< (re)start the RM-silence watchdog
  void disarm_timers();
  void enter_degraded();  ///< Memguard-style fallback to the safe rate
  /// Close an open degraded interval into the shared ProtocolStats.
  void settle_degraded();
  void retransmit_act();
  bool hardened() const;

  sim::Kernel& kernel_;
  noc::Network& network_;
  ResourceManager& rm_;
  noc::NodeId node_;
  noc::AppId app_;
  State state_ = State::kInactive;
  std::deque<noc::Packet> queue_;
  std::optional<nc::TokenBucketShaper> shaper_;
  bool pump_scheduled_ = false;
  int mode_ = 0;
  Time stopped_since_;
  Time blocked_;
  std::uint64_t sent_ = 0;
  std::uint64_t rejected_ = 0;

  // --- message headers and recovery state ---
  std::uint64_t incarnation_ = 0;  ///< bumped on crash; stale events abort
  std::uint64_t epoch_ = 0;        ///< highest transition epoch seen
  std::uint64_t act_seq_ = 0;      ///< seq of the latest actMsg/terMsg
  bool ter_sent_ = false;          ///< terminate() sent a terMsg
  int act_retries_ = 0;
  Time act_rto_;
  std::unordered_set<std::uint64_t> seen_seqs_;  ///< RM->client dedup window
  Time degraded_since_;
  Time degraded_accum_;
  bool degraded_open_ = false;
  sim::Timeout watchdog_;
  sim::Timeout act_timer_;
};

}  // namespace pap::rm
