// Admission-control protocol messages (Section V).
//
// "The protocol consists of four control messages: activation (actMsg),
// termination (terMsg), stop (stopMsg) and configuration (confMsg)."
// Control messages travel between the clients and the Resource Manager
// over the chip; the model charges each one its zero-load NoC latency from
// source to the RM's node (real deployments give control traffic a
// dedicated virtual channel precisely so it does not contend with data —
// see DESIGN.md). The same four messages run over either an ideal channel
// (a delivery is its own ack) or a lossy one (acks, retransmission timers
// and watchdogs); ProtocolConfig selects which.
#pragma once

#include <cstdint>
#include <string>

#include "common/time.hpp"
#include "nc/arrival.hpp"
#include "noc/packet.hpp"

namespace pap::rm {

enum class MsgType : std::uint8_t {
  kActivate,   ///< actMsg: client -> RM, app issued its first transmission
  kTerminate,  ///< terMsg: client -> RM, app finished
  kStop,       ///< stopMsg: RM -> client, block NoC access for reconfig
  kConfigure,  ///< confMsg: RM -> client, new system mode + rate
  kStopAck,    ///< client -> RM, stopMsg received (lossy channel only)
  kConfAck,    ///< client -> RM, confMsg received (lossy channel only)
};

std::string to_string(MsgType t);

struct ControlMessage {
  MsgType type = MsgType::kActivate;
  noc::AppId app = 0;
  noc::NodeId node = 0;  ///< client's node
  int mode = 0;          ///< system mode (confMsg)
  nc::TokenBucket rate;  ///< granted injection rate (confMsg)
  /// Header. `seq` uniquely identifies a logical message (retransmitted
  /// copies carry the same seq, so receivers discard duplicates and acks
  /// stay idempotent); `epoch` counts mode transitions, so messages
  /// surviving from before a crash are recognizably stale.
  std::uint64_t seq = 0;
  std::uint64_t epoch = 0;
};

/// The control channel the one RM protocol runs over. Default-constructed
/// (`hardened == false`) it is the paper's ideal channel: every leg arrives
/// exactly once, its delivery counts as its ack, and no ack leg, timer or
/// watchdog exists. `hardened == true` selects a lossy channel: stopMsg and
/// confMsg are acked and retransmitted after a timeout with bounded
/// exponential backoff, an RM-side per-client watchdog evicts silent
/// clients, and a client-side watchdog falls back to a safe static rate
/// (Memguard-style) when the RM goes quiet. The knobs below apply to the
/// lossy channel only.
struct ProtocolConfig {
  bool hardened = false;
  Time rto = Time::us(2);    ///< initial retransmission timeout
  double backoff = 2.0;      ///< exponential backoff factor per retry
  int max_retries = 5;       ///< per message; exhaustion evicts the client
  /// RM silence tolerated by a blocked client before it degrades to
  /// `safe_rate` instead of staying wedged.
  Time client_watchdog = Time::us(50);
  /// The degraded-mode static injection rate: conservative enough to be
  /// safe in any mode, like a Memguard static budget.
  nc::TokenBucket safe_rate{1.0, 0.005};
};

/// Protocol accounting, for the trade-off analysis the paper asks for
/// ("a trade-off analysis is required at design time to determine the
/// overhead of the synchronization protocol"). The ack and recovery
/// counters stay zero on the ideal channel.
struct ProtocolStats {
  std::uint64_t act_msgs = 0;
  std::uint64_t ter_msgs = 0;
  std::uint64_t stop_msgs = 0;
  std::uint64_t conf_msgs = 0;
  std::uint64_t mode_changes = 0;

  // --- lossy-channel ack and recovery accounting ---
  std::uint64_t stop_acks = 0;  ///< acks sent by clients
  std::uint64_t conf_acks = 0;
  std::uint64_t retransmissions = 0;  ///< RM resends after timeout
  std::uint64_t timeouts = 0;         ///< retransmission timer expiries
  std::uint64_t duplicates_discarded = 0;  ///< seq-dedup hits (both sides)
  std::uint64_t evictions = 0;  ///< clients given up on by the RM watchdog
  std::uint64_t degraded_entries = 0;  ///< client safe-rate fallbacks
  Time degraded_time;  ///< closed degraded residencies, summed over clients

  std::uint64_t total_messages() const {
    return act_msgs + ter_msgs + stop_msgs + conf_msgs + stop_acks +
           conf_acks + retransmissions;
  }
};

}  // namespace pap::rm
