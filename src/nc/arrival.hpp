// Arrival-curve models (Section IV: "A general — and enforceable — model for
// limited arrival rates in NC is the token bucket shaper, with arbitrary but
// known parameters burst and rate").
#pragma once

#include "common/time.hpp"
#include "common/units.hpp"
#include "nc/curve.hpp"

namespace pap::nc {

/// Token-bucket shaping curve alpha(tau) = b + r * tau (tau > 0).
///
/// `burst` is in work units (requests or bytes), `rate` in units per ns.
/// A process R is conformant iff R(t + tau) - R(t) <= alpha(tau) for all
/// t, tau >= 0.
struct TokenBucket {
  double burst = 0.0;
  double rate = 0.0;  ///< units per nanosecond

  Curve to_curve() const { return Curve::affine(burst, rate); }

  /// Convenience: bucket over byte-sized requests from a line rate.
  /// `burst_requests` requests may arrive back-to-back; the long-term rate
  /// is `rate` bits/s over requests of `request_bytes` each.
  static TokenBucket from_rate(Rate line_rate, Bytes request_bytes,
                               double burst_requests);
};

/// Greedy token-bucket *shaper* state machine: the enforcement device the
/// paper notes "can be practically implemented in hardware (all it takes is
/// a buffer and a timer)". Used by NoC NICs and the Memguard regulator.
class TokenBucketShaper {
 public:
  TokenBucketShaper(TokenBucket params, Time start = Time::zero());

  /// Earliest time >= `now` at which `amount` units may be released while
  /// keeping the output conformant to the bucket.
  Time earliest_release(Time now, double amount = 1.0) const;

  /// Record that `amount` units were released at `when`.
  void on_release(Time when, double amount = 1.0);

  /// Would on_release(now, amount) conform? Uses on_release's own
  /// tolerance, so a release instant that was scheduled under the current
  /// parameters always passes; only a reconfigure to a slower bucket in
  /// the meantime makes it false.
  bool conformant(Time now, double amount = 1.0) const;

  /// Atomically pick the earliest conformant release at/after `now` and
  /// account it — the operation an injection queue needs when several
  /// requests are submitted at the same instant (each reservation advances
  /// the shaper state so the next one queues behind it).
  Time reserve(Time now, double amount = 1.0);

  /// Tokens available at `when` (capped at the burst size).
  double level(Time when) const;

  const TokenBucket& params() const { return params_; }

  /// Change rate/burst at runtime (the RM reconfigures shapers on mode
  /// changes, Fig. 7). Token level is preserved, then capped at new burst.
  void reconfigure(TokenBucket params, Time when);

 private:
  TokenBucket params_;
  Time last_update_;
  double tokens_;
};

/// Arrival curve of a strictly periodic source releasing `size` units every
/// `period` with optional jitter: alpha(t) = size * ceil((t + jitter)/period)
/// upper-bounded linearly (we use the standard affine bound
/// size * (1 + (t + jitter)/period) which is tight at multiples).
Curve periodic_arrival(double size, Time period, Time jitter = Time::zero());

}  // namespace pap::nc
