// Deterministic pseudo-random number generation for workload models.
//
// All stochastic workloads in the repository take an explicit seed so that
// every experiment is exactly reproducible run-to-run (the repository's whole
// subject is predictability). xoshiro256** is small, fast and of high
// statistical quality; we do not need cryptographic strength.
#pragma once

#include <cmath>
#include <cstdint>

#include "common/hash.hpp"

namespace pap {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) {
    // SplitMix64 seeding as recommended by the xoshiro authors.
    std::uint64_t x = seed;
    for (auto& word : s_) {
      x += 0x9E3779B97F4A7C15ull;
      word = splitmix64_mix(x);
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli trial.
  bool chance(double p) { return next_double() < p; }

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean) {
    // Invert the CDF; clamp the uniform away from 0 to keep log() finite.
    double u = next_double();
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

}  // namespace pap
