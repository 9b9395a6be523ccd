// Set-associative cache model with per-requester statistics and pluggable
// way-allocation policy.
//
// This is the substrate under both partitioning mechanisms the paper
// compares: software cache coloring (coloring.hpp) restricts which *sets* a
// partition may use, while the DSU (dsu.hpp) and MPAM (mpam/) hardware
// mechanisms restrict which *ways* (or portions) a requester may allocate
// into. The cache model itself is policy-agnostic: an AllocationFilter
// decides, per access, which ways the requester may victimise.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"

namespace pap::cache {

/// Physical address type.
using Addr = std::uint64_t;

/// Identifies the agent performing an access (core, VM, scheme ID or
/// PARTID, depending on the layer above).
using RequesterId = std::uint32_t;

struct CacheConfig {
  std::uint32_t sets = 1024;
  std::uint32_t ways = 16;
  std::uint32_t line_bytes = 64;

  std::uint64_t capacity_bytes() const {
    return static_cast<std::uint64_t>(sets) * ways * line_bytes;
  }
  bool valid() const {
    // Power-of-two sets/line so address slicing is well defined.
    auto pow2 = [](std::uint32_t v) { return v && (v & (v - 1)) == 0; };
    return pow2(sets) && pow2(line_bytes) && ways >= 1;
  }
};

struct AccessResult {
  bool hit = false;
  bool allocated = false;                ///< line was filled on miss
  std::optional<Addr> evicted;           ///< victim line address, if any
};

/// Given (requester, set), returns a bitmask over ways the requester may
/// allocate into (bit w => way w allowed). Lookups always search all ways —
/// partitioning restricts *allocation*, not *hits*, exactly as in the DSU
/// and MPAM specifications.
using AllocationFilter =
    std::function<std::uint64_t(RequesterId, std::uint32_t set)>;

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Unrestricted allocation (all ways) — the unpartitioned baseline.
  void set_allocation_filter(AllocationFilter filter);

  /// Access one line-aligned address. On a miss with at least one allowed
  /// way, the LRU line among allowed ways is replaced. If the requester's
  /// mask is empty the line bypasses the cache (no allocation).
  AccessResult access(RequesterId who, Addr addr);

  /// Invalidate everything (e.g. on repartitioning in tests).
  void flush();

  /// Lines currently resident that were allocated by `who` — the quantity
  /// MPAM cache-storage-usage monitors report.
  std::uint64_t occupancy(RequesterId who) const;
  std::uint64_t occupancy_bytes(RequesterId who) const {
    return occupancy(who) * config_.line_bytes;
  }

  std::uint32_t set_index(Addr addr) const;

  /// Bitmask of ways in `set` whose resident line belongs to `who` — lets
  /// capacity-limiting policies (MPAM cache maximum-capacity partitioning)
  /// force a partition at its limit to victimise its own lines.
  std::uint64_t ways_owned_by(std::uint32_t set, RequesterId who) const;

  const CacheConfig& config() const { return config_; }

  /// Per-requester counters: "<id>.hits", "<id>.misses", "<id>.bypasses",
  /// "<id>.evictions_suffered" (lines of `id` evicted by an allocation).
  const Counters& counters() const { return counters_; }

 private:
  /// Counter handles of one requester, resolved on its first access.
  struct Requester {
    RequesterId who = 0;
    Counters::Id hits, misses, bypasses, evictions_suffered;
  };
  const Requester& requester(RequesterId who);

  /// Tag of an invalid way; no line address maps to it.
  static constexpr Addr kNoTag = ~Addr{0};

  CacheConfig config_;
  AllocationFilter filter_;
  // Struct-of-arrays line storage, sets * ways each, row-major by set: a
  // lookup scans only the set's tags.
  std::vector<Addr> tag_;
  std::vector<RequesterId> owner_;
  std::vector<std::uint64_t> last_use_;  ///< for LRU
  std::uint64_t tick_ = 0;
  Counters counters_;
  std::vector<Requester> requesters_;
};

}  // namespace pap::cache
