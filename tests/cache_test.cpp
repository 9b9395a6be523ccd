// Set-associative cache model: geometry, LRU, allocation filters,
// per-requester accounting, and a seeded differential test against a
// reference array-of-structs model.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "common/rng.hpp"

namespace pap::cache {
namespace {

CacheConfig small() { return CacheConfig{4, 2, 64}; }

TEST(CacheConfig, Validation) {
  EXPECT_TRUE((CacheConfig{1024, 16, 64}).valid());
  EXPECT_FALSE((CacheConfig{1000, 16, 64}).valid());  // sets not a power of 2
  EXPECT_FALSE((CacheConfig{1024, 0, 64}).valid());
  EXPECT_FALSE((CacheConfig{1024, 4, 60}).valid());  // line not a power of 2
  EXPECT_EQ((CacheConfig{1024, 16, 64}).capacity_bytes(), 1024u * 16 * 64);
}

TEST(Cache, MissThenHit) {
  Cache c(small());
  EXPECT_FALSE(c.access(0, 0x1000).hit);
  EXPECT_TRUE(c.access(0, 0x1000).hit);
  EXPECT_TRUE(c.access(0, 0x1020).hit);  // same 64-byte line
  EXPECT_EQ(c.counters().get("0.hits"), 2);
  EXPECT_EQ(c.counters().get("0.misses"), 1);
}

TEST(Cache, SetIndexing) {
  Cache c(small());
  // 4 sets * 64B lines: addresses 0, 256, 512 map to set 0.
  EXPECT_EQ(c.set_index(0), 0u);
  EXPECT_EQ(c.set_index(256), 0u);
  EXPECT_EQ(c.set_index(64), 1u);
  EXPECT_EQ(c.set_index(192), 3u);
}

TEST(Cache, LruEvictionWithinSet) {
  Cache c(small());  // 2 ways
  c.access(0, 0);      // set 0, line A
  c.access(0, 256);    // set 0, line B
  c.access(0, 0);      // touch A -> B becomes LRU
  const auto r = c.access(0, 512);  // set 0, line C evicts B
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(*r.evicted, 256u);
  EXPECT_TRUE(c.access(0, 0).hit);     // A still resident
  EXPECT_FALSE(c.access(0, 256).hit);  // B gone
}

TEST(Cache, AllocationFilterRestrictsVictimWays) {
  Cache c(small());
  // Requester 1 may only use way 0; requester 2 only way 1.
  c.set_allocation_filter([](RequesterId who, std::uint32_t) {
    return who == 1 ? 0b01ull : 0b10ull;
  });
  c.access(1, 0);
  c.access(2, 256);
  // Requester 1 allocating again in set 0 must evict its own line, not 2's.
  const auto r = c.access(1, 512);
  ASSERT_TRUE(r.evicted.has_value());
  EXPECT_EQ(*r.evicted, 0u);
  EXPECT_TRUE(c.access(2, 256).hit);
}

TEST(Cache, HitsAreNeverRestricted) {
  Cache c(small());
  c.access(1, 0);
  c.set_allocation_filter([](RequesterId, std::uint32_t) { return 0ull; });
  EXPECT_TRUE(c.access(2, 0).hit);  // other requester hits the line
}

TEST(Cache, EmptyMaskBypasses) {
  Cache c(small());
  c.set_allocation_filter([](RequesterId, std::uint32_t) { return 0ull; });
  const auto r = c.access(0, 0);
  EXPECT_FALSE(r.hit);
  EXPECT_FALSE(r.allocated);
  EXPECT_FALSE(c.access(0, 0).hit);  // still not cached (bypasses again)
  EXPECT_EQ(c.counters().get("0.bypasses"), 2);
}

TEST(Cache, OccupancyPerRequester) {
  Cache c(CacheConfig{8, 4, 64});
  for (Addr a = 0; a < 8 * 64; a += 64) c.access(1, a);
  for (Addr a = 4096; a < 4096 + 4 * 64; a += 64) c.access(2, a);
  EXPECT_EQ(c.occupancy(1), 8u);
  EXPECT_EQ(c.occupancy(2), 4u);
  EXPECT_EQ(c.occupancy_bytes(2), 4u * 64);
}

TEST(Cache, EvictionsSufferedCounter) {
  Cache c(small());
  c.access(1, 0);
  c.access(1, 256);
  c.access(2, 512);  // evicts one of requester 1's lines (LRU)
  EXPECT_EQ(c.counters().get("1.evictions_suffered"), 1);
}

TEST(Cache, WaysOwnedByMask) {
  Cache c(small());
  c.access(1, 0);
  c.access(2, 256);
  const auto m1 = c.ways_owned_by(0, 1);
  const auto m2 = c.ways_owned_by(0, 2);
  EXPECT_EQ(m1 & m2, 0ull);
  EXPECT_EQ(m1 | m2, 0b11ull);
}

TEST(Cache, FlushInvalidatesEverything) {
  Cache c(small());
  c.access(0, 0);
  c.flush();
  EXPECT_FALSE(c.access(0, 0).hit);
  EXPECT_EQ(c.occupancy(0), 1u);  // re-allocated by the post-flush access
}

// Property: with an unrestricted filter, a working set within capacity
// never misses after the warm-up pass, for several geometries.
class CacheGeometry
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {
};

TEST_P(CacheGeometry, WorkingSetWithinCapacityHitsAfterWarmup) {
  const auto [sets, ways] = GetParam();
  Cache c(CacheConfig{sets, ways, 64});
  const std::uint64_t lines = static_cast<std::uint64_t>(sets) * ways;
  for (std::uint64_t i = 0; i < lines; ++i) c.access(0, i * 64);
  for (std::uint64_t i = 0; i < lines; ++i) {
    EXPECT_TRUE(c.access(0, i * 64).hit) << "line " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheGeometry,
                         ::testing::Values(std::pair{4u, 2u}, std::pair{8u, 1u},
                                           std::pair{16u, 16u},
                                           std::pair{64u, 4u},
                                           std::pair{2u, 12u}));

// Differential test: the cache against a straightforward array-of-structs
// model of the same contract (lookup in every way; victim = first invalid
// allowed way, else the least recently used allowed way; empty mask =
// bypass), under seeded random traffic, allocation masks and flushes.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& cfg)
      : cfg_(cfg), lines_(static_cast<std::size_t>(cfg.sets) * cfg.ways) {}

  AccessResult access(RequesterId who, Addr addr, std::uint64_t mask) {
    ++tick_;
    const auto set = static_cast<std::uint32_t>((addr / cfg_.line_bytes) %
                                                cfg_.sets);
    const Addr tag = addr / cfg_.line_bytes;
    Line* base = &lines_[static_cast<std::size_t>(set) * cfg_.ways];
    AccessResult r;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
      if (base[w].valid && base[w].tag == tag) {
        base[w].last_use = tick_;
        r.hit = true;
        ++counters_[std::to_string(who) + ".hits"];
        return r;
      }
    }
    ++counters_[std::to_string(who) + ".misses"];
    if (mask == 0) {
      ++counters_[std::to_string(who) + ".bypasses"];
      return r;
    }
    Line* victim = nullptr;
    for (std::uint32_t w = 0; w < cfg_.ways && victim == nullptr; ++w) {
      if ((mask >> w & 1) && !base[w].valid) victim = &base[w];
    }
    for (std::uint32_t w = 0; w < cfg_.ways && victim == nullptr; ++w) {
      if (!(mask >> w & 1)) continue;
      Line* lru = &base[w];
      for (std::uint32_t v = w + 1; v < cfg_.ways; ++v) {
        if ((mask >> v & 1) && base[v].last_use < lru->last_use) {
          lru = &base[v];
        }
      }
      victim = lru;
    }
    if (victim->valid) {
      r.evicted = victim->tag * cfg_.line_bytes;
      ++counters_[std::to_string(victim->owner) + ".evictions_suffered"];
    }
    *victim = Line{true, tag, who, tick_};
    r.allocated = true;
    return r;
  }

  void flush() {
    for (Line& l : lines_) l.valid = false;
  }

  std::uint64_t ways_owned_by(std::uint32_t set, RequesterId who) const {
    std::uint64_t mask = 0;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
      const Line& l = lines_[static_cast<std::size_t>(set) * cfg_.ways + w];
      if (l.valid && l.owner == who) mask |= 1ull << w;
    }
    return mask;
  }

  std::uint64_t occupancy(RequesterId who) const {
    std::uint64_t n = 0;
    for (const Line& l : lines_) n += l.valid && l.owner == who ? 1 : 0;
    return n;
  }

  std::int64_t counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

 private:
  struct Line {
    bool valid = false;
    Addr tag = 0;
    RequesterId owner = 0;
    std::uint64_t last_use = 0;
  };
  CacheConfig cfg_;
  std::vector<Line> lines_;
  std::uint64_t tick_ = 0;
  std::map<std::string, std::int64_t> counters_;
};

class CacheDifferential
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {
};

TEST_P(CacheDifferential, MatchesTheArrayOfStructsModel) {
  const auto [sets, ways] = GetParam();
  const CacheConfig cfg{sets, ways, 64};
  constexpr int kRequesters = 5;
  constexpr int kMaskGroups = 4;  // masks vary with set % kMaskGroups
  const std::uint64_t all_ways = ways >= 64 ? ~0ull : (1ull << ways) - 1;
  const std::uint64_t lines = static_cast<std::uint64_t>(sets) * ways;

  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Rng rng(seed);
    Cache cache(cfg);
    ReferenceCache ref(cfg);
    std::array<std::array<std::uint64_t, kMaskGroups>, kRequesters> masks{};
    auto redraw_masks = [&] {
      for (auto& per_group : masks) {
        for (auto& m : per_group) {
          // One mask in eight is empty: that requester bypasses there.
          m = rng.next_below(8) == 0 ? 0 : rng.next_u64() & all_ways;
        }
      }
    };
    redraw_masks();
    cache.set_allocation_filter([&masks](RequesterId who, std::uint32_t set) {
      return masks[who][set % kMaskGroups];
    });

    // Twice the capacity in distinct lines, with a hot quarter, so hits,
    // conflict evictions and cross-requester evictions all occur.
    const std::uint64_t footprint = 2 * lines;
    constexpr int kAccesses = 120'000;
    for (int i = 0; i < kAccesses; ++i) {
      if (i % 5000 == 4999) redraw_masks();
      if (i % 20000 == 19999) {
        cache.flush();
        ref.flush();
      }
      const auto who = static_cast<RequesterId>(rng.next_below(kRequesters));
      const std::uint64_t line = rng.next_below(2) == 0
                                     ? rng.next_below(footprint / 4)
                                     : rng.next_below(footprint);
      const Addr addr = line * cfg.line_bytes + rng.next_below(cfg.line_bytes);
      const std::uint32_t set = cache.set_index(addr);
      const AccessResult got = cache.access(who, addr);
      const AccessResult want =
          ref.access(who, addr, masks[who][set % kMaskGroups]);
      ASSERT_EQ(got.hit, want.hit) << "seed " << seed << " access " << i;
      ASSERT_EQ(got.allocated, want.allocated)
          << "seed " << seed << " access " << i;
      ASSERT_EQ(got.evicted, want.evicted)
          << "seed " << seed << " access " << i;
      const auto probe = static_cast<RequesterId>(rng.next_below(kRequesters));
      ASSERT_EQ(cache.ways_owned_by(set, probe), ref.ways_owned_by(set, probe))
          << "seed " << seed << " access " << i;
      if (i % 4000 == 0) {
        for (RequesterId r = 0; r < kRequesters; ++r) {
          ASSERT_EQ(cache.occupancy(r), ref.occupancy(r))
              << "seed " << seed << " access " << i << " requester " << r;
        }
      }
    }
    for (RequesterId r = 0; r < kRequesters; ++r) {
      EXPECT_EQ(cache.occupancy(r), ref.occupancy(r)) << "requester " << r;
      for (const char* what :
           {"hits", "misses", "bypasses", "evictions_suffered"}) {
        const std::string name = std::to_string(r) + "." + what;
        EXPECT_EQ(cache.counters().get(name), ref.counter(name))
            << "seed " << seed << " " << name;
      }
    }
    EXPECT_GT(ref.counter("0.bypasses"), 0);
    EXPECT_GT(ref.counter("0.evictions_suffered"), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(L1AndL3, CacheDifferential,
                         ::testing::Values(std::pair{64u, 4u},
                                           std::pair{2048u, 16u}));

}  // namespace
}  // namespace pap::cache
