#include "cache/cache.hpp"

#include <algorithm>
#include <limits>
#include <string>

namespace pap::cache {

Cache::Cache(const CacheConfig& config) : config_(config) {
  PAP_CHECK_MSG(config_.valid(), "invalid cache geometry");
  const std::size_t lines =
      static_cast<std::size_t>(config_.sets) * config_.ways;
  tag_.assign(lines, kNoTag);
  owner_.assign(lines, 0);
  last_use_.assign(lines, 0);
  filter_ = [ways = config_.ways](RequesterId, std::uint32_t) {
    return ways >= 64 ? ~0ull : ((1ull << ways) - 1);
  };
}

void Cache::set_allocation_filter(AllocationFilter filter) {
  PAP_CHECK(filter != nullptr);
  filter_ = std::move(filter);
}

std::uint32_t Cache::set_index(Addr addr) const {
  return static_cast<std::uint32_t>((addr / config_.line_bytes) %
                                    config_.sets);
}

const Cache::Requester& Cache::requester(RequesterId who) {
  for (const Requester& r : requesters_) {
    if (r.who == who) return r;
  }
  const std::string prefix = std::to_string(who) + ".";
  requesters_.push_back(Requester{who, counters_.id(prefix + "hits"),
                                  counters_.id(prefix + "misses"),
                                  counters_.id(prefix + "bypasses"),
                                  counters_.id(prefix + "evictions_suffered")});
  return requesters_.back();
}

AccessResult Cache::access(RequesterId who, Addr addr) {
  ++tick_;
  const std::uint32_t set = set_index(addr);
  const Addr tag = addr / config_.line_bytes;
  const std::size_t base = static_cast<std::size_t>(set) * config_.ways;
  const Requester req = requester(who);
  AccessResult result;

  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    if (tag_[base + w] == tag) {
      // Hits are never restricted by partitioning.
      last_use_[base + w] = tick_;
      result.hit = true;
      counters_.inc(req.hits);
      return result;
    }
  }
  counters_.inc(req.misses);

  const std::uint64_t mask = filter_(who, set);
  if (mask == 0) {
    // No allocation rights: the access bypasses the cache.
    counters_.inc(req.bypasses);
    return result;
  }

  // Victim: invalid allowed way first, else LRU among allowed ways.
  std::size_t victim = tag_.size();
  std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    if (!(mask >> w & 1)) continue;
    if (tag_[base + w] == kNoTag) {
      victim = base + w;
      break;
    }
    if (last_use_[base + w] < oldest) {
      oldest = last_use_[base + w];
      victim = base + w;
    }
  }
  PAP_CHECK(victim < tag_.size());  // mask != 0 guarantees a candidate
  if (tag_[victim] != kNoTag) {
    result.evicted = tag_[victim] * config_.line_bytes;
    counters_.inc(requester(owner_[victim]).evictions_suffered);
  }
  tag_[victim] = tag;
  owner_[victim] = who;
  last_use_[victim] = tick_;
  result.allocated = true;
  return result;
}

void Cache::flush() { std::fill(tag_.begin(), tag_.end(), kNoTag); }

std::uint64_t Cache::ways_owned_by(std::uint32_t set, RequesterId who) const {
  PAP_CHECK(set < config_.sets);
  const std::size_t base = static_cast<std::size_t>(set) * config_.ways;
  std::uint64_t mask = 0;
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    if (tag_[base + w] != kNoTag && owner_[base + w] == who) mask |= 1ull << w;
  }
  return mask;
}

std::uint64_t Cache::occupancy(RequesterId who) const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < tag_.size(); ++i) {
    if (tag_[i] != kNoTag && owner_[i] == who) ++n;
  }
  return n;
}

}  // namespace pap::cache
