// Persistent, disk-backed result cache for the serving layer.
//
// One entry per file under a cache directory, keyed by the request
// identity the in-memory LRU and the coalescing layer already use
// (`Request::key()` = op + '\n' + canonical params — the exp content-hash
// scheme). The value is the fully rendered result payload, exactly the
// bytes the LRU holds, so a disk hit is byte-identical to a computed or
// LRU-served answer by construction.
//
// Entries live in an exp::DiskStore (exp/cache.hpp: layout, verification
// and atomic publication) under the magic line `pap-serve-cache\t1`, in
// files named `<op>-<fnv1a64 of key, hex>.serve`. The cache is read-mostly
// and safe to share across a shard fleet: every shard may read every
// entry, and concurrent writers of the same key last-write-win atomically.
#pragma once

#include <optional>
#include <string>

#include "exp/cache.hpp"

namespace pap::serve {

class DiskCache {
 public:
  /// An empty directory string disables the cache entirely.
  explicit DiskCache(std::string dir)
      : store_(std::move(dir), "pap-serve-cache\t1") {}

  bool enabled() const { return store_.enabled(); }

  /// The entry file a key maps to (need not exist).
  std::string path_for(const std::string& key) const;

  /// The verified payload for `key`, or nullopt on miss / corruption /
  /// truncation / filename-hash collision. Never fails hard.
  std::optional<std::string> load(const std::string& key) const {
    if (!enabled()) return std::nullopt;
    return store_.load(path_for(key), key);
  }

  /// Persist `payload` for `key`. Failures are swallowed — the disk tier is
  /// an optimization, not a guarantee. A no-op, with no key hashing, when
  /// the tier is off.
  void store(const std::string& key, const std::string& payload) const {
    if (!enabled()) return;
    store_.store(path_for(key), key, payload);
  }

 private:
  exp::DiskStore store_;
};

}  // namespace pap::serve
