// Persistent, disk-backed result cache for the serving layer.
//
// One entry per file under a cache directory, keyed by the request
// identity the in-memory LRU and the coalescing layer already use
// (`Request::key()` = op + '\n' + canonical params — the exp content-hash
// scheme). The value is the fully rendered result payload, exactly the
// bytes the LRU holds, so a disk hit is byte-identical to a computed or
// LRU-served answer by construction.
//
// Layout (all lengths decimal, one header line each):
//
//   pap-serve-cache\t1
//   key\t<key bytes>\tpayload\t<payload bytes>\t<fnv1a64 of payload, hex>
//   <key bytes><payload bytes>
//
// The 64-bit filename hash is an index, not a proof of identity (the
// PR-2 collision rule): `load` verifies the magic, the exact key bytes,
// the exact file size and the payload checksum before trusting anything;
// a mismatch, a truncated write or a flipped byte is a miss, never a
// wrong answer. Writes go to a unique temp file and are published with
// rename(), so readers — including other papd processes sharing the
// directory — never observe a half-written entry. The cache is
// read-mostly and safe to share across a shard fleet: every shard may
// read every entry, and concurrent writers of the same key last-write-win
// atomically. Entries are plain files, safe to delete at any time.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace pap::serve {


class DiskCache {
 public:
  /// An empty directory string disables the cache entirely.
  explicit DiskCache(std::string dir) : dir_(std::move(dir)) {}

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  /// The entry file a key maps to (need not exist).
  std::string path_for(const std::string& key) const;

  /// The verified payload for `key`, or nullopt on miss / corruption /
  /// truncation / filename-hash collision. Never fails hard.
  std::optional<std::string> load(const std::string& key) const;

  /// Persist `payload` for `key` (write-to-temp + rename). Creates the
  /// directory on demand; failures are swallowed — the disk tier is an
  /// optimization, not a guarantee.
  void store(const std::string& key, const std::string& payload) const;

 private:
  std::string dir_;
};

}  // namespace pap::serve
