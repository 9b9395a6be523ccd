// Verified on-disk caches: the entry store shared by the sweep result
// cache and papd's disk tier, and the content-hash result cache on top.
//
// DiskStore keeps one entry per file under a directory. The caller names
// the file (a path inside the directory) and supplies the key, which is
// the entry's full identity; the payload is opaque bytes. Layout (lengths
// decimal, one header line each):
//
//   <magic>
//   key\t<key bytes>\tpayload\t<payload bytes>\t<fnv1a64 of payload, hex>
//   <key bytes><payload bytes>
//
// A file name is an index, not a proof of identity: `load` verifies the
// magic, the exact key bytes, the exact file size and the payload checksum
// before trusting anything, so a filename-hash collision, a stale entry, a
// truncated or appended-to file and a flipped byte all read as a miss,
// never as a wrong answer. Writes go to a temp file unique per process and
// thread and are published with rename(), so readers — including other
// processes sharing the directory — never observe a half-written entry and
// concurrent writers of one key last-write-win atomically. Entries are
// plain files, safe to delete at any time.
//
// ResultCache keys a sweep point by (experiment name, experiment version,
// canonical parameter encoding) and stores Result::serialize() in a
// DiskStore. Re-running an unchanged point is a verified file read;
// changing any parameter — or bumping `Experiment::version` after changing
// the run functor — changes the key and forces a fresh run. Loads and
// stores may race from any number of threads and processes.
#pragma once

#include <optional>
#include <string>

#include "exp/experiment.hpp"

namespace pap::exp {

class DiskStore {
 public:
  /// `magic` is the first line of every entry and names its format. An
  /// empty directory string disables the store entirely.
  DiskStore(std::string dir, std::string magic)
      : dir_(std::move(dir)), magic_(std::move(magic)) {}

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  /// The verified payload stored under `key` at `path`, or nullopt on
  /// miss / corruption / truncation / foreign key. Never fails hard.
  std::optional<std::string> load(const std::string& path,
                                  const std::string& key) const;

  /// Persist `payload` under `key` at `path` (write-to-temp + rename).
  /// Creates the directory on demand; failures are swallowed — a cache is
  /// an optimization, not a guarantee.
  void store(const std::string& path, const std::string& key,
             const std::string& payload) const;

 private:
  std::string dir_;
  std::string magic_;
};

class ResultCache {
 public:
  /// An empty directory string disables the cache entirely.
  explicit ResultCache(std::string dir);

  bool enabled() const { return store_.enabled(); }

  /// The cache file a point would use (cache need not be populated).
  std::string path_for(const Experiment& exp, const Params& params) const;

  /// Returns the cached Result, or nullopt on miss / unverifiable entry /
  /// unparsable body. Never fails hard: a corrupt entry is just a miss.
  std::optional<Result> load(const Experiment& exp, const Params& params) const;

  /// Persist `r` for this point.
  void store(const Experiment& exp, const Params& params,
             const Result& r) const;

 private:
  DiskStore store_;
};

}  // namespace pap::exp
