#include "exp/cache.hpp"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

namespace pap::exp {

namespace {

// Identity header preceding the serialized Result in every cache entry.
// The canonical params string is length-prefixed so it can carry newlines
// without an escaping scheme; verification is an exact string compare.
//
//   pap-exp-cache\t2
//   id\t<name>\t<version>\t<canonical byte count>
//   <canonical params bytes>
//   <Result::serialize() blob>
constexpr char kMagic[] = "pap-exp-cache\t2";

std::string identity_header(const Experiment& exp, const Params& params) {
  const std::string canon = params.canonical();
  std::ostringstream os;
  os << kMagic << "\nid\t" << exp.name << "\t" << exp.version << "\t"
     << canon.size() << "\n"
     << canon;
  return os.str();
}

}  // namespace

std::string ResultCache::path_for(const Experiment& exp,
                                  const Params& params) const {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(content_hash(exp, params)));
  return dir_ + "/" + exp.name + "-" + hex + ".result";
}

ResultCache::Shard& ResultCache::shard_for(const std::string& key) const {
  return shards_[std::hash<std::string>{}(key) % kShards];
}

std::optional<Result> ResultCache::load(const Experiment& exp,
                                        const Params& params) const {
  if (!enabled()) return std::nullopt;
  const std::string expect = identity_header(exp, params);
  Shard& shard = shard_for(expect);
  {
    // Reader path: shared lock, so concurrent lookups never serialize.
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    const auto it = shard.memo.find(expect);
    if (it != shard.memo.end()) return it->second;
  }
  std::ifstream in(path_for(exp, params));
  if (!in.is_open()) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  const std::string blob = text.str();
  // Verify the identity header: a filename-hash collision or an entry from
  // an older format must read as a miss, never as someone else's Result.
  if (blob.size() < expect.size() ||
      blob.compare(0, expect.size(), expect) != 0) {
    return std::nullopt;
  }
  auto parsed = Result::deserialize(blob.substr(expect.size()));
  if (!parsed) return std::nullopt;
  Result r = std::move(parsed).value();
  {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    if (shard.memo.size() < kMaxMemoPerShard) shard.memo.emplace(expect, r);
  }
  return r;
}

void ResultCache::store(const Experiment& exp, const Params& params,
                        const Result& r) const {
  if (!enabled()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return;
  const std::string path = path_for(exp, params);
  // Unique temp name per process and thread, as serve::DiskCache::store
  // does: duplicate sweep points may store the same key concurrently, from
  // threads of one runner or from processes sharing the directory (forked
  // ones carry equal main-thread ids), and rename() makes the last writer
  // win atomically. A failed write or rename removes the temp file.
  std::ostringstream tmp;
  tmp << path << ".tmp." << ::getpid() << "." << std::this_thread::get_id();
  const std::string tmp_path = tmp.str();
  bool written = false;
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (out.is_open()) {
      out << identity_header(exp, params) << r.serialize();
      out.close();
      written = !out.fail();
    }
  }
  if (written) std::filesystem::rename(tmp_path, path, ec);
  if (!written || ec) {
    std::filesystem::remove(tmp_path, ec);
    return;
  }
  // Mirror the just-written entry into the memo so the writer's own next
  // load (and everyone else's) skips the file read.
  const std::string key = identity_header(exp, params);
  Shard& shard = shard_for(key);
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  if (shard.memo.size() < kMaxMemoPerShard) shard.memo.insert_or_assign(key, r);
}

}  // namespace pap::exp
