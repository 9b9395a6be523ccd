#include "exp/cache.hpp"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/hash.hpp"

namespace pap::exp {

std::optional<std::string> DiskStore::load(const std::string& path,
                                           const std::string& key) const {
  if (!enabled()) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  const std::string blob = text.str();

  // Parse + verify the two header lines.
  const std::string magic = magic_ + "\n";
  if (blob.compare(0, magic.size(), magic) != 0) return std::nullopt;
  const std::size_t line2 = magic.size();
  const std::size_t line2_end = blob.find('\n', line2);
  if (line2_end == std::string::npos) return std::nullopt;
  unsigned long long key_len = 0, pay_len = 0, pay_hash = 0;
  if (std::sscanf(blob.c_str() + line2, "key\t%llu\tpayload\t%llu\t%16llx",
                  &key_len, &pay_len, &pay_hash) != 3) {
    return std::nullopt;
  }
  const std::size_t body = line2_end + 1;
  // Exact-size check catches truncated *and* over-long (appended-to) files.
  if (key_len != key.size() || blob.size() != body + key_len + pay_len) {
    return std::nullopt;
  }
  // A filename-hash collision or stale entry must read as a miss, never as
  // someone else's payload.
  if (blob.compare(body, key_len, key) != 0) return std::nullopt;
  std::string payload = blob.substr(body + key_len);
  if (fnv1a(payload) != pay_hash) return std::nullopt;  // bit rot / tamper
  return payload;
}

void DiskStore::store(const std::string& path, const std::string& key,
                      const std::string& payload) const {
  if (!enabled()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return;
  // Unique temp name per process and thread: writers of one key may be
  // threads of one process or processes sharing the directory (forked ones
  // carry equal main-thread ids), and rename() makes the last writer win
  // atomically. A failed write or rename removes the temp file.
  std::ostringstream tmp;
  tmp << path << ".tmp." << ::getpid() << "." << std::this_thread::get_id();
  const std::string tmp_path = tmp.str();
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fnv1a(payload)));
  bool written = false;
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (out.is_open()) {
      out << magic_ << "\nkey\t" << key.size() << "\tpayload\t"
          << payload.size() << "\t" << hex << "\n"
          << key << payload;
      out.close();
      written = !out.fail();
    }
  }
  if (written) std::filesystem::rename(tmp_path, path, ec);
  if (!written || ec) std::filesystem::remove(tmp_path, ec);
}

namespace {

// The identity of a sweep point: experiment name and version, then the
// canonical params, length-prefixed so they can carry newlines without an
// escaping scheme. DiskStore verifies it byte-for-byte on every load.
std::string identity(const Experiment& exp, const Params& params) {
  const std::string canon = params.canonical();
  std::ostringstream os;
  os << "id\t" << exp.name << "\t" << exp.version << "\t" << canon.size()
     << "\n"
     << canon;
  return os.str();
}

}  // namespace

ResultCache::ResultCache(std::string dir)
    : store_(std::move(dir), "pap-exp-cache\t3") {}

std::string ResultCache::path_for(const Experiment& exp,
                                  const Params& params) const {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(content_hash(exp, params)));
  return store_.dir() + "/" + exp.name + "-" + hex + ".result";
}

std::optional<Result> ResultCache::load(const Experiment& exp,
                                        const Params& params) const {
  auto blob = store_.load(path_for(exp, params), identity(exp, params));
  if (!blob) return std::nullopt;
  auto parsed = Result::deserialize(*blob);
  if (!parsed) return std::nullopt;
  return std::move(parsed).value();
}

void ResultCache::store(const Experiment& exp, const Params& params,
                        const Result& r) const {
  store_.store(path_for(exp, params), identity(exp, params), r.serialize());
}

}  // namespace pap::exp
