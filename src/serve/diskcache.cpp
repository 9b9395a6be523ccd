#include "serve/diskcache.hpp"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/hash.hpp"

namespace pap::serve {

namespace {

constexpr char kMagic[] = "pap-serve-cache\t1";

std::string header_for(const std::string& key, const std::string& payload) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fnv1a(payload)));
  std::ostringstream os;
  os << kMagic << "\nkey\t" << key.size() << "\tpayload\t" << payload.size()
     << "\t" << hex << "\n";
  return os.str();
}

/// The op half of the key (bytes before the first '\n'), reduced to
/// filename-safe characters — a readability prefix, not an identity.
std::string op_slug(const std::string& key) {
  std::string slug;
  for (const char c : key) {
    if (c == '\n' || slug.size() >= 24) break;
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '_') {
      slug.push_back(c);
    }
  }
  return slug.empty() ? "entry" : slug;
}

}  // namespace

std::string DiskCache::path_for(const std::string& key) const {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fnv1a(key)));
  return dir_ + "/" + op_slug(key) + "-" + hex + ".serve";
}

std::optional<std::string> DiskCache::load(const std::string& key) const {
  if (!enabled()) return std::nullopt;
  std::ifstream in(path_for(key), std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  const std::string blob = text.str();

  // Parse + verify the two header lines.
  const std::string magic = std::string(kMagic) + "\n";
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

void DiskCache::store(const std::string& key,
                      const std::string& payload) const {
  if (!enabled()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return;
  const std::string path = path_for(key);
  // Unique temp per process + thread: shard fleets share the directory, and
  // rename() makes the last writer of a key win atomically.
  std::ostringstream tmp;
  tmp << path << ".tmp." << ::getpid() << "." << std::this_thread::get_id();
  {
    std::ofstream out(tmp.str(), std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return;
    out << header_for(key, payload) << key << payload;
    if (!out.good()) {
      out.close();
      std::filesystem::remove(tmp.str(), ec);
      return;
    }
  }
  std::filesystem::rename(tmp.str(), path, ec);
  if (ec) std::filesystem::remove(tmp.str(), ec);
}

}  // namespace pap::serve
