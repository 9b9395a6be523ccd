#include "serve/diskcache.hpp"

#include <cstdio>

#include "common/hash.hpp"

namespace pap::serve {

std::string DiskCache::path_for(const std::string& key) const {
  // The op half of the key (bytes before the first '\n'), reduced to
  // filename-safe characters — a readability prefix, not an identity.
  std::string slug;
  for (const char c : key) {
    if (c == '\n' || slug.size() >= 24) break;
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '_') {
      slug.push_back(c);
    }
  }
  if (slug.empty()) slug = "entry";
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fnv1a(key)));
  return store_.dir() + "/" + slug + "-" + hex + ".serve";
}

}  // namespace pap::serve
