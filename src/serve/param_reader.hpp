// Strict typed view over a flattened request parameter map, shared by the
// stateless endpoint handlers (serve/handlers.cpp) and the stateful
// session endpoints (serve/sessions.cpp). Every lookup is kind-checked
// (the underlying exp::Value accessors abort on kind mismatch, which a
// network-facing handler must never do), consumed keys are tracked, and
// `finish()` rejects any leftover — an unknown key is a client bug we
// surface instead of silently computing something else.
//
// The reader indexes the entries once (an open-addressing table of entry
// positions) and marks consumed entries by position, so reading a request
// of K keys costs O(K), not O(K^2).
#pragma once

#include <cmath>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/experiment.hpp"

namespace pap::serve {

class ParamReader {
 public:
  explicit ParamReader(const exp::Params& p)
      : p_(p), consumed_(p.size(), 0) {
    std::size_t cap = 8;
    while (cap < 2 * p.size()) cap *= 2;
    slots_.assign(cap, 0);
    const auto& e = p.entries();
    for (std::size_t i = 0; i < e.size(); ++i) {
      std::size_t s = slot_of(e[i].first);
      while (slots_[s] != 0) s = (s + 1) & (slots_.size() - 1);
      slots_[s] = static_cast<std::uint32_t>(i + 1);
    }
  }

  bool failed() const { return !error_.empty(); }
  const std::string& error() const { return error_; }

  std::int64_t get_int(const std::string& key, std::int64_t def,
                       std::int64_t min, std::int64_t max) {
    const exp::Value* v = take(key);
    if (!v) return def;
    if (v->kind() != exp::Value::Kind::kInt) {
      fail("'" + key + "' must be an integer");
      return def;
    }
    return checked_range(key, v->as_int(), min, max);
  }

  double get_double(const std::string& key, double def, double min,
                    double max) {
    const exp::Value* v = take(key);
    if (!v) return def;
    if (v->kind() != exp::Value::Kind::kInt &&
        v->kind() != exp::Value::Kind::kDouble) {
      fail("'" + key + "' must be a number");
      return def;
    }
    const double x = v->as_double();
    if (!std::isfinite(x) || x < min || x > max) {
      fail("'" + key + "' out of range [" + std::to_string(min) + ", " +
           std::to_string(max) + "]");
      return def;
    }
    return x;
  }

  bool get_bool(const std::string& key, bool def) {
    const exp::Value* v = take(key);
    if (!v) return def;
    if (v->kind() != exp::Value::Kind::kBool) {
      fail("'" + key + "' must be a boolean");
      return def;
    }
    return v->as_bool();
  }

  std::string get_string(const std::string& key, const std::string& def) {
    const exp::Value* v = take(key);
    if (!v) return def;
    if (v->kind() != exp::Value::Kind::kString) {
      fail("'" + key + "' must be a string");
      return def;
    }
    return v->as_string();
  }

  bool has(const std::string& key) const { return index_of(key) >= 0; }

  void require(const std::string& key) {
    if (!has(key)) fail("missing required parameter '" + key + "'");
  }

  /// Number of contiguously indexed `<prefix>.K.*` groups (K = 0, 1, ...),
  /// at most `cap`, in one pass over the keys. A group past the cap or
  /// past a gap surfaces as an unknown key in finish().
  int count_indexed(std::string_view prefix, int cap) const {
    if (cap <= 0) return 0;
    std::vector<char> present(static_cast<std::size_t>(cap), 0);
    for (const auto& [key, v] : p_.entries()) {
      const std::string_view k(key);
      if (k.size() <= prefix.size() + 1 ||
          k.substr(0, prefix.size()) != prefix || k[prefix.size()] != '.') {
        continue;
      }
      // "<prefix>.<K>." with K a decimal index without leading zeros.
      const std::size_t first = prefix.size() + 1;
      const std::size_t dot = k.find('.', first);
      if (dot == std::string_view::npos || dot == first ||
          (k[first] == '0' && dot - first > 1)) {
        continue;
      }
      int index = 0;
      for (std::size_t i = first; i < dot && index < cap; ++i) {
        if (k[i] < '0' || k[i] > '9') index = cap;
        else index = index * 10 + (k[i] - '0');
      }
      if (index < cap) present[static_cast<std::size_t>(index)] = 1;
    }
    int n = 0;
    while (n < cap && present[static_cast<std::size_t>(n)]) ++n;
    return n;
  }

  /// All keys consumed? Otherwise name the first unknown one.
  void finish() {
    if (failed()) return;
    for (std::size_t i = 0; i < consumed_.size(); ++i) {
      if (!consumed_[i]) {
        fail("unknown parameter '" + p_.entries()[i].first + "'");
        return;
      }
    }
  }

 private:
  std::size_t slot_of(std::string_view key) const {
    return std::hash<std::string_view>{}(key) & (slots_.size() - 1);
  }

  /// Entry position of `key`, or -1.
  long index_of(std::string_view key) const {
    for (std::size_t s = slot_of(key); slots_[s] != 0;
         s = (s + 1) & (slots_.size() - 1)) {
      const std::size_t i = slots_[s] - 1;
      if (p_.entries()[i].first == key) return static_cast<long>(i);
    }
    return -1;
  }

  const exp::Value* take(const std::string& key) {
    const long i = index_of(key);
    if (i < 0) return nullptr;
    consumed_[static_cast<std::size_t>(i)] = 1;
    return &p_.entries()[static_cast<std::size_t>(i)].second;
  }

  std::int64_t checked_range(const std::string& key, std::int64_t v,
                             std::int64_t min, std::int64_t max) {
    if (v < min || v > max) {
      fail("'" + key + "' out of range [" + std::to_string(min) + ", " +
           std::to_string(max) + "]");
      return min;
    }
    return v;
  }

  void fail(const std::string& msg) {
    if (error_.empty()) error_ = msg;
  }

  const exp::Params& p_;
  std::vector<char> consumed_;       // by entry position
  std::vector<std::uint32_t> slots_;  // entry position + 1; 0 = empty
  std::string error_;
};

}  // namespace pap::serve
