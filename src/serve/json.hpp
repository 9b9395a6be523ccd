// Strict, bounded JSON for the serving layer (src/serve).
//
// The request parser is the one component of papd that faces arbitrary
// bytes from the network, so it is written defensively rather than
// permissively: hard limits on input size and nesting depth, no recovery
// heuristics, and every syntax violation reported as an error message that
// names the byte offset — never a crash, never a partially-applied parse
// (asserted by the fuzz and differential tests in
// tests/serve_protocol_test.cpp).
//
// One reader (grammar, strings, escapes, numbers, literals, limits) lives
// in json.cpp and feeds two builders: `json_parse` builds the JsonValue
// tree, and `parse_request` (protocol.hpp, implemented in json.cpp next to
// the reader it shares) writes a request's flattened exp::Params in the
// same pass, with no tree in between.
//
// The value model is deliberately tiny (null/bool/number/string plus
// object/array of those): it exists to carry request envelopes and
// replies, not to be a general JSON library. Numbers whose source text is
// integral (no '.', no exponent) and fits an int64 parse as kInt;
// everything else parses as kDouble — the distinction keeps the flattened
// exp::Params canonical encoding stable, which the coalescing and cache
// keys depend on.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace pap::serve {

/// Parsed JSON value (tree). Objects keep their keys sorted (std::map):
/// two requests that differ only in member order flatten to the same
/// exp::Params and therefore the same cache/coalescing key.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_v = false;
  std::int64_t int_v = 0;
  double dbl_v = 0.0;
  std::string str_v;
  std::vector<JsonValue> array_v;
  std::map<std::string, JsonValue> object_v;

  bool is_number() const { return kind == Kind::kInt || kind == Kind::kDouble; }
  double number() const {
    return kind == Kind::kInt ? static_cast<double>(int_v) : dbl_v;
  }
  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* get(const std::string& key) const;
};

struct JsonLimits {
  std::size_t max_bytes = 64 * 1024;  ///< whole input
  int max_depth = 32;                 ///< object/array nesting
};

/// Parse exactly one JSON value spanning the whole input (trailing
/// whitespace allowed, trailing garbage is an error). All errors carry a
/// byte offset.
Expected<JsonValue> json_parse(const std::string& text,
                               const JsonLimits& limits = {});

/// Escape + quote `s` as a JSON string literal.
std::string json_quote(const std::string& s);

}  // namespace pap::serve
