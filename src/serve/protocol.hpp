// papd wire protocol: newline-delimited JSON over a byte stream.
//
// One request per line, one reply line per request (replies may interleave
// across requests on a pipelined connection — match them by id):
//
//   -> {"id": 7, "op": "wcd_bound", "params": {"write_gbps": 4, "n": 13}}
//   <- {"id":7,"ok":true,"result":{"label":"wcd_bound","metrics":{...}}}
//   <- {"id":9,"ok":false,"error":{"code":"overloaded","message":"..."}}
//
// The full grammar, endpoint table and error codes live in
// docs/serving.md. Rendering is deterministic: metrics are emitted in the
// handler's insertion order with exp::Value::json_into() — the exact
// rendering the offline JsonlSink uses — so a served result is
// byte-comparable with the batch pipeline's output for the same parameters.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.hpp"
#include "exp/experiment.hpp"
#include "serve/json.hpp"

namespace pap::serve {

/// Error codes a reply may carry (stringified into the "code" member).
enum class ErrorCode {
  kParseError,    ///< malformed / oversized / non-object request line
  kBadRequest,    ///< unknown op, bad or missing parameters
  kOverloaded,    ///< request queue full — retry later (429 analogue)
  kShuttingDown,  ///< server is draining, no new work accepted
  kInternal,      ///< handler failed unexpectedly
};

const char* error_code_name(ErrorCode code);

/// A parsed request envelope. `params` is the flattened, canonically
/// ordered parameter map — `key()` over (op, params) is the identity the
/// batching and cache layers coalesce on.
struct Request {
  std::int64_t id = 0;
  std::string op;
  exp::Params params;

  /// Cache/coalescing identity: op plus the canonical parameter encoding
  /// (exactly the scheme exp::content_hash uses for the result cache),
  /// written into one buffer.
  std::string key() const {
    std::string k = op;
    k += '\n';
    params.canonical_into(&k);
    return k;
  }
};

struct ParseLimits {
  std::size_t max_bytes = 64 * 1024;
  int max_depth = 32;
};

/// Strict parse of one request line. Requirements: a JSON object with
/// integer `id` >= 0, non-empty string `op`, optional object `params`;
/// any other member is rejected. Never throws, never aborts. One pass over
/// the bytes writes the flattened params (implemented in json.cpp, on the
/// reader json_parse uses): object members sorted per level, arrays in
/// element order. A syntax error anywhere wins over a semantic one; among
/// semantic errors the first in that key order wins.
Expected<Request> parse_request(const std::string& line,
                                const ParseLimits& limits = {});

/// Reply renderers. `result_payload` is the serialized result object
/// (see `render_result`); the reply line has no trailing newline.
std::string ok_reply(std::int64_t id, const std::string& result_payload);
std::string error_reply(std::int64_t id, ErrorCode code,
                        const std::string& message);

/// Serialize a handler Result as the "result" object of an ok reply:
///   {"label":<json>,"metrics":{<name>:<Value::json_into>,...}}
/// in one pass into one reserved buffer. Metric order is insertion order —
/// deterministic for a deterministic handler, and identical to the offline
/// JsonlSink rendering of the same Result.
std::string render_result(const exp::Result& result);

}  // namespace pap::serve
