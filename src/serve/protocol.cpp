#include "serve/protocol.hpp"

namespace pap::serve {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kParseError: return "parse_error";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kInternal: return "internal";
  }
  return "?";
}

std::string ok_reply(std::int64_t id, const std::string& result_payload) {
  std::string out;
  out.reserve(result_payload.size() + 48);  // the envelope and id fit in 48
  out += "{\"id\":";
  out += std::to_string(id);
  out += ",\"ok\":true,\"result\":";
  out += result_payload;
  out += '}';
  return out;
}

std::string error_reply(std::int64_t id, ErrorCode code,
                        const std::string& message) {
  return "{\"id\":" + std::to_string(id) +
         ",\"ok\":false,\"error\":{\"code\":\"" + error_code_name(code) +
         "\",\"message\":" + json_quote(message) + "}}";
}

std::string render_result(const exp::Result& result) {
  // One buffer, sized up front: a number renders in at most 24 bytes, and
  // names and strings rarely need escapes.
  std::size_t bytes = 32 + result.label().size();
  for (const auto& [name, v] : result.metrics()) {
    bytes += name.size() + 28 +
             (v.kind() == exp::Value::Kind::kString ? v.as_string().size()
                                                    : 0);
  }
  std::string out;
  out.reserve(bytes);
  out += "{\"label\":";
  exp::json_string_into(&out, result.label());
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, v] : result.metrics()) {
    if (!first) out += ',';
    first = false;
    exp::json_string_into(&out, name);
    out += ':';
    v.json_into(&out);
  }
  out += "}}";
  return out;
}

}  // namespace pap::serve
