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
  return "{\"id\":" + std::to_string(id) +
         ",\"ok\":true,\"result\":" + result_payload + "}";
}

std::string error_reply(std::int64_t id, ErrorCode code,
                        const std::string& message) {
  return "{\"id\":" + std::to_string(id) +
         ",\"ok\":false,\"error\":{\"code\":\"" + error_code_name(code) +
         "\",\"message\":" + json_quote(message) + "}}";
}

std::string render_result(const exp::Result& result) {
  std::string out = "{\"label\":" + exp::Value{result.label()}.json() +
                    ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, v] : result.metrics()) {
    if (!first) out += ',';
    first = false;
    out += exp::Value{name}.json() + ':' + v.json();
  }
  out += "}}";
  return out;
}

}  // namespace pap::serve
