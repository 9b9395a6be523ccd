#include "trace/chrome_trace.hpp"

#include <cstdio>

namespace pap::trace {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

/// Picoseconds -> microseconds with exact six-decimal rendering (integer
/// math only, so the output is deterministic across platforms).
std::string us_from_ps(std::int64_t ps) {
  const bool neg = ps < 0;
  const std::int64_t abs_ps = neg ? -ps : ps;
  char buf[48];
  std::snprintf(buf, sizeof buf, "%s%lld.%06lld", neg ? "-" : "",
                static_cast<long long>(abs_ps / 1'000'000),
                static_cast<long long>(abs_ps % 1'000'000));
  return buf;
}

std::string value_repr(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

char phase_char(EventType t) {
  switch (t) {
    case EventType::kBegin: return 'B';
    case EventType::kEnd: return 'E';
    case EventType::kComplete: return 'X';
    case EventType::kInstant: return 'i';
    case EventType::kCounter: return 'C';
  }
  return '?';
}

}  // namespace

std::string to_chrome_json(const Tracer& tracer) {
  // Components map to thread ids in first-emission order.
  std::vector<std::string> components;
  auto tid_of = [&components](const std::string& c) {
    for (std::size_t i = 0; i < components.size(); ++i) {
      if (components[i] == c) return static_cast<int>(i + 1);
    }
    components.push_back(c);
    return static_cast<int>(components.size());
  };
  for (const auto& e : tracer.events()) tid_of(e.component);

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&out, &first](const std::string& line) {
    if (!first) out += ',';
    first = false;
    out += '\n';
    out += line;
  };

  for (std::size_t i = 0; i < components.size(); ++i) {
    emit("{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(i + 1) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
         json_escape(components[i]) + "\"}}");
  }

  for (const auto& e : tracer.events()) {
    std::string line = "{\"ph\":\"";
    line += phase_char(e.type);
    line += "\",\"pid\":1,\"tid\":" + std::to_string(tid_of(e.component)) +
            ",\"ts\":" + us_from_ps(e.ts_ps) + ",\"name\":\"" +
            json_escape(e.name) + "\"";
    if (!e.category.empty()) {
      line += ",\"cat\":\"" + json_escape(e.category) + "\"";
    }
    switch (e.type) {
      case EventType::kComplete:
        line += ",\"dur\":" + us_from_ps(e.dur_ps);
        break;
      case EventType::kInstant:
        line += ",\"s\":\"t\"";
        break;
      case EventType::kCounter:
        line += ",\"args\":{\"value\":" + value_repr(e.value) + "}";
        break;
      default:
        break;
    }
    line += '}';
    emit(line);
  }
  out += "\n],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

}  // namespace pap::trace
