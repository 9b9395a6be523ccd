#include "exp/experiment.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace pap::exp {

namespace {

// Lossless double <-> text via hexfloat.
std::string double_repr(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void escape_into(std::string* out, const std::string& s) {
  if (std::none_of(s.begin(), s.end(), [](char c) {
        return c == '\\' || c == '\t' || c == '\n' || c == '\r';
      })) {
    *out += s;
    return;
  }
  for (char c : s) {
    switch (c) {
      case '\\': *out += "\\\\"; break;
      case '\t': *out += "\\t"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      default: *out += c;
    }
  }
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  escape_into(&out, s);
  return out;
}

std::string unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 == s.size()) {
      out += s[i];
      continue;
    }
    switch (s[++i]) {
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default: out += s[i];
    }
  }
  return out;
}

char kind_tag(Value::Kind k) {
  switch (k) {
    case Value::Kind::kInt: return 'i';
    case Value::Kind::kDouble: return 'd';
    case Value::Kind::kBool: return 'b';
    case Value::Kind::kString: return 's';
    case Value::Kind::kTime: return 't';
  }
  return '?';
}

/// "<kind tag>:<payload>": ints, bools and times as decimal integers,
/// doubles as hexfloat, strings escaped.
void append_canonical(std::string* out, const Value& v) {
  *out += kind_tag(v.kind());
  *out += ':';
  char buf[64];
  std::int64_t i = 0;
  switch (v.kind()) {
    case Value::Kind::kDouble: {
      // A normal double's %a is "0x" + its shortest hex to_chars form;
      // zero, subnormals, inf and nan take printf's own spelling.
      const double d = v.as_double();
      if (std::isnormal(d)) {
        if (d < 0) *out += '-';
        *out += "0x";
        const auto r = std::to_chars(buf, buf + sizeof buf, std::fabs(d),
                                     std::chars_format::hex);
        out->append(buf, r.ptr);
      } else {
        *out += double_repr(d);
      }
      return;
    }
    case Value::Kind::kString: escape_into(out, v.as_string()); return;
    case Value::Kind::kBool: i = v.as_bool() ? 1 : 0; break;
    case Value::Kind::kTime: i = v.as_time().picos(); break;
    case Value::Kind::kInt: i = v.as_int(); break;
  }
  const auto r = std::to_chars(buf, buf + sizeof buf, i);
  out->append(buf, r.ptr);
}

/// The one number formatter of machine() and json_into(): ints in decimal,
/// doubles as %.17g, Time as nanoseconds with %.3f. std::to_chars with an
/// explicit format and precision is defined to print what printf prints
/// for the matching conversion, without printf's format parsing.
void append_number(std::string* out, const Value& v) {
  char buf[64];
  std::to_chars_result r{};
  switch (v.kind()) {
    case Value::Kind::kDouble:
      r = std::to_chars(buf, buf + sizeof buf, v.as_double(),
                        std::chars_format::general, 17);
      break;
    case Value::Kind::kTime:
      r = std::to_chars(buf, buf + sizeof buf, v.as_time().nanos(),
                        std::chars_format::fixed, 3);
      break;
    default:
      r = std::to_chars(buf, buf + sizeof buf, v.as_int());
      break;
  }
  out->append(buf, r.ptr);
}

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

Expected<Value> parse_value(const std::string& kind, const std::string& payload,
                            const std::string& precision) {
  if (kind.size() != 1) return Expected<Value>::error("bad value kind");
  char* end = nullptr;
  switch (kind[0]) {
    case 'i':
      return Value{static_cast<std::int64_t>(
          std::strtoll(payload.c_str(), &end, 10))};
    case 'b':
      return Value{payload == "1"};
    case 't':
      return Value{Time::ps(std::strtoll(payload.c_str(), &end, 10))};
    case 'd':
      return Value{std::strtod(payload.c_str(), &end),
                   std::atoi(precision.c_str())};
    case 's':
      return Value{unescape(payload)};
    default:
      return Expected<Value>::error("unknown value kind '" + kind + "'");
  }
}

}  // namespace

std::int64_t Value::as_int() const {
  PAP_CHECK_MSG(kind_ == Kind::kInt || kind_ == Kind::kBool,
                "Value is not an integer");
  return int_;
}

double Value::as_double() const {
  switch (kind_) {
    case Kind::kDouble: return dbl_;
    case Kind::kInt: return static_cast<double>(int_);
    case Kind::kTime: return as_time().nanos();
    default:
      PAP_UNREACHABLE("Value is not numeric");
  }
}

bool Value::as_bool() const {
  PAP_CHECK_MSG(kind_ == Kind::kBool, "Value is not a bool");
  return int_ != 0;
}

const std::string& Value::as_string() const {
  PAP_CHECK_MSG(kind_ == Kind::kString, "Value is not a string");
  return str_;
}

Time Value::as_time() const {
  PAP_CHECK_MSG(kind_ == Kind::kTime, "Value is not a Time");
  return Time::ps(int_);
}

std::string Value::display() const {
  switch (kind_) {
    case Kind::kBool:
      return int_ ? "true" : "false";
    case Kind::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.*f", precision_, dbl_);
      return buf;
    }
    default:
      return machine();  // ints, strings, Time as ns: the same bytes
  }
}

std::string Value::machine() const {
  switch (kind_) {
    case Kind::kBool:
      return int_ ? "1" : "0";
    case Kind::kString:
      return str_;
    default: {
      std::string out;
      append_number(&out, *this);
      return out;
    }
  }
}

void Value::json_into(std::string* out) const {
  if (kind_ == Kind::kString) {
    json_string_into(out, str_);
  } else if (kind_ == Kind::kBool) {
    *out += int_ ? "true" : "false";
  } else if (kind_ == Kind::kDouble && !std::isfinite(dbl_)) {
    *out += "null";
  } else {
    append_number(out, *this);
  }
}

void json_string_into(std::string* out, std::string_view s) {
  *out += '"';
  std::size_t run = 0;  // start of the bytes not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char* esc = nullptr;
    switch (s[i]) {
      case '"': esc = "\\\""; break;
      case '\\': esc = "\\\\"; break;
      case '\n': esc = "\\n"; break;
      case '\t': esc = "\\t"; break;
      case '\r': esc = "\\r"; break;
      default: continue;
    }
    out->append(s.data() + run, i - run);
    *out += esc;
    run = i + 1;
  }
  out->append(s.data() + run, s.size() - run);
  *out += '"';
}

std::string Value::canonical() const {
  std::string out;
  append_canonical(&out, *this);
  return out;
}

bool Value::operator==(const Value& o) const {
  if (kind_ != o.kind_) return false;
  switch (kind_) {
    case Kind::kDouble:
      // Bitwise comparison: cache round trips are exact, and NaN != NaN
      // would make every NaN-carrying result "different from itself".
      return double_repr(dbl_) == double_repr(o.dbl_);
    case Kind::kString:
      return str_ == o.str_;
    default:
      return int_ == o.int_;
  }
}

ParamMap& ParamMap::set(std::string key, Value v) {
  for (auto& [k, val] : entries_) {
    if (k == key) {
      val = std::move(v);
      return *this;
    }
  }
  entries_.emplace_back(std::move(key), std::move(v));
  return *this;
}

const Value* ParamMap::find(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& ParamMap::at(const std::string& key) const {
  const Value* v = find(key);
  PAP_CHECK_MSG(v != nullptr, key.c_str());
  return *v;
}

std::string ParamMap::label() const {
  std::string out;
  for (const auto& [k, v] : entries_) {
    if (!out.empty()) out += ' ';
    out += k + '=' + v.display();
  }
  return out;
}

std::string ParamMap::canonical() const {
  std::string out;
  canonical_into(&out);
  return out;
}

void ParamMap::canonical_into(std::string* out) const {
  // Doubles take at most 24 bytes of hexfloat, plus tag, tab and newline.
  std::size_t bytes = out->size();
  for (const auto& [k, v] : entries_) {
    bytes += k.size() + 28 +
             (v.kind() == Value::Kind::kString ? v.as_string().size() : 0);
  }
  out->reserve(bytes);
  for (const auto& [k, v] : entries_) {
    escape_into(out, k);
    *out += '\t';
    append_canonical(out, v);
    *out += '\n';
  }
}

Result& Result::set(std::string name, Value v) {
  for (auto& [k, val] : metrics_) {
    if (k == name) {
      val = std::move(v);
      return *this;
    }
  }
  metrics_.emplace_back(std::move(name), std::move(v));
  return *this;
}

Result& Result::add(std::string name, Value v) {
  metrics_.emplace_back(std::move(name), std::move(v));
  return *this;
}

const Value* Result::find(const std::string& name) const {
  for (const auto& [k, v] : metrics_) {
    if (k == name) return &v;
  }
  return nullptr;
}

const Value& Result::at(const std::string& name) const {
  const Value* v = find(name);
  PAP_CHECK_MSG(v != nullptr, name.c_str());
  return *v;
}

std::string Result::serialize() const {
  std::ostringstream os;
  os << "pap-exp-result\t1\n";
  os << "label\t" << escape(label_) << "\n";
  for (const auto& [name, v] : metrics_) {
    const std::string canon = v.canonical();  // "<kind>:<payload>"
    os << "m\t" << escape(name) << "\t" << canon[0] << "\t" << canon.substr(2)
       << "\t" << v.precision() << "\n";
  }
  return os.str();
}

Expected<Result> Result::deserialize(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != "pap-exp-result\t1") {
    return Expected<Result>::error("not a pap-exp-result v1 blob");
  }
  Result r;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto f = split_tabs(line);
    if (f[0] == "label" && f.size() == 2) {
      r.set_label(unescape(f[1]));
    } else if (f[0] == "m" && f.size() == 5) {
      auto v = parse_value(f[2], f[3], f[4]);
      if (!v) return Expected<Result>::error(v.error_message());
      r.set(unescape(f[1]), std::move(v).value());
    } else {
      return Expected<Result>::error("malformed result line: " + line);
    }
  }
  return r;
}

std::uint64_t content_hash(const Experiment& exp, const Params& params) {
  std::uint64_t h = kFnv1aOffset;
  auto mix = [&h](const std::string& s) {
    h = fnv1a_byte(fnv1a(s, h), 0xff);  // 0xff: field separator
  };
  mix(exp.name);
  mix(std::to_string(exp.version));
  mix(params.canonical());
  return h;
}

}  // namespace pap::exp
