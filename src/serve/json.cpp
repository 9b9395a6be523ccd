#include "serve/json.hpp"

#include <algorithm>
#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "serve/protocol.hpp"

namespace pap::serve {

namespace {

constexpr std::size_t kNoDuplicate = std::string::npos;

std::string size_error(std::size_t size, std::size_t limit) {
  return "input of " + std::to_string(size) + " bytes exceeds limit of " +
         std::to_string(limit);
}

/// The one JSON reader: grammar, strings and escapes, numbers, literals
/// and the depth limit. It reports what it reads to a `Sink`, which builds
/// whatever it builds:
///
///   begin_object()  key(k)  end_member(at) -> false on a duplicate key
///   end_object() -> kNoDuplicate, or the byte offset of a duplicate key
///   begin_array()  end_array()
///   null_value()  bool_value(b)  int_value(i)  double_value(d)
///   string_value(s)
///   first_open_duplicate() -> the earliest duplicate key among the
///                             completed members of still-open objects
///
/// A sink that checks keys as members complete (the tree) reports a
/// duplicate through end_member; one that sorts an object's members once,
/// at its close (the flattener), reports it through end_object, and on
/// any other error through first_open_duplicate: a duplicate among
/// completed members happened before any later error, so it wins, exactly
/// as if it had been caught when its member completed. Views passed to
/// key() and string_value() point into the input or into `scratch`, and
/// stay valid until both change.
template <class Sink>
class Reader {
 public:
  Reader(std::string_view text, int max_depth, Sink& sink,
         std::string& scratch)
      : begin_(text.data()), p_(text.data()), end_(text.data() + text.size()),
        max_depth_(max_depth), sink_(sink), scratch_(scratch) {
    scratch_.clear();
  }

  /// Exactly one value spanning the input (trailing whitespace allowed).
  bool parse() {
    bool ok = value(0);
    if (ok) {
      skip_ws();
      if (p_ != end_) ok = fail("trailing garbage after value");
    }
    if (!ok) {
      const std::size_t dup = sink_.first_open_duplicate();
      if (dup != kNoDuplicate) {
        error_ = "duplicate object key";
        error_at_ = dup;
      }
    }
    return ok;
  }

  std::string error() const {
    return std::string(error_) + " at byte " + std::to_string(error_at_);
  }

 private:
  bool fail(const char* msg) {
    return fail_at(msg, static_cast<std::size_t>(p_ - begin_));
  }
  bool fail_at(const char* msg, std::size_t at) {
    error_ = msg;
    error_at_ = at;
    return false;
  }

  void skip_ws() {
    while (p_ < end_ && static_cast<unsigned char>(*p_) <= ' ' &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  bool expect(char c) {
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    error_buf_ = std::string("expected '") + c + "'";
    return fail(error_buf_.c_str());
  }

  bool literal(const char* word, std::size_t n) {
    if (static_cast<std::size_t>(end_ - p_) >= n &&
        std::memcmp(p_, word, n) == 0) {
      p_ += n;
      return true;
    }
    return fail("bad literal");
  }

  bool value(int depth) {
    if (depth > max_depth_) return fail("nesting too deep");
    skip_ws();
    if (p_ >= end_) return fail("unexpected end of input");
    switch (*p_) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': {
        std::string_view s;
        if (!string(&s)) return false;
        sink_.string_value(s);
        return true;
      }
      case 't':
        if (!literal("true", 4)) return false;
        sink_.bool_value(true);
        return true;
      case 'f':
        if (!literal("false", 5)) return false;
        sink_.bool_value(false);
        return true;
      case 'n':
        if (!literal("null", 4)) return false;
        sink_.null_value();
        return true;
      default:
        return number();
    }
  }

  bool object(int depth) {
    ++p_;  // '{'
    sink_.begin_object();
    skip_ws();
    if (p_ < end_ && *p_ == '}') {
      ++p_;
      return end_object();
    }
    while (true) {
      skip_ws();
      if (p_ >= end_ || *p_ != '"') return fail("expected object key");
      std::string_view key;
      if (!string(&key)) return false;
      sink_.key(key);
      skip_ws();
      if (!expect(':')) return false;
      if (!value(depth + 1)) return false;
      if (!sink_.end_member(static_cast<std::size_t>(p_ - begin_))) {
        return fail("duplicate object key");
      }
      skip_ws();
      if (p_ < end_ && *p_ == ',') {
        ++p_;
        continue;
      }
      return expect('}') && end_object();
    }
  }

  bool end_object() {
    const std::size_t dup = sink_.end_object();
    return dup == kNoDuplicate || fail_at("duplicate object key", dup);
  }

  bool array(int depth) {
    ++p_;  // '['
    sink_.begin_array();
    skip_ws();
    if (p_ < end_ && *p_ == ']') {
      ++p_;
      sink_.end_array();
      return true;
    }
    while (true) {
      if (!value(depth + 1)) return false;
      skip_ws();
      if (p_ < end_ && *p_ == ',') {
        ++p_;
        continue;
      }
      if (!expect(']')) return false;
      sink_.end_array();
      return true;
    }
  }

  /// A string literal at p_ (on its opening quote). Without escapes the
  /// view points into the input; with them, into the decoded scratch.
  bool string(std::string_view* out) {
    ++p_;  // '"'
    const char* run = p_;
    bool decoded = false;
    while (p_ < end_) {
      const unsigned char c = static_cast<unsigned char>(*p_);
      if (c > '\\' || (c >= 0x20 && c != '"' && c != '\\')) {  // plain byte
        ++p_;
        continue;
      }
      if (c == '"') {
        if (decoded) {
          scratch_.append(run, p_);
          *out = std::string_view(scratch_).substr(decoded_begin_);
        } else {
          *out = std::string_view(run, static_cast<std::size_t>(p_ - run));
        }
        ++p_;
        return true;
      }
      if (c == '\\') {
        if (!decoded) {
          // Decoded strings are appended, never overwritten, and the
          // scratch holds the whole input's worth: no reallocation, so
          // every view handed out stays valid for the whole parse.
          if (scratch_.capacity() < static_cast<std::size_t>(end_ - begin_)) {
            scratch_.reserve(static_cast<std::size_t>(end_ - begin_));
          }
          decoded_begin_ = scratch_.size();
        }
        decoded = true;
        scratch_.append(run, p_);
        ++p_;
        if (p_ >= end_) return fail("truncated escape");
        if (!escape()) return false;
        ++p_;
        run = p_;
        continue;
      }
      return fail("raw control character in string");  // c < 0x20
    }
    return fail("unterminated string");
  }

  /// Decode the escape whose letter is at p_ into scratch_; p_ ends on
  /// the escape's last byte.
  bool escape() {
    switch (*p_) {
      case '"': scratch_ += '"'; return true;
      case '\\': scratch_ += '\\'; return true;
      case '/': scratch_ += '/'; return true;
      case 'b': scratch_ += '\b'; return true;
      case 'f': scratch_ += '\f'; return true;
      case 'n': scratch_ += '\n'; return true;
      case 'r': scratch_ += '\r'; return true;
      case 't': scratch_ += '\t'; return true;
      case 'u': {
        if (end_ - p_ < 5) return fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 1; i <= 4; ++i) {
          const char h = p_[i];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else return fail("bad \\u escape");
        }
        p_ += 4;
        // Encode as UTF-8. Surrogates are not paired — they encode as
        // three-byte sequences, which is lossy but never crashes; the
        // analysis request grammar is ASCII anyway.
        if (code < 0x80) {
          scratch_ += static_cast<char>(code);
        } else if (code < 0x800) {
          scratch_ += static_cast<char>(0xC0 | (code >> 6));
          scratch_ += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          scratch_ += static_cast<char>(0xE0 | (code >> 12));
          scratch_ += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          scratch_ += static_cast<char>(0x80 | (code & 0x3F));
        }
        return true;
      }
      default:
        return fail("bad escape");
    }
  }

  bool number() {
    const char* start = p_;
    if (p_ < end_ && *p_ == '-') ++p_;
    if (p_ >= end_ || *p_ < '0' || *p_ > '9') return fail("bad number");
    // JSON forbids leading zeros ("01"): a zero first digit must be the
    // whole integer part.
    if (*p_ == '0' && p_ + 1 < end_ && p_[1] >= '0' && p_[1] <= '9') {
      return fail("leading zero in number");
    }
    // Up to 18 digits cannot overflow: such an integer is known here.
    const char* digits = p_;
    std::uint64_t magnitude = 0;
    while (p_ < end_ && *p_ >= '0' && *p_ <= '9') {
      magnitude = magnitude * 10 + static_cast<unsigned>(*p_ - '0');
      ++p_;
    }
    const bool exact = p_ - digits <= 18;
    bool integral = true;
    if (p_ < end_ && *p_ == '.') {
      integral = false;
      ++p_;
      if (p_ >= end_ || *p_ < '0' || *p_ > '9') return fail("bad number");
      while (p_ < end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    }
    if (p_ < end_ && (*p_ == 'e' || *p_ == 'E')) {
      integral = false;
      ++p_;
      if (p_ < end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (p_ >= end_ || *p_ < '0' || *p_ > '9') return fail("bad exponent");
      while (p_ < end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    }
    if (integral && exact) {
      const auto v = static_cast<std::int64_t>(magnitude);
      sink_.int_value(*start == '-' ? -v : v);
      return true;
    }
    if (integral) {
      std::int64_t v = 0;
      if (std::from_chars(start, p_, v).ec == std::errc()) {
        sink_.int_value(v);
        return true;
      }
      // Overflowed int64: parse as a double.
    }
    double d = 0.0;
    if (std::from_chars(start, p_, d).ec == std::errc() &&
        std::fabs(d) >= 2 * DBL_MIN) {
      sink_.double_value(d);
      return true;
    }
    // Zero, near-underflow and out-of-range texts: strtod and its errno
    // decide, so that an underflow (a subnormal included) or an overflow
    // is refused exactly as it always was.
    const std::string text(start, p_);
    errno = 0;
    char* conv_end = nullptr;
    d = std::strtod(text.c_str(), &conv_end);
    if (errno != 0 || conv_end != text.c_str() + text.size()) {
      p_ = start;
      return fail("unrepresentable number");
    }
    sink_.double_value(d);
    return true;
  }

  const char* begin_;
  const char* p_;
  const char* end_;
  const int max_depth_;
  Sink& sink_;
  std::string& scratch_;  // decoded strings that carried escapes
  std::size_t decoded_begin_ = 0;  // the string being decoded, in scratch_
  const char* error_ = "";
  std::size_t error_at_ = 0;
  std::string error_buf_;  // owns an "expected 'c'" message
};

/// Builds the JsonValue tree. Objects are std::maps, so a duplicate key
/// shows when its member completes.
class TreeSink {
 public:
  JsonValue take() { return std::move(done_); }

  void begin_object() { open(JsonValue::Kind::kObject); }
  void begin_array() { open(JsonValue::Kind::kArray); }
  void key(std::string_view k) { keys_.emplace_back(k); }
  bool end_member(std::size_t) {
    const bool inserted =
        open_.back()
            .object_v.emplace(std::move(keys_.back()), std::move(done_))
            .second;
    keys_.pop_back();
    return inserted;
  }
  std::size_t end_object() {
    close();
    return kNoDuplicate;
  }
  void end_array() { close(); }
  std::size_t first_open_duplicate() const { return kNoDuplicate; }

  void null_value() { scalar(JsonValue::Kind::kNull); }
  void bool_value(bool b) { scalar(JsonValue::Kind::kBool).bool_v = b; }
  void int_value(std::int64_t i) { scalar(JsonValue::Kind::kInt).int_v = i; }
  void double_value(double d) { scalar(JsonValue::Kind::kDouble).dbl_v = d; }
  void string_value(std::string_view s) {
    scalar(JsonValue::Kind::kString).str_v.assign(s);
  }

 private:
  void open(JsonValue::Kind kind) {
    open_.emplace_back();
    open_.back().kind = kind;
  }
  // A finished value waits in done_: an object member until end_member,
  // the root until take(); an array element is appended at once.
  JsonValue& scalar(JsonValue::Kind kind) {
    done_ = JsonValue{};
    done_.kind = kind;
    if (in_array()) {
      open_.back().array_v.push_back(std::move(done_));
      return open_.back().array_v.back();
    }
    return done_;
  }
  void close() {
    done_ = std::move(open_.back());
    open_.pop_back();
    if (in_array()) open_.back().array_v.push_back(std::move(done_));
  }
  bool in_array() const {
    return !open_.empty() && open_.back().kind == JsonValue::Kind::kArray;
  }

  std::vector<JsonValue> open_;
  std::vector<std::string> keys_;
  JsonValue done_;
};

/// Reads a request line into a flat node list, for parse_request. Every
/// value is one node (a member node also carries its key); a container's
/// children are a range of `kids_`, written when it closes, and an
/// object's are sorted by key there. Keys and strings are views into the
/// line, or into the reader's scratch when they carried escapes, so the
/// read copies no bytes. parse_request then walks the params subtree once
/// in that order, writing each entry straight into exp::Params: the order
/// a key-sorted tree walk visits (arrays keep element order: "apps.2"
/// before "apps.10"), with the same first error.
class FlatSink {
 public:
  struct Node {
    const char* key_data = nullptr;  // member key; empty for elements, root
    std::uint32_t key_len = 0;
    std::uint32_t str_len = 0;  // kString
    union {
      std::int64_t int_v = 0;
      double dbl_v;
      bool bool_v;
      const char* str_data;  // kString
      struct {
        std::uint32_t first, last;
      } kids;  // containers: their children, kids_[first, last)
    };
    JsonValue::Kind kind = JsonValue::Kind::kNull;

    std::string_view key() const { return {key_data, key_len}; }
    std::string_view str() const { return {str_data, str_len}; }
  };

  void reset() {
    nodes_.clear();
    kids_.clear();
    open_.clear();
    pending_.clear();
  }
  /// Drop buffers a huge request grew, so a thread does not keep them.
  void trim() {
    constexpr std::size_t kKeepNodes = 1 << 14;
    if (nodes_.capacity() > kKeepNodes) {
      std::vector<Node>().swap(nodes_);
      std::vector<std::uint32_t>().swap(kids_);
      std::vector<Child>().swap(pending_);
    }
  }

  /// After a successful read: the root value (node 0) and the children of
  /// a container, an object's in key order.
  const Node& root() const { return nodes_.front(); }
  std::size_t size() const { return nodes_.size(); }
  const Node& node(std::uint32_t i) const { return nodes_[i]; }
  const std::uint32_t* kids() const { return kids_.data(); }

  // --- Sink interface (see Reader) -------------------------------------
  void begin_object() { open(JsonValue::Kind::kObject); }
  void begin_array() { open(JsonValue::Kind::kArray); }
  void key(std::string_view k) { key_ = k; }
  bool end_member(std::size_t at) {
    pending_.back().value_end = at;
    return true;
  }
  std::size_t end_object() { return close(true); }
  void end_array() { (void)close(false); }
  std::size_t first_open_duplicate() {
    std::size_t first = kNoDuplicate;
    for (std::size_t k = 0; k < open_.size(); ++k) {
      if (!open_[k].object) continue;
      // An open object's children end where its open child's begin; the
      // completed ones are a prefix (the last may still be reading).
      const auto begin = pending_.begin() + open_[k].kids_begin;
      auto end = k + 1 < open_.size()
                     ? pending_.begin() + open_[k + 1].kids_begin
                     : pending_.end();
      while (end != begin && (end - 1)->value_end == kNoDuplicate) --end;
      first = std::min(first, sort_members(begin, end));
    }
    return first;
  }

  void null_value() { (void)add(JsonValue::Kind::kNull); }
  void bool_value(bool b) { add(JsonValue::Kind::kBool).bool_v = b; }
  void int_value(std::int64_t i) { add(JsonValue::Kind::kInt).int_v = i; }
  void double_value(double d) { add(JsonValue::Kind::kDouble).dbl_v = d; }
  void string_value(std::string_view s) {
    Node& n = add(JsonValue::Kind::kString);
    n.str_data = s.data();
    n.str_len = static_cast<std::uint32_t>(s.size());
  }

 private:
  /// A child of an open container: its node and, in an object, what the
  /// key sort and the duplicate check need.
  struct Child {
    std::uint64_t prefix = 0;  // first 8 key bytes, big-endian
    std::size_t value_end = kNoDuplicate;  // byte after the member's value
    std::uint32_t node = 0;
  };
  struct Open {
    std::uint32_t node;        // the container
    std::uint32_t kids_begin;  // its children so far: pending_[kids_begin..]
    bool object;
  };

  /// A new value node; inside an object it takes the key just read.
  Node& add(JsonValue::Kind kind) {
    const auto index = static_cast<std::uint32_t>(nodes_.size());
    Node& n = nodes_.emplace_back();
    n.kind = kind;
    if (open_.empty()) return n;
    Child& c = pending_.emplace_back();
    c.node = index;
    if (open_.back().object) {
      n.key_data = key_.data();
      n.key_len = static_cast<std::uint32_t>(key_.size());
      std::uint64_t prefix = 0;
      if (key_.size() >= 8) {
        std::memcpy(&prefix, key_.data(), 8);
        prefix = __builtin_bswap64(prefix);
      } else if (!key_.empty()) {  // the empty key keeps prefix 0
        for (char ch : key_) prefix = prefix << 8 | static_cast<unsigned char>(ch);
        prefix <<= 8 * (8 - key_.size());
      }
      c.prefix = prefix;
    }
    return n;
  }

  void open(JsonValue::Kind kind) {
    (void)add(kind);
    open_.push_back(Open{static_cast<std::uint32_t>(nodes_.size() - 1),
                         static_cast<std::uint32_t>(pending_.size()),
                         kind == JsonValue::Kind::kObject});
  }

  /// Close the innermost container: sort an object's children, move them
  /// to kids_. Returns the offset of a duplicate key, if any.
  std::size_t close(bool object) {
    const Open o = open_.back();
    open_.pop_back();
    const auto begin = pending_.begin() + o.kids_begin;
    const std::size_t dup =
        object ? sort_members(begin, pending_.end()) : kNoDuplicate;
    Node& n = nodes_[o.node];
    n.kids.first = static_cast<std::uint32_t>(kids_.size());
    for (auto it = begin; it != pending_.end(); ++it) kids_.push_back(it->node);
    n.kids.last = static_cast<std::uint32_t>(kids_.size());
    pending_.erase(begin, pending_.end());
    return dup;
  }

  /// Sort members [begin, end) by key (ties in reading order); the byte
  /// offset of the earliest duplicate, i.e. the second of an equal run.
  std::size_t sort_members(std::vector<Child>::iterator begin,
                           std::vector<Child>::iterator end) {
    const Node* nodes = nodes_.data();
    std::sort(begin, end, [nodes](const Child& a, const Child& b) {
      if (a.prefix != b.prefix) return a.prefix < b.prefix;
      const int c = nodes[a.node].key().compare(nodes[b.node].key());
      return c != 0 ? c < 0 : a.node < b.node;
    });
    std::size_t dup = kNoDuplicate;
    for (auto it = begin; it != end && it + 1 != end; ++it) {
      if (nodes[it->node].key() == nodes[(it + 1)->node].key()) {
        dup = std::min(dup, (it + 1)->value_end);
      }
    }
    return dup;
  }

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> kids_;  // children of closed containers
  std::vector<Child> pending_;       // children of open containers
  std::vector<Open> open_;
  std::string_view key_;  // the member key just read
};

/// Append scalar node `c` under `key`: one out-of-line place that builds
/// an entry, so the walk below stays small.
[[gnu::noinline]] void add_entry(std::string_view key, const FlatSink::Node& c,
                                 exp::Params* out) {
  switch (c.kind) {
    case JsonValue::Kind::kBool: out->add(key, c.bool_v); break;
    case JsonValue::Kind::kInt: out->add(key, c.int_v); break;
    case JsonValue::Kind::kDouble: out->add(key, c.dbl_v); break;
    default: out->add(key, std::string(c.str()));
  }
}

/// Write the entries below container `n` (path `*path`) into `out`, in
/// kids order; the first value with no parameter representation fails.
Status flatten(const FlatSink& sink, const FlatSink::Node& n,
               std::string* path, exp::Params* out) {
  using Kind = JsonValue::Kind;
  const std::size_t mark = path->size();
  for (std::uint32_t i = n.kids.first; i < n.kids.last; ++i) {
    const FlatSink::Node& c = sink.node(sink.kids()[i]);
    if (n.kind == Kind::kObject) {
      const std::string_view key = c.key();
      if (key.empty()) {
        return Status::error("empty key under '" + *path + "'");
      }
      if (std::find(key.begin(), key.end(), '.') != key.end()) {
        return Status::error("parameter key '" + std::string(key) +
                             "' must not contain '.'");
      }
      if (mark != 0) *path += '.';
      *path += key;
    } else {
      char digits[16];
      *path += '.';
      path->append(digits, std::to_chars(digits, digits + sizeof digits,
                                         i - n.kids.first).ptr);
    }
    switch (c.kind) {
      case Kind::kBool:
      case Kind::kInt:
      case Kind::kDouble:
      case Kind::kString:
        add_entry(*path, c, out);
        break;
      case Kind::kNull:
        return Status::error("null is not a valid parameter value ('" +
                             *path + "')");
      case Kind::kArray:
      case Kind::kObject:
        if (c.kids.first == c.kids.last) {
          return Status::error(std::string(c.kind == Kind::kArray
                                               ? "empty array parameter '"
                                               : "empty object parameter '") +
                               *path + "'");
        }
        if (auto s = flatten(sink, c, path, out); !s) return s;
        break;
    }
    path->resize(mark);
  }
  return Status::ok();
}

}  // namespace

const JsonValue* JsonValue::get(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object_v.find(key);
  return it == object_v.end() ? nullptr : &it->second;
}

Expected<JsonValue> json_parse(const std::string& text,
                               const JsonLimits& limits) {
  if (text.size() > limits.max_bytes) {
    return Expected<JsonValue>::error(size_error(text.size(), limits.max_bytes));
  }
  TreeSink sink;
  std::string scratch;
  Reader<TreeSink> reader(text, limits.max_depth, sink, scratch);
  if (!reader.parse()) return Expected<JsonValue>::error(reader.error());
  return sink.take();
}

Expected<Request> parse_request(const std::string& line,
                                const ParseLimits& limits) {
  using Kind = JsonValue::Kind;
  if (line.size() > limits.max_bytes) {
    return Expected<Request>::error(size_error(line.size(), limits.max_bytes));
  }
  // Per-thread scratch: a reactor parses every line of its connections.
  thread_local FlatSink sink;
  thread_local std::string scratch, path;
  struct Trim {
    ~Trim() {
      sink.trim();
      if (scratch.capacity() > (1 << 20)) std::string().swap(scratch);
    }
  } trim;
  sink.reset();
  Reader<FlatSink> reader(line, limits.max_depth, sink, scratch);
  if (!reader.parse()) return Expected<Request>::error(reader.error());
  const FlatSink::Node& root = sink.root();
  if (root.kind != Kind::kObject) {
    return Expected<Request>::error("request must be a JSON object");
  }
  // Envelope members in key order: the first violation in that order is
  // the one reported.
  Request req;
  bool saw_id = false;
  for (std::uint32_t i = root.kids.first; i < root.kids.last; ++i) {
    const FlatSink::Node& m = sink.node(sink.kids()[i]);
    const std::string_view key = m.key();
    if (key == "id") {
      if (m.kind != Kind::kInt || m.int_v < 0) {
        return Expected<Request>::error("'id' must be a non-negative integer");
      }
      req.id = m.int_v;
      saw_id = true;
    } else if (key == "op") {
      if (m.kind != Kind::kString || m.str().empty()) {
        return Expected<Request>::error("'op' must be a non-empty string");
      }
      req.op.assign(m.str());
    } else if (key == "params") {
      if (m.kind != Kind::kObject) {
        return Expected<Request>::error("params must be a JSON object");
      }
      path.clear();
      req.params.reserve(sink.size());  // at least its entry count
      if (auto s = flatten(sink, m, &path, &req.params); !s) {
        return Expected<Request>::error(s.message());
      }
    } else {
      return Expected<Request>::error("unknown request member '" +
                                      std::string(key) + "'");
    }
  }
  if (!saw_id) return Expected<Request>::error("missing 'id'");
  if (req.op.empty()) return Expected<Request>::error("missing 'op'");
  return req;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out + "\"";
}

}  // namespace pap::serve
