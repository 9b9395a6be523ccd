// Wire-protocol robustness for the papd serving layer (src/serve).
//
// The request parser is the only papd component that faces arbitrary bytes
// from the network, so these tests are adversarial: strict-envelope
// rejection cases, golden reply bytes, and a seeded fuzz loop over random
// byte streams and mutated valid requests. The contract under test is
// simple — parse_request never crashes and every rejection is a structured
// error — but it is the one the acceptor relies on for every connection.
//
// parse_request flattens in one pass. The tree-walking parser it replaced
// (json_parse, then a key-sorted walk of the tree) lives on below as the
// oracle: over every fuzz corpus and over seeded serve_mix-shaped requests
// the two must agree on acceptance, error bytes, id, op, entries and key.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "serve/handlers.hpp"
#include "serve/json.hpp"
#include "serve/param_reader.hpp"
#include "serve/protocol.hpp"

namespace pap::serve {
namespace {

// --- The oracle: json_parse + a key-sorted tree walk -----------------------

Status oracle_flatten_into(const JsonValue& v, const std::string& prefix,
                           exp::Params* out) {
  switch (v.kind) {
    case JsonValue::Kind::kBool:
      out->set(prefix, exp::Value{v.bool_v});
      return Status::ok();
    case JsonValue::Kind::kInt:
      out->set(prefix, exp::Value{v.int_v});
      return Status::ok();
    case JsonValue::Kind::kDouble:
      out->set(prefix, exp::Value{v.dbl_v});
      return Status::ok();
    case JsonValue::Kind::kString:
      out->set(prefix, exp::Value{v.str_v});
      return Status::ok();
    case JsonValue::Kind::kNull:
      return Status::error("null is not a valid parameter value ('" + prefix +
                           "')");
    case JsonValue::Kind::kArray: {
      if (v.array_v.empty()) {
        return Status::error("empty array parameter '" + prefix + "'");
      }
      for (std::size_t i = 0; i < v.array_v.size(); ++i) {
        const std::string key = prefix + "." + std::to_string(i);
        if (auto s = oracle_flatten_into(v.array_v[i], key, out); !s) return s;
      }
      return Status::ok();
    }
    case JsonValue::Kind::kObject: {
      if (v.object_v.empty()) {
        return Status::error("empty object parameter '" + prefix + "'");
      }
      for (const auto& [key, member] : v.object_v) {
        if (key.empty()) {
          return Status::error("empty key under '" + prefix + "'");
        }
        if (key.find('.') != std::string::npos) {
          return Status::error("parameter key '" + key +
                               "' must not contain '.'");
        }
        const std::string path = prefix.empty() ? key : prefix + "." + key;
        if (auto s = oracle_flatten_into(member, path, out); !s) return s;
      }
      return Status::ok();
    }
  }
  return Status::error("unreachable JSON kind");
}

Expected<exp::Params> json_flatten(const JsonValue& object) {
  if (object.kind != JsonValue::Kind::kObject) {
    return Expected<exp::Params>::error("params must be a JSON object");
  }
  exp::Params out;
  if (object.object_v.empty()) return out;  // explicit "params":{} is fine
  if (auto s = oracle_flatten_into(object, "", &out); !s) {
    return Expected<exp::Params>::error(s.message());
  }
  return out;
}

Expected<Request> oracle_parse_request(const std::string& line,
                                       const ParseLimits& limits = {}) {
  JsonLimits jl;
  jl.max_bytes = limits.max_bytes;
  jl.max_depth = limits.max_depth;
  auto parsed = json_parse(line, jl);
  if (!parsed) return Expected<Request>::error(parsed.error_message());
  const JsonValue& root = parsed.value();
  if (root.kind != JsonValue::Kind::kObject) {
    return Expected<Request>::error("request must be a JSON object");
  }
  Request req;
  bool saw_id = false;
  for (const auto& [key, member] : root.object_v) {
    if (key == "id") {
      if (member.kind != JsonValue::Kind::kInt || member.int_v < 0) {
        return Expected<Request>::error("'id' must be a non-negative integer");
      }
      req.id = member.int_v;
      saw_id = true;
    } else if (key == "op") {
      if (member.kind != JsonValue::Kind::kString || member.str_v.empty()) {
        return Expected<Request>::error("'op' must be a non-empty string");
      }
      req.op = member.str_v;
    } else if (key == "params") {
      auto flat = json_flatten(member);
      if (!flat) return Expected<Request>::error(flat.error_message());
      req.params = std::move(flat).value();
    } else {
      return Expected<Request>::error("unknown request member '" + key + "'");
    }
  }
  if (!saw_id) return Expected<Request>::error("missing 'id'");
  if (req.op.empty()) return Expected<Request>::error("missing 'op'");
  return req;
}

std::string hex_escape(const std::string& s) {
  std::string out;
  char buf[8];
  for (unsigned char c : s) {
    std::snprintf(buf, sizeof buf, "\\x%02x", c);
    out += buf;
  }
  return out;
}

/// parse_request agrees with the oracle on `line`; returns its result.
Expected<Request> parse_like_oracle(const std::string& line,
                                    const ParseLimits& limits = {}) {
  auto got = parse_request(line, limits);
  const auto want = oracle_parse_request(line, limits);
  EXPECT_EQ(got.has_value(), want.has_value()) << hex_escape(line);
  if (got.has_value() && want.has_value()) {
    EXPECT_EQ(got.value().id, want.value().id) << hex_escape(line);
    EXPECT_EQ(got.value().op, want.value().op) << hex_escape(line);
    EXPECT_TRUE(got.value().params == want.value().params) << hex_escape(line);
    EXPECT_EQ(got.value().key(), want.value().key()) << hex_escape(line);
  } else if (!got.has_value() && !want.has_value()) {
    EXPECT_EQ(got.error_message(), want.error_message()) << hex_escape(line);
  }
  return got;
}

TEST(ParseRequest, AcceptsMinimalEnvelope) {
  const auto req = parse_request(R"({"id": 7, "op": "ping"})");
  ASSERT_TRUE(req.has_value()) << req.error_message();
  EXPECT_EQ(req.value().id, 7);
  EXPECT_EQ(req.value().op, "ping");
  EXPECT_TRUE(req.value().params.empty());
}

TEST(ParseRequest, FlattensNestedParamsToDottedKeys) {
  const auto req = parse_request(
      R"({"id":1,"op":"wcd_bound","params":)"
      R"({"ctrl":{"queue_depth":16},"rates":[0.5,1.5],"strict":true}})");
  ASSERT_TRUE(req.has_value()) << req.error_message();
  const exp::Params& p = req.value().params;
  EXPECT_EQ(p.get_int("ctrl.queue_depth"), 16);
  EXPECT_DOUBLE_EQ(p.get_double("rates.0"), 0.5);
  EXPECT_DOUBLE_EQ(p.get_double("rates.1"), 1.5);
  EXPECT_TRUE(p.get_bool("strict"));
}

TEST(ParseRequest, KeyIsInsensitiveToMemberOrder) {
  // Two spellings of the same request must coalesce onto one cache /
  // batching identity: objects are key-sorted before flattening.
  const auto a = parse_request(
      R"({"id":1,"op":"x","params":{"b":2,"a":1}})");
  const auto b = parse_request(
      R"({"op":"x","params":{"a":1,"b":2},"id":9})");
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a.value().key(), b.value().key());
}

TEST(ParseRequest, RejectsEveryMalformedEnvelope) {
  const char* cases[] = {
      "",                                      // empty line
      "   ",                                   // whitespace only
      "[1,2,3]",                               // not an object
      "42",                                    // scalar
      "\"op\"",                                // bare string
      R"({"op":"ping"})",                      // missing id
      R"({"id":1})",                           // missing op
      R"({"id":-3,"op":"ping"})",              // negative id
      R"({"id":1.5,"op":"ping"})",             // non-integer id
      R"({"id":"1","op":"ping"})",             // string id
      R"({"id":1,"op":""})",                   // empty op
      R"({"id":1,"op":42})",                   // non-string op
      R"({"id":1,"op":"ping","extra":true})",  // unknown member
      R"({"id":1,"op":"ping","params":[1]})",  // params not an object
      R"({"id":1,"op":"ping","params":{"x":null}})",   // null has no Value
      R"({"id":1,"op":"ping","params":{"x":{}}})",     // empty container
      R"({"id":1,"op":"ping"} trailing)",      // trailing garbage
      R"({"id":1,"op":"ping")",                // truncated object
      R"({"id":1,"op":"pi)",                   // truncated string
      R"({"id":1,,"op":"ping"})",              // stray comma
      R"({'id':1,'op':'ping'})",               // single quotes
      R"({"id":0x10,"op":"ping"})",            // hex number
      R"({"id":1,"op":"ping","params":{"x":01}})",  // leading zero
      "{\"id\":1,\"op\":\"p\tq\"}",            // raw control char in string
  };
  for (const char* line : cases) {
    const auto req = parse_like_oracle(line);
    EXPECT_FALSE(req.has_value()) << "accepted: " << line;
    EXPECT_FALSE(req.error_message().empty()) << line;
  }
}

TEST(ParseRequest, EnforcesSizeAndDepthLimits) {
  ParseLimits limits;
  limits.max_bytes = 64;
  limits.max_depth = 4;

  std::string big = R"({"id":1,"op":")" + std::string(200, 'x') + "\"}";
  EXPECT_FALSE(parse_request(big, limits).has_value());

  std::string deep = R"({"id":1,"op":"p","params":)";
  for (int i = 0; i < 8; ++i) deep += "{\"k\":";
  deep += "1";
  for (int i = 0; i < 8; ++i) deep += "}";
  deep += "}";
  ParseLimits roomy;
  roomy.max_depth = 4;
  EXPECT_FALSE(parse_request(deep, roomy).has_value());
  // The same shape parses with the default depth budget.
  EXPECT_TRUE(parse_request(deep).has_value());
}

TEST(Replies, GoldenBytes) {
  EXPECT_EQ(ok_reply(7, "{\"x\":1}"),
            R"({"id":7,"ok":true,"result":{"x":1}})");
  EXPECT_EQ(error_reply(9, ErrorCode::kOverloaded, "queue full"),
            R"({"id":9,"ok":false,"error":{"code":"overloaded",)"
            R"("message":"queue full"}})");
  // Messages are quoted, so adversarial text cannot break the envelope.
  const std::string evil = error_reply(
      0, ErrorCode::kParseError, "quote \" backslash \\ newline \n");
  EXPECT_NE(evil.find("\\\""), evil.npos);
  EXPECT_EQ(evil.find('\n'), evil.npos);
  EXPECT_TRUE(json_parse(evil).has_value()) << evil;
}

TEST(Replies, RenderResultMatchesJsonlOrderAndRendering) {
  exp::Result r("wcd_bound");
  r.set("upper", exp::Value{123.456});
  r.set("iterations", exp::Value{std::int64_t{13}});
  r.set("converged", exp::Value{true});
  const std::string payload = render_result(r);
  EXPECT_EQ(payload,
            R"({"label":"wcd_bound","metrics":{"upper":123.456,)"
            R"("iterations":13,"converged":true}})");
  EXPECT_TRUE(json_parse(ok_reply(1, payload)).has_value());

  // Labels, names and string values escape '"', '\\', '\n', '\t' and
  // '\r'; Time renders as ns, a non-finite double as null.
  exp::Result s("say \"hi\"");
  s.add("app1.reason", std::string("a \"b\" \\ c\nd\te\rf"));
  s.add("tab\tname", Time::ps(-1500));
  s.add("nan", exp::Value{std::nan("")});
  s.add("neg", exp::Value{-0.0});
  const std::string escaped = render_result(s);
  EXPECT_EQ(escaped,
            R"({"label":"say \"hi\"","metrics":{)"
            R"("app1.reason":"a \"b\" \\ c\nd\te\rf",)"
            R"("tab\tname":-1.500,"nan":null,"neg":-0}})");
  const auto back = json_parse(ok_reply(-3, escaped));
  ASSERT_TRUE(back.has_value()) << escaped;
  EXPECT_EQ(ok_reply(-3, "{}"), R"({"id":-3,"ok":true,"result":{}})");

  // Other control bytes have always passed through raw; replies keep them.
  exp::Result raw("raw");
  raw.add("c", std::string("\x01\x1f", 2));
  EXPECT_EQ(render_result(raw),
            std::string(R"({"label":"raw","metrics":{"c":")") + "\x01\x1f" +
                "\"}}");
}

TEST(ErrorCodes, NamesAreStable) {
  EXPECT_STREQ(error_code_name(ErrorCode::kParseError), "parse_error");
  EXPECT_STREQ(error_code_name(ErrorCode::kBadRequest), "bad_request");
  EXPECT_STREQ(error_code_name(ErrorCode::kOverloaded), "overloaded");
  EXPECT_STREQ(error_code_name(ErrorCode::kShuttingDown), "shutting_down");
  EXPECT_STREQ(error_code_name(ErrorCode::kInternal), "internal");
}

// Seeded fuzz: random byte soup must never crash the parser, every
// rejection must carry a message, and every line must parse exactly as the
// oracle parses it. Deterministic (fixed seed) so a failure reproduces; the
// failing input is printed hex-escaped.

TEST(ParseRequestFuzz, RandomByteStreamsNeverCrash) {
  std::mt19937 rng(0xC0FFEE);
  std::uniform_int_distribution<int> len(0, 300);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int i = 0; i < 20000; ++i) {
    std::string line;
    const int n = len(rng);
    line.reserve(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      line.push_back(static_cast<char>(byte(rng)));
    }
    const auto req = parse_like_oracle(line);
    if (!req.has_value()) {
      ASSERT_FALSE(req.error_message().empty()) << hex_escape(line);
    }
  }
}

TEST(ParseRequestFuzz, StructuredSoupNeverCrashes) {
  // Random concatenations of JSON-ish tokens reach much deeper into the
  // parser than uniform bytes (which almost always die at byte 0).
  const char* tokens[] = {"{", "}", "[", "]", ":", ",",  "\"id\"", "\"op\"",
                          "\"params\"", "\"x\"", "1",  "-1",  "1e9",
                          "1e999", "0.5", "true", "false", "null",
                          "\"\\u00e9\"", "\"\\q\"", " ", "\\"};
  std::mt19937 rng(0xBEEF);
  std::uniform_int_distribution<int> count(1, 40);
  std::uniform_int_distribution<std::size_t> pick(
      0, sizeof(tokens) / sizeof(tokens[0]) - 1);
  for (int i = 0; i < 20000; ++i) {
    std::string line;
    const int n = count(rng);
    for (int j = 0; j < n; ++j) line += tokens[pick(rng)];
    const auto req = parse_like_oracle(line);
    if (!req.has_value()) {
      ASSERT_FALSE(req.error_message().empty()) << hex_escape(line);
    }
  }
}

TEST(ParseRequestFuzz, MutatedValidRequestsNeverCrash) {
  const std::string seed_line =
      R"({"id":12,"op":"admission_check","params":{"noc":{"width":4},)"
      R"("apps":[{"rate":0.125,"name":"cam"}],"strict":true}})";
  ASSERT_TRUE(parse_request(seed_line).has_value());
  std::mt19937 rng(0xDECAF);
  std::uniform_int_distribution<std::size_t> pos(0, seed_line.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> edits(1, 4);
  for (int i = 0; i < 20000; ++i) {
    std::string line = seed_line;
    const int n = edits(rng);
    for (int j = 0; j < n; ++j) {
      switch (byte(rng) % 3) {
        case 0:  // flip
          line[pos(rng) % line.size()] = static_cast<char>(byte(rng));
          break;
        case 1:  // delete
          line.erase(pos(rng) % line.size(), 1);
          break;
        default:  // insert
          line.insert(pos(rng) % line.size(), 1,
                      static_cast<char>(byte(rng)));
          break;
      }
      if (line.empty()) line = "x";
    }
    const auto req = parse_like_oracle(line);
    if (req.has_value()) {
      // Whatever survived mutation must still yield a usable identity.
      EXPECT_FALSE(req.value().key().empty());
    } else {
      ASSERT_FALSE(req.error_message().empty()) << hex_escape(line);
    }
  }
}

// --- ParamReader: indexed reads --------------------------------------------

TEST(ParamReader, CountsContiguousIndexedGroupsInOnePass) {
  exp::Params p;
  for (const char* key : {"apps.2.x", "apps.0.x", "apps.1.y", "apps.01.z",
                          "apps.3", "apps.x.y", "other.4.x", "apps.10.x"}) {
    p.set(key, 1);
  }
  EXPECT_EQ(ParamReader(p).count_indexed("apps", 32), 3);  // 0, 1, 2
  EXPECT_EQ(ParamReader(p).count_indexed("apps", 2), 2);
  EXPECT_EQ(ParamReader(p).count_indexed("other", 32), 0);
  EXPECT_EQ(ParamReader(p).count_indexed("app", 32), 0);
  EXPECT_EQ(ParamReader(p).count_indexed("apps", 0), 0);
}

TEST(ParamReader, FinishNamesTheFirstUnknownKeyInEntryOrder) {
  const auto key = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "k%d", i);
    return std::string(buf);
  };
  exp::Params p;
  for (int i = 0; i < 1000; ++i) p.set(key(i), i);
  p.set("flag", true);
  ParamReader all(p);
  for (int i = 999; i >= 0; --i) {
    EXPECT_EQ(all.get_int(key(i), -1, 0, 1000), i);
  }
  EXPECT_TRUE(all.get_bool("flag", false));
  EXPECT_FALSE(all.has("missing"));
  EXPECT_EQ(all.get_int("missing", 7, 0, 10), 7);
  all.finish();
  EXPECT_FALSE(all.failed()) << all.error();

  ParamReader some(p);
  (void)some.get_int("k0", 0, 0, 10);
  (void)some.get_int("k2", 0, 0, 10);
  some.finish();
  EXPECT_EQ(some.error(), "unknown parameter 'k1'");

  ParamReader wrong(p);
  (void)wrong.get_bool("k3", false);
  EXPECT_EQ(wrong.error(), "'k3' must be a boolean");
}

// --- Differential cases the fuzz corpora reach only by luck ---------------

std::string error_of(const std::string& line) {
  const auto req = parse_like_oracle(line);
  EXPECT_FALSE(req.has_value()) << line;
  return req.has_value() ? std::string() : req.error_message();
}

TEST(ParseRequestDifferential, SyntaxErrorWinsOverEarlierSemanticError) {
  // A null and an empty container have no parameter value, but the parse
  // fails later on syntax, and the syntax error is the one reported.
  EXPECT_EQ(error_of(R"({"id":1,"op":"x","params":{"a":null,}})"),
            "expected object key at byte 36");
  EXPECT_EQ(error_of(R"({"id":1,"op":"x","params":{"a":{},"b":[]},"c":})"),
            "bad number at byte 46");
  EXPECT_EQ(error_of(R"({"id":1,"op":"x","params":{"a":[]}} x)"),
            "trailing garbage after value at byte 36");
  // Without the syntax error, the first semantic error in key order wins.
  EXPECT_EQ(error_of(R"({"id":1,"op":"x","params":{"b":null,"a":[]}})"),
            "empty array parameter 'a'");
  EXPECT_EQ(error_of(R"({"id":1,"op":"x","params":{"k":{"b":1,"":2,"a.b":3}}})"),
            "empty key under 'k'");
  EXPECT_EQ(error_of(R"({"id":1,"op":"x","params":{"k":{"b":{},"a.b":3}}})"),
            "parameter key 'a.b' must not contain '.'");
}

TEST(ParseRequestDifferential, TheEmptyKeySortsFirst) {
  // "" sorts before every other key, at every level, so its error is the
  // one reported even when it comes last in the text.
  EXPECT_EQ(error_of(R"({"id":-1,"op":"x","":1})"),
            "unknown request member ''");
  EXPECT_EQ(error_of(R"({"id":1,"op":"x","params":{"a":null,"":2}})"),
            "empty key under ''");
  EXPECT_EQ(error_of(R"({"id":1,"op":"x","params":{"k":{"a":null,"":2}}})"),
            "empty key under 'k'");
}

TEST(ParseRequestDifferential, EnvelopeMembersAreCheckedInKeyOrder) {
  // "aaa" sorts before "id": the unknown member is reported, not the id.
  EXPECT_EQ(error_of(R"({"id":-1,"aaa":1,"op":"x"})"),
            "unknown request member 'aaa'");
  EXPECT_EQ(error_of(R"({"zzz":1,"id":-1,"op":"x"})"),
            "'id' must be a non-negative integer");
  EXPECT_EQ(error_of(R"({"params":{"a":null},"op":7,"id":1})"),
            "'op' must be a non-empty string");
  EXPECT_EQ(error_of(R"({"params":{"a":null},"op":"x","id":1,"q":1})"),
            "null is not a valid parameter value ('a')");
  EXPECT_EQ(error_of(R"({"params":[1],"id":1,"op":"x"})"),
            "params must be a JSON object");
}

TEST(ParseRequestDifferential, DuplicateKeysReportTheirByteOffset) {
  // The offset is the end of the duplicate member's value.
  EXPECT_EQ(error_of(R"({"id":1,"op":"x","params":{"a":1,"a":22}})"),
            "duplicate object key at byte 39");
  EXPECT_EQ(error_of(R"({"id":1,"id":2,"op":"x"})"),
            "duplicate object key at byte 14");
  // A duplicate wins over a later syntax error in the same object...
  EXPECT_EQ(error_of(R"({"id":1,"op":"x","params":{"a":1,"a":2,"b":})"),
            "duplicate object key at byte 38");
  // ...over a later duplicate nested deeper...
  EXPECT_EQ(error_of(R"({"id":1,"id":2,"p":{"b":1,"b":2}})"),
            "duplicate object key at byte 14");
  // ...and over a later syntax error in a closed sibling's parent.
  EXPECT_EQ(error_of(R"({"a":{"b":1},"a":2,"c":[1,2,})"),
            "duplicate object key at byte 18");
  // A nested duplicate is found before a later one outside it.
  EXPECT_EQ(error_of(R"({"p":{"b":1,"b":2},"p":1})"),
            "duplicate object key at byte 17");
  // A duplicate straight before a syntax error at the same byte.
  EXPECT_EQ(error_of(R"({"a":1,"a":2x})"), "duplicate object key at byte 12");
}

TEST(ParseRequestDifferential, NumbersKeepTheirKindAndRange) {
  for (const char* big : {"1e999", "1e-400", "4e-320", "-1e999"}) {
    EXPECT_EQ(error_of(std::string(R"({"id":1,"op":"x","params":{"v":)") +
                       big + "}}"),
              "unrepresentable number at byte 31")
        << big;
  }
  const auto over = parse_like_oracle(
      R"({"id":1,"op":"x","params":{"v":9223372036854775808}})");
  ASSERT_TRUE(over.has_value());
  EXPECT_EQ(over.value().key(), "x\nv\td:0x1p+63\n");
  const auto zero =
      parse_like_oracle(R"({"id":1,"op":"x","params":{"v":-0,"w":-0.0}})");
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ(zero.value().key(), "x\nv\ti:0\nw\td:-0x0p+0\n");
  const auto edge = parse_like_oracle(
      R"({"id":-0,"op":"x","params":{"min":-9223372036854775808,)"
      R"("tiny":2.2250738585072014e-308,"max":1.7976931348623157e308,)"
      R"("e":1E+2,"zero":0e5}})");
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(edge.value().id, 0);
}

// The oracle shares the number reader, so numbers get their own oracle:
// an integral text that strtoll takes is an int, anything else is what
// strtod makes of it, and an errno from strtod is a refusal.
TEST(ParseRequestDifferential, NumbersReadAsStrtollAndStrtodDo) {
  std::mt19937_64 rng(0x5EED);
  const auto digits = [&rng](int n) {
    std::string d;
    for (int i = 0; i < n; ++i) d += static_cast<char>('0' + rng() % 10);
    if (d.size() > 1 && d[0] == '0') d[0] = static_cast<char>('1' + rng() % 9);
    return d;
  };
  for (int i = 0; i < 100000; ++i) {
    std::string text = rng() % 4 == 0 ? "-" : "";
    text += rng() % 5 == 0 ? "0" : digits(1 + static_cast<int>(rng() % 20));
    if (rng() % 3 != 0) {
      text += '.';
      text += std::to_string(rng() % 10);
      text += digits(static_cast<int>(rng() % 19));
    }
    if (rng() % 4 == 0) {
      text += rng() % 2 ? "e" : "E";
      text += rng() % 3 == 0 ? "-" : rng() % 2 ? "+" : "";
      text += std::to_string(rng() % 400);
    }
    const std::string line = R"({"id":1,"op":"x","params":{"v":)" + text + "}}";
    std::string want;
    errno = 0;
    char* end = nullptr;
    const long long as_int = std::strtoll(text.c_str(), &end, 10);
    if (errno == 0 && *end == '\0') {
      want = "x\nv\ti:" + std::to_string(as_int) + "\n";
    } else {
      errno = 0;
      const double d = std::strtod(text.c_str(), &end);
      char buf[64];
      std::snprintf(buf, sizeof buf, "%a", d);
      want = errno != 0 ? "unrepresentable number at byte 31"
                        : "x\nv\td:" + std::string(buf) + "\n";
    }
    const auto got = parse_request(line);
    ASSERT_EQ(got.has_value() ? got.value().key() : got.error_message(), want)
        << text;
  }
}

TEST(ParseRequestDifferential, ArraysKeepElementOrderAndEscapesDecode) {
  std::string apps;
  for (int i = 0; i < 12; ++i) {
    if (i) apps += ',';
    apps += "{\"r\":" + std::to_string(i) + "}";
  }
  const auto req = parse_like_oracle(
      R"({"id":1,"op":"x","params":{"apps":[)" + apps +
      R"(],"s\u00e9":"a\"b\\c\n","m":[[1,2],[3]]}})");
  ASSERT_TRUE(req.has_value());
  const auto& e = req.value().params.entries();
  ASSERT_EQ(e.size(), 16u);
  EXPECT_EQ(e[2].first, "apps.2.r");
  EXPECT_EQ(e[10].first, "apps.10.r");
  EXPECT_EQ(e[12].first, "m.0.0");
  EXPECT_EQ(e[15].first, "s\xc3\xa9");
  ASSERT_EQ(e[15].second.kind(), exp::Value::Kind::kString);
  EXPECT_EQ(e[15].second.as_string(), "a\"b\\c\n");
}

// serve_mix-shaped requests (admission_check with 2-16 apps, wcd_bound,
// nc_delay), with member order shuffled at every level and random
// whitespace between tokens. With `saturating`, one admission_check in
// four crowds its apps onto the first two mesh rows at up to 12x the rate,
// so that route flips and rejections are common.
class MixWriter {
 public:
  explicit MixWriter(std::uint32_t seed, bool saturating = false)
      : rng_(seed), saturating_(saturating) {}

  std::string request(std::int64_t id) {
    out_.clear();
    const int pick = static_cast<int>(rng_() % 20);
    const char* op =
        pick < 8 ? "admission_check" : pick < 15 ? "wcd_bound" : "nc_delay";
    std::vector<std::pair<std::string, std::string>> members = {
        {"id", std::to_string(id)},
        {"op", std::string("\"") + op + "\""},
        {"params", pick < 8 ? admission() : pick < 15 ? wcd() : nc()}};
    return object(members);
  }

 private:
  std::string ws() {
    static const char* kWs[] = {"", "", "", " ", "\t", "\n  ", "\r\n"};
    return kWs[rng_() % 7];
  }
  std::string num(double v) {
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
  }
  std::string uniform(int lo, int hi) {
    return std::to_string(lo + static_cast<int>(rng_() % (hi - lo + 1)));
  }
  std::string object(std::vector<std::pair<std::string, std::string>> m) {
    std::shuffle(m.begin(), m.end(), rng_);
    std::string o = "{";
    o += ws();
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (i) o += ',';
      o += ws();
      o += '"';
      o += m[i].first + "\"" + ws() + ":" + ws() + m[i].second + ws();
    }
    return o + "}";
  }
  std::string admission() {
    const bool hot = saturating_ && rng_() % 4 == 0;
    const int rate_scale = hot ? 12 : 1;
    const int max_y = hot ? 1 : 7;
    const int n = 2 + static_cast<int>(rng_() % 15);
    std::string apps = "[";
    apps += ws();
    for (int i = 0; i < n; ++i) {
      if (i) apps += ',';
      apps += ws();
      apps += object({{"burst", uniform(1, 8)},
                      {"rate", num(0.001 * rate_scale * (1 + rng_() % 12))},
                      {"src_x", uniform(0, 7)},
                      {"src_y", uniform(0, max_y)},
                      {"dst_x", uniform(0, 7)},
                      {"dst_y", uniform(0, max_y)},
                      {"deadline_ns", num(100.0 * (10 + rng_() % 51) +
                                          (rng_() % 4 ? 0.0 : 20000.0) +
                                          1e-3 * (rng_() % 1000))},
                      {"uses_dram", rng_() % 4 ? "false" : "true"},
                      {"critical", rng_() % 3 ? "true" : "false"}});
    }
    return object({{"mesh_cols", "8"}, {"mesh_rows", "8"}, {"apps", apps + "]"}});
  }
  std::string wcd() {
    static const char* kPolicies[] = {"frfcfs", "fcfs", "close_page",
                                      "starvation_guard"};
    static const char* kDevices[] = {"ddr3_1600", "ddr4_2400", "lpddr4_3200"};
    return object(
        {{"write_gbps", num(0.5 + 0.1 * (rng_() % 56))},
         {"n", uniform(1, 64)},
         {"burst_requests", num(8.0 + 1e-6 * (rng_() % 100000))},
         {"dram", object({{"policy", std::string("\"") + kPolicies[rng_() % 4] + "\""},
                          {"device", std::string("\"") + kDevices[rng_() % 3] + "\""}})}});
  }
  std::string nc() {
    return object(
        {{"arrival", object({{"burst", num(1.0 + rng_() % 64 + 1e-3 * (rng_() % 1000))},
                             {"rate", num(0.5 + 0.1 * (rng_() % 101))}})},
         {"service", object({{"rate", "12.8"}, {"latency_ns", uniform(50, 550)}})}});
  }

  std::mt19937 rng_;
  bool saturating_;
  std::string out_;
};

TEST(ParseRequestDifferential, ServeMixShapedRequestsMatchTheOracle) {
  MixWriter writer(0x5E12u);
  for (std::int64_t i = 0; i < 10000; ++i) {
    const std::string line = writer.request(i);
    const auto req = parse_like_oracle(line);
    ASSERT_TRUE(req.has_value()) << line << ": " << req.error_message();
  }
}

// The bytes papd answers a cold request with: ok_reply(id,
// render_result(dispatch(...))) (or error_reply) over a seeded
// serve_mix-shaped set, folded into one FNV-1a digest. A change to an
// admission engine, a handler or the renderer that moves a single byte of
// any reply fails here, which a verifier rendering with the same code
// cannot catch. The counts pin the set's shape: many admission_check
// requests, with grants, rejections and rejections on both routes.
TEST(Replies, ServeMixReplyBytesKeepTheirDigest) {
  MixWriter writer(0xD16E57u, /*saturating=*/true);
  std::uint64_t digest = kFnv1aOffset;
  int admission = 0, granted = 0, rejected = 0, both_routes = 0,
      saturated = 0, errors = 0;
  const auto count = [](const std::string& s, const std::string& needle) {
    int n = 0;
    for (auto p = s.find(needle); p != s.npos; p = s.find(needle, p + 1)) ++n;
    return n;
  };
  for (std::int64_t i = 0; i < 5200; ++i) {
    const auto req = parse_request(writer.request(i));
    ASSERT_TRUE(req.has_value()) << req.error_message();
    const Request& r = req.value();
    const HandlerOutcome out = dispatch(r.op, r.params, HandlerLimits{});
    const std::string reply =
        out.ok ? ok_reply(r.id, render_result(out.result))
               : error_reply(r.id, out.error.code, out.error.message);
    digest = fnv1a_byte(fnv1a(reply, digest), '\n');
    if (!out.ok) ++errors;
    if (r.op != "admission_check") continue;
    ++admission;
    granted += count(reply, ".admitted\":true");
    rejected += count(reply, ".admitted\":false");
    both_routes += count(reply, "(alternate route also fails)");
    saturated += count(reply, "without a bounded");
  }
  EXPECT_EQ(admission, 2038);
  EXPECT_EQ(granted, 14315);
  EXPECT_EQ(rejected, 3946);
  EXPECT_EQ(both_routes, rejected);  // each rejection tried the flipped route
  EXPECT_EQ(saturated, 2523);
  EXPECT_EQ(errors, 0);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  EXPECT_STREQ(hex, "e8569ab22a35eb3a");
}

}  // namespace
}  // namespace pap::serve
