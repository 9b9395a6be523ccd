// Parser and canonical printer for the `.pap` scenario format.
//
// The knob tables below (kSocKnobs, kDramKnobs, kAdmissionKnobs,
// kMasterKnobs, kAppKnobs) are the single list of `.pap` knobs: each entry
// names a key, the field it sets and, through that field's type, its value
// format. One generic driver parses through them, prints them in table
// order and maps validator messages back to the line that set a knob.
// Values follow the shared grammar of common/grammar.hpp.
//
// Parsing is strict and eager: the first offence wins and every error
// carries the 1-based `line L, col C:` position of the offending token
// (the serve::json convention). Printing is canonical: fixed knob order,
// fixed value formats, so parse -> print -> parse round-trips
// byte-identically (the fault::FaultPlan precedent) and generated
// scenario families are byte-stable across processes.
#include "scenario/scenario.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string_view>
#include <variant>

#include "common/grammar.hpp"
#include "dram/controller.hpp"
#include "dram/policy.hpp"
#include "dram/timing.hpp"

namespace pap::scenario {

std::string to_string(Kind kind) {
  switch (kind) {
    case Kind::kSoc: return "soc";
    case Kind::kDram: return "dram";
    case Kind::kAdmission: return "admission";
  }
  return "?";
}

namespace {

// ---------------------------------------------------------------------------
// The knob tables.

/// Two ints spelled `A<sep>B`: `mesh CxR`, `src=X,Y`.
template <class T>
struct IntPair {
  int T::*first;
  int T::*second;
  char sep;
};

/// A double that also accepts the exact rational `A/B` (how fig6 writes
/// packet rates); the quotient must be finite like any other double.
template <class T>
struct Rate {
  double T::*field;
};

/// The field a knob sets; its type picks the value format: on|off,
/// integer, double, duration, non-empty token, DRAM policy name, fault
/// plan, rate or int pair.
template <class T>
using Field = std::variant<bool T::*, int T::*, std::uint64_t T::*,
                           double T::*, Time T::*, std::string T::*,
                           dram::PolicyKind T::*, fault::FaultPlan T::*,
                           Rate<T>, IntPair<T>>;

constexpr int kCountMax = 1'000'000;    ///< hogs, reads per batch
constexpr int kIntMax = 1'000'000'000;  ///< every other int knob

/// Master kinds a master key applies to, one bit per MasterSpec::Kind.
constexpr unsigned kReader = 1u << 0, kHog = 1u << 1, kTrace = 1u << 2;
constexpr unsigned kAnyKind = kReader | kHog | kTrace;

template <class T>
struct Knob {
  const char* key;
  Field<T> field;
  int max = kIntMax;  ///< int knobs: largest accepted value
  /// The word validate() messages start with when they name this knob, if
  /// it is not `key`.
  const char* validator_name = nullptr;
  unsigned kinds = kAnyKind;  ///< master knobs only
  bool required = false;      ///< app knobs only
};

using Soc = platform::ScenarioConfig;
constexpr Knob<Soc> kSocKnobs[] = {
    {.key = "sim_time", .field = &Soc::sim_time},
    {.key = "hogs", .field = &Soc::hogs, .max = kCountMax},
    {.key = "dsu", .field = &Soc::dsu_partitioning},
    {.key = "memguard", .field = &Soc::memguard},
    {.key = "mpam_bw", .field = &Soc::mpam_bw},
    {.key = "stop_the_world", .field = &Soc::stop_the_world},
    {.key = "hog_budget", .field = &Soc::hog_budget_per_period,
     .validator_name = "hog_budget_per_period"},
    {.key = "memguard_period", .field = &Soc::memguard_period},
    // "scenario has no masters (rt_enabled is false, ...)"
    {.key = "rt", .field = &Soc::rt_enabled, .validator_name = "scenario"},
    {.key = "rt_period", .field = &Soc::rt_period},
    {.key = "rt_reads_per_batch", .field = &Soc::rt_reads_per_batch,
     .max = kCountMax},
    {.key = "rt_working_set", .field = &Soc::rt_working_set},
    {.key = "dram_policy", .field = &Soc::dram_policy},
    {.key = "dram_device", .field = &Soc::dram_device},
    // "fault plan: ..."
    {.key = "faults", .field = &Soc::fault_plan, .validator_name = "fault"},
};

constexpr Knob<DramScenario> kDramKnobs[] = {
    {.key = "sim_time", .field = &DramScenario::sim_time},
    {.key = "device", .field = &DramScenario::device},
    {.key = "banks", .field = &DramScenario::banks},
    {.key = "w_high", .field = &DramScenario::w_high},
    {.key = "w_low", .field = &DramScenario::w_low},
    {.key = "n_wd", .field = &DramScenario::n_wd},
    {.key = "read_period", .field = &DramScenario::read_period},
    {.key = "read_bank", .field = &DramScenario::read_bank},
    {.key = "read_stride", .field = &DramScenario::read_stride},
    {.key = "write_rate_gbps", .field = &DramScenario::write_rate_gbps},
    {.key = "write_burst", .field = &DramScenario::write_burst},
    {.key = "write_bank", .field = &DramScenario::write_bank},
};

using Adm = AdmissionScenario;
constexpr Knob<Adm> kAdmissionKnobs[] = {
    {.key = "mesh",
     .field = IntPair<Adm>{&Adm::mesh_cols, &Adm::mesh_rows, 'x'}},
    {.key = "link_rate_gbps", .field = &Adm::link_rate_gbps},
    {.key = "rm_node", .field = &Adm::rm_node},
    {.key = "burst_factor", .field = &Adm::burst_factor},
    {.key = "packets", .field = &Adm::packets},
    {.key = "enforce", .field = &Adm::enforce},
};

/// `master NAME reader|hog|trace key=value ...`; one ordered list yields
/// every kind's print order.
using Master = platform::MasterSpec;
constexpr const char* kMasterKindNames[] = {"reader", "hog", "trace"};
constexpr Knob<Master> kMasterKnobs[] = {
    {.key = "period", .field = &Master::period, .kinds = kReader},
    {.key = "reads_per_batch", .field = &Master::reads_per_batch,
     .max = kCountMax, .kinds = kReader},
    {.key = "base", .field = &Master::base, .kinds = kReader | kHog},
    {.key = "working_set", .field = &Master::working_set,
     .kinds = kReader | kHog},
    {.key = "writes", .field = &Master::writes, .kinds = kReader},
    {.key = "write_fraction", .field = &Master::write_fraction, .kinds = kHog},
    {.key = "think_time", .field = &Master::think_time, .kinds = kHog},
    {.key = "seed", .field = &Master::seed, .kinds = kHog},
    {.key = "file", .field = &Master::trace_path, .kinds = kTrace},
    {.key = "critical", .field = &Master::critical},
    {.key = "paused", .field = &Master::start_paused},
};

/// `app ID key=value ...`
using App = AdmissionApp;
constexpr Knob<App> kAppKnobs[] = {
    {.key = "burst", .field = &App::burst, .required = true},
    {.key = "rate", .field = Rate<App>{&App::rate}, .required = true},
    {.key = "src", .field = IntPair<App>{&App::src_x, &App::src_y, ','},
     .required = true},
    {.key = "dst", .field = IntPair<App>{&App::dst_x, &App::dst_y, ','},
     .required = true},
    {.key = "deadline", .field = &App::deadline, .required = true},
    {.key = "dram", .field = &App::uses_dram},
};

/// Position slots per scalar table; master and app keys are `seen` bits.
constexpr std::size_t kMaxKnobs = std::max(
    {std::size(kSocKnobs), std::size(kDramKnobs), std::size(kAdmissionKnobs)});
static_assert(std::size(kMasterKnobs) <= 32 && std::size(kAppKnobs) <= 32);

// ---------------------------------------------------------------------------
// Value formats.

template <class... F>
struct Overload : F... {
  using F::operator()...;
};
template <class... F>
Overload(F...) -> Overload<F...>;

bool parse_onoff(std::string_view s, bool* out) {
  if (s == "on") return (*out = true, true);
  if (s == "off") return (*out = false, true);
  return false;
}

bool parse_rate(std::string_view s, double* out) {
  const std::size_t slash = s.find('/');
  if (slash == std::string_view::npos) return parse_double(s, out);
  double num = 0.0, den = 0.0;
  if (!parse_double(s.substr(0, slash), &num) ||
      !parse_double(s.substr(slash + 1), &den) || den == 0.0) {
    return false;
  }
  *out = num / den;
  return std::isfinite(*out);
}

bool parse_name(std::string_view s, std::string* out) {
  if (s.size() > 64 || !is_name(s)) return false;
  out->assign(s);
  return true;
}

/// Parses `v` into `obj`'s knob `k`. False on a bad value; `why` is set
/// when the knob's own parser explains the rejection (policy, fault plan).
template <class T>
bool parse_value(const Knob<T>& k, std::string_view v, T& obj,
                 std::string* why) {
  const auto take = [why](auto parsed, auto& into) {
    if (!parsed) return (*why = parsed.error_message(), false);
    into = std::move(parsed).value();
    return true;
  };
  return std::visit(
      Overload{
          [&](bool T::*f) { return parse_onoff(v, &(obj.*f)); },
          [&](int T::*f) { return parse_int(v, 0, k.max, &(obj.*f)); },
          [&](std::uint64_t T::*f) { return parse_u64(v, &(obj.*f)); },
          [&](double T::*f) { return parse_double(v, &(obj.*f)); },
          [&](Time T::*f) { return parse_duration(v, &(obj.*f)); },
          [&](std::string T::*f) {
            (obj.*f).assign(v);
            return !v.empty();
          },
          [&](dram::PolicyKind T::*f) {
            return take(dram::parse_policy(std::string(v)), obj.*f);
          },
          [&](fault::FaultPlan T::*f) {
            return take(fault::FaultPlan::parse(std::string(v)), obj.*f);
          },
          [&](Rate<T> r) { return parse_rate(v, &(obj.*r.field)); },
          [&](IntPair<T> p) {
            const std::size_t sep = v.find(p.sep);
            return sep != std::string_view::npos &&
                   parse_int(v.substr(0, sep), 0, k.max, &(obj.*p.first)) &&
                   parse_int(v.substr(sep + 1), 0, k.max, &(obj.*p.second));
          },
      },
      k.field);
}

/// Appends the canonical spelling of `obj`'s knob `k`.
template <class T>
void append_value(const Knob<T>& k, const T& obj, std::string* out) {
  std::visit(
      Overload{
          [&](bool T::*f) { out->append(obj.*f ? "on" : "off"); },
          [&](int T::*f) { out->append(std::to_string(obj.*f)); },
          [&](std::uint64_t T::*f) { out->append(std::to_string(obj.*f)); },
          [&](double T::*f) { out->append(format_double(obj.*f)); },
          [&](Time T::*f) { out->append(format_duration(obj.*f)); },
          [&](std::string T::*f) { out->append(obj.*f); },
          [&](dram::PolicyKind T::*f) {
            out->append(dram::to_string(obj.*f));
          },
          [&](fault::FaultPlan T::*f) { out->append((obj.*f).canonical()); },
          [&](Rate<T> r) { out->append(format_double(obj.*r.field)); },
          [&](IntPair<T> p) {
            out->append(std::to_string(obj.*p.first));
            out->push_back(p.sep);
            out->append(std::to_string(obj.*p.second));
          },
      },
      k.field);
}

/// `key value` lines in table order; a knob with an empty value (the
/// empty fault plan) prints no line.
template <class T, std::size_t N>
void print_scalars(const Knob<T> (&table)[N], const T& obj, std::string* out) {
  for (const Knob<T>& k : table) {
    const std::size_t line_start = out->size();
    out->append(k.key).push_back(' ');
    const std::size_t value_start = out->size();
    append_value(k, obj, out);
    if (out->size() == value_start) {
      out->resize(line_start);
    } else {
      out->push_back('\n');
    }
  }
}

/// ` key=value` for every knob of `table` that applies to `kind_bit`.
template <class T, std::size_t N>
void print_kv(const Knob<T> (&table)[N], unsigned kind_bit, const T& obj,
              std::string* out) {
  for (const Knob<T>& k : table) {
    if ((k.kinds & kind_bit) == 0) continue;
    out->append(" ").append(k.key).push_back('=');
    append_value(k, obj, out);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Kind-payload validation.

Status DramScenario::validate() const {
  if (sim_time <= Time::zero()) {
    return Status::error("sim_time must be positive, got " +
                         sim_time.to_string());
  }
  if (const auto dev = dram::device_by_name(device); !dev) {
    return Status::error("device: " + dev.error_message());
  }
  if (banks < 1) {
    return Status::error("banks must be >= 1, got " + std::to_string(banks));
  }
  if (read_period <= Time::zero()) {
    return Status::error("read_period must be positive, got " +
                         read_period.to_string());
  }
  if (read_bank < 0 || read_bank >= banks) {
    return Status::error("read_bank must be in [0, " + std::to_string(banks) +
                         "), got " + std::to_string(read_bank));
  }
  if (read_stride < 0) {
    return Status::error("read_stride must be non-negative, got " +
                         std::to_string(read_stride));
  }
  if (write_rate_gbps <= 0.0) {
    return Status::error("write_rate_gbps must be positive, got " +
                         format_double(write_rate_gbps));
  }
  if (write_burst < 1.0) {
    return Status::error("write_burst must be >= 1, got " +
                         format_double(write_burst));
  }
  if (write_bank < 0 || write_bank >= banks) {
    return Status::error("write_bank must be in [0, " + std::to_string(banks) +
                         "), got " + std::to_string(write_bank));
  }
  // Watermark / batch rules live with the controller builder; reuse them so
  // the scenario layer can never construct an aborting controller.
  const auto params = dram::ControllerConfig{}
                          .watermarks(w_high, w_low)
                          .n_wd(n_wd)
                          .banks(banks)
                          .build();
  if (!params) return Status::error("w_high: " + params.error_message());
  return Status::ok();
}

Status AdmissionScenario::validate() const {
  if (mesh_cols < 1 || mesh_rows < 1 || mesh_cols > 64 || mesh_rows > 64) {
    return Status::error("mesh must be between 1x1 and 64x64, got " +
                         std::to_string(mesh_cols) + "x" +
                         std::to_string(mesh_rows));
  }
  if (link_rate_gbps <= 0.0) {
    return Status::error("link_rate_gbps must be positive, got " +
                         format_double(link_rate_gbps));
  }
  if (rm_node < 0 || rm_node >= mesh_cols * mesh_rows) {
    return Status::error("rm_node must be a mesh node in [0, " +
                         std::to_string(mesh_cols * mesh_rows) + "), got " +
                         std::to_string(rm_node));
  }
  if (burst_factor < 1.0) {
    return Status::error("burst_factor must be >= 1, got " +
                         format_double(burst_factor));
  }
  if (packets < 1 || packets > 1'000'000) {
    return Status::error("packets must be in [1, 1000000], got " +
                         std::to_string(packets));
  }
  if (apps.empty()) {
    return Status::error("admission scenario needs at least one app line");
  }
  for (const AdmissionApp& a : apps) {
    const std::string who = "app " + std::to_string(a.id) + ": ";
    if (a.id < 1) {
      return Status::error("app id must be >= 1, got " + std::to_string(a.id));
    }
    const auto dup = std::count_if(
        apps.begin(), apps.end(),
        [&a](const AdmissionApp& o) { return o.id == a.id; });
    if (dup > 1) {
      return Status::error(who + "app id is not unique");
    }
    if (a.burst <= 0.0) {
      return Status::error(who + "burst must be positive, got " +
                           format_double(a.burst));
    }
    if (a.rate <= 0.0) {
      return Status::error(who + "rate must be positive, got " +
                           format_double(a.rate));
    }
    if (a.src_x < 0 || a.src_x >= mesh_cols || a.src_y < 0 ||
        a.src_y >= mesh_rows) {
      return Status::error(who + "src " + std::to_string(a.src_x) + "," +
                           std::to_string(a.src_y) + " is outside the " +
                           std::to_string(mesh_cols) + "x" +
                           std::to_string(mesh_rows) + " mesh");
    }
    if (a.dst_x < 0 || a.dst_x >= mesh_cols || a.dst_y < 0 ||
        a.dst_y >= mesh_rows) {
      return Status::error(who + "dst " + std::to_string(a.dst_x) + "," +
                           std::to_string(a.dst_y) + " is outside the " +
                           std::to_string(mesh_cols) + "x" +
                           std::to_string(mesh_rows) + " mesh");
    }
    if (a.deadline <= Time::zero()) {
      return Status::error(who + "deadline must be positive, got " +
                           a.deadline.to_string());
    }
  }
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Canonical printer.

std::string Scenario::canonical() const {
  std::string out = "scenario " + to_string(kind) + "\nname " + name + "\n";
  switch (kind) {
    case Kind::kSoc: {
      print_scalars(kSocKnobs, soc, &out);
      for (const platform::MasterSpec& m : soc.masters) {
        const auto kind_index = static_cast<std::size_t>(m.kind);
        out.append("master ").append(m.name).push_back(' ');
        out.append(kMasterKindNames[kind_index]);
        print_kv(kMasterKnobs, 1u << kind_index, m, &out);
        out.push_back('\n');
      }
      for (const platform::PhaseSpec& p : soc.phases) {
        out.append("phase ").append(format_duration(p.at));
        out.append(p.action == platform::PhaseSpec::Action::kStart
                       ? " start "
                       : " stop ");
        out.append(p.master).push_back('\n');
      }
      break;
    }
    case Kind::kDram:
      print_scalars(kDramKnobs, dram, &out);
      break;
    case Kind::kAdmission:
      print_scalars(kAdmissionKnobs, admission, &out);
      for (const AdmissionApp& app : admission.apps) {
        out.append("app ").append(std::to_string(app.id));
        print_kv(kAppKnobs, kAnyKind, app, &out);
        out.push_back('\n');
      }
      break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Parser.

namespace {

struct Tok {
  std::string_view text;
  int col = 1;  ///< 1-based byte column of the token's first character
};

void tokenize(std::string_view line, std::vector<Tok>* out) {
  out->clear();
  std::size_t i = 0;
  while (i < line.size()) {
    if (line[i] == ' ' || line[i] == '\t') {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    out->push_back({line.substr(start, i - start), static_cast<int>(start + 1)});
  }
}

/// Where a knob was set; line 0 = not set.
struct Pos {
  int line = 0;
  int col = 1;
};

Status error_at(int line, int col, const std::string& msg) {
  return Status::error("line " + std::to_string(line) + ", col " +
                       std::to_string(col) + ": " + msg);
}

/// Everything one parse records about where knobs were set, for duplicate
/// detection and for positioning validator messages.
struct Positions {
  std::array<Pos, kMaxKnobs> knob;  ///< scalar knobs, by table index
  Pos name, phase;                  ///< `name`; the first `phase` line
  std::vector<Pos> masters;         ///< parallel to ScenarioConfig::masters
  std::vector<Pos> apps;            ///< parallel to AdmissionScenario::apps
};

/// The `key=value` tokens of a master or app line (from `toks[first]` on)
/// into `obj`, through the knobs of `table` that apply to `kind_bit`.
/// `what` names the line in messages ("master", "app"); `kind_what` is how
/// an unknown key's line is named ("hog master", "app"). `seen_out` gets
/// the table indices that were set, one bit each.
template <class T, std::size_t N>
Status parse_kv(const Knob<T> (&table)[N], unsigned kind_bit,
                const std::vector<Tok>& toks, std::size_t first, int line,
                const std::string& what, const std::string& kind_what,
                T& obj, std::uint32_t* seen_out = nullptr) {
  std::uint32_t seen = 0;
  std::string why;
  for (std::size_t i = first; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    const std::size_t eq = t.text.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return error_at(line, t.col,
                      "expected key=value, got '" + std::string(t.text) + "'");
    }
    const std::string_view key = t.text.substr(0, eq);
    const std::string_view value = t.text.substr(eq + 1);
    std::size_t k = 0;
    while (k < N && !(table[k].key == key && (table[k].kinds & kind_bit))) ++k;
    if (k == N) {
      return error_at(line, t.col, "unknown " + kind_what + " key '" +
                                       std::string(key) + "'");
    }
    if (seen & (1u << k)) {
      return error_at(line, t.col, "duplicate " + what + " key '" +
                                       std::string(key) + "'");
    }
    seen |= 1u << k;
    if (!parse_value(table[k], value, obj, &why)) {
      return error_at(line, t.col + static_cast<int>(eq) + 1,
                      "bad value '" + std::string(value) + "' for " + what +
                          " key '" + std::string(key) + "'");
    }
  }
  if (seen_out != nullptr) *seen_out = seen;
  return Status::ok();
}

/// `master NAME reader|hog|trace k=v ...`
Status parse_master_line(const std::vector<Tok>& toks, int line,
                         platform::ScenarioConfig& soc, Positions& pos) {
  if (toks.size() < 3) {
    return error_at(line, toks[0].col,
                    "expected 'master NAME reader|hog|trace [key=value...]'");
  }
  platform::MasterSpec m;
  if (!parse_name(toks[1].text, &m.name)) {
    return error_at(line, toks[1].col,
                    "master name must match [a-z0-9_]+ (max 64 chars), got '" +
                        std::string(toks[1].text) + "'");
  }
  const std::string kind(toks[2].text);
  std::size_t kind_index = 0;
  while (kind_index < 3 && kind != kMasterKindNames[kind_index]) ++kind_index;
  if (kind_index == 3) {
    return error_at(line, toks[2].col,
                    "master kind must be reader, hog or trace, got '" + kind +
                        "'");
  }
  m.kind = static_cast<platform::MasterSpec::Kind>(kind_index);
  if (Status st = parse_kv(kMasterKnobs, 1u << kind_index, toks, 3, line,
                           "master", kind + " master", m);
      !st.is_ok()) {
    return st;
  }
  soc.masters.push_back(std::move(m));
  pos.masters.push_back({line, toks[1].col});
  return Status::ok();
}

/// `phase DUR start|stop NAME`
Status parse_phase_line(const std::vector<Tok>& toks, int line,
                        platform::ScenarioConfig& soc, Positions& pos) {
  if (toks.size() != 4) {
    return error_at(line, toks[0].col,
                    "expected 'phase DURATION start|stop MASTER'");
  }
  platform::PhaseSpec p;
  if (!parse_duration(toks[1].text, &p.at)) {
    return error_at(line, toks[1].col, "bad phase time '" +
                                           std::string(toks[1].text) +
                                           "' (want e.g. 200us)");
  }
  if (toks[2].text == "start") {
    p.action = platform::PhaseSpec::Action::kStart;
  } else if (toks[2].text == "stop") {
    p.action = platform::PhaseSpec::Action::kStop;
  } else {
    return error_at(line, toks[2].col,
                    "phase action must be start or stop, got '" +
                        std::string(toks[2].text) + "'");
  }
  if (!parse_name(toks[3].text, &p.master)) {
    return error_at(line, toks[3].col,
                    "bad phase master name '" + std::string(toks[3].text) +
                        "'");
  }
  soc.phases.push_back(std::move(p));
  if (pos.phase.line == 0) pos.phase = {line, toks[0].col};
  return Status::ok();
}

/// `app ID burst=F rate=R src=X,Y dst=X,Y deadline=DUR [dram=on|off]`
Status parse_app_line(const std::vector<Tok>& toks, int line,
                      AdmissionScenario& adm, Positions& pos) {
  if (toks.size() < 2) {
    return error_at(line, toks[0].col, "expected 'app ID key=value...'");
  }
  AdmissionApp a;
  if (!parse_int(toks[1].text, 0, kIntMax, &a.id)) {
    return error_at(line, toks[1].col,
                    "bad app id '" + std::string(toks[1].text) + "'");
  }
  std::uint32_t seen = 0;
  if (Status st = parse_kv(kAppKnobs, kAnyKind, toks, 2, line, "app", "app",
                           a, &seen);
      !st.is_ok()) {
    return st;
  }
  for (std::size_t k = 0; k < std::size(kAppKnobs); ++k) {
    if (kAppKnobs[k].required && !(seen & (1u << k))) {
      return error_at(line, toks[0].col,
                      "app " + std::to_string(a.id) +
                          " is missing required key '" + kAppKnobs[k].key +
                          "'");
    }
  }
  adm.apps.push_back(a);
  pos.apps.push_back({line, toks[0].col});
  return Status::ok();
}

/// A scalar `key value` line of the kind whose knobs are `table`.
template <class T, std::size_t N>
Status parse_scalar(const Knob<T> (&table)[N], const std::vector<Tok>& toks,
                    int line, Kind kind, T& obj, Positions& pos) {
  const Tok& key = toks[0];
  std::size_t k = 0;
  while (k < N && table[k].key != key.text) ++k;
  if (k == N) {
    return error_at(line, key.col,
                    "unknown key '" + std::string(key.text) + "' for a " +
                        to_string(kind) + " scenario");
  }
  if (pos.knob[k].line != 0) {
    return error_at(line, key.col,
                    "duplicate key '" + std::string(key.text) + "'");
  }
  const Tok& val = toks[1];
  std::string why;
  if (!parse_value(table[k], val.text, obj, &why)) {
    return error_at(line, val.col,
                    why.empty() ? "bad value '" + std::string(val.text) +
                                      "' for '" + table[k].key +
                                      "' (want a canonical " + table[k].key +
                                      " value)"
                                : why);
  }
  pos.knob[k] = {line, val.col};
  return Status::ok();
}

/// Validator messages name the offending knob at their start; find the
/// line that set it so cross-field errors still carry a position.
template <class T, std::size_t N>
Pos validator_position(const std::string& msg, const Knob<T> (&table)[N],
                       const Positions& pos,
                       const platform::ScenarioConfig& soc,
                       const AdmissionScenario& adm) {
  const auto starts = [&msg](const std::string& prefix) {
    return msg.rfind(prefix, 0) == 0;
  };
  // Masters and apps: the last line defining that name / id.
  for (std::size_t i = soc.masters.size(); i-- > 0;) {
    const std::string quoted = "'" + soc.masters[i].name + "'";
    if (starts("master " + quoted) || starts("master name " + quoted)) {
      return pos.masters[i];
    }
  }
  for (std::size_t i = adm.apps.size(); i-- > 0;) {
    if (starts("app " + std::to_string(adm.apps[i].id) + ":")) {
      return pos.apps[i];
    }
  }
  const std::string_view word =
      std::string_view(msg).substr(0, msg.find_first_of(" :"));
  if (word == "phase") return pos.phase;
  for (std::size_t k = 0; k < N; ++k) {
    const Knob<T>& knob = table[k];
    if ((knob.validator_name ? knob.validator_name : knob.key) == word) {
      return pos.knob[k];
    }
  }
  return {};
}

}  // namespace

Expected<Scenario> parse_scenario(const std::string& text) {
  using E = Expected<Scenario>;
  if (text.size() > 1'000'000) {
    return E::error(error_at(1, 1, "scenario text exceeds 1 MiB").message());
  }
  Scenario s;
  bool saw_scenario = false;
  int scenario_line = 1;
  Positions pos;
  std::vector<Tok> toks;

  const std::string_view all(text);
  int line_no = 0;
  for (std::size_t start = 0; start < all.size();) {
    const std::size_t nl = all.find('\n', start);
    std::string_view raw = all.substr(
        start, nl == std::string_view::npos ? std::string_view::npos
                                            : nl - start);
    start = nl == std::string_view::npos ? all.size() : nl + 1;
    ++line_no;
    if (!raw.empty() && raw.back() == '\r') raw.remove_suffix(1);
    tokenize(raw, &toks);
    if (toks.empty() || toks[0].text[0] == '#') continue;
    const Tok& key = toks[0];

    Status st = Status::ok();
    if (!saw_scenario) {
      if (key.text != "scenario") {
        st = error_at(line_no, key.col,
                      "expected 'scenario soc|dram|admission' as the first "
                      "directive, got '" +
                          std::string(key.text) + "'");
      } else if (toks.size() != 2) {
        st = error_at(line_no, key.col,
                      "expected 'scenario soc|dram|admission'");
      } else {
        st = error_at(line_no, toks[1].col,
                      "unknown scenario kind '" + std::string(toks[1].text) +
                          "' (want soc, dram or admission)");
        for (const Kind k : {Kind::kSoc, Kind::kDram, Kind::kAdmission}) {
          if (toks[1].text == to_string(k)) {
            s.kind = k;
            st = Status::ok();
          }
        }
      }
      saw_scenario = true;
      scenario_line = line_no;
    } else if (s.kind == Kind::kSoc && key.text == "master") {
      st = parse_master_line(toks, line_no, s.soc, pos);
    } else if (s.kind == Kind::kSoc && key.text == "phase") {
      st = parse_phase_line(toks, line_no, s.soc, pos);
    } else if (s.kind == Kind::kAdmission && key.text == "app") {
      st = parse_app_line(toks, line_no, s.admission, pos);
    } else if (toks.size() != 2) {
      st = error_at(line_no, key.col,
                    "expected 'key value' (one value), got " +
                        std::to_string(toks.size() - 1) + " values for '" +
                        std::string(key.text) + "'");
    } else if (key.text == "name") {
      if (pos.name.line != 0) {
        st = error_at(line_no, key.col, "duplicate key 'name'");
      } else if (!parse_name(toks[1].text, &s.name)) {
        st = error_at(line_no, toks[1].col,
                      "bad value '" + std::string(toks[1].text) +
                          "' for 'name' (want [a-z0-9_]+)");
      }
      pos.name = {line_no, toks[1].col};
    } else {
      switch (s.kind) {
        case Kind::kSoc:
          st = parse_scalar(kSocKnobs, toks, line_no, s.kind, s.soc, pos);
          break;
        case Kind::kDram:
          st = parse_scalar(kDramKnobs, toks, line_no, s.kind, s.dram, pos);
          break;
        case Kind::kAdmission:
          st = parse_scalar(kAdmissionKnobs, toks, line_no, s.kind,
                            s.admission, pos);
          break;
      }
    }
    if (!st.is_ok()) return E::error(st.message());
  }

  if (!saw_scenario) {
    return E::error(error_at(1, 1,
                             "empty scenario (missing 'scenario "
                             "soc|dram|admission' directive)")
                        .message());
  }

  // Cross-validate the kind payload; validator messages name the offending
  // knob, which maps back to its definition line.
  Status st = Status::ok();
  Pos at;
  const auto locate = [&](const auto& table) {
    if (st.is_ok()) return;
    at = validator_position(st.message(), table, pos, s.soc, s.admission);
  };
  switch (s.kind) {
    case Kind::kSoc:
      st = s.soc.validate();
      locate(kSocKnobs);
      break;
    case Kind::kDram:
      st = s.dram.validate();
      locate(kDramKnobs);
      break;
    case Kind::kAdmission:
      st = s.admission.validate();
      locate(kAdmissionKnobs);
      break;
  }
  if (st.is_ok()) return s;
  if (at.line == 0) at = {scenario_line, 1};
  return E::error(error_at(at.line, at.col, st.message()).message());
}

Expected<Scenario> load_scenario(const std::string& path) {
  using E = Expected<Scenario>;
  std::ifstream in(path, std::ios::binary);
  if (!in) return E::error(path + ": cannot open scenario file");
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = parse_scenario(buf.str());
  if (!parsed) return E::error(path + ": " + parsed.error_message());
  Scenario s = std::move(parsed).value();
  // Resolve relative trace paths against the scenario file's directory so
  // scenarios can ship with their traces.
  const std::size_t slash = path.find_last_of('/');
  if (slash != std::string::npos && s.kind == Kind::kSoc) {
    for (platform::MasterSpec& m : s.soc.masters) {
      if (m.kind == platform::MasterSpec::Kind::kTraceReplay &&
          !m.trace_path.empty() && m.trace_path[0] != '/') {
        m.trace_path = path.substr(0, slash + 1) + m.trace_path;
      }
    }
  }
  return s;
}

}  // namespace pap::scenario
