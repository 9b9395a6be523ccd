#include "fault/plan.hpp"

#include <climits>
#include <string_view>

#include "common/grammar.hpp"

namespace pap::fault {

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kMsgDrop: return "drop";
    case FaultKind::kMsgDup: return "dup";
    case FaultKind::kMsgDelay: return "delay";
    case FaultKind::kMsgReorder: return "reorder";
    case FaultKind::kClientCrash: return "crash";
    case FaultKind::kLinkDown: return "link";
    case FaultKind::kDramStall: return "dram";
  }
  return "?";
}

std::string to_string(MsgClass cls) {
  switch (cls) {
    case MsgClass::kAct: return "act";
    case MsgClass::kTer: return "ter";
    case MsgClass::kStop: return "stop";
    case MsgClass::kConf: return "conf";
    case MsgClass::kStopAck: return "stopack";
    case MsgClass::kConfAck: return "confack";
    case MsgClass::kAny: return "any";
  }
  return "?";
}

namespace {

bool parse_msg_class(const std::string& s, MsgClass* out) {
  for (const MsgClass c :
       {MsgClass::kAct, MsgClass::kTer, MsgClass::kStop, MsgClass::kConf,
        MsgClass::kStopAck, MsgClass::kConfAck, MsgClass::kAny}) {
    if (s == to_string(c)) {
      *out = c;
      return true;
    }
  }
  return false;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

Expected<FaultPlan> plan_error(const std::string& entry,
                               const std::string& why) {
  return Expected<FaultPlan>::error("bad fault entry '" + entry + "': " + why);
}

constexpr std::string_view kPortLetters = "LEWNS";  ///< noc::Direction order

bool parse_positive_duration(std::string_view s, Time* out) {
  return parse_duration(s, out) && *out > Time::zero();
}

/// `drop=[TYPE:]P[:N]` / `dup=...` value part; delay/reorder additionally
/// carry a duration between P and N.
bool parse_msg_fault(FaultSpec* spec, const std::string& value,
                     bool has_duration, std::string* why) {
  auto fields = split(value, ':');
  std::size_t i = 0;
  if (i < fields.size() && parse_msg_class(fields[i], &spec->msg_class)) ++i;
  if (i >= fields.size() || !parse_double(fields[i], &spec->probability) ||
      spec->probability < 0.0 || spec->probability > 1.0) {
    *why = "expected probability in [0,1]";
    return false;
  }
  ++i;
  if (has_duration) {
    if (i >= fields.size() ||
        !parse_positive_duration(fields[i], &spec->delay)) {
      *why = "expected positive duration (e.g. 200ns)";
      return false;
    }
    ++i;
  }
  if (i < fields.size()) {
    if (!parse_u64(fields[i], &spec->max_count)) {
      *why = "expected max-count integer";
      return false;
    }
    ++i;
  }
  if (i != fields.size()) {
    *why = "trailing fields";
    return false;
  }
  return true;
}

}  // namespace

Expected<FaultPlan> FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  if (text.empty()) return plan;
  for (const std::string& entry : split(text, ',')) {
    if (entry.empty()) return plan_error(entry, "empty entry");
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return plan_error(entry, "expected key=value");
    }
    std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    std::string why;

    // Timed faults carry their instant in the key: `crash@10us`.
    Time at;
    const std::size_t at_pos = key.find('@');
    const bool timed = at_pos != std::string::npos;
    if (timed) {
      if (!parse_duration(key.substr(at_pos + 1), &at)) {
        return plan_error(entry, "expected injection time after '@'");
      }
      key = key.substr(0, at_pos);
    }

    if (key == "seed") {
      std::uint64_t seed = 0;
      if (timed || !parse_u64(value, &seed)) {
        return plan_error(entry, "expected seed=N");
      }
      plan.set_seed(seed);
      continue;
    }

    FaultSpec spec;
    spec.at = at;
    if (key == "drop" || key == "dup" || key == "delay" || key == "reorder") {
      if (timed) return plan_error(entry, "message faults take no '@' time");
      spec.kind = key == "drop"    ? FaultKind::kMsgDrop
                  : key == "dup"   ? FaultKind::kMsgDup
                  : key == "delay" ? FaultKind::kMsgDelay
                                   : FaultKind::kMsgReorder;
      const bool has_duration =
          spec.kind == FaultKind::kMsgDelay || spec.kind == FaultKind::kMsgReorder;
      if (!parse_msg_fault(&spec, value, has_duration, &why)) {
        return plan_error(entry, why);
      }
    } else if (key == "crash") {
      if (!timed) return plan_error(entry, "expected crash@T=appN[+DUR]");
      spec.kind = FaultKind::kClientCrash;
      std::string target = value;
      const std::size_t plus = target.find('+');
      if (plus != std::string::npos) {
        if (!parse_positive_duration(target.substr(plus + 1),
                                     &spec.duration)) {
          return plan_error(entry, "expected positive restart delay after '+'");
        }
        target = target.substr(0, plus);
      }
      if (target.rfind("app", 0) != 0 ||
          !parse_int(target.substr(3), 0, INT_MAX, &spec.app)) {
        return plan_error(entry, "expected appN target");
      }
    } else if (key == "link") {
      if (!timed) return plan_error(entry, "expected link@T=rR:D:DUR");
      spec.kind = FaultKind::kLinkDown;
      const auto fields = split(value, ':');
      if (fields.size() != 3 || fields[0].rfind('r', 0) != 0 ||
          !parse_int(fields[0].substr(1), 0, INT_MAX, &spec.router)) {
        return plan_error(entry, "expected rR:D:DUR");
      }
      const std::size_t port = kPortLetters.find(fields[1]);
      if (fields[1].size() != 1 || port == std::string_view::npos) {
        return plan_error(entry, "port must be one of L,E,W,N,S");
      }
      spec.port = static_cast<int>(port);
      if (!parse_positive_duration(fields[2], &spec.duration)) {
        return plan_error(entry, "expected positive down window");
      }
    } else if (key == "dram") {
      if (!timed) return plan_error(entry, "expected dram@T=DUR");
      spec.kind = FaultKind::kDramStall;
      if (!parse_positive_duration(value, &spec.duration)) {
        return plan_error(entry, "expected positive stall window");
      }
    } else {
      return plan_error(entry, "unknown fault kind '" + key + "'");
    }
    plan.add(spec);
  }
  if (const Status st = plan.validate(); !st.is_ok()) {
    return Expected<FaultPlan>::error(st.message());
  }
  return plan;
}

Status FaultPlan::validate() const {
  for (const FaultSpec& s : specs_) {
    switch (s.kind) {
      case FaultKind::kMsgDrop:
      case FaultKind::kMsgDup:
      case FaultKind::kMsgDelay:
      case FaultKind::kMsgReorder:
        if (!(s.probability >= 0.0 && s.probability <= 1.0)) {  // NaN too
          return Status::error("fault probability must be in [0,1]");
        }
        if ((s.kind == FaultKind::kMsgDelay ||
             s.kind == FaultKind::kMsgReorder) &&
            s.delay <= Time::zero()) {
          return Status::error(to_string(s.kind) +
                               " fault needs a positive duration");
        }
        break;
      case FaultKind::kClientCrash:
        if (s.app <= 0) return Status::error("crash fault needs appN, N >= 1");
        if (s.duration < Time::zero()) {
          return Status::error("crash restart delay must be non-negative");
        }
        break;
      case FaultKind::kLinkDown:
        if (s.router < 0 || s.port < 0 || s.port >= 5) {
          return Status::error("link fault target out of range");
        }
        if (s.duration <= Time::zero()) {
          return Status::error("link fault needs a positive down window");
        }
        break;
      case FaultKind::kDramStall:
        if (s.duration <= Time::zero()) {
          return Status::error("dram fault needs a positive stall window");
        }
        break;
    }
  }
  return Status::ok();
}

FaultPlan FaultPlan::merged_with(const FaultPlan& other) const {
  FaultPlan out = *this;
  for (const FaultSpec& s : other.specs_) out.add(s);
  if (other.has_seed_) out.set_seed(other.seed_);
  return out;
}

std::string FaultSpec::canonical() const {
  std::string out = to_string(kind);
  if (kind == FaultKind::kClientCrash || kind == FaultKind::kLinkDown ||
      kind == FaultKind::kDramStall) {
    out.append("@").append(format_duration(at));
  }
  out += '=';
  switch (kind) {
    case FaultKind::kMsgDrop:
    case FaultKind::kMsgDup:
    case FaultKind::kMsgDelay:
    case FaultKind::kMsgReorder:
      if (msg_class != MsgClass::kAny) out.append(to_string(msg_class)) += ':';
      out += format_double(probability);
      if (kind == FaultKind::kMsgDelay || kind == FaultKind::kMsgReorder) {
        out.append(":").append(format_duration(delay));
      }
      if (max_count != 0) out.append(":").append(std::to_string(max_count));
      break;
    case FaultKind::kClientCrash:
      out.append("app").append(std::to_string(app));
      if (duration > Time::zero()) {
        out.append("+").append(format_duration(duration));
      }
      break;
    case FaultKind::kLinkDown:
      out.append("r").append(std::to_string(router)).append(":");
      out.append(1, kPortLetters[port]).append(":");
      out.append(format_duration(duration));
      break;
    case FaultKind::kDramStall:
      out.append(format_duration(duration));
      break;
  }
  return out;
}

std::string FaultPlan::canonical() const {
  std::string out;
  if (has_seed_) out = "seed=" + std::to_string(seed_);
  for (const FaultSpec& s : specs_) {
    if (!out.empty()) out += ",";
    out += s.canonical();
  }
  return out;
}

}  // namespace pap::fault
