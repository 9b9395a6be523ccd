#include "platform/trace_master.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/check.hpp"
#include "common/grammar.hpp"

namespace pap::platform {

namespace {

constexpr std::string_view kMagic = "# pap-trace-v1";
constexpr std::string_view kHeader = "time_ps,core,addr,size,write,crit";

Expected<TraceRecord> parse_record_line(std::string_view line) {
  using E = Expected<TraceRecord>;
  std::string_view fields[6];
  std::size_t n = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ',') {
      if (n == 6) return E::error("expected 6 comma-separated fields");
      fields[n++] = line.substr(start, i - start);
      start = i + 1;
    }
  }
  if (n != 6) return E::error("expected 6 comma-separated fields, got " +
                              std::to_string(n));
  std::uint64_t time_ps = 0, core = 0, addr = 0, size = 0, write = 0, crit = 0;
  if (!parse_u64(fields[0], &time_ps) ||
      time_ps > static_cast<std::uint64_t>(INT64_MAX)) {
    return E::error("bad time_ps '" + std::string(fields[0]) + "'");
  }
  if (!parse_u64(fields[1], &core) || core > 4096) {
    return E::error("bad core '" + std::string(fields[1]) + "'");
  }
  if (!parse_u64(fields[2], &addr)) {
    return E::error("bad addr '" + std::string(fields[2]) + "'");
  }
  if (!parse_u64(fields[3], &size) || size == 0) {
    return E::error("bad size '" + std::string(fields[3]) + "'");
  }
  if (!parse_u64(fields[4], &write) || write > 1) {
    return E::error("bad write flag '" + std::string(fields[4]) +
                    "' (want 0 or 1)");
  }
  if (!parse_u64(fields[5], &crit) || crit > 1) {
    return E::error("bad crit flag '" + std::string(fields[5]) +
                    "' (want 0 or 1)");
  }
  TraceRecord rec;
  rec.at = Time::ps(static_cast<std::int64_t>(time_ps));
  rec.core = static_cast<int>(core);
  rec.addr = addr;
  rec.size = size;
  rec.write = write != 0;
  rec.criticality = static_cast<int>(crit);
  return rec;
}

}  // namespace

std::string TraceRecord::canonical() const {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "%" PRId64 ",%d,%" PRIu64 ",%" PRIu64 ",%d,%d", at.picos(),
                core, static_cast<std::uint64_t>(addr),
                static_cast<std::uint64_t>(size), write ? 1 : 0,
                criticality ? 1 : 0);
  return buf;
}

Expected<std::vector<TraceRecord>> parse_trace(const std::string& text) {
  using E = Expected<std::vector<TraceRecord>>;
  std::vector<TraceRecord> records;
  std::size_t pos = 0;
  int line_no = 0;
  bool saw_magic = false;
  bool saw_header = false;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line(text.data() + pos,
                                (eol == std::string::npos ? text.size() : eol) -
                                    pos);
    pos = (eol == std::string::npos) ? text.size() + 1 : eol + 1;
    ++line_no;
    if (line.empty()) continue;
    if (!saw_magic) {
      if (line != kMagic) {
        return E::error("trace line " + std::to_string(line_no) +
                        ": missing magic '" + std::string(kMagic) + "'");
      }
      saw_magic = true;
      continue;
    }
    if (!saw_header) {
      if (line != kHeader) {
        return E::error("trace line " + std::to_string(line_no) +
                        ": missing header '" + std::string(kHeader) + "'");
      }
      saw_header = true;
      continue;
    }
    auto rec = parse_record_line(line);
    if (!rec) {
      return E::error("trace line " + std::to_string(line_no) + ": " +
                      rec.error_message());
    }
    records.push_back(rec.value());
  }
  if (!saw_magic) return E::error("trace is empty (missing magic line)");
  if (!saw_header) return E::error("trace has no header line");
  if (const Status st = TraceMaster::validate_trace(records); !st.is_ok()) {
    return E::error(st.message());
  }
  return records;
}

std::string render_trace(const std::vector<TraceRecord>& records) {
  std::string out;
  out.reserve(records.size() * 24 + 64);
  out.append(kMagic).push_back('\n');
  out.append(kHeader).push_back('\n');
  for (const TraceRecord& rec : records) {
    out.append(rec.canonical()).push_back('\n');
  }
  return out;
}

Expected<std::vector<TraceRecord>> load_trace(const std::string& path) {
  using E = Expected<std::vector<TraceRecord>>;
  std::ifstream in(path, std::ios::binary);
  if (!in) return E::error("cannot open trace file '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  auto records = parse_trace(buf.str());
  if (!records) return E::error(path + ": " + records.error_message());
  return records;
}

Status write_trace(const std::string& path,
                   const std::vector<TraceRecord>& records) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::error("cannot open '" + path + "' for writing");
  out << render_trace(records);
  out.flush();
  if (!out) return Status::error("short write to '" + path + "'");
  return Status::ok();
}

TraceMaster::TraceMaster(sim::Kernel& kernel, Soc& soc,
                         std::vector<TraceRecord> records)
    : kernel_(kernel), soc_(soc), records_(std::move(records)) {
  PAP_CHECK_MSG(validate_trace(records_).is_ok(), "invalid trace records");
  PAP_CHECK_MSG(max_core(records_) < soc_.config().total_cores(),
                "trace references a core beyond the SoC");
}

void TraceMaster::start() {
  PAP_CHECK(!started_);
  started_ = true;
  running_ = true;
  // All records are scheduled up front: same-instant records keep their
  // recorded (file) order, because the kernel fires same-timestamp events
  // in insertion order.
  for (const TraceRecord& rec : records_) {
    kernel_.schedule_at(rec.at, [this, &rec] {
      if (!running_) return;
      ++issued_;
      soc_.memory_access(rec.core, rec.addr, rec.write,
                         [this](Time latency) { latency_.add(latency); });
    });
  }
}

int TraceMaster::max_core(const std::vector<TraceRecord>& records) {
  int max = -1;
  for (const TraceRecord& rec : records) max = std::max(max, rec.core);
  return max;
}

Status TraceMaster::validate_trace(const std::vector<TraceRecord>& records) {
  Time prev = Time::zero();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const TraceRecord& rec = records[i];
    if (rec.at < Time::zero()) {
      return Status::error("trace record " + std::to_string(i) +
                           ": negative time " + rec.at.to_string());
    }
    if (rec.at < prev) {
      return Status::error("trace record " + std::to_string(i) +
                           ": time goes backwards (" + rec.at.to_string() +
                           " after " + prev.to_string() + ")");
    }
    if (rec.core < 0) {
      return Status::error("trace record " + std::to_string(i) +
                           ": negative core " + std::to_string(rec.core));
    }
    if (rec.size == 0) {
      return Status::error("trace record " + std::to_string(i) +
                           ": size must be >= 1");
    }
    prev = rec.at;
  }
  return Status::ok();
}

}  // namespace pap::platform
