#include "exp/sink.hpp"

#include <cstdio>
#include <filesystem>

#include "exp/runner.hpp"

namespace pap::exp {

namespace {

const char* status_name(PointStatus s) {
  switch (s) {
    case PointStatus::kRan: return "ran";
    case PointStatus::kCached: return "cached";
    case PointStatus::kSkipped: return "skipped";
  }
  return "?";
}

}  // namespace

void ConsoleTableSink::on_result(const SweepSummary& sweep, std::size_t index) {
  const PointOutcome& outcome = sweep.points[index];
  if (!table_) {
    std::vector<std::string> headers;
    if (!label_header_.empty()) headers.push_back(label_header_);
    for (const auto& [name, v] : outcome.result.metrics()) {
      headers.push_back(name);
    }
    table_ = std::make_unique<TextTable>(std::move(headers));
  }
  table_->row();
  if (!label_header_.empty()) table_->cell(outcome.result.label());
  for (const auto& [name, v] : outcome.result.metrics()) {
    table_->cell(v.display());
  }
}

void ConsoleTableSink::on_finish(const SweepSummary& sweep) {
  (void)sweep;
  if (table_) table_->print();
  table_.reset();
}

void CsvSink::on_result(const SweepSummary& sweep, std::size_t index) {
  const PointOutcome& outcome = sweep.points[index];
  if (!csv_) {
    std::vector<std::string> headers{"point", "status", "label"};
    for (const auto& [key, v] : outcome.params.entries()) {
      headers.push_back(key);
    }
    for (const auto& [name, v] : outcome.result.metrics()) {
      headers.push_back(name);
    }
    csv_ = std::make_unique<CsvWriter>(path_, std::move(headers));
  }
  std::vector<std::string> cells{std::to_string(index),
                                 status_name(outcome.status),
                                 outcome.result.label()};
  for (const auto& [key, v] : outcome.params.entries()) {
    cells.push_back(v.machine());
  }
  for (const auto& [name, v] : outcome.result.metrics()) {
    cells.push_back(v.machine());
  }
  csv_->write_row(cells);
}

JsonlSink::JsonlSink(const std::string& path) {
  std::error_code ec;
  const auto dir = std::filesystem::path(path).parent_path();
  if (!dir.empty()) std::filesystem::create_directories(dir, ec);
  out_.open(path, std::ios::trunc);
}

void JsonlSink::on_result(const SweepSummary& sweep, std::size_t index) {
  if (!out_.is_open()) return;
  const PointOutcome& outcome = sweep.points[index];
  std::string line = "{\"experiment\":";
  json_string_into(&line, sweep.experiment);
  line += ",\"point\":" + std::to_string(index) + ",\"status\":\"" +
          status_name(outcome.status) + "\",\"label\":";
  json_string_into(&line, outcome.result.label());
  const auto members = [&line](const auto& entries) {
    line += '{';
    bool first = true;
    for (const auto& [name, v] : entries) {
      if (!first) line += ',';
      first = false;
      json_string_into(&line, name);
      line += ':';
      v.json_into(&line);
    }
    line += '}';
  };
  line += ",\"params\":";
  members(outcome.params.entries());
  line += ",\"metrics\":";
  members(outcome.result.metrics());
  if (timing_) {
    char wall[32];
    std::snprintf(wall, sizeof wall, "%.3f", outcome.wall_ms);
    line += ",\"wall_ms\":";
    line += wall;
  }
  line += "}\n";
  out_ << line;
}

void TraceDirSink::on_result(const SweepSummary& sweep, std::size_t index) {
  const PointOutcome& outcome = sweep.points[index];
  if (outcome.trace_json.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return;
  const std::string stem =
      dir_ + "/" + sweep.experiment + "-p" + std::to_string(index);
  {
    std::ofstream out(stem + ".trace.json", std::ios::trunc);
    if (!out.is_open()) return;
    out << outcome.trace_json;
  }
  if (!outcome.counters_csv.empty()) {
    std::ofstream out(stem + ".counters.csv", std::ios::trunc);
    if (out.is_open()) out << outcome.counters_csv;
  }
  ++written_;
}

void TraceDirSink::on_finish(const SweepSummary& sweep) {
  if (written_ > 0) {
    std::printf("[%s] %zu trace%s under %s/\n", sweep.experiment.c_str(),
                written_, written_ == 1 ? "" : "s", dir_.c_str());
  }
}

}  // namespace pap::exp
