#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "bench.hpp"

namespace perfbench {

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

double Samples::quantile(double p) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  const auto rank = static_cast<std::size_t>(
      std::max(0.0, std::ceil(p * static_cast<double>(s.size())) - 1.0));
  const std::size_t k = std::min(rank, s.size() - 1);
  std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(k),
                   s.end());
  return s[k];
}

double Samples::mean() const {
  return v_.empty() ? 0.0 : sum() / static_cast<double>(v_.size());
}

double Samples::sum() const {
  return std::accumulate(v_.begin(), v_.end(), 0.0);
}

void Windows::add(double at_s, double value) {
  const auto w = static_cast<std::size_t>(std::max(0.0, at_s) / window_s_);
  if (w >= windows_.size()) {
    windows_.resize(w + 1);
    first_at_.resize(w + 1, 0.0);
    last_at_.resize(w + 1, 0.0);
  }
  if (windows_[w].empty()) first_at_[w] = at_s;
  last_at_[w] = at_s;
  windows_[w].add(value);
}

std::size_t Windows::whole_windows() const {
  return std::min(windows_.size(),
                  static_cast<std::size_t>(end_s_ / window_s_ + 1e-9));
}

std::size_t Windows::samples() const {
  std::size_t n = 0;
  for (std::size_t w = 0; w < whole_windows(); ++w) n += windows_[w].size();
  return n;
}

double Windows::quantile(double q) const {
  Samples per_window;
  for (std::size_t w = 0; w < whole_windows(); ++w) {
    if (!windows_[w].empty()) per_window.add(windows_[w].quantile(q));
  }
  return per_window.median();
}

double Windows::rate() const {
  // Intervals between a window's first and last sample, not whole-window
  // counts, so the rate keeps the resolution of the clock.
  Samples per_window;
  for (std::size_t w = 0; w < whole_windows(); ++w) {
    const double span = last_at_[w] - first_at_[w];
    if (windows_[w].size() > 1 && span > 0) {
      per_window.add(static_cast<double>(windows_[w].size() - 1) / span);
    }
  }
  return per_window.median();
}

double Windows::capped_rate(double q) const {
  Samples per_window;
  for (std::size_t w = 0; w < whole_windows(); ++w) {
    const Samples& s = windows_[w];
    if (s.empty()) continue;
    const double cap = s.quantile(q);
    double busy_us = 0.0;
    for (const double v : s.values()) busy_us += std::min(v, cap);
    if (busy_us > 0) {
      per_window.add(static_cast<double>(s.size()) / (busy_us / 1e6));
    }
  }
  return per_window.median();
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
  std::printf("perfbench: %-40s %14.4f %s\n", name.c_str(), value,
              unit.c_str());
}

void Report::timing(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics_.push_back({name, {value, unit}});
  std::printf("perfbench: %-40s %14.4f %s  (n=%zu)\n", name.c_str(), value,
              unit.c_str(), samples);
}

void Report::note(const std::string& line) const {
  std::printf("perfbench: %s\n", line.c_str());
}

void Report::wrong(const std::string& why) {
  correct_ = false;
  std::printf("perfbench: INCORRECT: %s\n", why.c_str());
  std::fprintf(stderr, "perfbench: INCORRECT: %s\n", why.c_str());
}

void Report::print_json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    if (i > 0) out += ", ";
    out += "\"" + name + "\": {\"value\": " + num(vu.first) +
           ", \"unit\": \"" + vu.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void Digest::add(const std::string& bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ull;
  }
  // Separator, so ("ab","c") and ("a","bc") differ.
  h_ ^= 0xff;
  h_ *= 1099511628211ull;
}

std::string Digest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

long reply_id(const std::string& reply) {
  static const char kPrefix[] = "{\"id\":";
  if (reply.compare(0, sizeof kPrefix - 1, kPrefix) != 0) return -1;
  char* end = nullptr;
  const long id = std::strtol(reply.c_str() + sizeof kPrefix - 1, &end, 10);
  return (end != nullptr && *end == ',') ? id : -1;
}

bool reply_number(const std::string& reply, const std::string& name,
                  double* out) {
  const std::string key = "\"" + name + "\":";
  const auto at = reply.find(key);
  if (at == std::string::npos) return false;
  const char* start = reply.c_str() + at + key.size();
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) return false;
  *out = v;
  return true;
}

}  // namespace perfbench
