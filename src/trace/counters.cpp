#include "trace/counters.hpp"

#include <cstdio>

namespace pap::trace {

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

CounterRegistry::Entry& CounterRegistry::locate(const std::string& component,
                                                const std::string& name) {
  for (auto& e : entries_) {
    if (e.component == component && e.name == name) return e;
  }
  Entry e;
  e.component = component;
  e.name = name;
  e.updates = 0;
  entries_.push_back(std::move(e));
  return entries_.back();
}

void CounterRegistry::update(const std::string& component,
                             const std::string& name, double value,
                             CounterKind kind) {
  Entry& e = locate(component, name);
  if (e.updates == 0) {
    e.kind = kind;
    e.value = e.min = e.max = value;
  } else {
    e.value = value;
    e.min = value < e.min ? value : e.min;
    e.max = value > e.max ? value : e.max;
  }
  ++e.updates;
}

const CounterRegistry::Entry* CounterRegistry::find(
    const std::string& component, const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.component == component && e.name == name) return &e;
  }
  return nullptr;
}

std::string CounterRegistry::csv() const {
  std::string out = "component,name,kind,updates,value,min,max\n";
  for (const auto& e : entries_) {
    out += e.component + ',' + e.name + ',' +
           (e.kind == CounterKind::kMonotonic ? "monotonic" : "gauge") + ',' +
           std::to_string(e.updates) + ',' + num(e.value) + ',' + num(e.min) +
           ',' + num(e.max) + '\n';
  }
  return out;
}

}  // namespace pap::trace
