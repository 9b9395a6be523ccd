// Named counter registry for the tracing subsystem.
//
// Components publish counters as (component, name) pairs through the
// Tracer; the registry keeps the authoritative current value, kind and
// update statistics so end-of-run reporting no longer requires every model
// to hand-roll its own stats fields. Two kinds exist:
//
//   * kMonotonic — cumulative occurrence counts (row hits, packets
//     delivered). Values never decrease.
//   * kGauge     — instantaneous levels (queue depth, budget remaining,
//     cache-portion occupancy). Values move freely; min/max are tracked.
//
// Entries appear in first-update order, which makes the CSV export stable
// across identical runs — a property the determinism tests assert on.
//
// Thread-safety: none. Each Tracer owns one registry and a run drives its
// tracer from one thread. Entries live in a deque, so a `find` pointer
// stays valid across later insertions.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

namespace pap::trace {

enum class CounterKind : std::uint8_t { kMonotonic, kGauge };

class CounterRegistry {
 public:
  struct Entry {
    std::string component;
    std::string name;
    CounterKind kind = CounterKind::kGauge;
    double value = 0.0;  ///< most recent sample
    double min = 0.0;
    double max = 0.0;
    std::uint64_t updates = 0;
  };

  /// Record a new absolute value for (component, name). The kind of the
  /// first update sticks; later updates only move the value.
  void update(const std::string& component, const std::string& name,
              double value, CounterKind kind);

  /// Pointer into the registry, stable across insertions (deque storage);
  /// nullptr when (component, name) was never updated.
  const Entry* find(const std::string& component,
                    const std::string& name) const;

  const std::deque<Entry>& entries() const { return entries_; }

  /// "component,name,kind,updates,value,min,max" rows, header included.
  /// Deterministic: rows in first-update order, values as %.17g.
  std::string csv() const;

 private:
  Entry& locate(const std::string& component, const std::string& name);

  // Small; linear scan, insertion order kept. Deque: stable references.
  std::deque<Entry> entries_;
};

}  // namespace pap::trace
