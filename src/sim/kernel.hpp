// Discrete-event simulation kernel.
//
// Every hardware model in the repository (FR-FCFS DRAM controller, NoC
// routers, CPU schedulers, Memguard regulators, the SoC platform) runs on
// this single-threaded, deterministic event wheel. Determinism matters: the
// repository exists to study *predictability*, so two runs with identical
// configuration must produce bit-identical traces.
//
// Events scheduled for the same timestamp fire in (priority, insertion-order)
// order, which makes tie-breaking explicit instead of accidental. Insertion
// order is the instant an event was scheduled at, then the order of the
// schedule calls; `schedule_as_of` lets a model that knows an event early
// insert it at the later instant it would have been scheduled at.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/time.hpp"

namespace pap::trace {
class Tracer;
}

namespace pap::sim {

using EventFn = std::function<void()>;

/// Opaque handle for cancelling a scheduled event. Carries the pool slot of
/// the event (for O(1) lookup) plus its unique sequence number (so a handle
/// that outlives its event — the slot having been recycled — is detected and
/// rejected instead of cancelling a stranger).
class EventId {
 public:
  EventId() = default;
  bool valid() const { return seq_ != 0; }

 private:
  friend class Kernel;
  EventId(std::uint64_t s, std::uint32_t slot) : seq_(s), slot_(slot) {}
  std::uint64_t seq_ = 0;
  std::uint32_t slot_ = 0;
};

class Kernel {
 public:
  Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  Time now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (must be >= now()).
  /// Lower `priority` runs first among same-timestamp events.
  EventId schedule_at(Time at, EventFn fn, int priority = 0);

  /// Schedule `fn` to run at `at`, inserted as if the first event to run
  /// at instant `as_of` (now() <= as_of <= at) had scheduled it: among
  /// the events of the same (at, priority) it fires after every event
  /// scheduled before `as_of` and ahead of every event scheduled at or
  /// after `as_of`. A model that learns of an event before the instant
  /// it would schedule it at gets that firing order this way, with no
  /// event at `as_of` to schedule it.
  EventId schedule_as_of(Time as_of, Time at, EventFn fn, int priority = 0);

  /// Schedule `fn` to run `delay` after the current time.
  EventId schedule_in(Time delay, EventFn fn, int priority = 0) {
    return schedule_at(now_ + delay, std::move(fn), priority);
  }

  /// Cancel a pending event in O(log n): the entry is removed from the heap
  /// in place (no tombstones linger in the queue). Returns false (and
  /// changes nothing) when the event already ran or was already cancelled —
  /// stale handles are safe.
  bool cancel(EventId id);

  /// Run until the event queue drains or `until` is reached (events at
  /// exactly `until` still run). Returns the number of events executed.
  std::uint64_t run(Time until = Time::max());

  bool empty() const { return heap_.empty(); }
  std::uint64_t events_executed() const { return executed_; }

  /// Attach an observability tracer (not owned; nullptr detaches). The
  /// tracer's clock is bound to this kernel, so instrumented components
  /// reach it as `kernel.tracer()` and emit at simulated-time resolution.
  /// Tracing must never perturb simulation behaviour: components only read
  /// state when emitting, and a null tracer costs one pointer test.
  void set_tracer(trace::Tracer* tracer);
  trace::Tracer* tracer() const { return tracer_; }

 private:
  // Event storage: a slot pool indexed by a 4-ary min-heap of slot numbers.
  //
  //  * The heap holds 4-byte slot indices, so a sift moves ints, not
  //    std::function-bearing structs — one Entry move per executed event
  //    (when its fn is handed to the caller) instead of O(log n) moves.
  //  * Each Entry records its heap position, so cancel() removes the entry
  //    in place (swap with the last leaf + one sift) instead of leaving a
  //    tombstone to filter at pop time. Cancel-heavy workloads (timeouts,
  //    PeriodicEvent churn) no longer inflate the queue.
  //  * Slots are recycled through a free list; the monotone `seq` stamped
  //    into each Entry distinguishes a live event from a stale handle whose
  //    slot has been reused.
  //  * 4-ary beats binary here: the heap is shallower (log_4 n levels) and
  //    the four children share a cache line of slot indices.
  struct Entry {
    Time at;
    Time inserted;               // instant of insertion (see schedule_as_of)
    std::uint64_t seq = 0;       // insertion order; 0 = free slot
    int priority = 0;
    std::uint32_t heap_pos = 0;  // index into heap_ while scheduled
    EventFn fn;
  };

  static constexpr std::uint32_t kNoPos = 0xffffffffu;

  /// True when pool_[a] fires strictly before pool_[b]
  /// ((at, priority, inserted, seq) lexicographic). `inserted` only ever
  /// departs from the seq order for schedule_as_of events: every other
  /// event is inserted at now(), which never decreases as seq grows.
  bool before(std::uint32_t a, std::uint32_t b) const;
  EventId insert(Time at, Time inserted, int priority, EventFn&& fn);
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);
  /// Detach the heap root and return its slot (heap_pos becomes kNoPos).
  std::uint32_t pop_root();
  /// Return a slot to the free list (clears seq and releases fn).
  void release_slot(std::uint32_t slot);

  std::vector<Entry> pool_;
  std::vector<std::uint32_t> heap_;  // slot indices, 4-ary min-heap
  std::vector<std::uint32_t> free_;  // recycled slot indices

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  trace::Tracer* tracer_ = nullptr;
};

/// A restartable one-shot timer: the building block for protocol
/// retransmission timeouts and watchdogs. `arm(delay)` (re)schedules the
/// callback — any pending firing is cancelled first, so re-arming on every
/// heartbeat implements an idle watchdog in one line. The callback runs at
/// most once per arm(); destroying the Timeout cancels it.
class Timeout {
 public:
  Timeout(Kernel& kernel, EventFn fn, int priority = 0)
      : kernel_(kernel), fn_(std::move(fn)), priority_(priority) {}
  ~Timeout() { cancel(); }
  Timeout(const Timeout&) = delete;
  Timeout& operator=(const Timeout&) = delete;

  /// Schedule (or push back) the firing to `delay` from now.
  void arm(Time delay);
  /// Drop any pending firing; a no-op when none is scheduled.
  void cancel();
  bool pending() const { return pending_; }

 private:
  Kernel& kernel_;
  EventFn fn_;
  int priority_;
  EventId id_;
  bool pending_ = false;
};

/// A recurring event helper: calls `fn` every `period` starting at `start`.
/// Owns its rescheduling; destroy or call stop() to end the series.
class PeriodicEvent {
 public:
  PeriodicEvent(Kernel& kernel, Time start, Time period, EventFn fn,
                int priority = 0);
  ~PeriodicEvent() { stop(); }
  PeriodicEvent(const PeriodicEvent&) = delete;
  PeriodicEvent& operator=(const PeriodicEvent&) = delete;

  void stop();
  bool running() const { return running_; }

 private:
  void fire();
  Kernel& kernel_;
  Time period_;
  EventFn fn_;
  int priority_;
  EventId pending_;
  bool running_ = true;
};

}  // namespace pap::sim
