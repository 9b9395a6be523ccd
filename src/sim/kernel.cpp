#include "sim/kernel.hpp"

#include "trace/tracer.hpp"

namespace pap::sim {

void Kernel::set_tracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_) tracer_->set_clock([this] { return now_; });
}

bool Kernel::before(std::uint32_t a, std::uint32_t b) const {
  const Entry& ea = pool_[a];
  const Entry& eb = pool_[b];
  if (ea.at != eb.at) return ea.at < eb.at;
  if (ea.priority != eb.priority) return ea.priority < eb.priority;
  if (ea.inserted != eb.inserted) return ea.inserted < eb.inserted;
  return ea.seq < eb.seq;
}

void Kernel::sift_up(std::uint32_t pos) {
  const std::uint32_t slot = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!before(slot, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pool_[heap_[pos]].heap_pos = pos;
    pos = parent;
  }
  heap_[pos] = slot;
  pool_[slot].heap_pos = pos;
}

void Kernel::sift_down(std::uint32_t pos) {
  const std::uint32_t slot = heap_[pos];
  const auto n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    const std::uint32_t first = 4 * pos + 1;
    if (first >= n) break;
    std::uint32_t best = first;
    const std::uint32_t end = (first + 4 < n) ? first + 4 : n;
    for (std::uint32_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], slot)) break;
    heap_[pos] = heap_[best];
    pool_[heap_[pos]].heap_pos = pos;
    pos = best;
  }
  heap_[pos] = slot;
  pool_[slot].heap_pos = pos;
}

std::uint32_t Kernel::pop_root() {
  const std::uint32_t slot = heap_[0];
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    pool_[last].heap_pos = 0;
    sift_down(0);
  }
  pool_[slot].heap_pos = kNoPos;
  return slot;
}

void Kernel::release_slot(std::uint32_t slot) {
  Entry& e = pool_[slot];
  e.seq = 0;
  e.heap_pos = kNoPos;
  e.fn = nullptr;
  free_.push_back(slot);
}

EventId Kernel::schedule_at(Time at, EventFn fn, int priority) {
  PAP_CHECK_MSG(at >= now_, "cannot schedule an event in the past");
  return insert(at, now_, priority, std::move(fn));
}

EventId Kernel::schedule_as_of(Time as_of, Time at, EventFn fn,
                               int priority) {
  PAP_CHECK_MSG(as_of >= now_ && at >= as_of,
                "cannot schedule an event in the past");
  return insert(at, as_of, priority, std::move(fn));
}

EventId Kernel::insert(Time at, Time inserted, int priority, EventFn&& fn) {
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  Entry& e = pool_[slot];
  e.at = at;
  e.inserted = inserted;
  e.priority = priority;
  e.seq = seq;
  e.fn = std::move(fn);
  heap_.push_back(slot);
  sift_up(static_cast<std::uint32_t>(heap_.size()) - 1);
  return EventId{seq, slot};
}

bool Kernel::cancel(EventId id) {
  if (!id.valid()) return false;
  // Only genuinely pending events can be cancelled: a stale handle (already
  // fired or already cancelled, possibly with the slot since recycled) fails
  // the seq comparison and is rejected without touching any state.
  if (id.slot_ >= pool_.size()) return false;
  Entry& e = pool_[id.slot_];
  if (e.seq != id.seq_) return false;
  // In-place heap removal: swap the last leaf into the vacated position and
  // restore the heap property in whichever direction it was violated.
  const std::uint32_t pos = e.heap_pos;
  const auto last_pos = static_cast<std::uint32_t>(heap_.size()) - 1;
  const std::uint32_t moved = heap_[last_pos];
  heap_.pop_back();
  if (pos != last_pos) {
    heap_[pos] = moved;
    pool_[moved].heap_pos = pos;
    sift_down(pos);
    sift_up(pos);
  }
  release_slot(id.slot_);
  return true;
}

std::uint64_t Kernel::run(Time until) {
  std::uint64_t ran = 0;
  while (!heap_.empty()) {
    const Time t = pool_[heap_[0]].at;
    // Peek: do not advance past `until`.
    if (t > until) break;
    PAP_CHECK(t >= now_);
    now_ = t;
    // Drain the whole timestamp as one batch: same-t events run in
    // (priority, insertion) order without re-checking `until` per event, and
    // events the handlers schedule *at* t join the batch (schedule_at
    // forbids the past, so nothing can sneak in before t).
    while (!heap_.empty() && pool_[heap_[0]].at == t) {
      const std::uint32_t slot = pop_root();
      ++executed_;
      EventFn fn = std::move(pool_[slot].fn);
      release_slot(slot);
      fn();
      ++ran;
    }
  }
  return ran;
}

void Timeout::arm(Time delay) {
  cancel();
  pending_ = true;
  id_ = kernel_.schedule_in(delay,
                            [this] {
                              pending_ = false;
                              fn_();
                            },
                            priority_);
}

void Timeout::cancel() {
  if (!pending_) return;
  kernel_.cancel(id_);
  pending_ = false;
  id_ = EventId{};
}

PeriodicEvent::PeriodicEvent(Kernel& kernel, Time start, Time period,
                             EventFn fn, int priority)
    : kernel_(kernel), period_(period), fn_(std::move(fn)), priority_(priority) {
  PAP_CHECK_MSG(period.picos() > 0, "period must be positive");
  pending_ = kernel_.schedule_at(start, [this] { fire(); }, priority_);
}

void PeriodicEvent::fire() {
  pending_ = EventId{};
  if (!running_) return;
  fn_();
  if (running_) {
    pending_ = kernel_.schedule_in(period_, [this] { fire(); }, priority_);
  }
}

void PeriodicEvent::stop() {
  running_ = false;
  if (pending_.valid()) {
    kernel_.cancel(pending_);
    pending_ = EventId{};
  }
}

}  // namespace pap::sim
