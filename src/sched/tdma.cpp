#include "sched/tdma.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pap::sched {

TdmaSchedule::TdmaSchedule(std::vector<TdmaSlot> slots)
    : slots_(std::move(slots)) {
  PAP_CHECK_MSG(!slots_.empty(), "TDMA frame needs at least one slot");
  Time off = Time::zero();
  for (const auto& s : slots_) {
    PAP_CHECK_MSG(s.length > Time::zero(), "slot length must be positive");
    offsets_.push_back(off);
    off += s.length;
  }
  frame_ = off;
}

Time TdmaSchedule::slot_time(std::uint32_t partition) const {
  Time total = Time::zero();
  for (const auto& s : slots_) {
    if (s.owner == partition) total += s.length;
  }
  return total;
}

std::uint32_t TdmaSchedule::owner_at(Time t) const {
  const Time in_frame = Time::ps(t.picos() % frame_.picos());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (in_frame < offsets_[i] + slots_[i].length) return slots_[i].owner;
  }
  return slots_.back().owner;  // unreachable; keeps the compiler happy
}

Time TdmaSchedule::next_grant(std::uint32_t partition, Time t) const {
  PAP_CHECK_MSG(slot_time(partition) > Time::zero(),
                "partition owns no TDMA slot");
  const Time frame_start = Time::ps(t.picos() - t.picos() % frame_.picos());
  // Scan at most two frames: the current one from t, then the next.
  for (int f = 0; f < 2; ++f) {
    const Time base = frame_start + frame_ * f;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].owner != partition) continue;
      const Time start = base + offsets_[i];
      const Time end = start + slots_[i].length;
      if (t < end) return std::max(t, start);
    }
  }
  PAP_UNREACHABLE("a slot-owning partition is granted within two frames");
}

Time TdmaSchedule::completion_time(std::uint32_t partition, Time t,
                                   Time work) const {
  Time now = t;
  Time left = work;
  while (left > Time::zero()) {
    now = next_grant(partition, now);
    // Find the end of the current slot.
    const Time in_frame = Time::ps(now.picos() % frame_.picos());
    Time slot_end = now;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].owner == partition && in_frame >= offsets_[i] &&
          in_frame < offsets_[i] + slots_[i].length) {
        slot_end = now + (offsets_[i] + slots_[i].length - in_frame);
        break;
      }
    }
    const Time usable = slot_end - now;
    if (usable >= left) return now + left;
    left -= usable;
    now = slot_end;
  }
  return now;
}

nc::RateLatency TdmaSchedule::service_curve(std::uint32_t partition,
                                            double rate) const {
  const Time owned = slot_time(partition);
  PAP_CHECK_MSG(owned > Time::zero(), "partition owns no TDMA slot");
  // Longest gap between consecutive grants across the frame boundary.
  Time longest_gap = Time::zero();
  Time prev_end = Time::zero();
  bool seen = false;
  Time first_start = Time::zero();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].owner != partition) continue;
    if (!seen) {
      first_start = offsets_[i];
      seen = true;
    } else {
      longest_gap = std::max(longest_gap, offsets_[i] - prev_end);
    }
    prev_end = offsets_[i] + slots_[i].length;
  }
  // Wrap-around gap.
  longest_gap = std::max(longest_gap, frame_ - prev_end + first_start);
  const double share = owned / frame_;
  return nc::RateLatency{rate * share, longest_gap.nanos()};
}

}  // namespace pap::sched
