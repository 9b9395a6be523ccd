#include "nc/arena.hpp"

namespace pap::nc {

Arena::Arena(std::size_t first_block_bytes)
    : next_size_(first_block_bytes < 64 ? 64 : first_block_bytes) {}

void Arena::release() {
  blocks_.clear();
  blocks_.shrink_to_fit();
  // Keep the growth schedule: the next block matches what the workload
  // needed before, so a released worker that picks work up again does not
  // re-walk the doubling ladder.
  reset();
}

std::size_t Arena::bytes_reserved() const {
  std::size_t total = 0;
  for (const auto& b : blocks_) total += b.size;
  return total;
}

void* Arena::allocate_slow(std::size_t bytes, std::size_t align) {
  // Try the remaining (already-reset) blocks first; allocate a new one only
  // when none fits. Blocks double up to kMaxBlockBytes so steady-state
  // decisions settle into one or two blocks.
  while (active_ + 1 < blocks_.size()) {
    ++active_;
    offset_ = 0;
    const std::size_t aligned = (offset_ + align - 1) & ~(align - 1);
    if (aligned + bytes <= blocks_[active_].size) {
      offset_ = aligned + bytes;
      in_use_ += bytes;
      return blocks_[active_].data.get() + aligned;
    }
  }
  std::size_t size = next_size_;
  while (size < bytes + align) size *= 2;
  if (next_size_ < kMaxBlockBytes) next_size_ *= 2;
  Block block;
  block.data = std::make_unique<std::byte[]>(size);
  block.size = size;
  blocks_.push_back(std::move(block));
  active_ = blocks_.size() - 1;
  offset_ = bytes;
  in_use_ += bytes;
  return blocks_[active_].data.get();
}

Arena& thread_arena() {
  thread_local Arena arena;
  return arena;
}

}  // namespace pap::nc
