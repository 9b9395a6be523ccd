// Bump allocator backing the batched NC engine (batch.hpp).
//
// The linear-time curve kernels (PR 3) made the algebra itself cheap; what
// remains on the admission/sweep hot paths is allocation — every
// combine/deconvolve builds fresh std::vector<Segment> storage, and papd
// plus the sweep engine issue millions of such ops. An Arena turns all of
// that into pointer bumps: curve storage for one *decision* (one admission
// check, one sweep point) is carved out of a few large blocks and released
// wholesale with a single reset() once the decision's results have been
// copied out.
//
// Lifetime contract (see docs/performance.md):
//  * allocations live until the next reset()/release() of their arena —
//    there is no per-allocation free;
//  * reset() rewinds every block for reuse and bumps the epoch; any
//    CurveView handed out before the reset is invalid from that point on
//    (epoch() lets debug code assert against stale views);
//  * release() additionally returns the blocks to the heap — used by pool
//    workers on exit so long-lived processes don't pin peak-decision
//    footprints;
//  * an Arena is single-threaded. Cross-thread use goes through
//    thread_arena(), which hands every thread its own instance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace pap::nc {

class Arena {
 public:
  /// `first_block_bytes` sizes the initial block; later blocks double until
  /// kMaxBlockBytes. Oversized requests get a dedicated block.
  explicit Arena(std::size_t first_block_bytes = 1 << 16);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Uninitialized storage for `count` objects of trivially-destructible
  /// type T, aligned for T. Valid until reset()/release().
  template <typename T>
  T* alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is never destructed");
    // Blocks come from new[] and are aligned to the default new alignment,
    // so offset-relative alignment is valid for any align up to that.
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "over-aligned arena storage");
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Rewind all blocks for reuse; O(blocks), frees nothing. Every pointer
  /// previously handed out becomes invalid. Bumps epoch().
  void reset() {
    active_ = 0;
    offset_ = 0;
    in_use_ = 0;
    ++epoch_;
  }

  /// reset() plus return all blocks to the heap.
  void release();

  /// Incremented by every reset()/release(); lets holders of long-lived
  /// views assert they are not reading across a rewind.
  std::uint64_t epoch() const { return epoch_; }

  /// Bytes handed out since the last reset (not counting alignment waste).
  std::size_t bytes_in_use() const { return in_use_; }

  /// Total block capacity currently held (the arena's heap footprint).
  std::size_t bytes_reserved() const;

 private:
  // Bump within the active block; `align` is a power of two (alloc<T>).
  void* allocate(std::size_t bytes, std::size_t align) {
    if (active_ < blocks_.size()) {
      const std::size_t aligned = (offset_ + align - 1) & ~(align - 1);
      if (aligned + bytes <= blocks_[active_].size) {
        offset_ = aligned + bytes;
        in_use_ += bytes;
        return blocks_[active_].data.get() + aligned;
      }
    }
    return allocate_slow(bytes, align);
  }
  void* allocate_slow(std::size_t bytes, std::size_t align);

  static constexpr std::size_t kMaxBlockBytes = 1 << 22;  // 4 MiB

  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  std::vector<Block> blocks_;
  std::size_t active_ = 0;   ///< block currently being filled
  std::size_t offset_ = 0;   ///< fill position within blocks_[active_]
  std::size_t next_size_;    ///< size of the next block to allocate
  std::size_t in_use_ = 0;
  std::uint64_t epoch_ = 0;
};

/// Per-thread arena for the analysis hot paths: E2eAnalysis decisions reset
/// it on entry, sweep-runner workers and papd worker threads release() it on
/// exit. Results never borrow from it across a public API boundary, so
/// callers need no arena discipline of their own.
Arena& thread_arena();

}  // namespace pap::nc
