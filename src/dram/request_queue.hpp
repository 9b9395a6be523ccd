// Arrival-ordered request queue of the DRAM controller.
#pragma once

#include <cstdint>
#include <vector>

#include "dram/request.hpp"

namespace pap::dram {

/// One of the controller's queues: requests in arrival order, removable
/// from any position in O(1). A doubly linked list threaded through a slot
/// pool: serving a request from the middle of a deep write queue unlinks
/// its slot and never moves the requests queued behind it. A `Pos` names
/// a queued request until that request is removed.
class RequestQueue {
 public:
  using Pos = std::uint32_t;
  static constexpr Pos kNone = 0xffffffffu;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// The oldest request, or kNone.
  Pos front() const { return head_; }
  /// The next younger request after `p`, or kNone.
  Pos next(Pos p) const { return nodes_[p].next; }
  const Request& operator[](Pos p) const { return nodes_[p].request; }

  /// The oldest request satisfying `pred`, or kNone.
  template <class Pred>
  Pos find_first(Pred pred) const {
    for (Pos p = head_; p != kNone; p = nodes_[p].next) {
      if (pred(nodes_[p].request)) return p;
    }
    return kNone;
  }

  /// Append `r` as the youngest request.
  void push_back(const Request& r) {
    Pos p = free_;
    if (p == kNone) {
      p = static_cast<Pos>(nodes_.size());
      nodes_.emplace_back();
    } else {
      free_ = nodes_[p].next;
    }
    Node& n = nodes_[p];
    n.request = r;
    n.prev = tail_;
    n.next = kNone;
    if (tail_ == kNone) {
      head_ = p;
    } else {
      nodes_[tail_].next = p;
    }
    tail_ = p;
    ++size_;
  }

  /// Remove the request at `p` and return it.
  Request take(Pos p) {
    Node& n = nodes_[p];
    if (n.prev == kNone) {
      head_ = n.next;
    } else {
      nodes_[n.prev].next = n.next;
    }
    if (n.next == kNone) {
      tail_ = n.prev;
    } else {
      nodes_[n.next].prev = n.prev;
    }
    n.next = free_;
    free_ = p;
    --size_;
    return n.request;
  }

 private:
  struct Node {
    Request request;
    Pos prev = kNone;
    Pos next = kNone;
  };
  std::vector<Node> nodes_;
  Pos head_ = kNone;
  Pos tail_ = kNone;
  Pos free_ = kNone;  ///< recycled slots, linked through `next`
  std::size_t size_ = 0;
};

}  // namespace pap::dram
