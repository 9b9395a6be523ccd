// Cross-thread hand-off list of a papd reactor.
#pragma once

#include <mutex>
#include <utility>
#include <vector>

namespace pap::serve {

/// Producers on any thread push; the one consumer thread takes everything
/// pushed so far. When the consumer's loop exits it closes the inbox: what
/// was never taken is handed back, and every later push is refused, so
/// the caller still owns — and drops — an item nobody would ever read.
template <class T>
class Inbox {
 public:
  /// Queue `item`; false, leaving `item` with the caller, once closed.
  bool push(T& item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    items_.push_back(std::move(item));
    return true;
  }

  /// Everything pushed since the last take, in push order.
  std::vector<T> take() {
    std::vector<T> out;
    std::lock_guard<std::mutex> lock(mu_);
    out.swap(items_);
    return out;
  }

  /// Refuse every later push; returns what was never taken.
  std::vector<T> close() {
    std::vector<T> out;
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    out.swap(items_);
    return out;
  }

 private:
  std::mutex mu_;
  bool closed_ = false;
  std::vector<T> items_;
};

}  // namespace pap::serve
