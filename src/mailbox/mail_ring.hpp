// MailRing — the mailbox system's software-queue arena.
//
// The inbox and the deferred-dispatch queue used to be std::deque<Mail>:
// correct, but every growth step allocates a fresh block and the deque's
// segmented layout costs an extra indirection per access — visible on the
// SVM fault path, where every protocol wait drains mails through these
// queues. MailRing stores mails in one flat power-of-two slab indexed by
// monotonically increasing head/tail counters. Once warmed up it never
// allocates again; the common case (queue depth 0–2) touches a single
// cache line.
//
// Order-preserving middle erase is provided for predicate-based takes
// (recv_match consumes the first matching mail, not necessarily the
// oldest one). It shifts whichever side of the erased slot is shorter
// by one, so a take at the front only advances head_: an overdriven
// server's inbox runs thousands deep, but its takes land at or next to
// the front.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace msvm::mbox {

template <typename T>
class MailRing {
 public:
  bool empty() const { return head_ == tail_; }
  std::size_t size() const { return tail_ - head_; }

  /// i-th queued element, 0 = oldest.
  T& at(std::size_t i) {
    assert(i < size());
    return slab_[(head_ + i) & mask_];
  }
  const T& at(std::size_t i) const {
    assert(i < size());
    return slab_[(head_ + i) & mask_];
  }

  T& front() { return at(0); }

  void push_back(const T& v) {
    if (size() == slab_.size()) grow();
    slab_[tail_++ & mask_] = v;
  }

  void pop_front() {
    assert(!empty());
    ++head_;
  }

  /// Removes the i-th element, preserving the order of the rest: the
  /// elements before it move back one slot, or those after it forward
  /// one, whichever are fewer.
  void erase_at(std::size_t i) {
    assert(i < size());
    if (i < size() - 1 - i) {
      for (std::size_t k = i; k > 0; --k) {
        slab_[(head_ + k) & mask_] = slab_[(head_ + k - 1) & mask_];
      }
      ++head_;
      return;
    }
    for (std::size_t k = i; k + 1 < size(); ++k) {
      slab_[(head_ + k) & mask_] = slab_[(head_ + k + 1) & mask_];
    }
    --tail_;
  }

 private:
  void grow() {
    const std::size_t n = size();
    const std::size_t cap = slab_.empty() ? kInitialCapacity : 2 * n;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < n; ++i) next[i] = at(i);
    slab_.swap(next);
    mask_ = cap - 1;
    head_ = 0;
    tail_ = n;
  }

  static constexpr std::size_t kInitialCapacity = 16;

  std::vector<T> slab_;
  std::size_t mask_ = 0;   // slab_.size() - 1 (power of two)
  std::size_t head_ = 0;   // monotonically increasing; index via & mask_
  std::size_t tail_ = 0;
};

}  // namespace msvm::mbox
