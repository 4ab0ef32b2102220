// SharerSet — a width-parameterized set of core ids, the value type the
// read-replication directory speaks once chips scale past the physical
// SCC. For widths up to 64 cores the set is a single inline word (the
// historical u64 sharer bitmask); wider chips spill into a word vector.
// The width is fixed at construction (it is a property of the directory
// encoding, not of the set's population).
//
// Protocol layer: no sccsim/sim/mailbox/kernel includes (CI-enforced).
#pragma once

#include <cassert>
#include <vector>

#include "svm/protocol/types.hpp"

namespace msvm::svm::proto {

class SharerSet {
 public:
  SharerSet() : SharerSet(64) {}

  explicit SharerSet(int width) : width_(width) {
    assert(width >= 1);
    if (width > 64) {
      spill_.assign(static_cast<std::size_t>(num_words()), 0);
    }
  }

  int width() const { return width_; }
  int num_words() const { return (width_ + 63) / 64; }

  void set(int id) {
    if (id < 0 || id >= width_) return;
    word_ref(id / 64) |= u64{1} << (id % 64);
  }

  void clear(int id) {
    if (id < 0 || id >= width_) return;
    word_ref(id / 64) &= ~(u64{1} << (id % 64));
  }

  bool test(int id) const {
    if (id < 0 || id >= width_) return false;
    return (word(id / 64) >> (id % 64)) & 1;
  }

  bool any() const {
    for (int w = 0; w < num_words(); ++w) {
      if (word(w) != 0) return true;
    }
    return false;
  }

  bool none() const { return !any(); }

  int count() const {
    int n = 0;
    for (int w = 0; w < num_words(); ++w) {
      n += __builtin_popcountll(word(w));
    }
    return n;
  }

  void reset() {
    inline_ = 0;
    for (auto& w : spill_) w = 0;
  }

  /// Raw word access for MetaWord's directory packing.
  u64 word(int i) const {
    assert(i >= 0 && i < num_words());
    return width_ <= 64 ? inline_ : spill_[static_cast<std::size_t>(i)];
  }

  void set_word(int i, u64 v) { word_ref(i) = v; }

  /// Calls `fn(core_id)` for every member, in ascending order.
  template <typename F>
  void for_each(F&& fn) const {
    for (int w = 0; w < num_words(); ++w) {
      u64 bits = word(w);
      while (bits != 0) {
        const int bit = __builtin_ctzll(bits);
        fn(w * 64 + bit);
        bits &= bits - 1;
      }
    }
  }

 private:
  u64& word_ref(int i) {
    assert(i >= 0 && i < num_words());
    return width_ <= 64 ? inline_ : spill_[static_cast<std::size_t>(i)];
  }

  int width_;
  u64 inline_ = 0;         // storage for width_ <= 64
  std::vector<u64> spill_; // storage above (empty otherwise)
};

}  // namespace msvm::svm::proto
