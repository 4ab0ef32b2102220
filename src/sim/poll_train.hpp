// The polls a parked spin wait would make, in closed form.
//
// A spin wait (kernel::spin_wait) polls its word, and after each failed
// poll relaxes for a backoff gap that doubles up to a cap. While the word
// stays unready every poll fails the same way, so the whole train is a
// function of the wait's state when it went to sleep: poll j wakes at
// at(j), its access ticks to at(j) + cost(), and that tick may pass one
// of the core's boundaries (crosses(j)), where the core checks whether
// to yield. Once the gap has reached its cap and the cap spans a whole
// boundary interval, every poll crosses and the polls are periodic; the
// train stores the polls before that (the ramp) explicitly.
#pragma once

#include <array>

#include "sim/types.hpp"

namespace msvm::sim {

/// A position in the run order. An actor competes for the next pop at
/// (time, its id). A core that checks at a boundary, finds no entry
/// strictly earlier and keeps running sits at (time, kKeepRunning):
/// ahead of every actor tied with it on time.
struct OrderKey {
  TimePs t = 0;
  int id = 0;
};
inline constexpr int kKeepRunning = -1;

inline bool key_less(OrderKey a, OrderKey b) {
  return a.t != b.t ? a.t < b.t : a.id < b.id;
}

class PollTrain {
 public:
  static constexpr int kMaxRamp = 16;

  PollTrain() = default;

  /// The train of a wait that went to sleep at `slept_at` for a first
  /// gap of `gap`, doubling to `cap`; one poll costs `cost`, the core's
  /// boundaries are `interval` apart and the next one is at
  /// `next_boundary`.
  PollTrain(TimePs slept_at, TimePs gap, TimePs cap, TimePs cost,
            TimePs interval, TimePs next_boundary);

  /// False when the gaps never settle at a cap of at least one boundary
  /// interval within kMaxRamp polls: such a wait does not park.
  bool valid() const { return period_ > 0; }

  TimePs cost() const { return cost_; }

  /// When poll j wakes (its entry's time).
  TimePs at(u64 j) const {
    return j <= ramp_ ? at_[j] : at_[ramp_] + (j - ramp_) * period_;
  }
  /// The relax gap before poll j.
  TimePs gap(u64 j) const { return j <= ramp_ ? gap_[j] : cap_; }
  /// True when poll j's access tick passes a boundary.
  bool crosses(u64 j) const {
    return j >= ramp_ || ((cross_mask_ >> j) & 1) != 0;
  }
  /// The clock once `n` polls have failed (the sleep before poll n).
  TimePs slept_after(u64 n) const {
    return n == 0 ? slept_at_ : at(n - 1) + cost_;
  }
  /// The core's next boundary once `n` polls have failed.
  TimePs boundary_after(u64 n) const {
    return n <= ramp_ ? boundary_[n] : at(n - 1) + cost_ + interval_;
  }

  /// The first poll whose tick reaches `t` (at(j) + cost() >= t).
  u64 first_reaching(TimePs t) const;

  /// How many polls of actor `id` pop before `k` in the run order.
  u64 count_before(OrderKey k, int id) const;

 private:
  TimePs slept_at_ = 0;
  TimePs cap_ = 0;
  TimePs cost_ = 0;
  TimePs interval_ = 0;
  TimePs period_ = 0;  // cap + cost: poll to poll, from the ramp's end
  u64 ramp_ = 0;       // first poll of the periodic part
  u64 cross_mask_ = 0;
  std::array<TimePs, kMaxRamp + 1> at_{};
  std::array<TimePs, kMaxRamp + 1> gap_{};
  std::array<TimePs, kMaxRamp + 1> boundary_{};  // before poll j
};

}  // namespace msvm::sim
