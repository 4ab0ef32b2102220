#include "sim/poll_train.hpp"

namespace msvm::sim {

PollTrain::PollTrain(TimePs slept_at, TimePs gap, TimePs cap, TimePs cost,
                     TimePs interval, TimePs next_boundary)
    : slept_at_(slept_at), cap_(cap), cost_(cost), interval_(interval) {
  if (cap < interval || gap == 0) return;  // not valid()
  TimePs slept = slept_at;
  TimePs boundary = next_boundary;
  for (u64 j = 0; j <= kMaxRamp; ++j) {
    at_[j] = slept + gap;
    gap_[j] = gap;
    boundary_[j] = boundary;
    // A gap of a whole interval puts every later tick past a boundary
    // (the next one is at most an interval after the last crossing).
    if (gap == cap) {
      ramp_ = j;
      period_ = cap + cost;
      return;
    }
    slept = at_[j] + cost;
    if (slept >= boundary) {
      cross_mask_ |= u64{1} << j;
      boundary = slept + interval;
    }
    gap = gap * 2 < cap ? gap * 2 : cap;
  }
}

u64 PollTrain::first_reaching(TimePs t) const {
  for (u64 j = 0; j <= ramp_; ++j) {
    if (at_[j] + cost_ >= t) return j;
  }
  const TimePs d = t - cost_ - at_[ramp_];  // > 0 here
  return ramp_ + (d + period_ - 1) / period_;
}

u64 PollTrain::count_before(OrderKey k, int id) const {
  for (u64 j = 0; j < ramp_; ++j) {
    if (!key_less({at_[j], id}, k)) return j;
  }
  const TimePs a = at_[ramp_];
  if (k.t < a) return ramp_;
  const TimePs d = k.t - a;
  u64 n = (d + period_ - 1) / period_;  // polls strictly before k.t
  if (d % period_ == 0 && id < k.id) ++n;  // the one tied on time
  return ramp_ + n;
}

}  // namespace msvm::sim
