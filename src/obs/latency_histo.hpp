// obs::LatencyHisto — log-scaled (HDR-style) latency histogram: the one
// summary-statistics container of the simulator. The serving tier
// records per-request latencies into it, the metrics registry keeps one
// per observed name, and the ping-pong workload summarises its
// round-trips with it.
//
// NOT the same "histogram" as workloads/histogram.{hpp,cpp}: that one is
// a *workload* (cores binning samples into SVM-resident counters under
// striped locks); this one is a *measurement instrument* — it records
// virtual-time samples on the host side, with zero simulated cost, and
// answers percentile queries (BENCH_kv.json, the --metrics dump).
//
// Bucketing follows HdrHistogram's scheme: values below 2^kSubBits land
// in exact unit buckets; above that, each power-of-two octave is split
// into 2^kSubBits sub-buckets, bounding the relative quantisation error
// at 1/2^kSubBits (6.25% with the default 4 sub-bits) across the whole
// range. The exponent range is capped: values at or beyond 2^(kSubBits +
// kMaxOctaves) saturate into the top bucket (and are counted, so a
// saturated histogram is detectable rather than silently clipped).
// Everything is plain integer arithmetic over fixed-size arrays —
// deterministic, mergeable, and byte-stable across platforms.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>

#include "obs/events.hpp"

namespace msvm::obs {

class LatencyHisto {
 public:
  /// Sub-bucket resolution: 2^kSubBits sub-buckets per octave.
  static constexpr u32 kSubBits = 4;
  static constexpr u32 kSubBuckets = 1u << kSubBits;
  /// Octaves above the exact range. With 40 octaves and picosecond
  /// samples the top boundary is 2^44 ps (~17.6 virtual seconds) —
  /// far beyond any sane request latency; beyond it, saturation.
  static constexpr u32 kMaxOctaves = 40;
  static constexpr std::size_t kNumBuckets =
      kSubBuckets + static_cast<std::size_t>(kMaxOctaves) * kSubBuckets;

  /// Bucket index of `v` (values past the top boundary clamp to the
  /// last bucket; see saturated()).
  static constexpr std::size_t bucket_of(u64 v) {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const u32 octave =
        static_cast<u32>(std::bit_width(v)) - kSubBits;  // >= 1
    if (octave > kMaxOctaves) return kNumBuckets - 1;
    const u64 mantissa = (v >> (octave - 1)) - kSubBuckets;  // 0..15
    return kSubBuckets +
           static_cast<std::size_t>(octave - 1) * kSubBuckets +
           static_cast<std::size_t>(mantissa);
  }

  /// Smallest value mapping to bucket `b` (inverse of bucket_of).
  static constexpr u64 bucket_lo(std::size_t b) {
    if (b < kSubBuckets) return static_cast<u64>(b);
    const u32 octave = static_cast<u32>((b - kSubBuckets) / kSubBuckets) + 1;
    const u64 mantissa = (b - kSubBuckets) % kSubBuckets;
    return (kSubBuckets + mantissa) << (octave - 1);
  }

  /// Width of bucket `b` (number of distinct values it covers).
  static constexpr u64 bucket_width(std::size_t b) {
    if (b < kSubBuckets) return 1;
    const u32 octave = static_cast<u32>((b - kSubBuckets) / kSubBuckets) + 1;
    return u64{1} << (octave - 1);
  }

  void record(u64 v) {
    const std::size_t b = bucket_of(v);
    ++counts_[b];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
    if (std::bit_width(v) > static_cast<int>(kSubBits + kMaxOctaves)) {
      ++saturated_;
    }
  }

  /// Folds `other` into this histogram (exact: bucket-wise addition).
  void merge(const LatencyHisto& other) {
    if (other.count_ == 0) return;
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      counts_[b] += other.counts_[b];
    }
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
    count_ += other.count_;
    sum_ += other.sum_;
    saturated_ += other.saturated_;
  }

  u64 count() const { return count_; }
  u64 min() const { return count_ == 0 ? 0 : min_; }
  u64 max() const { return max_; }
  u64 sum() const { return sum_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }
  /// Samples that fell at or past the top bucket boundary. A non-zero
  /// value means percentiles near 1.0 are lower bounds, clamped to the
  /// exact tracked max().
  u64 saturated() const { return saturated_; }

  /// Quantile `q` in [0, 1], linearly interpolated inside the landing
  /// bucket and clamped to the exact [min, max] observed — so an empty
  /// histogram answers 0, a single-sample histogram answers that sample
  /// exactly, and a saturated top bucket answers max() rather than the
  /// bucket's theoretical span.
  u64 percentile(double q) const {
    if (count_ == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    // Nearest-rank, 1-based: the smallest rank covering fraction q.
    u64 target = static_cast<u64>(q * static_cast<double>(count_) + 0.5);
    target = std::clamp<u64>(target, 1, count_);
    u64 cum = 0;
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      if (counts_[b] == 0) continue;
      if (cum + counts_[b] >= target) {
        // A quantile landing among saturated samples has no meaningful
        // in-bucket position (they clamped in from anywhere above the
        // boundary); the exact tracked max is the documented answer.
        if (b == kNumBuckets - 1 && saturated_ > 0) return max_;
        const u64 pos = target - cum;  // 1..counts_[b]
        const u64 interp =
            bucket_lo(b) + (bucket_width(b) * (pos - 1)) / counts_[b];
        return std::clamp(interp, min_, max_);
      }
      cum += counts_[b];
    }
    return max_;  // unreachable with consistent counts
  }

  u64 p50() const { return percentile(0.50); }
  u64 p95() const { return percentile(0.95); }
  u64 p99() const { return percentile(0.99); }
  u64 p999() const { return percentile(0.999); }

  const std::array<u64, kNumBuckets>& buckets() const { return counts_; }

 private:
  std::array<u64, kNumBuckets> counts_{};
  u64 count_ = 0;
  u64 sum_ = 0;
  u64 min_ = 0;
  u64 max_ = 0;
  u64 saturated_ = 0;
};

}  // namespace msvm::obs
