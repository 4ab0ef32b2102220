// obs::LatencyHisto unit tests: the HDR-style bucket map (exact unit
// range, octave/sub-bucket boundaries, bucket_lo as the inverse of
// bucket_of), exact merging, and the percentile edge cases the serving
// benches lean on — empty, single-sample, and a saturated top bucket.
#include "obs/latency_histo.hpp"

#include <gtest/gtest.h>

namespace msvm::obs {
namespace {

TEST(LatencyHisto, UnitBucketsAreExactBelowSubBucketRange) {
  for (u64 v = 0; v < LatencyHisto::kSubBuckets; ++v) {
    EXPECT_EQ(LatencyHisto::bucket_of(v), static_cast<std::size_t>(v));
    EXPECT_EQ(LatencyHisto::bucket_lo(static_cast<std::size_t>(v)), v);
    EXPECT_EQ(LatencyHisto::bucket_width(static_cast<std::size_t>(v)), 1u);
  }
}

TEST(LatencyHisto, OctaveBoundariesLandInTheRightSubBucket) {
  // 16 opens the first octave: [16, 32) split into 16 sub-buckets of 1.
  EXPECT_EQ(LatencyHisto::bucket_of(16), LatencyHisto::kSubBuckets);
  EXPECT_EQ(LatencyHisto::bucket_of(31), LatencyHisto::kSubBuckets + 15);
  // [32, 64): sub-buckets of width 2.
  EXPECT_EQ(LatencyHisto::bucket_of(32), LatencyHisto::kSubBuckets + 16);
  EXPECT_EQ(LatencyHisto::bucket_of(33), LatencyHisto::kSubBuckets + 16);
  EXPECT_EQ(LatencyHisto::bucket_of(34), LatencyHisto::kSubBuckets + 17);
  EXPECT_EQ(LatencyHisto::bucket_of(63), LatencyHisto::kSubBuckets + 31);
  EXPECT_EQ(LatencyHisto::bucket_of(64), LatencyHisto::kSubBuckets + 32);
}

TEST(LatencyHisto, BucketLoInvertsBucketOfOnEveryBoundary) {
  for (std::size_t b = 0; b < LatencyHisto::kNumBuckets; ++b) {
    const u64 lo = LatencyHisto::bucket_lo(b);
    EXPECT_EQ(LatencyHisto::bucket_of(lo), b) << "bucket " << b;
    // The last value of the bucket still maps to it.
    const u64 hi = lo + LatencyHisto::bucket_width(b) - 1;
    if (b + 1 < LatencyHisto::kNumBuckets) {
      EXPECT_EQ(LatencyHisto::bucket_of(hi), b) << "bucket " << b;
      EXPECT_EQ(LatencyHisto::bucket_of(hi + 1), b + 1) << "bucket " << b;
    }
  }
}

TEST(LatencyHisto, QuantisationErrorIsBoundedBySubBucketWidth) {
  // Relative error of bucket_lo vs. any member of the bucket is at most
  // 1/kSubBuckets (6.25% at 4 sub-bits).
  for (u64 v : {u64{100}, u64{12345}, u64{1} << 20, (u64{1} << 33) + 12345}) {
    const std::size_t b = LatencyHisto::bucket_of(v);
    const u64 lo = LatencyHisto::bucket_lo(b);
    EXPECT_LE(lo, v);
    EXPECT_LE(static_cast<double>(v - lo) / static_cast<double>(v),
              1.0 / LatencyHisto::kSubBuckets);
  }
}

TEST(LatencyHisto, EmptyHistogramAnswersZero) {
  const LatencyHisto h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_EQ(h.p999(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(LatencyHisto, SingleSampleIsEveryPercentile) {
  LatencyHisto h;
  h.record(12345);
  EXPECT_EQ(h.count(), 1u);
  // The clamp to [min, max] makes the answer exact despite the 6.25%
  // bucket quantisation.
  EXPECT_EQ(h.percentile(0.0), 12345u);
  EXPECT_EQ(h.p50(), 12345u);
  EXPECT_EQ(h.p999(), 12345u);
  EXPECT_EQ(h.percentile(1.0), 12345u);
}

TEST(LatencyHisto, NearestRankOnUniformRamp) {
  LatencyHisto h;
  for (u64 v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  // Log-bucketed answers are within one sub-bucket of the exact rank.
  EXPECT_NEAR(static_cast<double>(h.p50()), 500.0, 500.0 / 16);
  EXPECT_NEAR(static_cast<double>(h.p95()), 950.0, 950.0 / 16);
  EXPECT_NEAR(static_cast<double>(h.p99()), 990.0, 990.0 / 16);
}

TEST(LatencyHisto, SaturatedTopBucketClampsToTrackedMax) {
  LatencyHisto h;
  const u64 beyond = u64{1}
                     << (LatencyHisto::kSubBits + LatencyHisto::kMaxOctaves);
  h.record(10);
  h.record(beyond + 5);
  h.record(beyond * 2);
  EXPECT_EQ(h.saturated(), 2u);
  EXPECT_EQ(h.max(), beyond * 2);
  // Tail percentiles answer the exact tracked max, not the top bucket's
  // theoretical span.
  EXPECT_EQ(h.percentile(1.0), beyond * 2);
  EXPECT_EQ(h.p999(), beyond * 2);
}

TEST(LatencyHisto, MergeMatchesRecordingEverythingInOne) {
  LatencyHisto a, b, all;
  for (u64 v = 0; v < 500; ++v) {
    const u64 x = (v * 2654435761u) % 100000;
    ((v % 2 == 0) ? a : b).record(x);
    all.record(x);
  }
  LatencyHisto merged;
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_EQ(merged.sum(), all.sum());
  EXPECT_EQ(merged.min(), all.min());
  EXPECT_EQ(merged.max(), all.max());
  EXPECT_EQ(merged.buckets(), all.buckets());
  EXPECT_EQ(merged.p50(), all.p50());
  EXPECT_EQ(merged.p999(), all.p999());
}

TEST(LatencyHisto, MergeWithEmptyIsIdentity) {
  LatencyHisto h, empty;
  h.record(42);
  h.merge(empty);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 42u);
  empty.merge(h);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.min(), 42u);
  EXPECT_EQ(empty.p50(), 42u);
}

}  // namespace
}  // namespace msvm::obs
