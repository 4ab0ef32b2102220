// Tests for the deterministic RNG and time conversions.
#include <gtest/gtest.h>

#include <set>

#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace msvm {
namespace {

TEST(Time, CyclePeriods) {
  EXPECT_EQ(cycle_ps_from_mhz(533), 1876u);  // SCC core clock
  EXPECT_EQ(cycle_ps_from_mhz(800), 1250u);  // SCC mesh/DRAM clock
  EXPECT_EQ(cycle_ps_from_mhz(1000), 1000u);
}

TEST(Time, Conversions) {
  EXPECT_DOUBLE_EQ(ps_to_us(1'000'000), 1.0);
  EXPECT_DOUBLE_EQ(ps_to_ms(2'500'000'000ull), 2.5);
  EXPECT_DOUBLE_EQ(ps_to_sec(kPsPerSec), 1.0);
}

TEST(Rng, DeterministicForSameSeed) {
  sim::Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  sim::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  sim::Rng r(7);
  for (u64 bound : {1ull, 2ull, 7ull, 48ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(r.next_below(bound), bound);
    }
  }
  EXPECT_EQ(r.next_below(0), 0u);
}

TEST(Rng, NextRangeInclusive) {
  sim::Rng r(9);
  std::set<u64> seen;
  for (int i = 0; i < 500; ++i) {
    const u64 v = r.next_range(10, 13);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 13u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values hit
}

TEST(Rng, DoubleInUnitInterval) {
  sim::Rng r(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

}  // namespace
}  // namespace msvm
