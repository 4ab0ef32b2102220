// Functional cache tests: hit/miss behaviour, write-through semantics,
// read-allocate-only policy, LRU eviction, and the MPBT-selective
// invalidate that CL1INVMB relies on.
#include "sccsim/cache.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace msvm::scc {
namespace {

constexpr u32 kLine = 32;

std::vector<u8> pattern_line(u8 seed) {
  std::vector<u8> line(kLine);
  for (u32 i = 0; i < kLine; ++i) line[i] = static_cast<u8>(seed + i);
  return line;
}

TEST(Cache, MissOnEmpty) {
  Cache c(16 * 1024, 2, kLine);
  u64 out = 0;
  EXPECT_FALSE(c.read(0x1000, &out, 8));
  EXPECT_FALSE(c.probe(0x1000));
}

TEST(Cache, FillThenHit) {
  Cache c(16 * 1024, 2, kLine);
  const auto line = pattern_line(7);
  c.fill(0x1000, line.data(), false);
  EXPECT_TRUE(c.probe(0x1000));
  EXPECT_TRUE(c.probe(0x101f));   // same line
  EXPECT_FALSE(c.probe(0x1020));  // next line

  u8 out[8];
  ASSERT_TRUE(c.read(0x1008, out, 8));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], static_cast<u8>(7 + 8 + i));
}

TEST(Cache, WriteUpdatesPresentLineOnly) {
  Cache c(16 * 1024, 2, kLine);
  const u32 value = 0xdeadbeef;
  // No write-allocate: a store to an absent line is rejected.
  EXPECT_FALSE(c.write(0x2000, &value, 4));
  EXPECT_FALSE(c.probe(0x2000));

  const auto line = pattern_line(0);
  c.fill(0x2000, line.data(), false);
  EXPECT_TRUE(c.write(0x2004, &value, 4));
  u32 out = 0;
  ASSERT_TRUE(c.read(0x2004, &out, 4));
  EXPECT_EQ(out, value);
}

TEST(Cache, FillOverwritesExistingLine) {
  Cache c(16 * 1024, 2, kLine);
  c.fill(0x3000, pattern_line(1).data(), false);
  c.fill(0x3000, pattern_line(9).data(), false);
  u8 out = 0;
  ASSERT_TRUE(c.read(0x3000, &out, 1));
  EXPECT_EQ(out, 9);
  // No duplicate line may exist.
  EXPECT_EQ(c.valid_line_count(), 1u);
}

TEST(Cache, LruEvictionWithinSet) {
  // 2-way cache: lines A, B map to the same set; touching A then filling C
  // must evict B (the least recently used).
  Cache c(16 * 1024, 2, kLine);
  const u32 set_stride = c.num_sets() * kLine;
  const u64 a = 0x0;
  const u64 b = a + set_stride;
  const u64 d = a + 2 * set_stride;
  c.fill(a, pattern_line(1).data(), false);
  c.fill(b, pattern_line(2).data(), false);
  u8 tmp;
  ASSERT_TRUE(c.read(a, &tmp, 1));  // A most recent
  c.fill(d, pattern_line(3).data(), false);
  EXPECT_TRUE(c.probe(a));
  EXPECT_FALSE(c.probe(b));  // evicted
  EXPECT_TRUE(c.probe(d));
}

TEST(Cache, InvalidateLine) {
  Cache c(16 * 1024, 2, kLine);
  c.fill(0x4000, pattern_line(5).data(), false);
  c.invalidate_line(0x4010);  // any address within the line
  EXPECT_FALSE(c.probe(0x4000));
}

TEST(Cache, Cl1invmbInvalidatesOnlyMpbtLines) {
  Cache c(16 * 1024, 2, kLine);
  c.fill(0x1000, pattern_line(1).data(), /*mpbt=*/true);
  c.fill(0x2000, pattern_line(2).data(), /*mpbt=*/false);
  c.fill(0x3000, pattern_line(3).data(), /*mpbt=*/true);
  c.invalidate_mpbt();
  EXPECT_FALSE(c.probe(0x1000));
  EXPECT_TRUE(c.probe(0x2000));  // non-MPBT data survives
  EXPECT_FALSE(c.probe(0x3000));
}

TEST(Cache, InvalidateAll) {
  Cache c(16 * 1024, 2, kLine);
  c.fill(0x1000, pattern_line(1).data(), true);
  c.fill(0x2000, pattern_line(2).data(), false);
  c.invalidate_all();
  EXPECT_EQ(c.valid_line_count(), 0u);
}

TEST(Cache, StaleDataIsServedAfterBackingChanges) {
  // The essence of the non-coherent SCC: the cache keeps returning its
  // copy no matter what happened in memory. Higher layers must invalidate
  // explicitly; this test pins the simulator to that behaviour.
  Cache c(16 * 1024, 2, kLine);
  c.fill(0x5000, pattern_line(1).data(), true);
  // "Memory" changes elsewhere — the cache is not told.
  u8 out = 0;
  ASSERT_TRUE(c.read(0x5000, &out, 1));
  EXPECT_EQ(out, 1);  // still the old value: stale by design
}

TEST(Cache, GeometryDerivedCorrectly) {
  Cache l1(16 * 1024, 2, 32);
  EXPECT_EQ(l1.num_sets(), 256u);
  Cache l2(256 * 1024, 4, 32);
  EXPECT_EQ(l2.num_sets(), 2048u);
}

TEST(Cache, EveryWayOfTheFirstAndLastSetKeepsItsOwnPayload) {
  // L2 geometry. Each line's payload follows its header in one record, so
  // filling both ends of the record array checks the stride at its limits.
  Cache c(256 * 1024, 4, kLine);
  const u32 last = c.num_sets() - 1;
  const u64 tag_stride = u64{c.num_sets()} * kLine;  // same set, next tag
  auto addr = [&](u32 set, u32 way) { return set * kLine + way * tag_stride; };
  auto seed = [&](u32 set, u32 way) {
    return static_cast<u8>((set == 0 ? 0 : 128) + way * 32);
  };
  for (u32 set : {0u, last}) {
    for (u32 w = 0; w < c.assoc(); ++w) {
      c.fill(addr(set, w), pattern_line(seed(set, w)).data(), false);
    }
  }
  EXPECT_EQ(c.valid_line_count(), 2u * c.assoc());
  for (u32 set : {0u, last}) {
    for (u32 w = 0; w < c.assoc(); ++w) {
      u8 out[kLine];
      ASSERT_TRUE(c.read(addr(set, w), out, kLine)) << set << "/" << w;
      EXPECT_EQ(std::memcmp(out, pattern_line(seed(set, w)).data(), kLine),
                0)
          << set << "/" << w;
    }
  }
}

TEST(Cache, CapacityIsRespected) {
  // Fill more distinct lines than the cache holds; valid count must not
  // exceed capacity.
  Cache c(1024, 2, kLine);  // 32 lines
  for (u64 i = 0; i < 100; ++i) {
    c.fill(i * kLine, pattern_line(static_cast<u8>(i)).data(), false);
  }
  EXPECT_LE(c.valid_line_count(), 32u);
}

}  // namespace
}  // namespace msvm::scc
