// Unit tests for the remaining simulated devices: the Global Interrupt
// Controller, the Memory backing store (including masked writes and the
// TAS register semantics), and the physical address map edge cases.
#include <gtest/gtest.h>

#include <cstring>

#include "sccsim/gic.hpp"
#include "sccsim/memory.hpp"

namespace msvm::scc {
namespace {

TEST(Gic, PendingMaskAccumulatesSources) {
  Gic gic(48);
  EXPECT_FALSE(gic.has_pending(5));
  gic.raise(5, 3, 100);
  gic.raise(5, 7, 200);
  EXPECT_TRUE(gic.has_pending(5));
  EXPECT_FALSE(gic.has_pending(3));
  EXPECT_EQ(gic.take_pending(5).word0(), (u64{1} << 3) | (u64{1} << 7));
  EXPECT_FALSE(gic.has_pending(5));
  EXPECT_EQ(gic.take_pending(5).word0(), 0u);
}

TEST(Gic, DuplicateRaiseCoalesces) {
  Gic gic(8);
  gic.raise(1, 0, 10);
  gic.raise(1, 0, 20);
  EXPECT_EQ(gic.take_pending(1).word0(), u64{1} << 0);
}

TEST(Gic, WakeCallbackFiresPerRaise) {
  Gic gic(8);
  int wakes = 0;
  int last_target = -1;
  TimePs last_at = 0;
  gic.wake_fn = [&](int target, TimePs at) {
    ++wakes;
    last_target = target;
    last_at = at;
  };
  gic.raise(6, 2, 12345);
  EXPECT_EQ(wakes, 1);
  EXPECT_EQ(last_target, 6);
  EXPECT_EQ(last_at, 12345u);
}

ChipConfig mem_config() {
  ChipConfig cfg;
  cfg.num_cores = 4;
  cfg.shared_dram_bytes = 1 << 20;
  cfg.private_dram_bytes = 64 << 10;
  return cfg;
}

TEST(Memory, SharedDramRoundTrip) {
  ChipConfig cfg = mem_config();
  Memory mem(cfg);
  const u64 value = 0x1122334455667788ull;
  mem.write(kSharedBase + 512, &value, 8);
  u64 out = 0;
  mem.read(kSharedBase + 512, &out, 8);
  EXPECT_EQ(out, value);
}

TEST(Memory, PrivateRegionsAreDisjointPerCore) {
  ChipConfig cfg = mem_config();
  Memory mem(cfg);
  const u32 a = 0xaaaa5555;
  const u32 b = 0x3333cccc;
  mem.write(mem.map().private_base(0) + 16, &a, 4);
  mem.write(mem.map().private_base(3) + 16, &b, 4);
  u32 out = 0;
  mem.read(mem.map().private_base(0) + 16, &out, 4);
  EXPECT_EQ(out, a);
  mem.read(mem.map().private_base(3) + 16, &out, 4);
  EXPECT_EQ(out, b);
}

TEST(Memory, MpbRegionsAreDisjointPerCore) {
  ChipConfig cfg = mem_config();
  Memory mem(cfg);
  const u8 x = 0x5a;
  mem.write(mem.map().mpb_base(1) + 100, &x, 1);
  u8 out = 0;
  mem.read(mem.map().mpb_base(2) + 100, &out, 1);
  EXPECT_EQ(out, 0);
  mem.read(mem.map().mpb_base(1) + 100, &out, 1);
  EXPECT_EQ(out, 0x5a);
}

TEST(Memory, ThousandCoreRegionsStartZeroAndRoundTripAtBothEnds) {
  ChipConfig cfg;
  cfg.num_cores = 1024;
  cfg.private_dram_bytes = 4 << 20;  // 1024 of them fill the 4 GiB window
  Memory mem(cfg);
  const int last = cfg.num_cores - 1;
  struct Region {
    u64 base;
    u64 bytes;
  };
  const Region regions[] = {
      {mem.map().private_base(last), cfg.private_dram_bytes},
      {mem.map().mpb_base(last), mem.map().mpb_size()},
  };
  for (const Region& r : regions) {
    const u64 ends[] = {r.base, r.base + r.bytes - 8};
    for (const u64 at : ends) {
      u64 out = ~u64{0};
      mem.read(at, &out, 8);
      EXPECT_EQ(out, 0u) << std::hex << at;
      const u64 value = 0x0123456789abcdefull ^ at;
      mem.write(at, &value, 8);
      mem.read(at, &out, 8);
      EXPECT_EQ(out, value) << std::hex << at;
    }
  }
}

TEST(Memory, MaskedWritePreservesUnselectedBytes) {
  ChipConfig cfg = mem_config();
  Memory mem(cfg);
  u8 original[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  mem.write(kSharedBase, original, 8);
  u8 update[8] = {0xa0, 0xa1, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7};
  // Only bytes 1, 3 and 6 are dirty.
  mem.write_masked(kSharedBase, update, 8,
                   (1u << 1) | (1u << 3) | (1u << 6));
  u8 out[8];
  mem.read(kSharedBase, out, 8);
  const u8 expect[8] = {1, 0xa1, 3, 0xa3, 5, 6, 0xa6, 8};
  EXPECT_EQ(std::memcmp(out, expect, 8), 0);
}

TEST(Memory, TasSemanticsMatchTheScc) {
  ChipConfig cfg = mem_config();
  Memory mem(cfg);
  // SCC semantics: a read returns the previous value and sets the
  // register; a write clears it. The set register records its holder.
  EXPECT_TRUE(mem.tas_read_acquire(0, 5));   // was free -> acquired
  EXPECT_FALSE(mem.tas_read_acquire(0, 7));  // now busy
  EXPECT_FALSE(mem.tas_read_acquire(0, 5));  // busy for its holder too
  EXPECT_EQ(mem.tas_holder(0), 5);           // failed reads keep it
  mem.tas_write_release(0);
  EXPECT_EQ(mem.tas_holder(0), -1);
  EXPECT_TRUE(mem.tas_read_acquire(0, 7));
  EXPECT_EQ(mem.tas_holder(0), 7);
}

TEST(Memory, FullTasRegisterFileExistsRegardlessOfCoreCount) {
  // A 4-core configuration still exposes all 48 registers — they are a
  // fixed resource of the die.
  ChipConfig cfg = mem_config();
  Memory mem(cfg);
  EXPECT_TRUE(mem.tas_read_acquire(47, 0));
  EXPECT_FALSE(mem.tas_read_acquire(47, 1));
  mem.tas_write_release(47);
}

TEST(Memory, IndependentTasRegisters) {
  ChipConfig cfg = mem_config();
  Memory mem(cfg);
  EXPECT_TRUE(mem.tas_read_acquire(1, 0));
  EXPECT_TRUE(mem.tas_read_acquire(2, 0));  // unaffected by register 1
  mem.tas_write_release(1);
  EXPECT_TRUE(mem.tas_read_acquire(1, 3));
  EXPECT_FALSE(mem.tas_read_acquire(2, 3));
  EXPECT_EQ(mem.tas_holder(1), 3);
  EXPECT_EQ(mem.tas_holder(2), 0);
}

}  // namespace
}  // namespace msvm::scc
