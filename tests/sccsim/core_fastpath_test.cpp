// Pins the invariant the inlined L1-hit fast path (Core::vread_fast /
// vwrite_fast) must uphold: a hit taken on the fast path is cycle- and
// counter-identical to the same hit walked through the full slow path,
// and every condition the fast path cannot handle really does fall back
// (straddles, WCB overlaps, boundary proximity, interrupt delivery).
#include "sccsim/chip.hpp"

#include <gtest/gtest.h>

namespace msvm::scc {
namespace {

ChipConfig small_config() {
  ChipConfig cfg;
  cfg.num_cores = 2;
  cfg.shared_dram_bytes = 4 << 20;
  cfg.private_dram_bytes = 1 << 20;
  return cfg;
}

void map_page(Core& core, u64 vaddr, u64 frame_paddr, bool writable,
              bool mpbt) {
  Pte pte;
  pte.frame_paddr = frame_paddr;
  pte.present = true;
  pte.writable = writable;
  pte.mpbt = mpbt;
  core.pagetable().map(vaddr, pte);
}

TEST(CoreFastPath, HitCostsExactlyTheModelledLatency) {
  Chip chip(small_config());
  chip.spawn_program(0, [&](Core& c) {
    map_page(c, kSvmVBase, kSharedBase, true, true);
    (void)c.vload<u64>(kSvmVBase);  // warm the line (slow path, miss)
    const u64 hits0 = c.counters().l1_hits;
    const u64 loads0 = c.counters().loads;
    const u64 tlb0 = c.counters().tlb_hits;
    // Every warm load must cost exactly l1_hit — the fast path charges
    // the same single latency the slow-path hit does, nothing else.
    for (int i = 0; i < 100; ++i) {
      const TimePs t0 = c.now();
      (void)c.vload<u64>(kSvmVBase);
      EXPECT_EQ(c.now() - t0, chip.latency().l1_hit());
    }
    EXPECT_EQ(c.counters().l1_hits, hits0 + 100);
    EXPECT_EQ(c.counters().loads, loads0 + 100);
    EXPECT_EQ(c.counters().tlb_hits, tlb0 + 100);
  });
  chip.run();
}

TEST(CoreFastPath, StoreMergeCostsStoreHitPlusWcbMerge) {
  Chip chip(small_config());
  chip.spawn_program(0, [&](Core& c) {
    map_page(c, kSvmVBase, kSharedBase, true, true);
    (void)c.vload<u64>(kSvmVBase);  // line present in L1
    const u64 merges0 = c.counters().wcb_merges;
    // Same-line stores with the line in L1: store_hit + wcb_merge.
    for (int i = 0; i < 50; ++i) {
      const TimePs t0 = c.now();
      c.vstore<u64>(kSvmVBase + static_cast<u64>(i % 4) * 8, u64{1} << i);
      EXPECT_EQ(c.now() - t0,
                chip.latency().store_hit() + chip.latency().wcb_merge());
    }
    EXPECT_EQ(c.counters().wcb_merges, merges0 + 50);
  });
  chip.run();
}

TEST(CoreFastPath, StraddlingAccessFallsBackAndStaysCorrect) {
  Chip chip(small_config());
  chip.spawn_program(0, [&](Core& c) {
    map_page(c, kSvmVBase, kSharedBase, true, true);
    const u32 line = scc::kLineBytes;
    // A u64 spanning the line boundary cannot take the fast path; the
    // slow path must still produce the right bytes.
    c.vstore<u64>(kSvmVBase + line - 4, 0x1122334455667788ull);
    c.flush_wcb();
    EXPECT_EQ(c.vload<u64>(kSvmVBase + line - 4), 0x1122334455667788ull);
  });
  chip.run();
}

TEST(CoreFastPath, WcbOverlapIsObservedByLoads) {
  Chip chip(small_config());
  chip.spawn_program(0, [&](Core& c) {
    map_page(c, kSvmVBase, kSharedBase, true, true);
    (void)c.vload<u64>(kSvmVBase);  // warm: later loads are L1 hits
    // The store sits in the WCB (not yet flushed). A fast-path load that
    // ignored the buffered bytes would return the stale line — the
    // overlap check must force the slow path's forwarding.
    c.vstore<u64>(kSvmVBase, 0xdeadbeefcafef00dull);
    EXPECT_EQ(c.vload<u64>(kSvmVBase), 0xdeadbeefcafef00dull);
  });
  chip.run();
}

TEST(CoreFastPath, TimerInterruptsStillFireUnderHitLoops) {
  // The fast path skips the per-access boundary machinery only when the
  // access cannot reach the next boundary; a long loop of pure L1 hits
  // must therefore still cross boundaries and deliver timer interrupts.
  Chip chip(small_config());
  int timer_fires = 0;
  chip.spawn_program(0, [&](Core& c) {
    map_page(c, kSvmVBase, kSharedBase, true, true);
    c.set_timer_handler([&](Core&) { ++timer_fires; });
    (void)c.vload<u64>(kSvmVBase);  // warm
    // Enough warm hits to span several timer periods of virtual time.
    const TimePs period_ps =
        static_cast<TimePs>(chip.config().timer_period_us) * 1'000'000;
    const TimePs t_end = c.now() + 3 * period_ps;
    while (c.now() < t_end) {
      (void)c.vload<u64>(kSvmVBase);
    }
  });
  chip.run();
  EXPECT_GE(timer_fires, 2);
}

TEST(CoreFastPath, ReadOnlyPageStoreFaults) {
  Chip chip(small_config());
  int faults = 0;
  chip.spawn_program(0, [&](Core& c) {
    map_page(c, kSvmVBase, kSharedBase, /*writable=*/false, true);
    (void)c.vload<u64>(kSvmVBase);  // read is fine (and warms the line)
    c.set_fault_handler([&](Core& core, u64 vaddr, bool is_write) {
      ++faults;
      EXPECT_TRUE(is_write);
      // Resolve the fault: upgrade the page so the retry succeeds.
      core.pagetable().update(vaddr, [](Pte& p) { p.writable = true; });
    });
    c.vstore<u64>(kSvmVBase, 7);  // must fault despite the warm line
    EXPECT_EQ(c.vload<u64>(kSvmVBase), 7u);
  });
  chip.run();
  EXPECT_EQ(faults, 1);
}

}  // namespace
}  // namespace msvm::scc
