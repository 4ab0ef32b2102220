// Pins the invariant the inlined L1-hit fast path (Core::vread_fast /
// vwrite_fast) must uphold: a hit taken on the fast path, TLB hit or TLB
// walk, is cycle- and counter-identical to the same hit walked through
// the full slow path, and every condition the fast path cannot handle
// really does fall back (straddles, WCB overlaps, boundary proximity,
// interrupt delivery, permissions).
#include "sccsim/chip.hpp"

#include <gtest/gtest.h>

#include <vector>

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

// Vpages 0 and 64 of a window share a slot of the 64-entry direct-mapped
// TLB, so alternating between them misses on every access.
constexpr u64 kAlias = u64{64} * kPageBytes;

/// What an access loop leaves behind, to compare two runs of it.
struct LoopResult {
  std::vector<TimePs> costs;   // per access
  std::vector<TimePs> timers;  // clock at each timer interrupt
  CoreCounters counters;
  TimePs end = 0;
};

/// Alternates accesses between the aliasing pages kSvmVBase and
/// kSvmVBase + kAlias (two MPBT frames, both lines in L1) until `until`
/// ps have passed: loads only, or with `stores` a load of the second
/// page and a store to the first, whose line the WCB holds. Every access
/// misses the TLB. `fast` uses vload/vstore (fast path first); otherwise
/// vread/vwrite, which always take the slow path.
LoopResult alias_loop(bool fast, bool stores, TimePs until) {
  Chip chip(small_config());
  LoopResult r;
  chip.spawn_program(0, [&](Core& c) {
    map_page(c, kSvmVBase, kSharedBase, true, true);
    map_page(c, kSvmVBase + kAlias, kSharedBase + kPageBytes, true, true);
    c.set_timer_handler([&](Core& core) { r.timers.push_back(core.now()); });
    (void)c.vload<u64>(kSvmVBase + kAlias);  // both lines are in L1
    (void)c.vload<u64>(kSvmVBase);
    if (stores) c.vstore<u64>(kSvmVBase, 1);  // and the first in the WCB
    const CoreCounters before = c.counters();
    const TimePs t_end = c.now() + until;
    // Access k goes to page k % 2; the warm-up left page 0 in the TLB.
    auto vaddr_of = [](u64 k) { return kSvmVBase + k % 2 * kAlias + k % 4 * 8; };
    for (u64 k = 1; c.now() < t_end; ++k) {
      TimePs t0 = c.now();
      u64 v = 0;
      if (fast) {
        v = c.vload<u64>(vaddr_of(k));
      } else {
        c.vread(vaddr_of(k), &v, sizeof v);
      }
      r.costs.push_back(c.now() - t0);
      if (!stores) continue;
      ++k;
      t0 = c.now();
      ++v;
      if (fast) {
        c.vstore<u64>(vaddr_of(k), v);
      } else {
        c.vwrite(vaddr_of(k), &v, sizeof v);
      }
      r.costs.push_back(c.now() - t0);
    }
    r.counters = c.counters() - before;
    r.end = c.now();
  });
  chip.run();
  return r;
}

/// Every counter of two loop runs is equal.
void expect_same_counters(const CoreCounters& a, const CoreCounters& b) {
  for (const CoreCounterField& f : kCoreCounterFields) {
    EXPECT_EQ(a.*(f.member), b.*(f.member)) << f.name;
  }
}

TEST(CoreFastPath, TlbWalkCostsExactlyWalkPlusHit) {
  const TimePs walk = kTlbMissCycles * small_config().core_cycle_ps();
  const LatencyModel lat(small_config());
  for (const bool stores : {false, true}) {
    SCOPED_TRACE(stores ? "loads and stores" : "loads");
    // Short of the first timer tick: no interrupt lands in the loop.
    const LoopResult fast = alias_loop(true, stores, 20 * kPsPerUs);
    const LoopResult slow = alias_loop(false, stores, 20 * kPsPerUs);
    ASSERT_GT(fast.costs.size(), 200u);
    for (std::size_t i = 0; i < fast.costs.size(); ++i) {
      const bool is_store = stores && i % 2 == 1;
      const TimePs want = is_store ? walk + lat.store_hit() + lat.wcb_merge()
                                   : walk + lat.l1_hit();
      ASSERT_EQ(fast.costs[i], want) << "access " << i;
    }
    EXPECT_EQ(fast.costs, slow.costs);
    EXPECT_TRUE(fast.timers.empty());
    const u64 loads = stores ? fast.costs.size() / 2 : fast.costs.size();
    EXPECT_EQ(fast.counters.loads, loads);
    EXPECT_EQ(fast.counters.l1_hits, loads);
    EXPECT_EQ(fast.counters.tlb_misses, fast.costs.size());
    EXPECT_EQ(fast.counters.tlb_hits, 0u);
    EXPECT_EQ(fast.counters.wcb_flushes, 0u);
    expect_same_counters(fast.counters, slow.counters);
    EXPECT_EQ(fast.end, slow.end);
  }
}

TEST(CoreFastPath, WalkFillsTheTlbSlot) {
  Chip chip(small_config());
  chip.spawn_program(0, [&](Core& c) {
    map_page(c, kSvmVBase, kSharedBase, true, true);
    map_page(c, kSvmVBase + kAlias, kSharedBase, true, true);
    (void)c.vload<u64>(kSvmVBase);
    (void)c.vload<u64>(kSvmVBase + kAlias);  // a walk evicts kSvmVBase
    const CoreCounters before = c.counters();
    const TimePs t0 = c.now();
    (void)c.vload<u64>(kSvmVBase + kAlias + 8);  // the filled slot hits
    EXPECT_EQ(c.now() - t0, chip.latency().l1_hit());
    EXPECT_EQ(c.counters().tlb_hits, before.tlb_hits + 1);
    EXPECT_EQ(c.counters().tlb_misses, before.tlb_misses);
  });
  chip.run();
}

TEST(CoreFastPath, WalkThatCrossesTheBoundaryFallsBack) {
  // Over several timer periods every boundary falls inside some access
  // of the loop, often inside its walk. An access whose walk would cross
  // the boundary must take the slow path, whose tick delivers the timer
  // at the boundary: the interrupts fire at the same clocks, and the
  // loop ends at the same clock, as when every access is a slow one.
  for (const bool stores : {false, true}) {
    SCOPED_TRACE(stores ? "loads and stores" : "loads");
    const TimePs period =
        static_cast<TimePs>(small_config().timer_period_us) * kPsPerUs;
    const LoopResult fast = alias_loop(true, stores, 3 * period);
    const LoopResult slow = alias_loop(false, stores, 3 * period);
    EXPECT_GE(fast.timers.size(), 2u);
    EXPECT_EQ(fast.timers, slow.timers);
    EXPECT_EQ(fast.costs, slow.costs);
    EXPECT_EQ(fast.end, slow.end);
    expect_same_counters(fast.counters, slow.counters);
  }
}

TEST(CoreFastPath, ReadOnlyPageStoreFaultsAfterATlbMiss) {
  Chip chip(small_config());
  int faults = 0;
  chip.spawn_program(0, [&](Core& c) {
    map_page(c, kSvmVBase, kSharedBase, /*writable=*/false, true);
    map_page(c, kSvmVBase + kAlias, kSharedBase + kPageBytes, true, true);
    (void)c.vload<u64>(kSvmVBase);  // warm the line
    (void)c.vload<u64>(kSvmVBase + kAlias);  // evict its TLB slot
    c.set_fault_handler([&](Core& core, u64 vaddr, bool is_write) {
      ++faults;
      EXPECT_TRUE(is_write);
      EXPECT_EQ(vaddr, kSvmVBase);
      core.pagetable().update(vaddr, [](Pte& p) { p.writable = true; });
    });
    const u64 misses0 = c.counters().tlb_misses;
    c.vstore<u64>(kSvmVBase, 7);  // a walk finds the page read-only
    EXPECT_GE(c.counters().tlb_misses, misses0 + 1);
    EXPECT_EQ(c.vload<u64>(kSvmVBase), 7u);
  });
  chip.run();
  EXPECT_EQ(faults, 1);
}

}  // namespace
}  // namespace msvm::scc
