// Integration tests for Core + Chip: the full memory pipeline (page
// tables, caches, WCB), interrupt delivery, TAS registers, and — most
// importantly — demonstrations that the simulated incoherence is real:
// stale reads happen unless software flushes/invalidates, exactly the
// behaviour the SVM layer exists to manage.
#include "sccsim/chip.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace msvm::scc {
namespace {

ChipConfig small_config(int cores = 2) {
  ChipConfig cfg;
  cfg.num_cores = cores;
  cfg.shared_dram_bytes = 4 << 20;
  cfg.private_dram_bytes = 1 << 20;
  return cfg;
}

/// Maps one page at `vaddr` on `core` with the given attributes.
void map_page(Core& core, u64 vaddr, u64 frame_paddr, bool writable,
              bool mpbt) {
  Pte pte;
  pte.frame_paddr = frame_paddr;
  pte.present = true;
  pte.writable = writable;
  pte.mpbt = mpbt;
  core.pagetable().map(vaddr, pte);
}

TEST(Core, VirtualLoadStoreRoundTrip) {
  Chip chip(small_config());
  bool done = false;
  chip.spawn_program(0, [&](Core& c) {
    map_page(c, kSvmVBase, kSharedBase, /*writable=*/true, /*mpbt=*/true);
    c.vstore<u64>(kSvmVBase + 8, 0x1234567890abcdefull);
    EXPECT_EQ(c.vload<u64>(kSvmVBase + 8), 0x1234567890abcdefull);
    done = true;
  });
  chip.run();
  EXPECT_TRUE(done);
}

TEST(Core, TimeAdvancesWithAccesses) {
  Chip chip(small_config());
  chip.spawn_program(0, [&](Core& c) {
    map_page(c, kSvmVBase, kSharedBase, true, true);
    const TimePs t0 = c.now();
    c.vstore<u32>(kSvmVBase, 42);
    EXPECT_GT(c.now(), t0);
  });
  chip.run();
}

TEST(Core, L1HitIsCheaperThanDramMiss) {
  Chip chip(small_config());
  chip.spawn_program(0, [&](Core& c) {
    map_page(c, kSvmVBase, kSharedBase, true, true);
    TimePs t0 = c.now();
    (void)c.vload<u32>(kSvmVBase);  // cold: DRAM fill
    const TimePs miss_cost = c.now() - t0;
    t0 = c.now();
    (void)c.vload<u32>(kSvmVBase);  // warm: L1 hit
    const TimePs hit_cost = c.now() - t0;
    EXPECT_GT(miss_cost, 10 * hit_cost);
    EXPECT_EQ(c.counters().l1_hits, 1u);
    EXPECT_EQ(c.counters().l1_misses, 1u);
  });
  chip.run();
}

TEST(Core, MpbtPagesBypassL2) {
  Chip chip(small_config());
  chip.spawn_program(0, [&](Core& c) {
    map_page(c, kSvmVBase, kSharedBase, true, /*mpbt=*/true);
    (void)c.vload<u32>(kSvmVBase);
    EXPECT_EQ(c.counters().l2_hits + c.counters().l2_misses, 0u);
    EXPECT_EQ(c.l2().valid_line_count(), 0u);
  });
  chip.run();
}

TEST(Core, CachedPagesFillL2) {
  Chip chip(small_config());
  chip.spawn_program(0, [&](Core& c) {
    map_page(c, kSvmVBase, kSharedBase, true, /*mpbt=*/false);
    (void)c.vload<u32>(kSvmVBase);
    EXPECT_EQ(c.counters().l2_misses, 1u);
    EXPECT_EQ(c.l2().valid_line_count(), 1u);
    // Evict from L1, keep in L2: next read must be an L2 hit.
    c.l1().invalidate_all();
    (void)c.vload<u32>(kSvmVBase);
    EXPECT_EQ(c.counters().l2_hits, 1u);
  });
  chip.run();
}

TEST(Core, WcbCombinesStoresIntoOneDramWrite) {
  Chip chip(small_config());
  chip.spawn_program(0, [&](Core& c) {
    map_page(c, kSvmVBase, kSharedBase, true, /*mpbt=*/true);
    const u64 w0 = c.counters().dram_writes;
    // Eight sequential u32 stores = one 32-byte line.
    for (u64 i = 0; i < 8; ++i) {
      c.vstore<u32>(kSvmVBase + 4 * i, static_cast<u32>(i));
    }
    EXPECT_EQ(c.counters().dram_writes, w0);  // still buffered
    c.vstore<u32>(kSvmVBase + 32, 99);        // next line: forces flush
    EXPECT_EQ(c.counters().dram_writes, w0 + 1);
  });
  chip.run();
}

TEST(Core, NonMpbtStoresGoStraightToDram) {
  // The "like uncachable memory" store path (Section 7.2.2): without the
  // MPBT flag every write-through store is its own DRAM transaction.
  Chip chip(small_config());
  chip.spawn_program(0, [&](Core& c) {
    map_page(c, kSvmVBase, kSharedBase, true, /*mpbt=*/false);
    const u64 w0 = c.counters().dram_writes;
    for (u64 i = 0; i < 8; ++i) {
      c.vstore<u32>(kSvmVBase + 4 * i, static_cast<u32>(i));
    }
    EXPECT_EQ(c.counters().dram_writes, w0 + 8);
  });
  chip.run();
}

TEST(Core, StaleReadWithoutInvalidate) {
  // Core 0 caches a value; core 1 overwrites memory; core 0 keeps seeing
  // its stale copy until it invalidates. This is the hardware reality the
  // whole SVM system is built around.
  Chip chip(small_config());
  u32 stale_read = 0;
  u32 fresh_read = 0;
  chip.spawn_program(0, [&](Core& c) {
    map_page(c, kSvmVBase, kSharedBase, true, true);
    c.pstore<u32>(kSharedBase, 111, MemPolicy::kUncached);
    (void)c.vload<u32>(kSvmVBase);  // cache the old value
    // Let core 1 run far ahead.
    c.compute_cycles(1'000'000);
    stale_read = c.vload<u32>(kSvmVBase);
    c.cl1invmb();
    fresh_read = c.vload<u32>(kSvmVBase);
  });
  chip.spawn_program(1, [&](Core& c) {
    c.compute_cycles(10'000);  // after core 0's first read
    c.pstore<u32>(kSharedBase, 222, MemPolicy::kUncached);
  });
  chip.run();
  EXPECT_EQ(stale_read, 111u);  // incoherence: the write was invisible
  EXPECT_EQ(fresh_read, 222u);  // CL1INVMB makes it visible
}

TEST(Core, WcbHidesStoresUntilFlush) {
  // Core 0 writes through the WCB; core 1 reads memory uncached and sees
  // the old data until core 0 flushes. The LRC release step exists
  // precisely because of this.
  Chip chip(small_config());
  u32 before_flush = 99;
  u32 after_flush = 99;
  Chip* chp = &chip;
  chip.spawn_program(0, [&](Core& c) {
    map_page(c, kSvmVBase, kSharedBase, true, true);
    c.vstore<u32>(kSvmVBase, 7);  // sits in the WCB
    c.compute_cycles(100'000);    // give core 1 a window
    c.flush_wcb();
    c.compute_cycles(200'000);
  });
  chip.spawn_program(1, [&](Core& c) {
    c.compute_cycles(50'000);
    before_flush = c.pload<u32>(kSharedBase, MemPolicy::kUncached);
    c.compute_cycles(200'000);
    after_flush = c.pload<u32>(kSharedBase, MemPolicy::kUncached);
    (void)chp;
  });
  chip.run();
  EXPECT_EQ(before_flush, 0u);
  EXPECT_EQ(after_flush, 7u);
}

TEST(Core, PageFaultHandlerInstallsMapping) {
  Chip chip(small_config());
  int faults = 0;
  chip.spawn_program(0, [&](Core& c) {
    c.set_fault_handler([&](Core& core, u64 vaddr, bool is_write) {
      ++faults;
      EXPECT_TRUE(is_write);
      map_page(core, vaddr, kSharedBase, true, true);
    });
    c.vstore<u32>(kSvmVBase + 123, 5);  // faults, then retries
    EXPECT_EQ(c.vload<u32>(kSvmVBase + 123), 5u);
  });
  chip.run();
  EXPECT_EQ(faults, 1);
  EXPECT_EQ(chip.core(0).counters().page_faults, 1u);
}

TEST(Core, WriteToReadOnlyPageFaults) {
  Chip chip(small_config());
  int faults = 0;
  chip.spawn_program(0, [&](Core& c) {
    map_page(c, kSvmVBase, kSharedBase, /*writable=*/false, false);
    c.set_fault_handler([&](Core& core, u64 vaddr, bool is_write) {
      ++faults;
      EXPECT_TRUE(is_write);
      // Upgrade to writable, as an SVM ownership acquisition would.
      core.pagetable().update(vaddr, [](Pte& p) { p.writable = true; });
    });
    (void)c.vload<u32>(kSvmVBase);  // reads are fine
    EXPECT_EQ(faults, 0);
    c.vstore<u32>(kSvmVBase, 1);  // write faults once
    EXPECT_EQ(faults, 1);
  });
  chip.run();
}

TEST(Core, TimerInterruptFires) {
  ChipConfig cfg = small_config(1);
  cfg.timer_period_us = 10;  // 10 us period for a fast test
  Chip chip(cfg);
  chip.spawn_program(0, [&](Core& c) {
    int ticks = 0;
    c.set_timer_handler([&](Core&) { ++ticks; });
    // Busy for ~100 us of virtual time => ~10 timer interrupts.
    for (int i = 0; i < 100; ++i) c.compute_cycles(533);  // ~1 us each
    EXPECT_GE(ticks, 8);
    EXPECT_LE(ticks, 12);
  });
  chip.run();
}

TEST(Core, IpiWakesHaltedCore) {
  Chip chip(small_config());
  bool got_ipi = false;
  u64 source_mask = 0;
  TimePs woke_at = 0;
  chip.spawn_program(0, [&](Core& c) {
    c.set_ipi_handler([&](Core&, const IpiSourceSet& sources) {
      got_ipi = true;
      source_mask = sources.word0();
    });
    while (!got_ipi) c.halt();
    woke_at = c.now();
  });
  chip.spawn_program(1, [&](Core& c) {
    c.compute_cycles(100'000);
    c.raise_ipi(0);
  });
  chip.run();
  EXPECT_TRUE(got_ipi);
  EXPECT_EQ(source_mask, u64{1} << 1);
  // The halted core woke from the IPI, long before its 1 ms timer.
  EXPECT_LT(woke_at, 500 * kPsPerUs);
  EXPECT_GT(woke_at, 100'000 * chip.config().core_cycle_ps());
}

TEST(Core, IpiToRunningCoreDeliveredAtBoundary) {
  Chip chip(small_config());
  bool got_ipi = false;
  chip.spawn_program(0, [&](Core& c) {
    c.set_ipi_handler(
        [&](Core&, const IpiSourceSet&) { got_ipi = true; });
    // Keep computing; the IPI must be delivered at an access boundary.
    for (int i = 0; i < 1000 && !got_ipi; ++i) c.compute_cycles(100);
    EXPECT_TRUE(got_ipi);
  });
  chip.spawn_program(1, [&](Core& c) { c.raise_ipi(0); });
  chip.run();
}

TEST(Core, TasProvidesMutualExclusion) {
  Chip chip(small_config(4));
  int in_critical = 0;
  int max_in_critical = 0;
  int total = 0;
  for (int i = 0; i < 4; ++i) {
    chip.spawn_program(i, [&](Core& c) {
      for (int k = 0; k < 25; ++k) {
        while (!c.tas_try_acquire(0)) c.yield();
        ++in_critical;
        max_in_critical = std::max(max_in_critical, in_critical);
        c.compute_cycles(50);
        ++total;
        --in_critical;
        c.tas_release(0);
        c.compute_cycles(20);
      }
    });
  }
  chip.run();
  EXPECT_EQ(max_in_critical, 1);
  EXPECT_EQ(total, 100);
}

TEST(Core, MpbAccessIsCheaperThanDram) {
  Chip chip(small_config());
  chip.spawn_program(0, [&](Core& c) {
    TimePs t0 = c.now();
    (void)c.pload<u32>(chip.map().mpb_base(0), MemPolicy::kUncached);
    const TimePs mpb_cost = c.now() - t0;
    t0 = c.now();
    (void)c.pload<u32>(kSharedBase, MemPolicy::kUncached);
    const TimePs dram_cost = c.now() - t0;
    EXPECT_LT(mpb_cost, dram_cost);
  });
  chip.run();
}

TEST(Core, RemoteMpbCostsMoreWithDistance) {
  Chip chip(small_config(48));
  chip.spawn_program(0, [&](Core& c) {
    TimePs t0 = c.now();
    (void)c.pload<u32>(chip.map().mpb_base(1), MemPolicy::kUncached);
    const TimePs near = c.now() - t0;  // same tile: 0 hops
    t0 = c.now();
    (void)c.pload<u32>(chip.map().mpb_base(47), MemPolicy::kUncached);
    const TimePs far = c.now() - t0;  // 8 hops
    EXPECT_GT(far, near);
  });
  chip.run();
}

TEST(Core, CountersTrackTraffic) {
  Chip chip(small_config());
  chip.spawn_program(0, [&](Core& c) {
    map_page(c, kSvmVBase, kSharedBase, true, true);
    c.vstore<u32>(kSvmVBase, 1);
    (void)c.vload<u32>(kSvmVBase);
    EXPECT_EQ(c.counters().stores, 1u);
    EXPECT_EQ(c.counters().loads, 1u);
    EXPECT_GE(c.counters().wcb_merges, 1u);
  });
  chip.run();
  const CoreCounters total = chip.total_counters();
  EXPECT_EQ(total.stores, 1u);
  EXPECT_EQ(total.loads, 1u);
}

// The modelled P54C data TLB has 64 entries, direct-mapped on the page
// number: pages 64 apart share a slot and evict each other on every
// access, pages 63 apart do not. The Laplace TLB-aliasing finding
// (ROADMAP) rests on exactly this geometry.
TEST(Core, TlbIsDirectMappedWith64Entries) {
  Chip chip(small_config());
  chip.spawn_program(0, [&](Core& c) {
    const u64 v = kSvmVBase;
    // Maps pages v and v + `apart`, then loads from them alternately and
    // returns the TLB-miss count after each load.
    const auto alternate = [&](u64 apart) {
      const u64 w = v + apart * kPageBytes;
      map_page(c, v, kSharedBase, true, true);
      map_page(c, w, kSharedBase + kPageBytes, true, true);
      const u64 misses0 = c.counters().tlb_misses;
      std::vector<u64> misses;
      for (int i = 0; i < 6; ++i) {
        (void)c.vload<u32>(i % 2 == 0 ? v : w);
        misses.push_back(c.counters().tlb_misses - misses0);
      }
      return misses;
    };
    EXPECT_EQ(alternate(64), (std::vector<u64>{1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(alternate(63), (std::vector<u64>{1, 2, 2, 2, 2, 2}));
  });
  chip.run();
}

TEST(Core, MakespanReported) {
  Chip chip(small_config());
  chip.spawn_program(0, [&](Core& c) { c.compute_cycles(1000); });
  chip.spawn_program(1, [&](Core& c) { c.compute_cycles(5000); });
  chip.run();
  EXPECT_EQ(chip.makespan(), 5000 * chip.config().core_cycle_ps());
}

TEST(Core, McContentionAddsQueueingDelay) {
  // Two runs of the same 48-core DRAM hammering, with and without the
  // contention model; the contended run must take longer.
  auto run = [](bool contention) {
    ChipConfig cfg = small_config(8);
    cfg.mc_contention = contention;
    Chip chip(cfg);
    for (int i = 0; i < 8; ++i) {
      chip.spawn_program(i, [](Core& c) {
        for (int k = 0; k < 200; ++k) {
          (void)c.pload<u32>(kSharedBase + 64 * k, MemPolicy::kUncached);
        }
      });
    }
    chip.run();
    return chip.makespan();
  };
  EXPECT_GT(run(true), run(false));
}

}  // namespace
}  // namespace msvm::scc
