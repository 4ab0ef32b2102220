// Kernel substrate tests: boot-time private mapping, the kmalloc heap,
// interrupt fan-out, fault dispatch, and the TAS spin lock.
#include "kernel/kernel.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sccsim/addrmap.hpp"

namespace msvm::kernel {
namespace {

scc::ChipConfig small_config(int cores = 2) {
  scc::ChipConfig cfg;
  cfg.num_cores = cores;
  cfg.shared_dram_bytes = 4 << 20;
  cfg.private_dram_bytes = 1 << 20;
  return cfg;
}

TEST(Kernel, BootMapsPrivateMemory) {
  scc::Chip chip(small_config());
  chip.spawn_program(0, [&](scc::Core& c) {
    Kernel k(c);
    k.boot();
    // The whole private region must be mapped, cacheable, non-MPBT.
    const scc::Pte* pte = c.pagetable().find(scc::kPrivVBase);
    ASSERT_NE(pte, nullptr);
    EXPECT_TRUE(pte->present);
    EXPECT_TRUE(pte->writable);
    EXPECT_FALSE(pte->mpbt);
    const u64 last =
        scc::kPrivVBase + chip.config().private_dram_bytes - 1;
    EXPECT_NE(c.pagetable().find(last), nullptr);
  });
  chip.run();
}

TEST(Kernel, PrivateMemoryIsPerCore) {
  scc::Chip chip(small_config());
  u32 seen_by_1 = 123;
  chip.spawn_program(0, [&](scc::Core& c) {
    Kernel k(c);
    k.boot();
    c.vstore<u32>(scc::kPrivVBase, 777);
  });
  chip.spawn_program(1, [&](scc::Core& c) {
    Kernel k(c);
    k.boot();
    c.compute_cycles(1'000'000);  // run after core 0's store
    seen_by_1 = c.vload<u32>(scc::kPrivVBase);
  });
  chip.run();
  // Same virtual address, different physical frames: no interference.
  EXPECT_EQ(seen_by_1, 0u);
}

TEST(Kernel, KmallocReturnsAlignedDisjointRegions) {
  scc::Chip chip(small_config());
  chip.spawn_program(0, [&](scc::Core& c) {
    Kernel k(c);
    k.boot();
    const u64 a = k.kmalloc(100, 8);
    const u64 b = k.kmalloc(64, 64);
    const u64 d = k.kmalloc(8, 8);
    EXPECT_EQ(a % 8, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 100);
    EXPECT_GE(d, b + 64);
    // Returned memory is usable.
    c.vstore<u64>(a, 1);
    c.vstore<u64>(b, 2);
    c.vstore<u64>(d, 3);
    EXPECT_EQ(c.vload<u64>(a), 1u);
    EXPECT_EQ(c.vload<u64>(b), 2u);
    EXPECT_EQ(c.vload<u64>(d), 3u);
  });
  chip.run();
}

TEST(Kernel, KheapRemainingShrinks) {
  scc::Chip chip(small_config());
  chip.spawn_program(0, [&](scc::Core& c) {
    Kernel k(c);
    k.boot();
    const u64 before = k.kheap_remaining();
    k.kmalloc(1024);
    EXPECT_LE(k.kheap_remaining(), before - 1024);
  });
  chip.run();
}

TEST(Kernel, IpiHandlersFanOut) {
  scc::Chip chip(small_config());
  int calls_a = 0;
  int calls_b = 0;
  chip.spawn_program(0, [&](scc::Core& c) {
    Kernel k(c);
    k.boot();
    k.add_ipi_handler([&](const scc::IpiSourceSet&) { ++calls_a; });
    k.add_ipi_handler([&](const scc::IpiSourceSet&) { ++calls_b; });
    while (calls_a == 0) k.idle_once();
  });
  chip.spawn_program(1, [&](scc::Core& c) {
    c.compute_cycles(1000);
    c.raise_ipi(0);
  });
  chip.run();
  EXPECT_EQ(calls_a, 1);
  EXPECT_EQ(calls_b, 1);
}

TEST(Kernel, SvmFaultHandlerReceivesSvmFaults) {
  scc::Chip chip(small_config());
  u64 faulted_vaddr = 0;
  bool faulted_write = false;
  chip.spawn_program(0, [&](scc::Core& c) {
    Kernel k(c);
    k.boot();
    k.set_svm_fault_handler([&](u64 vaddr, bool is_write) {
      faulted_vaddr = vaddr;
      faulted_write = is_write;
      scc::Pte pte;
      pte.frame_paddr = scc::kSharedBase;
      pte.present = true;
      pte.writable = true;
      pte.mpbt = true;
      c.pagetable().map(vaddr, pte);
    });
    c.vstore<u32>(scc::kSvmVBase + 40, 9);
  });
  chip.run();
  EXPECT_EQ(faulted_vaddr, scc::kSvmVBase + 40);
  EXPECT_TRUE(faulted_write);
}

TEST(TasSpinlock, MutualExclusionAcrossCores) {
  scc::Chip chip(small_config(8));
  TasSpinlock lock(3);
  int critical = 0;
  int max_critical = 0;
  long counter = 0;
  for (int i = 0; i < 8; ++i) {
    chip.spawn_program(i, [&](scc::Core& c) {
      Kernel k(c);
      k.boot();
      for (int iter = 0; iter < 20; ++iter) {
        TasLockGuard guard(lock, c);
        ++critical;
        max_critical = std::max(max_critical, critical);
        c.compute_cycles(30);
        ++counter;
        --critical;
      }
    });
  }
  chip.run();
  EXPECT_EQ(max_critical, 1);
  EXPECT_EQ(counter, 160);
}

TEST(TasSpinlock, ContendedLockEventuallyFair) {
  // All cores must complete; no starvation under the yield-based spin.
  scc::Chip chip(small_config(4));
  std::vector<int> done(4, 0);
  TasSpinlock lock(0);
  for (int i = 0; i < 4; ++i) {
    chip.spawn_program(i, [&, i](scc::Core& c) {
      Kernel k(c);
      k.boot();
      for (int iter = 0; iter < 10; ++iter) {
        lock.lock(c);
        c.compute_cycles(100);
        lock.unlock(c);
      }
      done[static_cast<std::size_t>(i)] = 1;
    });
  }
  chip.run();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(done[static_cast<std::size_t>(i)], 1);
}

}  // namespace
}  // namespace msvm::kernel
