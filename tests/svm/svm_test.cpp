// SVM subsystem tests: collective allocation, first-touch affinity,
// strong-model single ownership, lazy release consistency and read-only
// regions. These run over the full stack (kernel + mailbox + caches), so
// they validate the protocols against the simulator's real incoherence.
#include "svm/svm.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "obs/bus.hpp"
#include "sccsim/addrmap.hpp"

namespace msvm::svm {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::Node;

ClusterConfig base_config(int cores, Model model, bool use_ipi = true) {
  ClusterConfig cfg;
  cfg.chip.num_cores = cores;
  cfg.chip.shared_dram_bytes = 16 << 20;
  cfg.chip.private_dram_bytes = 1 << 20;
  cfg.svm.model = model;
  cfg.use_ipi = use_ipi;
  return cfg;
}

/// Counts acquisitions of the first-touch scratchpad lock through the
/// bus's lock events (attach before run; enables the sync category).
class ScratchpadLockCounter : public obs::EventSink {
 public:
  explicit ScratchpadLockCounter(Cluster& cl) {
    cl.chip().bus().enable(obs::kCatSync);
    cl.chip().bus().attach(this);
  }
  void on_event(const obs::Event& e) override {
    if (e.kind == obs::EventKind::kLockAcquire &&
        e.a == static_cast<u64>(SvmDomain::kScratchpadLockReg)) {
      ++count_;
    }
  }
  u64 count() const { return count_; }

 private:
  u64 count_ = 0;
};

u64 total_first_touches(Cluster& cl, int cores) {
  u64 total = 0;
  for (int c = 0; c < cores; ++c) {
    total += cl.node(c).svm().stats().first_touch_allocs;
  }
  return total;
}

TEST(SvmAlloc, CollectiveAllocReturnsSameBaseEverywhere) {
  for (const Model model : {Model::kStrong, Model::kLazyRelease}) {
    Cluster cl(base_config(4, model));
    std::vector<u64> bases(4, 0);
    std::vector<u64> second(4, 0);
    cl.run([&](Node& n) {
      bases[static_cast<std::size_t>(n.rank())] = n.svm().alloc(64 * 1024);
      second[static_cast<std::size_t>(n.rank())] = n.svm().alloc(4096);
    });
    for (int r = 1; r < 4; ++r) {
      EXPECT_EQ(bases[static_cast<std::size_t>(r)], bases[0]);
      EXPECT_EQ(second[static_cast<std::size_t>(r)], second[0]);
    }
    EXPECT_EQ(bases[0], scc::kSvmVBase);
    EXPECT_EQ(second[0], scc::kSvmVBase + 64 * 1024);
  }
}

TEST(SvmAlloc, NoPhysicalFramesBeforeFirstTouch) {
  Cluster cl(base_config(2, Model::kLazyRelease));
  u64 faults_after_alloc = 99;
  cl.run([&](Node& n) {
    (void)n.svm().alloc(1 << 20);
    if (n.rank() == 0) {
      faults_after_alloc = n.core().counters().page_faults;
    }
    n.svm().barrier();
  });
  EXPECT_EQ(faults_after_alloc, 0u);
}

TEST(SvmFirstTouch, FirstToucherAllocatesNearItsMc) {
  // Core 0 (tile (0,0), MC 0) and core 47 (tile (5,3), MC 3) each touch
  // their own page; the frames must come from their local quarters.
  Cluster cl(base_config(48, Model::kLazyRelease));
  u64 frame_paddr_0 = 0;
  u64 frame_paddr_47 = 0;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(2 * 4096);
    if (n.core_id() == 0) n.svm().write<u64>(base, 1);
    if (n.core_id() == 47) n.svm().write<u64>(base + 4096, 1);
    n.svm().barrier();
    if (n.core_id() == 0) {
      frame_paddr_0 = n.core().pagetable().find(base)->frame_paddr;
    }
    if (n.core_id() == 47) {
      frame_paddr_47 = n.core().pagetable().find(base + 4096)->frame_paddr;
    }
  });
  scc::ChipConfig ccfg = base_config(48, Model::kLazyRelease).chip;
  scc::AddrMap map(ccfg);
  EXPECT_EQ(map.decode(frame_paddr_0).owner, scc::Topology::scc_default().nearest_mc(0));
  EXPECT_EQ(map.decode(frame_paddr_47).owner, scc::Topology::scc_default().nearest_mc(47));
}

TEST(SvmFirstTouch, OnlyOneCoreAllocatesEachPage) {
  // All cores hammer the same fresh region; each page must be allocated
  // exactly once chip-wide and every core must read coherent zeroes.
  Cluster cl(base_config(8, Model::kLazyRelease));
  bool all_zero = true;
  constexpr u64 kPages = 16;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(kPages * 4096);
    n.svm().barrier();
    for (u64 p = 0; p < kPages; ++p) {
      if (n.svm().read<u64>(base + p * 4096 + 128) != 0) all_zero = false;
    }
    n.svm().barrier();
  });
  EXPECT_EQ(total_first_touches(cl, 8), kPages);
  EXPECT_TRUE(all_zero);
}

TEST(SvmFirstTouch, ConcurrentStrongFirstTouchAllocatesOneFrameForAll) {
  // OnlyOneCoreAllocatesEachPage counts allocations under LRC; this adds
  // Strong and checks that every core maps the one frame. All cores
  // leave a barrier and write one fresh page at once, so they queue on
  // the scratchpad lock: the first allocates, the rest map its frame.
  constexpr int kCores = 8;
  Cluster cl(base_config(kCores, Model::kStrong));
  ScratchpadLockCounter locks(cl);
  std::vector<u64> frames(kCores, 0);
  std::vector<u32> seen(kCores, 0);
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(4096);
    const auto r = static_cast<std::size_t>(n.rank());
    n.svm().barrier();
    n.svm().write<u32>(base + 4 * r, static_cast<u32>(r) + 1);
    frames[r] = n.core().pagetable().find(base)->frame_paddr;
    n.svm().barrier();
    for (int c = 0; c < kCores; ++c) {
      seen[r] += n.svm().read<u32>(base + 4 * static_cast<u64>(c));
    }
    n.svm().barrier();
  });
  EXPECT_EQ(total_first_touches(cl, kCores), 1u);
  EXPECT_EQ(locks.count(), static_cast<u64>(kCores));  // one first mapping each
  for (int c = 1; c < kCores; ++c) {
    EXPECT_EQ(frames[static_cast<std::size_t>(c)], frames[0]) << "core " << c;
  }
  for (int c = 0; c < kCores; ++c) {
    EXPECT_EQ(seen[static_cast<std::size_t>(c)],
              static_cast<u32>(kCores * (kCores + 1) / 2))
        << "core " << c;
  }
}

TEST(SvmFirstTouch, FallsBackToTheNextMcWhenItsQuarterIsFull) {
  // 1 MiB of shared DRAM gives each MC a 64-frame quarter; MC 0's loses
  // frame 0 (the unallocated sentinel). Core 0 first-touches more pages
  // than that, so the allocator must move on to MC 1.
  constexpr u64 kShared = 1 << 20;
  constexpr u64 kMc0Frames = kShared / 4 / 4096 - 1;
  constexpr u64 kPages = kMc0Frames + 17;
  ClusterConfig cfg = base_config(2, Model::kLazyRelease);
  cfg.chip.shared_dram_bytes = kShared;
  Cluster cl(cfg);
  std::vector<u64> frames;
  bool all_read_back = true;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(kPages * 4096);
    if (n.rank() == 0) {
      for (u64 p = 0; p < kPages; ++p) {
        const u64 va = base + p * 4096;
        n.svm().write<u64>(va, 3 * p + 1);
        frames.push_back(n.core().pagetable().find(va)->frame_paddr);
      }
    }
    n.svm().barrier();
    for (u64 p = 0; p < kPages; ++p) {
      if (n.svm().read<u64>(base + p * 4096) != 3 * p + 1) {
        all_read_back = false;
      }
    }
    n.svm().barrier();
  });
  EXPECT_TRUE(all_read_back);
  ASSERT_EQ(frames.size(), kPages);
  scc::AddrMap map(cfg.chip);
  for (u64 p = 0; p < kPages; ++p) {
    EXPECT_EQ(map.decode(frames[p]).owner, p < kMc0Frames ? 0 : 1)
        << "page " << p;
  }
}

TEST(SvmFirstTouch, TableOneShapeLazyMappingIsCheaperThanStrong) {
  // Table 1: "mapping of a page frame" is much cheaper under Lazy Release
  // (scratchpad lookup only) than under Strong (ownership retrieval).
  auto measure_map_cost = [](Model model) {
    Cluster cl(base_config(2, model));
    TimePs cost = 0;
    cl.run([&](Node& n) {
      constexpr u64 kPages = 64;
      const u64 base = n.svm().alloc(kPages * 4096);
      if (n.rank() == 0) {
        for (u64 p = 0; p < kPages; ++p) {
          n.svm().write<u32>(base + p * 4096, 1);  // allocate everything
        }
      }
      n.svm().barrier();
      if (n.rank() == 1) {
        const TimePs t0 = n.core().now();
        for (u64 p = 0; p < kPages; ++p) {
          n.svm().write<u32>(base + p * 4096, 2);  // map on this core
        }
        cost = (n.core().now() - t0) / kPages;
      }
      n.svm().barrier();
    });
    return cost;
  };
  const TimePs lazy = measure_map_cost(Model::kLazyRelease);
  const TimePs strong = measure_map_cost(Model::kStrong);
  EXPECT_GT(strong, 2 * lazy);  // paper: 10.2 us vs 2.4 us (~4x)
}

TEST(SvmStrong, OwnershipMovesOnRemoteWrite) {
  Cluster cl(base_config(2, Model::kStrong));
  u32 read_back = 0;
  u64 acquires_1 = 0;
  u64 serves_0 = 0;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(4096);
    if (n.rank() == 0) {
      n.svm().write<u32>(base, 0xaa55);
      n.svm().barrier();  // rank 1 takes ownership after this
      n.svm().barrier();
      // Re-acquire and verify rank 1's value (ownership round trip).
      read_back = n.svm().read<u32>(base);
    } else {
      n.svm().barrier();
      EXPECT_EQ(n.svm().read<u32>(base), 0xaa55u);  // pulls ownership
      n.svm().write<u32>(base, 0x1234);
      n.svm().barrier();
    }
  });
  EXPECT_EQ(read_back, 0x1234u);
  acquires_1 = cl.node(1).svm().stats().ownership_acquires;
  serves_0 = cl.node(0).svm().stats().ownership_serves;
  EXPECT_GE(acquires_1, 1u);
  EXPECT_GE(serves_0, 1u);
}

TEST(SvmStrong, OwnerVectorTracksCurrentOwner) {
  Cluster cl(base_config(2, Model::kStrong));
  std::vector<u16> owners;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(4096);
    if (n.rank() == 0) {
      n.svm().write<u32>(base, 1);
      owners.push_back(n.core().pload<u16>(
          cl.domain().owner_entry_paddr(0), scc::MemPolicy::kUncached));
      n.svm().barrier();
      n.svm().barrier();
      owners.push_back(n.core().pload<u16>(
          cl.domain().owner_entry_paddr(0), scc::MemPolicy::kUncached));
    } else {
      n.svm().barrier();
      n.svm().write<u32>(base, 2);
      n.svm().barrier();
    }
  });
  ASSERT_EQ(owners.size(), 2u);
  EXPECT_EQ(owners[0], 0u);  // first toucher
  EXPECT_EQ(owners[1], 1u);  // moved to core 1
}

TEST(SvmStrong, LoserIsUnmappedAfterTransfer) {
  Cluster cl(base_config(2, Model::kStrong));
  bool unmapped_on_0 = false;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(4096);
    if (n.rank() == 0) {
      n.svm().write<u32>(base, 1);
      n.svm().barrier();
      n.svm().barrier();
      const scc::Pte* pte = n.core().pagetable().find(base);
      unmapped_on_0 = (pte == nullptr) || !pte->present;
    } else {
      n.svm().barrier();
      n.svm().write<u32>(base, 2);  // steals ownership from core 0
      n.svm().barrier();
    }
  });
  EXPECT_TRUE(unmapped_on_0);
}

TEST(SvmStrong, PingPongWritesStayCoherent) {
  // The two cores alternately increment a counter on the same page; under
  // single ownership the final value must be exact — any missed flush or
  // stale read would corrupt it.
  Cluster cl(base_config(2, Model::kStrong));
  u32 final_value = 0;
  constexpr int kRounds = 25;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(4096);
    n.svm().barrier();
    for (int round = 0; round < kRounds; ++round) {
      if (round % 2 == static_cast<int>(n.rank())) {
        const u32 v = n.svm().read<u32>(base);
        n.svm().write<u32>(base, v + 1);
      }
      n.svm().barrier();
    }
    if (n.rank() == 0) final_value = n.svm().read<u32>(base);
    n.svm().barrier();
  });
  EXPECT_EQ(final_value, static_cast<u32>(kRounds));
}

TEST(SvmFaultPath, WhichFaultsTakeTheScratchpadLock) {
  // The scratchpad lock arbitrates a page's first mapping on each core;
  // every later fault (an ownership transfer unmapped the page, or a
  // write upgrades a read-only replica) remaps from the core's own PTE.
  // A read-only region is the exception: a core that lost the page to a
  // transfer before the region was protected maps it again through the
  // scratchpad, under the lock. Two cores ping-pong one page; in the
  // read-only case the region is then protected and the core that lost
  // the last transfer reads it.
  struct Case {
    const char* name;
    Model model;
    bool rr;
    bool protect;
    u64 locks;  // scratchpad-lock acquisitions over the run
  };
  const Case cases[] = {
      {"strong", Model::kStrong, false, false, 2},
      {"strong+rr", Model::kStrong, true, false, 2},
      {"lrc", Model::kLazyRelease, false, false, 2},
      {"strong read-only", Model::kStrong, false, true, 3},
  };
  constexpr int kRounds = 30;  // rank 1 writes last, so rank 0 lost it
  for (const Case& c : cases) {
    ClusterConfig cfg = base_config(2, c.model);
    cfg.svm.read_replication = c.rr;
    Cluster cl(cfg);
    ScratchpadLockCounter locks(cl);
    u32 final_value = 0;
    cl.run([&](Node& n) {
      const u64 base = n.svm().alloc(4096);
      n.svm().barrier();
      for (int round = 0; round < kRounds; ++round) {
        if (round % 2 == static_cast<int>(n.rank())) {
          const u32 v = n.svm().read<u32>(base);
          n.svm().write<u32>(base, v + 1);
        }
        n.svm().barrier();
      }
      if (c.protect) n.svm().protect_readonly(base, 4096);
      if (n.rank() == 0) final_value = n.svm().read<u32>(base);
      n.svm().barrier();
    });
    EXPECT_EQ(final_value, static_cast<u32>(kRounds)) << c.name;
    EXPECT_EQ(locks.count(), c.locks) << c.name;
    EXPECT_EQ(total_first_touches(cl, 2), 1u) << c.name;
    const u64 acquires = cl.node(0).svm().stats().ownership_acquires +
                         cl.node(1).svm().stats().ownership_acquires;
    if (c.model == Model::kStrong) {
      EXPECT_GE(acquires, static_cast<u64>(kRounds) - 1) << c.name;
    } else {
      EXPECT_EQ(acquires, 0u) << c.name;
    }
  }
}

TEST(SvmStrong, ManyCoresContendOnOnePage) {
  // Every core increments the same counter under an SVM lock; strong
  // ownership serialises page access underneath.
  constexpr int kCores = 6;
  constexpr int kIters = 10;
  Cluster cl(base_config(kCores, Model::kStrong));
  u32 final_value = 0;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(4096);
    n.svm().barrier();
    for (int i = 0; i < kIters; ++i) {
      n.svm().lock_acquire(1);
      const u32 v = n.svm().read<u32>(base);
      n.svm().write<u32>(base, v + 1);
      n.svm().lock_release(1);
    }
    n.svm().barrier();
    if (n.rank() == 0) final_value = n.svm().read<u32>(base);
  });
  EXPECT_EQ(final_value, kCores * kIters);
}

TEST(SvmLazy, BarrierPublishesWrites) {
  Cluster cl(base_config(2, Model::kLazyRelease));
  u32 observed = 0;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(4096);
    if (n.rank() == 0) {
      n.svm().write<u32>(base + 64, 0xbeef);
      n.svm().barrier();  // release: flush WCB
    } else {
      n.svm().barrier();  // acquire: invalidate
      observed = n.svm().read<u32>(base + 64);
    }
    n.svm().barrier();
  });
  EXPECT_EQ(observed, 0xbeefu);
}

TEST(SvmLazy, LockAcquireReleaseTransfersData) {
  Cluster cl(base_config(2, Model::kLazyRelease));
  u32 observed = 0;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(4096);
    n.svm().barrier();
    if (n.rank() == 0) {
      n.svm().lock_acquire(0);
      n.svm().write<u32>(base, 42);
      n.svm().lock_release(0);
      n.svm().barrier();
    } else {
      n.svm().barrier();  // after rank 0's release
      n.svm().lock_acquire(0);
      observed = n.svm().read<u32>(base);
      n.svm().lock_release(0);
    }
  });
  EXPECT_EQ(observed, 42u);
}

TEST(SvmLazy, DisjointWritesToSamePageMerge) {
  // Two cores write different halves of one page between barriers; the
  // masked WCB flush must preserve both halves.
  Cluster cl(base_config(2, Model::kLazyRelease));
  bool ok = true;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(4096);
    n.svm().barrier();
    const u64 my_half = base + static_cast<u64>(n.rank()) * 2048;
    for (u64 i = 0; i < 2048; i += 8) {
      n.svm().write<u64>(my_half + i, static_cast<u64>(n.rank()) + 1);
    }
    n.svm().barrier();
    for (u64 i = 0; i < 4096; i += 8) {
      const u64 expect = i < 2048 ? 1 : 2;
      if (n.svm().read<u64>(base + i) != expect) ok = false;
    }
    n.svm().barrier();
  });
  EXPECT_TRUE(ok);
}

TEST(SvmLazy, NoOwnershipTrafficUnderLazyModel) {
  Cluster cl(base_config(4, Model::kLazyRelease));
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(16 * 4096);
    n.svm().barrier();
    for (u64 p = 0; p < 16; ++p) {
      n.svm().write<u32>(base + p * 4096 + static_cast<u64>(n.rank()) * 4,
                         7);
    }
    n.svm().barrier();
  });
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(cl.node(c).svm().stats().ownership_acquires, 0u);
    EXPECT_EQ(cl.node(c).svm().stats().ownership_serves, 0u);
  }
}

TEST(SvmReadOnly, ProtectEnablesL2) {
  Cluster cl(base_config(2, Model::kLazyRelease));
  u64 l2_hits = 0;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(4096);
    if (n.rank() == 0) {
      for (u64 i = 0; i < 4096; i += 8) {
        n.svm().write<u64>(base + i, i);
      }
    }
    n.svm().barrier();
    n.svm().protect_readonly(base, 4096);
    // Read twice: first pass fills L2 (and L1), then evict L1 and reread.
    for (u64 i = 0; i < 4096; i += 8) (void)n.svm().read<u64>(base + i);
    n.core().l1().invalidate_all();
    const u64 h0 = n.core().counters().l2_hits;
    for (u64 i = 0; i < 4096; i += 8) (void)n.svm().read<u64>(base + i);
    if (n.rank() == 1) l2_hits = n.core().counters().l2_hits - h0;
    n.svm().barrier();
  });
  EXPECT_GT(l2_hits, 100u);  // 128 lines re-read from L2
}

TEST(SvmReadOnly, WriteToProtectedRegionThrows) {
  Cluster cl(base_config(2, Model::kLazyRelease));
  bool threw = false;
  u64 fault_addr = 0;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(4096);
    if (n.rank() == 0) n.svm().write<u32>(base, 5);
    n.svm().barrier();
    n.svm().protect_readonly(base, 4096);
    if (n.rank() == 1) {
      try {
        n.svm().write<u32>(base + 12, 1);
      } catch (const SvmProtectionError& e) {
        threw = true;
        fault_addr = e.vaddr();
      }
    }
    n.svm().barrier();
  });
  EXPECT_TRUE(threw);
  EXPECT_EQ(fault_addr, scc::kSvmVBase + 12);
}

TEST(SvmReadOnly, ProtectTakesEffectPerCoreAtItsOwnCall) {
  // protect_readonly is collective, but each core's view changes only
  // when that core reaches the call: rank 1, still short of it, may
  // first-touch write the region while rank 0 already waits inside it.
  Cluster cl(base_config(2, Model::kLazyRelease));
  bool early_write_threw = false;
  bool late_write_threw = false;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(4096);
    if (n.rank() == 1) {
      n.core().compute_cycles(1'000'000);
      try {
        n.svm().write<u32>(base, 7);
      } catch (const SvmProtectionError&) {
        early_write_threw = true;
      }
    }
    n.svm().protect_readonly(base, 4096);
    if (n.rank() == 1) {
      try {
        n.svm().write<u32>(base + 4, 8);
      } catch (const SvmProtectionError&) {
        late_write_threw = true;
      }
    }
    n.svm().barrier();
  });
  EXPECT_FALSE(early_write_threw);
  EXPECT_TRUE(late_write_threw);
}

TEST(SvmReadOnly, ValuesReadableOnAllCoresAfterProtect) {
  Cluster cl(base_config(4, Model::kStrong));
  bool ok = true;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(2 * 4096);
    if (n.rank() == 0) {
      for (u64 i = 0; i < 2 * 4096; i += 8) {
        n.svm().write<u64>(base + i, i * 3);
      }
    }
    n.svm().barrier();
    n.svm().protect_readonly(base, 2 * 4096);
    // Under the strong model a read-only region is the only way several
    // cores may read concurrently without ownership traffic.
    const u64 before = n.svm().stats().ownership_acquires;
    for (u64 i = 0; i < 2 * 4096; i += 8) {
      if (n.svm().read<u64>(base + i) != i * 3) ok = false;
    }
    EXPECT_EQ(n.svm().stats().ownership_acquires, before);
    n.svm().barrier();
  });
  EXPECT_TRUE(ok);
}

TEST(SvmModes, WorksWithPollingMailboxes) {
  // The strong model must function with the poll-only mailbox layer too
  // (Figure 7's "without IPI" configuration).
  Cluster cl(base_config(2, Model::kStrong, /*use_ipi=*/false));
  u32 final_value = 0;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(4096);
    n.svm().barrier();
    for (int round = 0; round < 6; ++round) {
      if (round % 2 == static_cast<int>(n.rank())) {
        n.svm().write<u32>(base, n.svm().read<u32>(base) + 1);
      }
      n.svm().barrier();
    }
    if (n.rank() == 0) final_value = n.svm().read<u32>(base);
    n.svm().barrier();
  });
  EXPECT_EQ(final_value, 6u);
}

}  // namespace
}  // namespace msvm::svm
