// Cluster aggregation tests: SPMD lifecycle, member subsets, and the
// coherency-domain partitioning (several independent SVM domains on one
// chip, the paper's Section 1 goal).
#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace msvm::cluster {
namespace {

ClusterConfig base_config() {
  ClusterConfig cfg;
  cfg.chip.num_cores = 8;
  cfg.chip.shared_dram_bytes = 16 << 20;
  cfg.chip.private_dram_bytes = 1 << 20;
  return cfg;
}

TEST(Cluster, DefaultsToAllCores) {
  Cluster cl(base_config());
  int launched = 0;
  cl.run([&](Node& n) {
    (void)n;
    ++launched;
  });
  EXPECT_EQ(launched, 8);
}

TEST(Cluster, SubsetMembersGetDenseRanks) {
  ClusterConfig cfg = base_config();
  cfg.members = {1, 4, 6};
  Cluster cl(cfg);
  std::vector<int> rank_of_core(8, -1);
  cl.run([&](Node& n) {
    rank_of_core[static_cast<std::size_t>(n.core_id())] = n.rank();
    EXPECT_EQ(n.size(), 3);
  });
  EXPECT_EQ(rank_of_core[1], 0);
  EXPECT_EQ(rank_of_core[4], 1);
  EXPECT_EQ(rank_of_core[6], 2);
  EXPECT_EQ(rank_of_core[0], -1);
}

TEST(Cluster, NodeAccessAfterRunForStats) {
  ClusterConfig cfg = base_config();
  cfg.members = {0, 1};
  Cluster cl(cfg);
  cl.run([](Node& n) {
    const u64 base = n.svm().alloc(4096);
    n.svm().write<u32>(base + 8 * n.rank(), 1);
    n.svm().barrier();
  });
  EXPECT_GE(cl.node(0).svm().stats().barriers, 2u);
  EXPECT_GE(cl.node(0).core().counters().stores, 1u);
}

TEST(CoherencyDomains, TwoDomainsGetDisjointAddressSpaces) {
  ClusterConfig cfg = base_config();
  cfg.domains = {{0, 1, 2}, {4, 5}};
  Cluster cl(cfg);
  std::vector<u64> base_of_core(8, 0);
  cl.run([&](Node& n) {
    base_of_core[static_cast<std::size_t>(n.core_id())] =
        n.svm().alloc(4096);
    n.svm().barrier();
  });
  // Same base within a domain, different across domains.
  EXPECT_EQ(base_of_core[0], base_of_core[1]);
  EXPECT_EQ(base_of_core[0], base_of_core[2]);
  EXPECT_EQ(base_of_core[4], base_of_core[5]);
  EXPECT_NE(base_of_core[0], base_of_core[4]);
  EXPECT_EQ(cl.num_domains(), 2u);
}

TEST(CoherencyDomains, DomainsRunIndependentWorkloadsConcurrently) {
  // Domain A runs a strong-model counter; domain B a lazy histogram-ish
  // accumulation. Each must get its own correct result with zero
  // interference.
  ClusterConfig cfg = base_config();
  cfg.domains = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  cfg.svm.model = svm::Model::kStrong;  // both domains strong here
  Cluster cl(cfg);
  u32 total_a = 0;
  u64 total_b = 0;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(4096);
    n.svm().barrier();
    if (n.core_id() < 4) {
      for (int i = 0; i < 10; ++i) {
        n.svm().lock_acquire(0);
        n.svm().write<u32>(base, n.svm().read<u32>(base) + 1);
        n.svm().lock_release(0);
      }
      n.svm().barrier();
      if (n.rank() == 0) total_a = n.svm().read<u32>(base);
    } else {
      n.svm().write<u64>(base + 8 + 8 * static_cast<u64>(n.rank()),
                         static_cast<u64>(n.rank()) + 1);
      n.svm().barrier();
      if (n.rank() == 0) {
        for (int r = 0; r < 4; ++r) {
          total_b += n.svm().read<u64>(base + 8 + 8 * static_cast<u64>(r));
        }
      }
    }
    n.svm().barrier();
  });
  EXPECT_EQ(total_a, 40u);      // 4 cores x 10 locked increments
  EXPECT_EQ(total_b, 1 + 2 + 3 + 4u);
}

TEST(CoherencyDomains, SameLockIdsDoNotCollideAcrossDomains) {
  // Lock id 0 in domain A and lock id 0 in domain B alias the same TAS
  // register (a chip-level resource) — that costs contention but must
  // not break correctness.
  ClusterConfig cfg = base_config();
  cfg.domains = {{0, 1}, {2, 3}};
  Cluster cl(cfg);
  std::vector<u64> sums(2, 0);
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(4096);
    n.svm().barrier();
    for (int i = 0; i < 20; ++i) {
      n.svm().lock_acquire(0);
      n.svm().write<u64>(base, n.svm().read<u64>(base) + 1);
      n.svm().lock_release(0);
    }
    n.svm().barrier();
    if (n.rank() == 0) {
      sums[static_cast<std::size_t>(n.core_id() / 2)] =
          n.svm().read<u64>(base);
    }
  });
  EXPECT_EQ(sums[0], 40u);
  EXPECT_EQ(sums[1], 40u);
}

TEST(Cluster, MakespanCoversSlowestMember) {
  ClusterConfig cfg = base_config();
  cfg.members = {0, 1};
  Cluster cl(cfg);
  cl.run([](Node& n) {
    if (n.rank() == 1) n.core().compute_cycles(1'000'000);
  });
  EXPECT_GE(cl.makespan(), 1'000'000 * cl.chip().config().core_cycle_ps());
}


TEST(Barrier, GatherSynchronisesAndStaysSynchronised) {
  ClusterConfig cfg = base_config();
  Cluster cl(cfg);
  std::vector<int> counters(8, 0);
  bool monotone = true;
  std::vector<TimePs> after(8, 0);
  cl.run([&](Node& n) {
    (void)n.svm().alloc(4096);
    // Stagger arrivals wildly; nobody may pass before the slowest.
    n.core().compute_cycles(static_cast<u64>(n.rank()) * 60'000);
    n.svm().barrier();
    after[static_cast<std::size_t>(n.rank())] = n.core().now();
    // Many repeated barriers: the sense reuse must stay sound.
    for (int round = 0; round < 20; ++round) {
      counters[static_cast<std::size_t>(n.rank())] = round;
      n.svm().barrier();
      for (int other = 0; other < 8; ++other) {
        if (counters[static_cast<std::size_t>(other)] < round) {
          monotone = false;
        }
      }
      n.svm().barrier();
    }
  });
  const TimePs slowest =
      7 * 60'000 * cl.chip().config().core_cycle_ps();
  for (int r = 0; r < 8; ++r) {
    EXPECT_GE(after[static_cast<std::size_t>(r)], slowest) << r;
  }
  EXPECT_TRUE(monotone);
}

TEST(Barrier, GatherIsExactForNonPowerOfTwoMemberCounts) {
  // The master-gather barrier must synchronise exactly for any member
  // count: the master waits on every other member's arrival byte. A
  // silently degraded barrier would let a fast core pass before the
  // slowest arrives.
  for (const int members : {3, 5, 6, 7}) {
    ClusterConfig cfg = base_config();
      cfg.members.clear();
    for (int c = 0; c < members; ++c) cfg.members.push_back(c);
    Cluster cl(cfg);
    std::vector<TimePs> after(static_cast<std::size_t>(members), 0);
    std::vector<int> counters(static_cast<std::size_t>(members), 0);
    bool monotone = true;
    cl.run([&](Node& n) {
      (void)n.svm().alloc(4096);
      n.core().compute_cycles(static_cast<u64>(n.rank()) * 60'000);
      n.svm().barrier();
      after[static_cast<std::size_t>(n.rank())] = n.core().now();
      // Repeated barriers keep the sense reuse honest at every n.
      for (int round = 0; round < 12; ++round) {
        counters[static_cast<std::size_t>(n.rank())] = round;
        n.svm().barrier();
        for (int other = 0; other < members; ++other) {
          if (counters[static_cast<std::size_t>(other)] < round) {
            monotone = false;
          }
        }
        n.svm().barrier();
      }
    });
    const TimePs slowest = static_cast<TimePs>(members - 1) * 60'000 *
                           cl.chip().config().core_cycle_ps();
    for (int r = 0; r < members; ++r) {
      EXPECT_GE(after[static_cast<std::size_t>(r)], slowest)
          << "members=" << members << " rank=" << r;
    }
    EXPECT_TRUE(monotone) << "members=" << members;
  }
}

TEST(Barrier, GatherAtFullChipWidth) {
  // All 48 cores of the die: the master scans 47 arrival bytes.
  ClusterConfig cfg = base_config();
  cfg.chip.num_cores = 48;
  Cluster cl(cfg);
  std::vector<TimePs> after(48, 0);
  cl.run([&](Node& n) {
    (void)n.svm().alloc(4096);
    n.core().compute_cycles(static_cast<u64>(n.rank()) * 10'000);
    n.svm().barrier();
    after[static_cast<std::size_t>(n.rank())] = n.core().now();
  });
  const TimePs slowest =
      47 * 10'000 * cl.chip().config().core_cycle_ps();
  for (int r = 0; r < 48; ++r) {
    EXPECT_GE(after[static_cast<std::size_t>(r)], slowest) << r;
  }
}

TEST(Barrier, GatherDataTransferUnderLazyRelease) {
  ClusterConfig cfg = base_config();
  cfg.svm.model = svm::Model::kLazyRelease;
  Cluster cl(cfg);
  bool ok = true;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(4096);
    n.svm().barrier();
    n.svm().write<u64>(base + 8 * static_cast<u64>(n.rank()),
                       100 + static_cast<u64>(n.rank()));
    n.svm().barrier();  // release + acquire through the gather barrier
    for (int r = 0; r < n.size(); ++r) {
      if (n.svm().read<u64>(base + 8 * static_cast<u64>(r)) !=
          100 + static_cast<u64>(r)) {
        ok = false;
      }
    }
    n.svm().barrier();
  });
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace msvm::cluster
