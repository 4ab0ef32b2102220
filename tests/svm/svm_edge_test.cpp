// Edge-case and misuse tests for the SVM subsystem: collective-call
// contract violations, protection under both models, and capacity
// behaviour.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "svm/svm.hpp"

namespace msvm::svm {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::Node;

ClusterConfig base_config(int cores, Model model) {
  ClusterConfig cfg;
  cfg.chip.num_cores = cores;
  cfg.chip.shared_dram_bytes = 16 << 20;
  cfg.chip.private_dram_bytes = 1 << 20;
  cfg.svm.model = model;
  return cfg;
}

using SvmEdgeDeath = ::testing::Test;

TEST(SvmEdgeDeath, MismatchedAllocSizesPanic) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        Cluster cl(base_config(2, Model::kLazyRelease));
        cl.run([](Node& n) {
          // Collective contract violation: different sizes per rank.
          (void)n.svm().alloc(n.rank() == 0 ? 4096 : 8192);
        });
      },
      "mismatched sizes");
}

TEST(SvmEdgeDeath, ExhaustingVirtualCapacityPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        ClusterConfig cfg = base_config(2, Model::kLazyRelease);
        Cluster cl(cfg);
        cl.run([](Node& n) {
          // The 2-core chip's scratchpad holds 2 x 992 entries; ask for
          // more virtual pages than that.
          (void)n.svm().alloc(3000ull * 4096);
        });
      },
      "exceeds scratchpad capacity");
}

TEST(SvmEdge, AllocSmallerThanPageStillWorks) {
  Cluster cl(base_config(2, Model::kLazyRelease));
  u32 got = 0;
  cl.run([&](Node& n) {
    const u64 a = n.svm().alloc(16);  // rounds up to one page
    const u64 b = n.svm().alloc(16);
    EXPECT_EQ(b - a, 4096u);
    if (n.rank() == 0) n.svm().write<u32>(a, 7);
    n.svm().barrier();
    if (n.rank() == 1) got = n.svm().read<u32>(a);
    n.svm().barrier();
  });
  EXPECT_EQ(got, 7u);
}

TEST(SvmEdge, ReadOnlyUnderStrongModelThrowsOnWrite) {
  Cluster cl(base_config(2, Model::kStrong));
  bool threw = false;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(4096);
    if (n.rank() == 0) n.svm().write<u32>(base, 3);
    n.svm().barrier();
    n.svm().protect_readonly(base, 4096);
    if (n.rank() == 0) {
      // Even the previous owner may no longer write.
      try {
        n.svm().write<u32>(base, 4);
      } catch (const SvmProtectionError&) {
        threw = true;
      }
    }
    n.svm().barrier();
  });
  EXPECT_TRUE(threw);
}

TEST(SvmEdge, ManyRegionsStayIndependent) {
  Cluster cl(base_config(2, Model::kLazyRelease));
  bool ok = true;
  cl.run([&](Node& n) {
    std::vector<u64> regions;
    for (int r = 0; r < 12; ++r) {
      regions.push_back(n.svm().alloc(4096 * (1 + r % 3)));
    }
    n.svm().barrier();
    if (n.rank() == 0) {
      for (std::size_t r = 0; r < regions.size(); ++r) {
        n.svm().write<u64>(regions[r], 1000 + r);
      }
    }
    n.svm().barrier();
    if (n.rank() == 1) {
      for (std::size_t r = 0; r < regions.size(); ++r) {
        if (n.svm().read<u64>(regions[r]) != 1000 + r) ok = false;
      }
    }
    n.svm().barrier();
  });
  EXPECT_TRUE(ok);
}

TEST(SvmEdge, StressManyPagesAcrossModels) {
  for (const Model model : {Model::kStrong, Model::kLazyRelease}) {
    Cluster cl(base_config(4, model));
    u64 sum = 0;
    constexpr u64 kPages = 100;
    cl.run([&](Node& n) {
      const u64 base = n.svm().alloc(kPages * 4096);
      n.svm().barrier();
      // Each rank touches a strided quarter of the pages.
      for (u64 p = static_cast<u64>(n.rank()); p < kPages; p += 4) {
        n.svm().write<u64>(base + p * 4096, p + 1);
      }
      n.svm().barrier();
      if (n.rank() == 0) {
        for (u64 p = 0; p < kPages; ++p) {
          sum += n.svm().read<u64>(base + p * 4096);
        }
      }
      n.svm().barrier();
    });
    EXPECT_EQ(sum, kPages * (kPages + 1) / 2) << "model "
                                              << static_cast<int>(model);
  }
}

}  // namespace
}  // namespace msvm::svm
