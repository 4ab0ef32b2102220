// RCCE / iRCCE tests: two-sided transfers, chunked large messages,
// non-blocking overlap, channel order, barrier and stats.
#include "rcce/rcce.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "sccsim/addrmap.hpp"
#include "sccsim/chip.hpp"

namespace msvm::rcce {
namespace {

scc::ChipConfig small_config(int cores) {
  scc::ChipConfig cfg;
  cfg.num_cores = cores;
  cfg.shared_dram_bytes = 4 << 20;
  cfg.private_dram_bytes = 2 << 20;
  return cfg;
}

/// Boots kernel + RCCE on every core; all cores are members.
class RcceRig {
 public:
  explicit RcceRig(int cores) : chip_(small_config(cores)) {
    for (int i = 0; i < cores; ++i) members_.push_back(i);
    kernels_.resize(static_cast<std::size_t>(cores));
    endpoints_.resize(static_cast<std::size_t>(cores));
  }

  scc::Chip& chip() { return chip_; }

  using Body =
      std::function<void(int rank, Rcce& rcce, kernel::Kernel& k)>;

  void run(Body body) {
    for (int i = 0; i < chip_.num_cores(); ++i) {
      chip_.spawn_program(i, [this, i, body](scc::Core& c) {
        auto& kern = kernels_[static_cast<std::size_t>(i)];
        kern = std::make_unique<kernel::Kernel>(c);
        kern->boot();
        auto& ep = endpoints_[static_cast<std::size_t>(i)];
        ep = std::make_unique<Rcce>(*kern, members_);
        body(ep->rank(), *ep, *kern);
      });
    }
    chip_.run();
  }

 private:
  scc::Chip chip_;
  std::vector<int> members_;
  std::vector<std::unique_ptr<kernel::Kernel>> kernels_;
  std::vector<std::unique_ptr<Rcce>> endpoints_;
};

/// Fills a private buffer with a deterministic pattern via the core.
void fill_pattern(scc::Core& c, u64 vaddr, u32 bytes, u8 seed) {
  for (u32 i = 0; i < bytes; ++i) {
    c.vstore<u8>(vaddr + i, static_cast<u8>(seed + i * 7));
  }
}

bool check_pattern(scc::Core& c, u64 vaddr, u32 bytes, u8 seed) {
  for (u32 i = 0; i < bytes; ++i) {
    if (c.vload<u8>(vaddr + i) != static_cast<u8>(seed + i * 7)) {
      return false;
    }
  }
  return true;
}

TEST(Rcce, RankAssignment) {
  RcceRig rig(4);
  std::vector<int> ranks(4, -1);
  rig.run([&](int rank, Rcce& r, kernel::Kernel& k) {
    ranks[static_cast<std::size_t>(k.core_id())] = rank;
    EXPECT_EQ(r.size(), 4);
  });
  EXPECT_EQ(ranks, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Rcce, LargeMessageIsChunked) {
  // 20 KiB > 4 KiB chunk size: the pipeline must run multiple rounds.
  RcceRig rig(2);
  bool ok = false;
  u64 chunks = 0;
  rig.run([&](int rank, Rcce& r, kernel::Kernel& k) {
    constexpr u32 kBytes = 20 * 1024;
    const u64 buf = k.kmalloc(kBytes);
    if (rank == 0) {
      fill_pattern(k.core(), buf, kBytes, 3);
      r.wait(r.isend(buf, kBytes, 1));
      chunks = r.stats().chunks;
    } else {
      r.wait(r.irecv(buf, kBytes, 0));
      ok = check_pattern(k.core(), buf, kBytes, 3);
    }
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(chunks, 5u);  // ceil(20K / 4K)
}

TEST(Rcce, NonBlockingSendRecvCompletes) {
  RcceRig rig(2);
  bool ok = false;
  rig.run([&](int rank, Rcce& r, kernel::Kernel& k) {
    const u64 buf = k.kmalloc(8192);
    if (rank == 0) {
      fill_pattern(k.core(), buf, 8192, 1);
      auto req = r.isend(buf, 8192, 1);
      r.wait(req);
      EXPECT_TRUE(req->done());
    } else {
      auto req = r.irecv(buf, 8192, 0);
      r.wait(req);
      ok = check_pattern(k.core(), buf, 8192, 1);
    }
  });
  EXPECT_TRUE(ok);
}

TEST(Rcce, BidirectionalExchangeNoDeadlock) {
  // Both ranks isend+irecv simultaneously — the ghost-cell pattern of the
  // Laplace benchmark. Blocking sends would deadlock here if unbuffered;
  // the non-blocking engine must interleave.
  RcceRig rig(2);
  bool ok0 = false;
  bool ok1 = false;
  rig.run([&](int rank, Rcce& r, kernel::Kernel& k) {
    constexpr u32 kBytes = 6000;
    const u64 out = k.kmalloc(kBytes);
    const u64 in = k.kmalloc(kBytes);
    fill_pattern(k.core(), out, kBytes, static_cast<u8>(10 + rank));
    const int peer = 1 - rank;
    auto rr = r.irecv(in, kBytes, peer);
    auto sr = r.isend(out, kBytes, peer);
    r.wait_all({rr, sr});
    const bool ok =
        check_pattern(k.core(), in, kBytes, static_cast<u8>(10 + peer));
    if (rank == 0) {
      ok0 = ok;
    } else {
      ok1 = ok;
    }
  });
  EXPECT_TRUE(ok0);
  EXPECT_TRUE(ok1);
}

TEST(Rcce, QueuedSendsToDistinctPeersDrainInOrder) {
  RcceRig rig(3);
  bool ok1 = false;
  bool ok2 = false;
  rig.run([&](int rank, Rcce& r, kernel::Kernel& k) {
    const u64 buf = k.kmalloc(5000);
    if (rank == 0) {
      fill_pattern(k.core(), buf, 5000, 21);
      auto a = r.isend(buf, 5000, 1);
      auto b = r.isend(buf, 5000, 2);  // queued behind `a`
      r.wait_all({a, b});
    } else {
      r.wait(r.irecv(buf, 5000, 0));
      const bool ok = check_pattern(k.core(), buf, 5000, 21);
      if (rank == 1) {
        ok1 = ok;
      } else {
        ok2 = ok;
      }
    }
  });
  EXPECT_TRUE(ok1);
  EXPECT_TRUE(ok2);
}

TEST(Rcce, ReceivesKeepPerSourceOrderAcrossChannels) {
  // Rank 0 posts two receives from each of sources 3, 1 and 2, in that
  // order; each source sends two messages with distinct patterns. Every
  // buffer must hold its own source's message in send order.
  RcceRig rig(4);
  constexpr u32 kBytes = 5000;  // two chunks, so the channels interleave
  auto seed = [](int source, int i) {
    return static_cast<u8>(source * 40 + i * 20);
  };
  std::vector<bool> ok;
  rig.run([&](int rank, Rcce& r, kernel::Kernel& k) {
    if (rank == 0) {
      std::vector<std::pair<int, int>> posted;  // (source, message index)
      std::vector<u64> bufs;
      std::vector<Rcce::RequestHandle> reqs;
      for (int source : {3, 1, 2}) {
        for (int i = 0; i < 2; ++i) {
          bufs.push_back(k.kmalloc(kBytes));
          reqs.push_back(r.irecv(bufs.back(), kBytes, source));
          posted.emplace_back(source, i);
        }
      }
      r.wait_all(reqs);
      for (std::size_t j = 0; j < bufs.size(); ++j) {
        ok.push_back(check_pattern(
            k.core(), bufs[j], kBytes,
            seed(posted[j].first, posted[j].second)));
      }
    } else {
      for (int i = 0; i < 2; ++i) {
        const u64 buf = k.kmalloc(kBytes);
        fill_pattern(k.core(), buf, kBytes, seed(rank, i));
        r.wait(r.isend(buf, kBytes, 0));
      }
    }
  });
  EXPECT_EQ(ok, std::vector<bool>(6, true));
}

TEST(Rcce, BarrierSynchronisesAllRanks) {
  constexpr int kCores = 8;
  RcceRig rig(kCores);
  std::vector<TimePs> after(kCores, 0);
  rig.run([&](int rank, Rcce& r, kernel::Kernel& k) {
    // Stagger arrival times wildly.
    k.core().compute_cycles(static_cast<u64>(rank) * 100'000);
    r.barrier();
    after[static_cast<std::size_t>(rank)] = k.core().now();
  });
  // Nobody may leave before the slowest arrival (~rank 7's offset).
  const TimePs slowest = 7 * 100'000 *
                         rig.chip().config().core_cycle_ps();
  for (int i = 0; i < kCores; ++i) {
    EXPECT_GE(after[static_cast<std::size_t>(i)], slowest);
  }
}

TEST(Rcce, RepeatedBarriersStaySynchronised) {
  constexpr int kCores = 4;
  RcceRig rig(kCores);
  std::vector<int> counters(kCores, 0);
  bool monotone = true;
  rig.run([&](int rank, Rcce& r, kernel::Kernel&) {
    for (int round = 0; round < 10; ++round) {
      counters[static_cast<std::size_t>(rank)] = round;
      r.barrier();
      // After the barrier every counter must be at this round.
      for (int other = 0; other < kCores; ++other) {
        if (counters[static_cast<std::size_t>(other)] < round) {
          monotone = false;
        }
      }
      r.barrier();
    }
  });
  EXPECT_TRUE(monotone);
}

TEST(Rcce, SubsetDomainUsesRanksNotCoreIds) {
  // Domain = cores {1, 3}: rank 0 is core 1.
  scc::Chip chip(small_config(4));
  std::vector<int> members{1, 3};
  bool ok = false;
  std::vector<std::unique_ptr<kernel::Kernel>> kernels(4);
  std::vector<std::unique_ptr<Rcce>> eps(4);
  for (int core : members) {
    chip.spawn_program(core, [&, core](scc::Core& c) {
      kernels[static_cast<std::size_t>(core)] =
          std::make_unique<kernel::Kernel>(c);
      kernels[static_cast<std::size_t>(core)]->boot();
      eps[static_cast<std::size_t>(core)] = std::make_unique<Rcce>(
          *kernels[static_cast<std::size_t>(core)], members);
      Rcce& r = *eps[static_cast<std::size_t>(core)];
      auto& k = *kernels[static_cast<std::size_t>(core)];
      const u64 buf = k.kmalloc(64);
      if (r.rank() == 0) {
        EXPECT_EQ(core, 1);
        fill_pattern(c, buf, 64, 2);
        r.wait(r.isend(buf, 64, 1));
      } else {
        EXPECT_EQ(core, 3);
        r.wait(r.irecv(buf, 64, 0));
        ok = check_pattern(c, buf, 64, 2);
      }
    });
  }
  chip.run();
  EXPECT_TRUE(ok);
}

TEST(Rcce, StatsAccumulate) {
  RcceRig rig(2);
  u64 sent_bytes = 0;
  u64 barriers = 0;
  rig.run([&](int rank, Rcce& r, kernel::Kernel& k) {
    const u64 buf = k.kmalloc(1000);
    if (rank == 0) {
      r.wait(r.isend(buf, 1000, 1));
      sent_bytes = r.stats().bytes_sent;
    } else {
      r.wait(r.irecv(buf, 1000, 0));
    }
    r.barrier();
    if (rank == 0) barriers = r.stats().barriers;
  });
  EXPECT_EQ(sent_bytes, 1000u);
  EXPECT_EQ(barriers, 1u);
}

TEST(RcceDeath, PeerOutsideTheDomainOrSelfAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto post = [](int peer, bool send) {
    RcceRig rig(2);
    rig.run([&](int rank, Rcce& r, kernel::Kernel& k) {
      if (rank != 0) return;
      const u64 buf = k.kmalloc(64);
      if (send) {
        (void)r.isend(buf, 64, peer);
      } else {
        (void)r.irecv(buf, 64, peer);
      }
    });
  };
  ASSERT_DEATH(post(2, true), "isend peer rank 2 is not another member");
  ASSERT_DEATH(post(-1, false), "irecv peer rank -1 is not another member");
  ASSERT_DEATH(post(0, true), "isend peer rank 0 is not another member");
  ASSERT_DEATH(post(0, false), "irecv peer rank 0 is not another member");
}

}  // namespace
}  // namespace msvm::rcce
