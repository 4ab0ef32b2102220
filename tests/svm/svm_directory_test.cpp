// Directory-state tests for the Strong model's read-replication mode
// (SvmConfig::read_replication): Exclusive -> Shared on a remote read,
// Shared -> Exclusive on a write upgrade with N sharers, and replica
// invalidation actually dropping the mappings. Like svm_test.cpp these
// run over the full stack, so the replicas live in really-incoherent
// simulated caches.
#include "svm/svm.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/report.hpp"
#include "sccsim/addrmap.hpp"

namespace msvm::svm {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::Node;

ClusterConfig rr_config(int cores, bool read_replication = true,
                        bool use_ipi = true) {
  ClusterConfig cfg;
  cfg.chip.num_cores = cores;
  cfg.chip.shared_dram_bytes = 16 << 20;
  cfg.chip.private_dram_bytes = 1 << 20;
  cfg.svm.model = Model::kStrong;
  cfg.svm.read_replication = read_replication;
  cfg.use_ipi = use_ipi;
  return cfg;
}

u64 sum_stat(Cluster& cl, int cores, u64 SvmStats::* field) {
  u64 total = 0;
  for (int c = 0; c < cores; ++c) total += cl.node(c).svm().stats().*field;
  return total;
}

TEST(SvmDirectory, RemoteReadInstallsReadOnlyReplicaWithoutTransfer) {
  Cluster cl(rr_config(2));
  u64 base = 0;
  u64 seen = 0;
  cl.run([&](Node& n) {
    base = n.svm().alloc(4096);
    if (n.rank() == 0) n.svm().write<u64>(base, 0xfeedbeef);
    n.svm().barrier();
    if (n.rank() == 1) seen = n.svm().read<u64>(base);
    n.svm().barrier();
  });
  EXPECT_EQ(seen, 0xfeedbeefu);

  // The reader holds a read-only replica; the owner kept its frame but
  // was downgraded to read-only (Exclusive -> Shared).
  const scc::Pte* owner_pte = cl.node(0).core().pagetable().find(base);
  const scc::Pte* reader_pte = cl.node(1).core().pagetable().find(base);
  ASSERT_NE(owner_pte, nullptr);
  ASSERT_NE(reader_pte, nullptr);
  EXPECT_TRUE(owner_pte->present);
  EXPECT_FALSE(owner_pte->writable);
  EXPECT_TRUE(reader_pte->present);
  EXPECT_FALSE(reader_pte->writable);

  // One grant, one replica — and no ownership movement at all.
  EXPECT_EQ(cl.node(0).svm().stats().replica_grants, 1u);
  EXPECT_EQ(cl.node(1).svm().stats().replica_installs, 1u);
  EXPECT_EQ(cl.node(0).svm().stats().ownership_serves, 0u);
  EXPECT_EQ(cl.node(1).svm().stats().ownership_acquires, 0u);
}

TEST(SvmDirectory, ManyReadersPayOneGrantTotal) {
  // First reader triggers the Exclusive -> Shared downgrade; everyone
  // after that joins the sharer set directly off the directory word.
  constexpr int kCores = 8;
  Cluster cl(rr_config(kCores));
  bool all_correct = true;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(4096);
    if (n.rank() == 0) n.svm().write<u64>(base, 4242);
    n.svm().barrier();
    if (n.svm().read<u64>(base) != 4242) all_correct = false;
    n.svm().barrier();
  });
  EXPECT_TRUE(all_correct);
  EXPECT_EQ(sum_stat(cl, kCores, &SvmStats::replica_grants), 1u);
  EXPECT_EQ(sum_stat(cl, kCores, &SvmStats::replica_installs),
            static_cast<u64>(kCores - 1));
  EXPECT_EQ(sum_stat(cl, kCores, &SvmStats::ownership_serves), 0u);
}

TEST(SvmDirectory, WriteUpgradeInvalidatesAllSharers) {
  // Ranks 1..3 hold replicas; rank 1 then writes. The upgrade must
  // invalidate the other sharers' replicas (Shared -> Exclusive) and
  // every later read must observe the new value.
  constexpr int kCores = 4;
  Cluster cl(rr_config(kCores));
  u64 base = 0;
  bool reads_ok = true;
  bool rereads_ok = true;
  cl.run([&](Node& n) {
    base = n.svm().alloc(4096);
    if (n.rank() == 0) n.svm().write<u64>(base, 7);
    n.svm().barrier();
    if (n.svm().read<u64>(base) != 7) reads_ok = false;
    n.svm().barrier();
    if (n.rank() == 1) n.svm().write<u64>(base, 8);
    n.svm().barrier();
    if (n.svm().read<u64>(base) != 8) rereads_ok = false;
    n.svm().barrier();
  });
  EXPECT_TRUE(reads_ok);
  EXPECT_TRUE(rereads_ok);
  // Rank 1 (a sharer itself) invalidated the replicas at ranks 2 and 3;
  // rank 0 lost its copy through the ordinary ownership transfer.
  EXPECT_EQ(cl.node(1).svm().stats().invalidations_sent, 2u);
  EXPECT_EQ(cl.node(2).svm().stats().invalidations_received +
                cl.node(3).svm().stats().invalidations_received,
            2u);
  EXPECT_EQ(cl.node(0).svm().stats().ownership_serves, 1u);
  EXPECT_NE(cluster::format_report(cl).find("inval tx 2 rx 2,"),
            std::string::npos);
}

TEST(SvmDirectory, InvalidationDropsReplicaMappings) {
  // Observe the page tables right after the upgrade (before the sharers
  // re-fault): the replicas must be gone, only the writer maps the page.
  constexpr int kCores = 4;
  Cluster cl(rr_config(kCores));
  u64 base = 0;
  std::vector<int> present_after_upgrade(kCores, -1);
  std::vector<int> writable_after_upgrade(kCores, -1);
  cl.run([&](Node& n) {
    base = n.svm().alloc(4096);
    if (n.rank() == 0) n.svm().write<u64>(base, 1);
    n.svm().barrier();
    (void)n.svm().read<u64>(base);
    n.svm().barrier();
    if (n.rank() == 3) n.svm().write<u64>(base, 2);
    n.svm().barrier();
    const scc::Pte* pte = n.core().pagetable().find(base);
    const auto r = static_cast<std::size_t>(n.rank());
    present_after_upgrade[r] = (pte != nullptr && pte->present) ? 1 : 0;
    writable_after_upgrade[r] = (pte != nullptr && pte->writable) ? 1 : 0;
    n.svm().barrier();
  });
  EXPECT_EQ(present_after_upgrade[0], 0);  // unmapped by the transfer
  EXPECT_EQ(present_after_upgrade[1], 0);  // replica invalidated
  EXPECT_EQ(present_after_upgrade[2], 0);  // replica invalidated
  EXPECT_EQ(present_after_upgrade[3], 1);  // the new exclusive owner
  EXPECT_EQ(writable_after_upgrade[3], 1);
}

TEST(SvmDirectory, OwnerUpgradesItsOwnDowngradedPage) {
  // After granting a replica the owner is read-only on its own page; a
  // local write must invalidate the sharers and restore Exclusive
  // without any ownership transfer.
  Cluster cl(rr_config(2));
  u64 base = 0;
  u64 final_at_reader = 0;
  cl.run([&](Node& n) {
    base = n.svm().alloc(4096);
    if (n.rank() == 0) n.svm().write<u64>(base, 10);
    n.svm().barrier();
    if (n.rank() == 1) (void)n.svm().read<u64>(base);
    n.svm().barrier();
    if (n.rank() == 0) n.svm().write<u64>(base, 11);  // upgrade in place
    n.svm().barrier();
    if (n.rank() == 1) final_at_reader = n.svm().read<u64>(base);
    n.svm().barrier();
  });
  EXPECT_EQ(final_at_reader, 11u);
  EXPECT_EQ(cl.node(0).svm().stats().invalidations_sent, 1u);
  EXPECT_EQ(cl.node(1).svm().stats().invalidations_received, 1u);
  // The upgrade is resolved locally — nobody serves a transfer.
  EXPECT_EQ(cl.node(0).svm().stats().ownership_serves +
                cl.node(1).svm().stats().ownership_serves,
            0u);
}

TEST(SvmDirectory, PollingModeAlsoConverges) {
  // The grant and invalidation mails must also flow when delivery relies
  // on timer-driven polling instead of IPIs.
  constexpr int kCores = 4;
  Cluster cl(rr_config(kCores, /*read_replication=*/true, /*use_ipi=*/false));
  bool ok = true;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(4096);
    if (n.rank() == 0) n.svm().write<u64>(base, 99);
    n.svm().barrier();
    if (n.svm().read<u64>(base) != 99) ok = false;
    n.svm().barrier();
    if (n.rank() == 2) n.svm().write<u64>(base, 100);
    n.svm().barrier();
    if (n.svm().read<u64>(base) != 100) ok = false;
    n.svm().barrier();
  });
  EXPECT_TRUE(ok);
  EXPECT_GE(sum_stat(cl, kCores, &SvmStats::replica_installs), 3u);
}

TEST(SvmDirectory, FlagOffKeepsSingleOwnerSemantics) {
  // Without the flag every read fault still moves ownership and the
  // replica counters stay hard zero.
  constexpr int kCores = 4;
  Cluster cl(rr_config(kCores, /*read_replication=*/false));
  bool ok = true;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(4096);
    if (n.rank() == 0) n.svm().write<u64>(base, 5);
    n.svm().barrier();
    if (n.svm().read<u64>(base) != 5) ok = false;
    n.svm().barrier();
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(sum_stat(cl, kCores, &SvmStats::replica_installs), 0u);
  EXPECT_EQ(sum_stat(cl, kCores, &SvmStats::replica_grants), 0u);
  EXPECT_EQ(sum_stat(cl, kCores, &SvmStats::invalidations_sent), 0u);
  EXPECT_GE(sum_stat(cl, kCores, &SvmStats::ownership_serves), 1u);
}

TEST(SvmDirectory, FaultCountersTrackReadsAndWrites) {
  Cluster cl(rr_config(2));
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(4096);
    if (n.rank() == 0) n.svm().write<u64>(base, 1);  // write fault
    n.svm().barrier();
    if (n.rank() == 1) (void)n.svm().read<u64>(base);  // read fault
    n.svm().barrier();
  });
  EXPECT_GE(cl.node(0).core().counters().svm_write_faults, 1u);
  EXPECT_EQ(cl.node(0).core().counters().svm_read_faults, 0u);
  EXPECT_GE(cl.node(1).core().counters().svm_read_faults, 1u);
  EXPECT_GE(cl.node(1).core().counters().svm_mail_roundtrips, 1u);
  EXPECT_GT(cl.node(1).core().counters().svm_fault_stall_ps, 0u);
}

}  // namespace
}  // namespace msvm::svm
