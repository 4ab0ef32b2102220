// Acceptance tests for the data-integrity layer, driven through the full
// cluster stack. The kill-mosaic workload provides the end-to-end runs
// (inject -> detect -> account, with the coherence auditor attached);
// the hand-rolled read-replication clusters pin down the two detection
// points that no injected flip reaches — the shared seal checked at a
// replica join, and the background scrubber — with surgical host-side
// corruption of exactly one byte. Either way the outcome is poisoning.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "sim/faults.hpp"
#include "svm/svm.hpp"
#include "workloads/kill_mosaic.hpp"

namespace msvm::svm {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::Node;
using workloads::KillMosaicParams;
using workloads::KillMosaicResult;

constexpr int kCores = 8;
constexpr u64 kPageBytes = 4096;

KillMosaicResult run_mosaic(const char* spec, bool read_replication = false) {
  KillMosaicParams p;
  p.pages = 8;
  p.seed = 1234;
  p.read_replication = read_replication;
  p.audit = true;  // every run under the coherence auditor
  p.faults = sim::FaultPlan::parse(spec);
  return workloads::run_kill_mosaic(p, Model::kStrong, kCores);
}

TEST(SvmIntegrity, CleanIntegrityPlanStaysCorrectAndQuiet) {
  // Integrity armed but nothing injected: pages seal and verify on every
  // ownership handoff, yet no poison/correction may ever fire —
  // the checking layer must be a pure observer on a clean run.
  const KillMosaicResult r = run_mosaic(
      "integrity=1,watchdog=500ms");
  EXPECT_EQ(r.ranks_verified, kCores);
  EXPECT_EQ(r.ranks_lost, 0);
  EXPECT_EQ(r.slot_mismatches, 0u);
  EXPECT_GT(r.pages_sealed, 0u) << "no handoff ever took a seal";
  EXPECT_GT(r.seal_verifies, 0u) << "no migration ever checked a seal";
  EXPECT_EQ(r.pages_poisoned, 0u);
  EXPECT_EQ(r.meta_corrections, 0u);
  EXPECT_EQ(r.mail_corrupt_drops, 0u);
  EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
}

TEST(SvmIntegrity, MailFlipsAllDroppedAndRetransmitRecovers) {
  // Bit flips in MPB mail slots: the per-mail CRC must catch every one
  // (drops == flips, exactly — a flip that is not dropped was either
  // consumed corrupt or missed), and the retry machinery must keep the
  // run fully correct with no rank lost.
  const KillMosaicResult r = run_mosaic(
      "seed=7,flipmail=0.15,watchdog=500ms");
  EXPECT_GT(r.mail_flips, 0u) << "plan failed to inject anything";
  EXPECT_EQ(r.mail_corrupt_drops, r.mail_flips);
  EXPECT_EQ(r.ranks_verified, kCores);
  EXPECT_EQ(r.ranks_lost, 0);
  EXPECT_EQ(r.slot_mismatches, 0u);
  EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
}

TEST(SvmIntegrity, MetaEccCorrectsEveryReloadedFlip) {
  // Bit flips in metadata words: the ECC shadow corrects each one on the
  // next load, so the protocol never acts on a flipped owner/scratchpad
  // word. Corrections can trail flips (a flipped word the run never
  // reloads stays latent) but can never exceed them.
  const KillMosaicResult r = run_mosaic(
      "seed=5,flipmeta=0.2,watchdog=500ms");
  EXPECT_GT(r.meta_flips, 0u) << "plan failed to inject anything";
  EXPECT_GT(r.meta_corrections, 0u) << "no flip was ever corrected";
  EXPECT_LE(r.meta_corrections, r.meta_flips);
  EXPECT_EQ(r.ranks_verified, kCores);
  EXPECT_EQ(r.ranks_lost, 0);
  EXPECT_EQ(r.slot_mismatches, 0u);
  EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
}

TEST(SvmIntegrity, PageFlipsPoisonButNeverGoSilent) {
  // Every exclusive seal flipped: the owner's caches (and, under read
  // replication, every sharer's) were invalidated before the handoff, so
  // there is no clean copy and detect-or-die must poison. The contract is
  // typed loss only: zero wrong values, every lost rank aborted with the
  // integrity error, and every flip poisons exactly one page.
  for (const bool read_replication : {false, true}) {
    SCOPED_TRACE(read_replication ? "strong+rr" : "strong");
    const KillMosaicResult r = run_mosaic(
        "seed=3,flippage=1,watchdog=500ms",
        read_replication);
    EXPECT_GT(r.page_flips, 0u) << "plan failed to inject anything";
    EXPECT_EQ(r.slot_mismatches, 0u)
        << "a flipped page was read as good data";
    EXPECT_EQ(r.pages_poisoned, r.page_flips);
    EXPECT_GT(r.ranks_lost, 0);
    EXPECT_EQ(r.ranks_corrupt, r.ranks_lost);
    EXPECT_EQ(r.ranks_verified + r.ranks_lost, kCores);
    for (const auto& f : r.failures) {
      EXPECT_NE(f.what.find("integrity"), std::string::npos) << f.what;
    }
    EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
  }
}

// ---------------------------------------------------------------------------
// Hand-rolled detection tests. Roles on a 4-core read-replication
// cluster sharing one page:
//   rank 0  writes the page, then re-reads it so its L1 holds the lines
//           (MPBT stores are no-write-allocate; only the read-back after
//           the WCB-flushing barrier fills the cache with clean data);
//   rank 1  takes a read replica, forcing rank 0 to seal the frame on
//           the Exclusive -> Shared downgrade (a shared seal, which the
//           injector never flips);
//   rank 0  then corrupts one byte of the DRAM frame host-side;
//   detection comes either from rank 2's later replica join (verify of
//   the shared seal) or from the background scrubber. Rank 0's L1 still
//   caches clean lines, yet the only outcome is poisoning.

u64 slot_val(u64 i) { return 0xfeedfacecafe0000ull + i * 0x9e37ull; }

struct RepairRig {
  ClusterConfig cfg;
  explicit RepairRig(const char* spec) {
    cfg.chip.num_cores = 4;
    cfg.chip.shared_dram_bytes = 16 << 20;
    cfg.chip.private_dram_bytes = 1 << 20;
    cfg.chip.faults = sim::FaultPlan::parse(spec);
    cfg.svm.model = Model::kStrong;
    cfg.svm.read_replication = true;
  }
};

/// Flips one bit of byte `off` of the DRAM frame backing `base`. The
/// frame number comes from the ECC shadow (golden host-side copy of the
/// scratchpad word), the same source the scrubber trusts.
void corrupt_frame_byte(Cluster& cl, u64 base, u64 off) {
  SvmDomain& dom = cl.domain();
  const u64 page =
      (base - dom.vbase()) / kPageBytes + dom.page_index_base();
  const u64 entry = dom.meta_shadow.at(dom.scratchpad_entry_paddr(page));
  const u16 frame = static_cast<u16>(entry) & proto::kFrameMask;
  const u64 paddr = dom.frame_paddr(frame) + off;
  u8 byte = 0;
  cl.chip().memory().read(paddr, &byte, 1);
  byte ^= 0x40;
  cl.chip().memory().write(paddr, &byte, 1);
}

struct IntegritySums {
  u64 sealed = 0, verifies = 0, poisoned = 0;
};

IntegritySums sum_stats(Cluster& cl) {
  IntegritySums t;
  for (const int c : cl.members()) {
    const SvmStats& s = cl.node(c).svm().stats();
    t.sealed += s.pages_sealed;
    t.verifies += s.seal_verifies;
    t.poisoned += s.pages_poisoned;
  }
  return t;
}

/// The shared phase of the rig: rank 0 writes and re-reads the page,
/// rank 1 joins as a replica (rank 0 seals), rank 0 corrupts byte `off`.
u64 seal_then_corrupt(Cluster& cl, Node& n, u64 off) {
  Svm& svm = n.svm();
  const int rank = n.rank();
  const u64 base = svm.alloc(kPageBytes);
  svm.barrier();
  if (rank == 0) {
    for (u64 i = 0; i < 8; ++i) svm.write<u64>(base + i * 8, slot_val(i));
  }
  svm.barrier();
  if (rank == 0) {
    for (u64 i = 0; i < 8; ++i) (void)svm.read<u64>(base + i * 8);
  }
  svm.barrier();
  if (rank == 1) (void)svm.read<u64>(base);  // downgrade: rank 0 seals
  svm.barrier();
  if (rank == 0) corrupt_frame_byte(cl, base, off);
  svm.barrier();
  return base;
}

TEST(SvmIntegrity, ReplicaJoinPoisonsCorruptSharedSeal) {
  RepairRig rig("integrity=1,watchdog=500ms");
  Cluster cl(rig.cfg);

  std::vector<u64> got(8, 0);
  bool threw = false;
  cl.run([&](Node& n) {
    const u64 base = seal_then_corrupt(cl, n, 3);
    if (n.rank() == 2) {
      // Replica join verifies the shared seal and finds the flipped
      // byte. Rank 0's L1 still caches the clean line, but a failed seal
      // check has one outcome: the page is poisoned and the read throws.
      try {
        for (u64 i = 0; i < 8; ++i) {
          got[i] = n.svm().read<u64>(base + i * 8);
        }
      } catch (const SvmIntegrityError&) {
        threw = true;
      }
    }
    n.svm().barrier();
  });

  EXPECT_TRUE(cl.failures().empty());
  EXPECT_TRUE(threw) << "a corrupt shared seal was trusted";
  for (u64 i = 0; i < 8; ++i) {
    EXPECT_EQ(got[i], 0u) << "slot " << i << " returned data";
  }
  const IntegritySums t = sum_stats(cl);
  EXPECT_GE(t.sealed, 1u);
  EXPECT_GE(t.verifies, 2u);  // rank 1's clean join + rank 2's dirty one
  EXPECT_EQ(t.poisoned, 1u);
}

TEST(SvmIntegrity, ScrubberPoisonsWhenNoCleanCopyExists) {
  RepairRig rig("integrity=1,scrub=1,watchdog=500ms");
  Cluster cl(rig.cfg);

  cl.run([&](Node& n) {
    // Flip a byte in a line no core ever cached (offset 2000 — only the
    // first 64 bytes were written and read back). Nobody touches the page
    // again, so only the scrubber can find the flip: it must poison the
    // page from interrupt context without throwing. The per-core timer
    // ticks every 1 ms, so spin a few periods of pure compute to let a
    // scrub pass land on the sealed page.
    (void)seal_then_corrupt(cl, n, 2000);
    scc::Core& core = n.core();
    const TimePs deadline = core.now() + 4 * kPsPerMs;
    while (core.now() < deadline) core.compute_cycles(10000);
    n.svm().barrier();
  });

  EXPECT_TRUE(cl.failures().empty())
      << "scrub-context poisoning must not throw into anyone";
  EXPECT_EQ(sum_stats(cl).poisoned, 1u);
}

}  // namespace
}  // namespace msvm::svm
