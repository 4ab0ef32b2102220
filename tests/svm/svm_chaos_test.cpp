// Acceptance tests for the chaos layer's recovery paths, driven through
// the full cluster stack. Each test runs a small ownership-heavy SPMD
// workload under a seeded fault plan and asserts two things at once:
// the specific recovery mechanism actually fired (its counter moved) AND
// the data still came out correct. A recovery that silently corrupts
// state would pass neither.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "cluster/cluster.hpp"
#include "obs/bus.hpp"
#include "sim/faults.hpp"
#include "svm/svm.hpp"

namespace msvm::svm {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::Node;

constexpr int kCores = 4;
constexpr u64 kPages = 12;
constexpr int kIters = 5;

/// Aggregated evidence from one chaos run.
struct ChaosOutcome {
  bool correct = false;
  u64 sweep_recoveries = 0;
  u64 slot_checks = 0;
  u64 retransmits = 0;
  u64 dup_acks_dropped = 0;
  u64 ipis_dropped = 0;
  u64 mails_duplicated = 0;
  u64 spurious_wakes = 0;
};

/// Ownership-migration workload: in iteration k, rank (k mod size)
/// increments a counter on every page, then everyone barriers and — on
/// the final round — verifies every counter on every rank. Each round
/// moves ownership of all pages to a different core and crosses the
/// barrier, so the run is dense in exactly the protocol mail (ownership
/// requests, ACKs, barrier mail) the fault plan attacks. `categories` and
/// `sink`, when given, go onto the chip's bus before the run.
ChaosOutcome run_chaos(const sim::FaultPlan& plan, bool use_ipi,
                       u32 categories = 0, obs::EventSink* sink = nullptr) {
  ClusterConfig cfg;
  cfg.chip.num_cores = kCores;
  cfg.chip.shared_dram_bytes = 16 << 20;
  cfg.chip.private_dram_bytes = 1 << 20;
  cfg.chip.faults = plan;
  cfg.svm.model = Model::kStrong;
  cfg.use_ipi = use_ipi;

  Cluster cl(cfg);
  cl.chip().bus().enable(categories);
  if (sink != nullptr) cl.chip().bus().attach(sink);
  bool all_correct = true;
  cl.run([&](Node& n) {
    const u64 base = n.svm().alloc(kPages * 4096);
    n.svm().barrier();
    for (int k = 0; k < kIters; ++k) {
      if (k % n.size() == n.rank()) {
        for (u64 p = 0; p < kPages; ++p) {
          const u64 addr = base + p * 4096;
          n.svm().write<u64>(addr, n.svm().read<u64>(addr) + 1);
        }
      }
      n.svm().barrier();
    }
    for (u64 p = 0; p < kPages; ++p) {
      if (n.svm().read<u64>(base + p * 4096) !=
          static_cast<u64>(kIters)) {
        all_correct = false;
      }
    }
    n.svm().barrier();
  });

  ChaosOutcome out;
  out.correct = all_correct;
  for (int c = 0; c < kCores; ++c) {
    const auto& mb = cl.node(c).mbox().stats();
    out.sweep_recoveries += mb.sweep_recoveries;
    out.slot_checks += mb.slot_checks;
    const auto& sv = cl.node(c).svm().stats();
    out.retransmits += sv.retransmits;
    out.dup_acks_dropped += sv.dup_acks_dropped;
  }
  out.ipis_dropped = cl.chip().faults().stats().ipis_dropped;
  out.mails_duplicated = cl.chip().faults().stats().mails_duplicated;
  out.spurious_wakes = cl.chip().faults().stats().spurious_wakes;
  return out;
}

TEST(SvmChaos, CleanPlanLeavesRecoveryCountersQuiet) {
  // Recovery envelope armed (integrity checking arms it) but nothing
  // injected: the hardened paths must be pure observers on a clean run.
  // Note sweep_recoveries is NOT asserted zero — an armed sweep can
  // legitimately find a mail whose IPI is still in flight through the
  // GIC (deposited but not yet delivered), which is benign early
  // consumption, not a fault.
  const sim::FaultPlan plan =
      sim::FaultPlan::parse("integrity=1,watchdog=500ms");
  ASSERT_TRUE(plan.recovery_armed());
  ASSERT_FALSE(plan.any_faults());
  for (const bool use_ipi : {true, false}) {
    const ChaosOutcome out = run_chaos(plan, use_ipi);
    EXPECT_TRUE(out.correct);
    EXPECT_EQ(out.retransmits, 0u);
    EXPECT_EQ(out.dup_acks_dropped, 0u);
    EXPECT_EQ(out.ipis_dropped, 0u);
  }
}

TEST(SvmChaos, DetectionAloneArmsTheSweep) {
  // A lease or integrity checking arms the recovery envelope without
  // injecting anything, so the IPI mailbox also scans every slot on
  // every 2nd timer tick. A watchdog alone arms nothing: its mailbox
  // checks only the slots that interrupts point at.
  const ChaosOutcome bare =
      run_chaos(sim::FaultPlan::parse("watchdog=500ms"), /*use_ipi=*/true);
  ASSERT_TRUE(bare.correct);
  for (const char* spec :
       {"lease=500ms,watchdog=500ms", "integrity=1,watchdog=500ms"}) {
    SCOPED_TRACE(spec);
    const ChaosOutcome armed =
        run_chaos(sim::FaultPlan::parse(spec), /*use_ipi=*/true);
    EXPECT_TRUE(armed.correct);
    EXPECT_GT(armed.slot_checks, bare.slot_checks);
  }
}

TEST(SvmChaos, PollSweepRecoversDroppedIpisWithCorrectData) {
  // IPI mode with a third of all interrupts dropped: the only way a
  // halted receiver learns about a deposited mail is the periodic poll
  // sweep. The sweep must both fire (counter moves) and preserve
  // correctness, also when half of all interrupts are lost.
  for (const char* spec : {"seed=11,ipi_drop=0.3,watchdog=500ms",
                           "seed=23,ipi_drop=0.5,watchdog=800ms"}) {
    SCOPED_TRACE(spec);
    const ChaosOutcome out =
        run_chaos(sim::FaultPlan::parse(spec), /*use_ipi=*/true);
    EXPECT_TRUE(out.correct);
    EXPECT_GT(out.ipis_dropped, 0u) << "plan failed to inject anything";
    EXPECT_GT(out.sweep_recoveries, 0u)
        << "dropped IPIs were never recovered by the sweep";
  }
}

TEST(SvmChaos, BoundedWaitsRetransmitStuckRequestsWithCorrectData) {
  // Delayed flag visibility plus stalls push protocol waits past their
  // (shortened) deadline, so the requester must retransmit — and the
  // receiver-side idempotence must keep the data correct anyway.
  const sim::FaultPlan plan = sim::FaultPlan::parse(
      "seed=13,ipi_drop=0.3,mail_delay=0.4,stall=0.3,watchdog=800ms");
  const ChaosOutcome out = run_chaos(plan, /*use_ipi=*/true);
  EXPECT_TRUE(out.correct);
  EXPECT_GT(out.retransmits, 0u)
      << "no protocol wait ever hit its retransmission deadline";
}

/// Counts the events of one kind the bus lets through, optionally only
/// those whose payload `a` is `a`.
class KindCounter : public obs::EventSink {
 public:
  explicit KindCounter(obs::EventKind kind, std::optional<u64> a = {})
      : kind_(kind), a_(a) {}
  void on_event(const obs::Event& e) override {
    if (e.kind == kind_ && (!a_ || e.a == *a_)) ++count_;
  }
  u64 count() const { return count_; }

 private:
  obs::EventKind kind_;
  std::optional<u64> a_;
  u64 count_ = 0;
};

TEST(SvmChaos, SvmCategoryAloneCarriesEveryRetransmission) {
  // kMailRetransmit is an SVM-category event: enabling kCatSvm without
  // kCatMail must show one event per retransmission the runtime counts.
  const sim::FaultPlan plan = sim::FaultPlan::parse(
      "seed=13,ipi_drop=0.3,mail_delay=0.4,stall=0.3,watchdog=800ms");
  KindCounter sink(obs::EventKind::kMailRetransmit);
  const ChaosOutcome out =
      run_chaos(plan, /*use_ipi=*/true, obs::kCatSvm, &sink);
  EXPECT_TRUE(out.correct);
  EXPECT_GT(out.retransmits, 0u);
  EXPECT_EQ(sink.count(), out.retransmits);
}

TEST(SvmChaos, EverySpuriousWakeIsTraced) {
  // Each wake the plan shortens is one kFaultInject(kSpuriousWake) on
  // the chaos category, as every other injected fault is.
  const sim::FaultPlan plan = sim::FaultPlan::parse(
      "seed=31,spurious=0.3,watchdog=500ms");
  KindCounter sink(obs::EventKind::kFaultInject,
                   static_cast<u64>(obs::InjectKind::kSpuriousWake));
  const ChaosOutcome out =
      run_chaos(plan, /*use_ipi=*/true, obs::kCatChaos, &sink);
  EXPECT_TRUE(out.correct);
  EXPECT_GT(out.spurious_wakes, 0u) << "plan failed to inject anything";
  EXPECT_EQ(sink.count(), out.spurious_wakes);
}

TEST(SvmChaos, DuplicatedAcksAreDeduplicatedWithCorrectData) {
  // Duplicated mail delivery: requests may be served twice (idempotent
  // by design) but ACKs must be dropped by the receiver-side dedup or a
  // stale ACK could satisfy a *later* wait for the same page.
  const sim::FaultPlan plan = sim::FaultPlan::parse(
      "seed=17,mail_dup=0.5,watchdog=500ms");
  const ChaosOutcome out = run_chaos(plan, /*use_ipi=*/true);
  EXPECT_TRUE(out.correct);
  EXPECT_GT(out.mails_duplicated, 0u) << "plan failed to inject anything";
  EXPECT_GT(out.dup_acks_dropped, 0u)
      << "duplicated ACKs were never caught by the dedup ring";
}

TEST(SvmChaos, SameSeedReproducesTheSameRecoveryCounts) {
  const sim::FaultPlan plan = sim::FaultPlan::parse(
      "seed=29,ipi_drop=0.3,mail_delay=0.2,watchdog=500ms");
  const ChaosOutcome a = run_chaos(plan, /*use_ipi=*/true);
  const ChaosOutcome b = run_chaos(plan, /*use_ipi=*/true);
  EXPECT_TRUE(a.correct);
  EXPECT_EQ(a.sweep_recoveries, b.sweep_recoveries);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.ipis_dropped, b.ipis_dropped);
}

}  // namespace
}  // namespace msvm::svm
