// Full-stack fail-stop acceptance: kill cores mid-protocol in the slot-
// mosaic workload and assert the outcome taxonomy the robustness layer
// guarantees — every surviving rank either verifies its own data or
// surfaces a typed SvmDataLossError; slot values are never silently
// wrong; and the always-on ShadowDirectory auditor sees zero invariant
// violations throughout boot, death, recovery, and drain.
#include <gtest/gtest.h>

#include <string>

#include "sim/faults.hpp"
#include "workloads/kill_mosaic.hpp"

namespace msvm::workloads {
namespace {

/// The recovery envelope every kill run needs: bounded waits (retry),
/// heartbeat leases for failure detection, and a watchdog so even an
/// unrecoverable wedge is a typed HangError rather than a silent spin.
sim::FaultPlan recovery_envelope(const std::string& kills) {
  return sim::FaultPlan::parse(
      "watchdog=500ms,sweep=2,degrade=6,retry=2ms,lease=500us," + kills);
}

KillMosaicParams params_for(const std::string& kills) {
  KillMosaicParams p;
  p.pages = 8;
  p.audit = true;
  p.faults = recovery_envelope(kills);
  return p;
}

/// The union taxonomy: dead ranks aside, every member is accounted for
/// as verified or typed-loss, with zero silent mismatches and a clean
/// audit. `dead` is the number of kills that land before completion.
void expect_accounted(const KillMosaicResult& r, int cores, int dead) {
  EXPECT_EQ(r.slot_mismatches, 0u) << "silently wrong data";
  EXPECT_EQ(r.ranks_verified + r.ranks_lost, cores - dead);
  EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
  EXPECT_GT(r.audit_events, 0u) << "auditor saw no protocol traffic";
}

TEST(KillRecovery, NoFaultControlRunIsFullyVerified) {
  KillMosaicParams p;
  p.pages = 8;
  p.audit = true;
  const KillMosaicResult r = run_kill_mosaic(p, svm::Model::kStrong, 6);
  EXPECT_EQ(r.ranks_verified, 6);
  EXPECT_EQ(r.ranks_lost, 0);
  EXPECT_EQ(r.slot_mismatches, 0u);
  EXPECT_EQ(r.recoveries, 0u);
  EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
  EXPECT_GT(r.audit_events, 0u);
}

TEST(KillRecovery, StrongSurvivesAnOwnerDeath) {
  // Sweep the kill across the run: an early kill lands in boot (the
  // victim owns nothing yet), a late one after its last release — but
  // somewhere in between core 3 dies as the recorded owner of pages the
  // survivors still need, which must surface as recovery or typed loss.
  u64 evidence = 0;
  for (const char* at : {"300us", "500us", "800us", "1000us"}) {
    const KillMosaicResult r = run_kill_mosaic(
        params_for(std::string("kill=3@") + at), svm::Model::kStrong, 8);
    EXPECT_EQ(r.slot_mismatches, 0u) << "silently wrong data at " << at;
    EXPECT_EQ(r.audit_violations, 0u) << r.audit_report;
    // Dead-or-alive: the kill may land before or after core 3 finishes.
    const int accounted = r.ranks_verified + r.ranks_lost;
    EXPECT_TRUE(accounted == 7 || accounted == 8)
        << accounted << " ranks accounted at " << at;
    evidence += r.recoveries + r.locks_broken +
                static_cast<u64>(r.ranks_lost);
  }
  EXPECT_GT(evidence, 0u)
      << "no kill time produced a repaired or typed-lost page";
}

TEST(KillRecovery, ReadReplicationSurvivesAnOwnerDeath) {
  KillMosaicParams p = params_for("kill=3@50us");
  p.read_replication = true;
  const KillMosaicResult r = run_kill_mosaic(p, svm::Model::kStrong, 8);
  expect_accounted(r, 8, /*dead=*/1);
}

TEST(KillRecovery, LrcSurvivesAnOwnerDeath) {
  const KillMosaicResult r = run_kill_mosaic(
      params_for("kill=3@50us"), svm::Model::kLazyRelease, 8);
  expect_accounted(r, 8, /*dead=*/1);
}

TEST(KillRecovery, SurvivesTwoDeaths) {
  const KillMosaicResult r = run_kill_mosaic(
      params_for("kill=2@400us,kill=5@900us"), svm::Model::kStrong, 8);
  expect_accounted(r, 8, /*dead=*/2);
}

TEST(KillRecovery, TypedLossCarriesThePageAndMessage) {
  // Sweep seeds until a run reports typed data loss (a dirty-WCB owner
  // death); assert the error the member caught names the page.
  for (u64 seed = 1; seed <= 20; ++seed) {
    KillMosaicParams p = params_for("kill=3@500us");
    p.seed = seed;
    const KillMosaicResult r =
        run_kill_mosaic(p, svm::Model::kStrong, 8);
    expect_accounted(r, 8, /*dead=*/1);
    if (r.ranks_lost == 0) continue;
    for (const auto& f : r.failures) {
      EXPECT_NE(f.what.find("SVM data loss"), std::string::npos);
      EXPECT_NE(f.what.find("page"), std::string::npos);
      EXPECT_GE(f.core_id, 0);
    }
    return;
  }
  GTEST_SKIP() << "no seed in the sweep produced a dirty-owner death";
}

TEST(KillRecovery, WideChipStaysAuditClean) {
  // 96 cores across two chips must deliver the same taxonomy (subset
  // check is off past 64 cores — multi-word directory entries — but
  // writer-exclusivity and dead-silence hold).
  KillMosaicParams p = params_for("kill=17@500us");
  const KillMosaicResult r = run_kill_mosaic(p, svm::Model::kStrong, 96);
  expect_accounted(r, 96, /*dead=*/1);
}

}  // namespace
}  // namespace msvm::workloads
