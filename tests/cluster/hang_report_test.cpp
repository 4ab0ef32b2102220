// Watchdog HangError reporting on a multi-chip grid: a deliberately
// deadlocked 96-core run (rank 0 never enters the barrier) must surface
// as a typed HangError whose report names each blocked core's wait-site
// chain — the fact a hang investigation starts from. Every run uses the
// one event heap, so no report carries a per-lane table.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "sccsim/config.hpp"
#include "sim/faults.hpp"
#include "svm/svm.hpp"

namespace msvm::cluster {
namespace {

// The test names predate the deletion of event lanes: the lane half of
// each now checks that the one-heap scheduler prints no lane table.
TEST(HangReport, MultiLaneDeadlockNamesWaitSitesAndLanes) {
  ClusterConfig cfg;
  scc::configure_cores(cfg.chip, 96);
  cfg.chip.shared_dram_bytes = 32 << 20;
  cfg.chip.private_dram_bytes = 1 << 20;
  // Short virtual-time watchdog so the deadlock is detected quickly.
  cfg.chip.faults.watchdog_ps = 2 * kPsPerMs;

  Cluster cl(cfg);
  std::string report;
  try {
    cl.run([](Node& n) {
      (void)n.svm().alloc(4096);
      if (n.rank() == 0) return;  // deliberately desert the barrier
      n.svm().barrier();          // 95 cores wait forever
    });
    FAIL() << "expected HangError from the deserted barrier";
  } catch (const sim::HangError& e) {
    report = e.report();
  }

  // The report is structured: headline, then the blocked actors with
  // their BlockScope wait-site chains.
  EXPECT_NE(report.find("watchdog hang report"), std::string::npos);
  EXPECT_NE(report.find("blocked actors:"), std::string::npos);
  // The 95 waiters are blocked inside the barrier; at least one wait
  // site naming it must appear (gather/release/dissemination variants
  // all share the svm.barrier prefix).
  EXPECT_NE(report.find("waiting at"), std::string::npos);
  EXPECT_NE(report.find("svm.barrier"), std::string::npos);
  // The one event heap has no lanes to tabulate, even at 96 cores.
  EXPECT_EQ(report.find("event lanes:"), std::string::npos);
}

TEST(HangReport, SingleLaneReportOmitsLaneTable) {
  ClusterConfig cfg;
  cfg.chip.num_cores = 4;
  cfg.chip.shared_dram_bytes = 16 << 20;
  cfg.chip.private_dram_bytes = 1 << 20;
  cfg.chip.faults.watchdog_ps = 2 * kPsPerMs;

  Cluster cl(cfg);
  std::string report;
  try {
    cl.run([](Node& n) {
      (void)n.svm().alloc(4096);
      if (n.rank() == 0) return;
      n.svm().barrier();
    });
    FAIL() << "expected HangError from the deserted barrier";
  } catch (const sim::HangError& e) {
    report = e.report();
  }
  EXPECT_NE(report.find("svm.barrier"), std::string::npos);
  // The single heap prints no lane table.
  EXPECT_EQ(report.find("event lanes:"), std::string::npos);
}

}  // namespace
}  // namespace msvm::cluster
