// Watchdog HangError reporting on a multi-chip grid: a deliberately
// deadlocked 96-core run (rank 0 never enters the barrier) must surface
// as a typed HangError whose report names each blocked core's wait-site
// chain — the fact a hang investigation starts from. Every run uses the
// one event heap, so no report carries a per-lane table. A deserted
// iRCCE receive must name its wait the same way.
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
  cfg.chip.num_cores = 96;
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
  // site naming it must appear (the gather and release sites share the
  // svm.barrier prefix).
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

TEST(HangReport, DesertedIrcceReceiveNamesItsWait) {
  // Rank 0 waits on a receive that rank 1 never sends: the report must
  // name the iRCCE wait, not "(no wait site recorded)".
  ClusterConfig cfg;
  cfg.chip.num_cores = 2;
  cfg.chip.shared_dram_bytes = 16 << 20;
  cfg.chip.private_dram_bytes = 1 << 20;
  cfg.chip.faults.watchdog_ps = 1 * kPsPerMs;

  Cluster cl(cfg);
  std::string report;
  try {
    cl.run([](Node& n) {
      if (n.rank() != 0) return;  // rank 1 never sends
      const u64 buf = n.kernel().kmalloc(64);
      n.rcce().wait(n.rcce().irecv(buf, 64, 1));
    });
    FAIL() << "expected HangError from the deserted receive";
  } catch (const sim::HangError& e) {
    report = e.report();
  }
  EXPECT_NE(report.find("rcce.wait"), std::string::npos) << report;
}

TEST(HangReport, MailboxLineCountsUnmatchedInboxMail) {
  // Rank 1 sends a mail nobody asks for; rank 0 then waits for another
  // type that never comes. The unmatched mail sits in rank 0's inbox,
  // and the report's mailbox line must count it.
  ClusterConfig cfg;
  cfg.chip.num_cores = 2;
  cfg.chip.shared_dram_bytes = 16 << 20;
  cfg.chip.private_dram_bytes = 1 << 20;
  cfg.chip.faults.watchdog_ps = 1 * kPsPerMs;

  Cluster cl(cfg);
  std::string report;
  try {
    cl.run([](Node& n) {
      if (n.rank() == 1) {
        mbox::Mail mail;
        mail.type = 0x70;
        n.mbox().send(0, mail);
        return;
      }
      (void)n.mbox().recv_type(0x71);
    });
    FAIL() << "expected HangError from the unanswered receive";
  } catch (const sim::HangError& e) {
    report = e.report();
  }
  EXPECT_NE(report.find("core 0 mbox: sent=0 received=1 inbox=1 "),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("core 1 mbox: sent=1 received=0 inbox=0 "),
            std::string::npos)
      << report;
}

}  // namespace
}  // namespace msvm::cluster
