// Breaking a dead holder's TAS lock. Every TAS lock in the tree waits in
// kernel::spin_wait, which forces a register open once its recorded
// holder is dead past the heartbeat lease. Each case kills core 1 while
// it holds one kind of lock (an SVM transfer lock, an application lock,
// a kernel::TasSpinlock) and has core 0 wait for the same lock: with a
// lease the waiter breaks it and the run finishes; without one nothing
// is broken, and the watchdog's hang report names the dead holder's
// register.
#include <gtest/gtest.h>

#include <string>

#include "cluster/cluster.hpp"
#include "kernel/kernel.hpp"
#include "sim/faults.hpp"
#include "svm/svm.hpp"

namespace msvm::svm {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::Node;

enum class LockKind { kTransfer, kApp, kSpinlock };

constexpr u64 kTransferPage = 5;
constexpr int kAppLock = 0;
constexpr int kSpinlockReg = 47;

struct BreakRun {
  int reg = -1;             // the register core 1 died holding
  bool waiter_done = false;  // core 0 got the lock and released it
  u64 broken = 0;            // CoreCounters::tas_locks_broken, all cores
  std::string hang_report;
};

/// Core 1 takes the lock and is killed at 200 us inside its critical
/// section; core 0 asks for the same lock at about 375 us.
BreakRun run_dead_holder(LockKind kind, const std::string& plan) {
  ClusterConfig cfg;
  cfg.chip.num_cores = 4;
  cfg.chip.shared_dram_bytes = 16 << 20;
  cfg.chip.private_dram_bytes = 1 << 20;
  cfg.chip.faults = sim::FaultPlan::parse("kill=1@200us," + plan);
  Cluster cl(cfg);
  kernel::TasSpinlock spinlock(kSpinlockReg);

  BreakRun out;
  switch (kind) {
    case LockKind::kTransfer:
      out.reg = cl.domain().transfer_lock_reg(kTransferPage);
      break;
    case LockKind::kApp:
      out.reg = cl.domain().app_lock_reg(kAppLock);
      break;
    case LockKind::kSpinlock:
      out.reg = kSpinlockReg;
      break;
  }
  const auto acquire = [&](Node& n) {
    switch (kind) {
      case LockKind::kTransfer:
        n.svm().transfer_lock(kTransferPage);
        return;
      case LockKind::kApp:
        n.svm().lock_acquire(kAppLock);
        return;
      case LockKind::kSpinlock:
        spinlock.lock(n.core());
        return;
    }
  };
  const auto release = [&](Node& n) {
    switch (kind) {
      case LockKind::kTransfer:
        n.svm().transfer_unlock(kTransferPage);
        return;
      case LockKind::kApp:
        n.svm().lock_release(kAppLock);
        return;
      case LockKind::kSpinlock:
        spinlock.unlock(n.core());
        return;
    }
  };
  try {
    cl.run([&](Node& n) {
      if (n.core_id() == 1) {
        acquire(n);
        n.core().compute_cycles(20'000'000);  // killed in here
        release(n);
      } else if (n.core_id() == 0) {
        n.core().compute_cycles(200'000);
        acquire(n);
        n.core().compute_cycles(1'000);
        release(n);
        out.waiter_done = true;
      }
    });
  } catch (const sim::HangError& e) {
    out.hang_report = e.report();
  }
  EXPECT_TRUE(cl.chip().core_dead(1));
  for (int c = 0; c < cfg.chip.num_cores; ++c) {
    out.broken += cl.chip().core(c).counters().tas_locks_broken;
  }
  return out;
}

class LockBreak : public ::testing::TestWithParam<LockKind> {};

TEST_P(LockBreak, WaiterBreaksTheDeadHoldersLockUnderALease) {
  const BreakRun r =
      run_dead_holder(GetParam(), "lease=500us,watchdog=50ms");
  EXPECT_TRUE(r.waiter_done) << r.hang_report;
  EXPECT_GE(r.broken, 1u);
  EXPECT_TRUE(r.hang_report.empty()) << r.hang_report;
}

TEST_P(LockBreak, NoLeaseBreaksNothingAndTheReportNamesTheHolder) {
  const BreakRun r = run_dead_holder(GetParam(), "watchdog=2ms");
  EXPECT_FALSE(r.waiter_done);
  EXPECT_EQ(r.broken, 0u);
  const std::string line =
      "tas reg " + std::to_string(r.reg) + ": held by core 1 (dead)\n";
  EXPECT_NE(r.hang_report.find(line), std::string::npos) << r.hang_report;
}

INSTANTIATE_TEST_SUITE_P(
    Locks, LockBreak,
    ::testing::Values(LockKind::kTransfer, LockKind::kApp,
                      LockKind::kSpinlock),
    [](const ::testing::TestParamInfo<LockKind>& info) {
      switch (info.param) {
        case LockKind::kTransfer: return std::string("TransferLock");
        case LockKind::kApp: return std::string("AppLock");
        case LockKind::kSpinlock: return std::string("TasSpinlock");
      }
      return std::string("?");
    });

}  // namespace
}  // namespace msvm::svm
