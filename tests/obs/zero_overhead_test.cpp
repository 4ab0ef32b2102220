// The zero-overhead-off guarantee, tested from both sides: a seeded
// workload runs bit-identically with the full observability pipeline on
// and with it off. Publishing is host-side only — it must never touch a
// core's virtual clock — so makespan and every hardware counter have to
// match exactly, not approximately.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "obs/bus.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/heatmap.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"

namespace msvm::obs {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::Node;

struct RunResult {
  u64 makespan = 0;
  scc::CoreCounters totals;
  std::vector<scc::CoreCounters> per_core;
};

/// A small seeded matmul-ish workload with real sharing: both cores
/// read-modify-write interleaved rows of one shared block, synchronising
/// every pass, so the run exercises faults, transfers, mails, locks and
/// the WCB — every publish site the bus has.
RunResult run_workload(u64 seed) {
  ClusterConfig cfg;
  cfg.chip.num_cores = 2;
  cfg.chip.shared_dram_bytes = 16 << 20;
  cfg.chip.private_dram_bytes = 1 << 20;
  cfg.svm.model = svm::Model::kStrong;
  Cluster cl(cfg);
  cl.run([&](Node& n) {
    constexpr int kDim = 8;
    const u64 base = n.svm().alloc(kDim * kDim * sizeof(u64));
    sim::Rng rng(seed + static_cast<u64>(n.rank()));
    for (int pass = 0; pass < 3; ++pass) {
      for (int row = n.rank(); row < kDim; row += 2) {
        for (int col = 0; col < kDim; ++col) {
          const u64 addr =
              base + static_cast<u64>(row * kDim + col) * sizeof(u64);
          const u64 v = n.svm().read<u64>(addr);
          n.svm().write<u64>(addr, v + (rng.next_u64() & 0xff));
        }
      }
      n.svm().barrier();
    }
  });
  RunResult r;
  r.makespan = cl.makespan();
  r.totals = cl.chip().total_counters();
  for (const int c : cl.members()) {
    r.per_core.push_back(cl.node(c).core().counters());
  }
  return r;
}

void expect_identical(const scc::CoreCounters& on,
                      const scc::CoreCounters& off,
                      const std::string& label) {
  for (const scc::CoreCounterField& f : scc::kCoreCounterFields) {
    EXPECT_EQ(on.*(f.member), off.*(f.member))
        << label << " counter '" << f.name << "' diverged with obs on";
  }
}

TEST(ZeroOverhead, FullPipelineOnChangesNoCounterAndNoCycle) {
  // Baseline: observability entirely off (the default).
  runtime_config() = RuntimeConfig{};
  const RunResult off = run_workload(42);

  // Same seed, everything on: all categories (including the memory
  // firehose), the trace collector, and the heatmap sink.
  RuntimeConfig& cfg = runtime_config();
  cfg.categories = kCatAll;
  cfg.collect = true;
  cfg.heatmap = true;
  global_collector().clear();
  global_heatmap().clear();
  const RunResult on = run_workload(42);

  // The run was actually observed — otherwise this test proves nothing.
  EXPECT_FALSE(global_collector().empty());
  EXPECT_FALSE(global_heatmap().empty());

  EXPECT_EQ(on.makespan, off.makespan);
  expect_identical(on.totals, off.totals, "total");
  ASSERT_EQ(on.per_core.size(), off.per_core.size());
  for (std::size_t i = 0; i < on.per_core.size(); ++i) {
    expect_identical(on.per_core[i], off.per_core[i],
                     "core " + std::to_string(i));
  }

  runtime_config() = RuntimeConfig{};
  global_collector().clear();
  global_heatmap().clear();
}

struct ConvoyRun {
  RunResult run;
  u64 parked_polls = 0;
};

/// A Strong run with a real first-touch convoy and barriers: 48 cores
/// first-touch their own rows of one shared grid, which queues them on
/// the scratchpad lock, then read their neighbours' rows between
/// barriers, which moves pages between owners by mail.
ConvoyRun run_convoy_workload() {
  ClusterConfig cfg;
  cfg.chip.num_cores = 48;
  cfg.chip.shared_dram_bytes = 16 << 20;
  cfg.chip.private_dram_bytes = 1 << 20;
  cfg.svm.model = svm::Model::kStrong;
  Cluster cl(cfg);
  constexpr u64 kRowBytes = 4096;
  cl.run([&](Node& n) {
    const int cores = static_cast<int>(cl.members().size());
    const u64 base = n.svm().alloc(static_cast<u64>(cores) * 2 * kRowBytes);
    const u64 mine = base + static_cast<u64>(n.rank()) * 2 * kRowBytes;
    for (u64 off = 0; off < 2 * kRowBytes; off += 512) {
      n.svm().write<u64>(mine + off, off + static_cast<u64>(n.rank()));
    }
    n.svm().barrier();
    const int next = (n.rank() + 1) % cores;
    for (int pass = 0; pass < 2; ++pass) {
      const u64 theirs = base + static_cast<u64>(next) * 2 * kRowBytes;
      u64 sum = 0;
      for (u64 off = 0; off < 2 * kRowBytes; off += 1024) {
        sum += n.svm().read<u64>(theirs + off);
      }
      n.svm().write<u64>(mine, sum);
      n.svm().barrier();
    }
  });
  ConvoyRun r;
  r.run.makespan = cl.makespan();
  r.run.totals = cl.chip().total_counters();
  for (const int c : cl.members()) {
    r.run.per_core.push_back(cl.node(c).core().counters());
  }
  r.parked_polls = cl.chip().scheduler().parked_polls();
  return r;
}

TEST(ZeroOverhead, ParkedAndPolledSpinWaitsAgree) {
  // With the memory firehose on, every access may publish, so no spin
  // wait parks and every poll runs on its fiber; with observability off,
  // waits park and their polls are charged in closed form. The 48-core
  // convoy on the scratchpad lock and the barriers must come out the
  // same to the cycle and the counter either way.
  runtime_config() = RuntimeConfig{};
  const ConvoyRun parked = run_convoy_workload();
  runtime_config().categories = kCatMem;
  const ConvoyRun polled = run_convoy_workload();
  runtime_config() = RuntimeConfig{};

  EXPECT_GT(parked.parked_polls, 0u);
  EXPECT_EQ(polled.parked_polls, 0u);
  EXPECT_GT(parked.run.totals.tas_spins, 0u);
  EXPECT_EQ(parked.run.makespan, polled.run.makespan);
  ASSERT_EQ(parked.run.per_core.size(), polled.run.per_core.size());
  for (std::size_t i = 0; i < parked.run.per_core.size(); ++i) {
    expect_identical(polled.run.per_core[i], parked.run.per_core[i],
                     "core " + std::to_string(i));
  }
}

TEST(ZeroOverhead, MetricsFoldingLeavesTheRunUntouched) {
  runtime_config() = RuntimeConfig{};
  const RunResult off = run_workload(7);

  global_metrics().clear();
  runtime_config().metrics = true;
  const RunResult on = run_workload(7);

  EXPECT_EQ(on.makespan, off.makespan);
  expect_identical(on.totals, off.totals, "total");

  // The fold actually happened, and through the field tables: core,
  // svm and mailbox families are all present with live values.
  const MetricsRegistry& m = global_metrics();
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(m.counter("core.loads"), off.totals.loads);
  EXPECT_EQ(m.counter("core.busy_ps"), off.totals.busy_ps);
  EXPECT_GT(m.counter("svm.ownership_acquires"), 0u);
  EXPECT_GT(m.counter("mailbox.sent"), 0u);
  EXPECT_EQ(m.histograms().at("chip.makespan_ps").count(), 1u);

  runtime_config() = RuntimeConfig{};
  global_metrics().clear();
}

}  // namespace
}  // namespace msvm::obs
