// Serving-tier integration tests: a clean run under each coherence
// model completes every request with zero wrong responses, the whole
// result (histogram buckets included) is a pure function of the seed,
// and a mid-window fail-stop degrades to typed losses — never a wrong
// answer, never a hang.
#include "serve/kv_serving.hpp"

#include <gtest/gtest.h>

#include "sim/faults.hpp"

namespace msvm::serve {
namespace {

KvServingParams small_params() {
  KvServingParams p;
  p.seed = 42;
  p.store.seed = 42;
  p.store.num_keys = 1024;
  p.gen.num_keys = 1024;
  p.gen.zipf_theta = 0.99;
  p.gen.read_fraction = 0.8;
  p.gen.scan_fraction = 0.05;
  p.gen.rate_rps = 30'000;
  p.gen.load_ps = 500 * kPsPerUs;
  p.drain_ps = 500 * kPsPerUs;
  return p;
}

struct ModelCase {
  svm::Model model;
  bool read_replication;
};

TEST(KvServing, CleanRunCompletesEverythingUnderEveryModel) {
  const ModelCase cases[] = {
      {svm::Model::kStrong, false},
      {svm::Model::kStrong, true},
      {svm::Model::kLazyRelease, false},
  };
  for (const ModelCase& mc : cases) {
    KvServingParams p = small_params();
    p.read_replication = mc.read_replication;
    const KvServingResult r = run_kv_serving(p, mc.model, 8);
    EXPECT_EQ(r.wrong, 0u);
    EXPECT_EQ(r.timeouts, 0u);
    EXPECT_EQ(r.dead_shed, 0u);
    EXPECT_EQ(r.late_starts, 0);
    EXPECT_EQ(r.ranks_lost, 0);
    EXPECT_GT(r.issued, 50u);
    // Everything issued completes (a still-in-flight tail at the drain
    // horizon would show up as unfinished, not as silence).
    EXPECT_EQ(r.completed + r.unfinished, r.issued);
    EXPECT_EQ(r.latency.count(), r.completed);
    EXPECT_GT(r.goodput_rps, 0.0);
    EXPECT_GT(r.latency.p999(), r.latency.p50());
    // Mix plumbing: every op kind was exercised.
    EXPECT_GT(r.gets, 0u);
    EXPECT_GT(r.puts, 0u);
    EXPECT_GT(r.scans, 0u);
    EXPECT_EQ(r.gets + r.puts + r.scans, r.issued);
  }
}

TEST(KvServing, ResultIsAPureFunctionOfTheSeed) {
  KvServingParams p = small_params();
  const KvServingResult a = run_kv_serving(p, svm::Model::kStrong, 8);
  const KvServingResult b = run_kv_serving(p, svm::Model::kStrong, 8);
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.served_ops, b.served_ops);
  EXPECT_EQ(a.local_ops, b.local_ops);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.latency.sum(), b.latency.sum());
  EXPECT_EQ(a.latency.buckets(), b.latency.buckets());

  // A different seed produces a genuinely different run.
  p.seed = 43;
  const KvServingResult c = run_kv_serving(p, svm::Model::kStrong, 8);
  EXPECT_NE(a.latency.sum(), c.latency.sum());
}

TEST(KvServing, MidWindowKillDegradesToTypedLossOnly) {
  KvServingParams p = small_params();
  p.gen.rate_rps = 20'000;
  // Kill one core a quarter into the load window, under the heartbeat
  // lease so survivors detect it and shed instead of waiting forever.
  sim::KillSpec spec;
  spec.core = 3;
  spec.at_ps = p.start_epoch_ps + p.gen.load_ps / 4;
  p.faults.seed = 42;
  p.faults.kills.push_back(spec);
  p.faults.watchdog_ps = 500 * kPsPerMs;
  p.faults.lease_ps = 500 * kPsPerUs;

  const KvServingResult r = run_kv_serving(p, svm::Model::kStrong, 8);
  EXPECT_EQ(r.ranks_lost, 1);
  EXPECT_EQ(r.wrong, 0u);       // the contract: typed loss, never lies
  EXPECT_GT(r.completed, 0u);   // survivors kept serving
  // The dead home's shard traffic surfaces as typed losses.
  EXPECT_GT(r.dead_shed + r.timeouts + r.unfinished, 0u);
  // And the loss is bounded: one home of eight, plus in-flight fallout.
  EXPECT_LT(r.dead_shed + r.timeouts, r.issued / 2);
}

}  // namespace
}  // namespace msvm::serve
