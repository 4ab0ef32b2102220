// End-to-end tests past the 48-core SCC die: multi-chip topologies run
// the SVM workloads correctly (checksums match the host reference), the
// wide directory invalidates replicas at >64 cores, and a multi-chip
// run is deterministic — two same-seed runs produce identical virtual
// times and protocol counters.
#include <gtest/gtest.h>

#include "workloads/laplace.hpp"
#include "workloads/matmul.hpp"

namespace msvm::workloads {
namespace {

LaplaceParams small_laplace() {
  LaplaceParams p;
  p.nx = 512;  // one page per row
  p.ny = 128;
  p.iterations = 2;
  return p;
}

TEST(SvmScaling, LaplaceNinetySixCoresMatchesReference) {
  LaplaceParams p = small_laplace();
  const double want = laplace_reference_checksum(p);
  const auto strong = run_laplace_svm(p, svm::Model::kStrong, 96);
  EXPECT_NEAR(strong.checksum, want, 1e-9);
  const auto lazy = run_laplace_svm(p, svm::Model::kLazyRelease, 96);
  EXPECT_NEAR(lazy.checksum, want, 1e-9);
}

TEST(SvmScaling, WideDirectoryInvalidatesPastSixtyFourCores) {
  // 96 cores needs the multi-word directory (2 sharer words). Boundary
  // rows are read by neighbours and re-written by their owner each
  // iteration, so read replication must grant and then multicast-
  // invalidate replicas — through the wide encoding.
  LaplaceParams p = small_laplace();
  p.read_replication = true;
  const auto r = run_laplace_svm(p, svm::Model::kStrong, 96);
  EXPECT_NEAR(r.checksum, laplace_reference_checksum(p), 1e-9);
  EXPECT_GT(r.invalidations, 0u);
}

TEST(SvmScaling, NinetySixCoreRunIsDeterministic) {
  // Same seed, same config, two runs: every virtual time and protocol
  // counter must match bit for bit (the property the CI double-run gate
  // enforces on the bench binaries).
  LaplaceParams p = small_laplace();
  p.read_replication = true;
  const auto a = run_laplace_svm(p, svm::Model::kStrong, 96);
  const auto b = run_laplace_svm(p, svm::Model::kStrong, 96);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.page_faults, b.page_faults);
  EXPECT_EQ(a.ownership_acquires, b.ownership_acquires);
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.mail_roundtrips, b.mail_roundtrips);
}

TEST(SvmScaling, MatmulOneTwentyEightCoresMatchesReference) {
  MatmulParams p;
  p.n = 48;
  const double want = matmul_reference_checksum(p);
  const auto r = run_matmul(p, svm::Model::kLazyRelease, 128);
  EXPECT_NEAR(r.checksum, want, 1e-6);
}

}  // namespace
}  // namespace msvm::workloads
