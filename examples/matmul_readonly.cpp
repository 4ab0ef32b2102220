// Read-only-region demo (paper Section 6.4): a shared-memory matrix
// multiply where the inputs are protected read-only after initialisation,
// unlocking the L2 cache and removing all ownership traffic on them —
// plus a demonstration of the protection fault a stray write triggers.
//
//   $ ./build/examples/matmul_readonly [n] [cores]
#include <cstdio>
#include <cstdlib>

#include "cluster/cluster.hpp"
#include "workloads/matmul.hpp"

using namespace msvm;

int main(int argc, char** argv) {
  workloads::MatmulParams p;
  p.n = argc > 1 ? static_cast<u32>(std::atoi(argv[1])) : 64;
  const int cores = argc > 2 ? std::atoi(argv[2]) : 4;

  std::printf("C = A x B, %ux%u doubles, %d cores, strong memory model\n",
              p.n, p.n, cores);

  p.protect_inputs = true;
  const auto with = run_matmul(p, svm::Model::kStrong, cores);
  p.protect_inputs = false;
  const auto without = run_matmul(p, svm::Model::kStrong, cores);
  // Third variant: no manual protect, but the read-replication directory
  // (an extension beyond the paper) — replicas appear on demand, no
  // collective protect call needed.
  p.read_replication = true;
  const auto repl = run_matmul(p, svm::Model::kStrong, cores);
  p.read_replication = false;
  const double expect = workloads::matmul_reference_checksum(p);

  auto right = [&](const workloads::MatmulResult& r) {
    return std::abs(r.checksum - expect) < 1e-6 * expect;
  };
  auto correct = [&](const workloads::MatmulResult& r) {
    return right(r) ? "yes" : "NO";
  };
  std::printf("\n%-28s %14s %14s %14s\n", "", "protected", "unprotected",
              "replication");
  std::printf("%-28s %14.3f %14.3f %14.3f\n", "compute time [ms]",
              ps_to_ms(with.elapsed), ps_to_ms(without.elapsed),
              ps_to_ms(repl.elapsed));
  std::printf("%-28s %14llu %14llu %14llu\n", "L2 hits",
              static_cast<unsigned long long>(with.l2_hits),
              static_cast<unsigned long long>(without.l2_hits),
              static_cast<unsigned long long>(repl.l2_hits));
  std::printf("%-28s %14llu %14llu %14llu\n", "ownership transfers",
              static_cast<unsigned long long>(with.ownership_acquires),
              static_cast<unsigned long long>(without.ownership_acquires),
              static_cast<unsigned long long>(repl.ownership_acquires));
  std::printf("%-28s %14llu %14llu %14llu\n", "fault round-trips",
              static_cast<unsigned long long>(with.mail_roundtrips),
              static_cast<unsigned long long>(without.mail_roundtrips),
              static_cast<unsigned long long>(repl.mail_roundtrips));
  std::printf("%-28s %14s %14s %14s\n", "checksum correct", correct(with),
              correct(without), correct(repl));

  // Part 2: the debugging aid — writing to a protected region faults at
  // the *first* wrong access instead of corrupting the final result.
  std::printf("\nwrite-to-protected demo: ");
  cluster::ClusterConfig cfg;
  cfg.chip.num_cores = 48;
  cfg.members = {0, 1};
  cluster::Cluster cl(cfg);
  cl.run([](cluster::Node& n) {
    const u64 table = n.svm().alloc(4096);
    if (n.rank() == 0) n.svm().write<u64>(table, 42);
    n.svm().barrier();
    n.svm().protect_readonly(table, 4096);
    if (n.rank() == 1) {
      try {
        n.svm().write<u64>(table, 7);  // bug: writing a lookup table
      } catch (const svm::SvmProtectionError& e) {
        std::printf("caught SvmProtectionError at vaddr 0x%llx — "
                    "bug detected at its first occurrence\n",
                    static_cast<unsigned long long>(e.vaddr()));
      }
    }
    n.svm().barrier();
  });
  return right(with) && right(without) && right(repl) ? 0 : 1;
}
