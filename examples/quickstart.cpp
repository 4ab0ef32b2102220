// Quickstart: boot a simulated SCC, run an SPMD program on 4 cores, and
// share memory through the SVM system.
//
//   $ ./build/examples/quickstart
//
// Walks through the core API: collective allocation, first-touch
// placement, barriers, and reading another core's data under Lazy
// Release Consistency.
#include <cstdio>

#include "cluster/cluster.hpp"
#include "cluster/report.hpp"

using namespace msvm;

int main() {
  // 1. Describe the machine + software stack. Defaults model the paper's
  //    SCC configuration (48 P54C cores at 533 MHz; we use 4 of them).
  cluster::ClusterConfig cfg;
  cfg.chip.num_cores = 48;
  cfg.members = {0, 1, 24, 47};  // any subset of the die works
  cfg.svm.model = svm::Model::kLazyRelease;

  cluster::Cluster cluster(cfg);
  bool all_sums_right = true;

  // 2. Run the same program on every member core (SPMD, like RCCE).
  cluster.run([&](cluster::Node& n) {
    svm::Svm& svm = n.svm();

    // Collective: every member calls alloc with the same size and gets
    // the same virtual base. No physical memory exists yet.
    const u64 counters = svm.alloc(4096);

    // First touch: each core writes its own slot, which allocates the
    // page near the first toucher's memory controller.
    svm.write<u64>(counters + 8 * static_cast<u64>(n.rank()),
                   100 + static_cast<u64>(n.rank()));

    // Barrier = release + acquire: flushes the write-combine buffer and
    // invalidates stale cache lines, so everyone sees everyone's slot.
    svm.barrier();

    u64 sum = 0;
    u64 expect = 0;
    for (int r = 0; r < n.size(); ++r) {
      sum += svm.read<u64>(counters + 8 * static_cast<u64>(r));
      expect += 100 + static_cast<u64>(r);
    }
    if (sum != expect) all_sums_right = false;

    std::printf("core %2d (rank %d): sum of all slots = %llu at t=%.3f us\n",
                n.core_id(), n.rank(),
                static_cast<unsigned long long>(sum),
                ps_to_us(n.core().now()));
    svm.barrier();
  });

  // 3. Inspect what the hardware and the SVM system actually did.
  std::printf("\n%s", cluster::format_report(cluster).c_str());
  return all_sums_right ? 0 : 1;
}
