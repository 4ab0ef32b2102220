// Ablation 3 — the first-touch scratchpad (Section 6.3), two trade-offs:
//
//  (a) location: on-die (in the MPBs, the paper's design, which limits
//      shared memory to 256 MiB) vs. relocated into off-die DRAM, which
//      "increases the number of memory accesses, which in turn decreases
//      the performance". The effect shows on the *mapping* path, where
//      the scratchpad lookup is a large share of the ~2.4 us cost.
//  (b) locking: the paper guards the scratchpad with a single
//      Test-and-Set lock; a first-touch storm from many cores serialises
//      on it. Striping the lock recovers scalability.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "cluster/cluster.hpp"

using namespace msvm;

namespace {

/// Mapping-path cost: rank 0 pre-allocates every page, then rank 1 maps
/// them (read faults, Lazy Release: scratchpad lookup + PTE install).
TimePs map_cost_per_page(bool offdie, u64 pages) {
  cluster::ClusterConfig cfg;
  cfg.chip.num_cores = 48;
  cfg.members = {0, 30};
  cfg.chip.shared_dram_bytes = 32 << 20;
  cfg.chip.private_dram_bytes = 1 << 20;
  cfg.svm.scratchpad_offdie = offdie;
  cluster::Cluster cl(cfg);
  TimePs cost = 0;
  const u64 page = scc::kPageBytes;
  cl.run([&](cluster::Node& n) {
    const u64 base = n.svm().alloc(pages * page);
    if (n.rank() == 0) {
      for (u64 p = 0; p < pages; ++p) {
        n.core().vstore<u32>(base + p * page, 1);
      }
    }
    n.svm().barrier();
    if (n.rank() == 1) {
      const TimePs t0 = n.core().now();
      for (u64 p = 0; p < pages; ++p) {
        (void)n.core().vload<u32>(base + p * page);
      }
      cost = (n.core().now() - t0) / pages;
    }
    n.svm().barrier();
  });
  return cost;
}

/// First-touch storm: every core touches its own slice concurrently.
TimePs storm_cost_per_page(u32 stripes, int cores, u64 pages_per_core) {
  cluster::ClusterConfig cfg;
  cfg.chip.num_cores = 48;
  for (int c = 0; c < cores; ++c) cfg.members.push_back(c);
  cfg.chip.shared_dram_bytes = 64 << 20;
  cfg.chip.private_dram_bytes = 1 << 20;
  cfg.svm.scratchpad_lock_stripes = stripes;
  cluster::Cluster cl(cfg);
  TimePs cost = 0;
  const u64 page = scc::kPageBytes;
  cl.run([&](cluster::Node& n) {
    const u64 bytes = pages_per_core * page * static_cast<u64>(n.size());
    const u64 base = n.svm().alloc(bytes);
    n.svm().barrier();
    const u64 mine =
        base + static_cast<u64>(n.rank()) * pages_per_core * page;
    const TimePs t0 = n.core().now();
    for (u64 p = 0; p < pages_per_core; ++p) {
      n.core().vstore<u32>(mine + p * page, 1);
    }
    const TimePs mine_elapsed = n.core().now() - t0;
    n.svm().barrier();
    if (n.rank() == 0) cost = mine_elapsed / pages_per_core;
  });
  return cost;
}

}  // namespace

int main(int argc, char** argv) {
  bench::obs_setup(argc, argv);
  const u64 pages = bench::arg_u64(argc, argv, "pages", 512);

  bench::print_header(
      "Ablation — first-touch scratchpad: location and locking",
      "Lankes et al., PMAM'12, Section 6.3");

  std::printf("(a) mapping an already-allocated page, cores 0 and 30:\n");
  const TimePs ondie = map_cost_per_page(false, pages);
  const TimePs offdie = map_cost_per_page(true, pages);
  std::printf("    on-die scratchpad : %8.3f us/page\n", ps_to_us(ondie));
  std::printf("    off-die scratchpad: %8.3f us/page  (%.2fx)\n",
              ps_to_us(offdie),
              static_cast<double>(offdie) / static_cast<double>(ondie));

  std::printf("\n(b) first-touch storm, all cores allocating at once "
              "(32 pages/core):\n");
  std::printf("%8s | %16s | %16s\n", "cores", "1 lock [us/page]",
              "16 stripes [us/page]");
  bench::print_row_sep();
  for (const int cores : {2, 8, 24, 48}) {
    const TimePs one = storm_cost_per_page(1, cores, 32);
    const TimePs sixteen = storm_cost_per_page(16, cores, 32);
    std::printf("%8d | %16.3f | %16.3f\n", cores, ps_to_us(one),
                ps_to_us(sixteen));
  }
  bench::print_row_sep();
  std::printf(
      "expected shape: (a) the off-die scratchpad makes mapping\n"
      "measurably slower (DRAM round trip instead of on-die MPB read);\n"
      "(b) the paper's single lock serialises the storm linearly in the\n"
      "core count; striping flattens it.\n");
  return 0;
}
