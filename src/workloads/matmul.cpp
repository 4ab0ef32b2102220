#include "workloads/matmul.hpp"

#include <algorithm>
#include <vector>

#include "cluster/cluster.hpp"

namespace msvm::workloads {

namespace {

double a_of(u32 i, u32 j) { return 0.25 + static_cast<double>((i * 7 + j) % 13); }
double b_of(u32 i, u32 j) { return 0.5 + static_cast<double>((i * 3 + j) % 7); }

}  // namespace

double matmul_reference_checksum(const MatmulParams& p) {
  double sum = 0.0;
  for (u32 i = 0; i < p.n; ++i) {
    for (u32 j = 0; j < p.n; ++j) {
      double acc = 0.0;
      for (u32 k = 0; k < p.n; ++k) acc += a_of(i, k) * b_of(k, j);
      sum += acc;
    }
  }
  return sum;
}

MatmulResult run_matmul(const MatmulParams& p, svm::Model model,
                        int num_cores) {
  cluster::ClusterConfig cfg;
  // The chip grid follows the member count (the SCC die up to 48 cores).
  cfg.chip.num_cores = num_cores;
  const u64 mat_bytes = static_cast<u64>(p.n) * p.n * 8;
  // As in laplace: 64 KiB of shared DRAM per core past the 48-core die
  // keeps the per-MC frame pools ahead of the allocation batches.
  cfg.chip.shared_dram_bytes =
      std::max<u64>({16ull << 20, 8 * mat_bytes,
                     static_cast<u64>(num_cores) << 16});
  cfg.chip.private_dram_bytes = 1 << 20;
  cfg.svm.model = model;
  cfg.svm.read_replication = p.read_replication;
  cfg.use_ipi = p.use_ipi;
  cfg.chip.faults = p.faults;
  cluster::Cluster cl(cfg);

  MatmulResult result;
  std::vector<double> partial(static_cast<std::size_t>(num_cores), 0.0);
  std::vector<TimePs> elapsed(static_cast<std::size_t>(num_cores), 0);
  std::vector<u64> l2(static_cast<std::size_t>(num_cores), 0);

  cl.run([&](cluster::Node& n) {
    svm::Svm& svm = n.svm();
    scc::Core& core = n.core();
    const auto r = static_cast<std::size_t>(n.rank());
    const u64 a = svm.alloc(mat_bytes);
    const u64 b = svm.alloc(mat_bytes);
    const u64 c = svm.alloc(mat_bytes);
    auto at = [&](u64 base, u32 i, u32 j) {
      return base + (static_cast<u64>(i) * p.n + j) * 8;
    };

    // Block-row initialisation: first-touch places each core's rows of
    // all three matrices near its own memory controller.
    const u32 r0 = static_cast<u32>(
        static_cast<u64>(p.n) * static_cast<u64>(n.rank()) / n.size());
    const u32 r1 = static_cast<u32>(
        static_cast<u64>(p.n) * (static_cast<u64>(n.rank()) + 1) /
        n.size());
    for (u32 i = r0; i < r1; ++i) {
      for (u32 j = 0; j < p.n; ++j) {
        core.vstore<double>(at(a, i, j), a_of(i, j));
        core.vstore<double>(at(b, i, j), b_of(i, j));
        core.vstore<double>(at(c, i, j), 0.0);
      }
    }
    svm.barrier();

    if (p.protect_inputs) {
      svm.protect_readonly(a, mat_bytes);
      svm.protect_readonly(b, mat_bytes);
    }

    const u64 l2_before = core.counters().l2_hits;
    const TimePs t0 = core.now();
    for (u32 i = r0; i < r1; ++i) {
      for (u32 j = 0; j < p.n; ++j) {
        double acc = 0.0;
        for (u32 k = 0; k < p.n; ++k) {
          acc += core.vload<double>(at(a, i, k)) *
                 core.vload<double>(at(b, k, j));
          core.compute_cycles(p.compute_cycles_per_madd);
        }
        core.vstore<double>(at(c, i, j), acc);
      }
    }
    svm.barrier();
    elapsed[r] = core.now() - t0;
    l2[r] = core.counters().l2_hits - l2_before;

    double sum = 0.0;
    for (u32 i = r0; i < r1; ++i) {
      for (u32 j = 0; j < p.n; ++j) {
        sum += core.vload<double>(at(c, i, j));
      }
    }
    partial[r] = sum;
    svm.barrier();
  });

  for (int r = 0; r < num_cores; ++r) {
    const auto i = static_cast<std::size_t>(r);
    result.checksum += partial[i];
    result.elapsed = std::max(result.elapsed, elapsed[i]);
    result.l2_hits += l2[i];
  }
  for (const int c : cl.members()) {
    result.ownership_acquires +=
        cl.node(c).svm().stats().ownership_acquires;
    result.mail_roundtrips +=
        cl.node(c).core().counters().svm_mail_roundtrips;
    result.invalidations += cl.node(c).svm().stats().invalidations_sent;
  }
  return result;
}

}  // namespace msvm::workloads
