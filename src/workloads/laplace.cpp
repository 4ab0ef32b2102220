#include "workloads/laplace.hpp"

#include <algorithm>
#include <cassert>

#include "kernel/kernel.hpp"
#include "rcce/rcce.hpp"

namespace msvm::workloads {

namespace {

/// Initial temperature of grid cell (i, j): hot along the top edge,
/// cold everywhere else (including the other three edges).
double initial_value(const LaplaceParams& p, u32 i, u32 j) {
  (void)j;
  return i == 0 ? p.hot_edge : 0.0;
}

}  // namespace

std::pair<u32, u32> laplace_rows_of_rank(u32 ny, int rank, int n) {
  const u64 first = static_cast<u64>(ny) * static_cast<u64>(rank) /
                    static_cast<u64>(n);
  const u64 last = static_cast<u64>(ny) * (static_cast<u64>(rank) + 1) /
                   static_cast<u64>(n);
  return {static_cast<u32>(first), static_cast<u32>(last)};
}

double laplace_reference_checksum(const LaplaceParams& p) {
  std::vector<double> old_g(static_cast<std::size_t>(p.ny) * p.nx);
  std::vector<double> new_g(old_g.size());
  for (u32 i = 0; i < p.ny; ++i) {
    for (u32 j = 0; j < p.nx; ++j) {
      old_g[static_cast<std::size_t>(i) * p.nx + j] = initial_value(p, i, j);
      new_g[static_cast<std::size_t>(i) * p.nx + j] = initial_value(p, i, j);
    }
  }
  for (u32 iter = 0; iter < p.iterations; ++iter) {
    for (u32 i = 1; i + 1 < p.ny; ++i) {
      for (u32 j = 1; j + 1 < p.nx; ++j) {
        const std::size_t at = static_cast<std::size_t>(i) * p.nx + j;
        new_g[at] = 0.25 * (old_g[at - p.nx] + old_g[at + p.nx] +
                            old_g[at - 1] + old_g[at + 1]);
      }
    }
    std::swap(old_g, new_g);
  }
  double sum = 0.0;
  for (const double v : old_g) sum += v;
  return sum;
}

// ---------------------------------------------------------------------------
// SVM variant

LaplaceResult run_laplace_svm(const LaplaceParams& p, svm::Model model,
                              int num_cores, bool use_ipi) {
  cluster::ClusterConfig cfg;
  // The full die is always simulated — the first-touch scratchpad is
  // distributed over every MPB on the chip — while only `num_cores`
  // members run the program, exactly like using part of a real SCC.
  // Past 48 members the chip grid grows to fit (configure_cores), and at
  // 48 or fewer it stays the exact default SCC die.
  scc::configure_cores(cfg.chip, std::max(num_cores, 48));
  cfg.chip.core_mhz = p.core_mhz;
  for (int c = 0; c < num_cores; ++c) cfg.members.push_back(c);
  const u64 grid_bytes = static_cast<u64>(p.ny) * p.nx * 8;
  // Past 48 members, grow shared DRAM with the core count (64 KiB per
  // core) so the per-MC frame pools keep headroom for every core's
  // allocation batch; at <= 48 the historical 16 MiB floor is unchanged.
  cfg.chip.shared_dram_bytes =
      std::max<u64>({16ull << 20, 4 * grid_bytes,
                     static_cast<u64>(num_cores) << 16});
  cfg.chip.private_dram_bytes = 1 << 20;
  cfg.svm.model = model;
  cfg.svm.read_replication = p.read_replication;
  cfg.use_ipi = use_ipi;
  cfg.chip.faults = p.faults;
  cluster::Cluster cl(cfg);

  std::vector<double> partial(static_cast<std::size_t>(num_cores), 0.0);
  std::vector<TimePs> elapsed(static_cast<std::size_t>(num_cores), 0);
  std::vector<scc::CoreCounters> before(
      static_cast<std::size_t>(num_cores));
  std::vector<scc::CoreCounters> after(
      static_cast<std::size_t>(num_cores));

  cl.run([&](cluster::Node& n) {
    svm::Svm& svm = n.svm();
    scc::Core& core = n.core();
    const auto r = static_cast<std::size_t>(n.rank());
    u64 old_base = svm.alloc(grid_bytes);
    u64 new_base = svm.alloc(grid_bytes);
    const auto [r0, r1] = laplace_rows_of_rank(p.ny, n.rank(), n.size());

    // Affinity-on-first-touch initialisation: every core touches exactly
    // the rows it will later compute on, so frames land near its MC.
    auto addr = [&](u64 base, u32 i, u32 j) {
      return base + (static_cast<u64>(i) * p.nx + j) * 8;
    };
    // One pass per array, not one interleaved pass: first touch assigns
    // physical frames in touch order, and interleaving old/new pages
    // would give the row streams an 8 KiB physical stride that collides
    // in the same L1 sets (three streams in a 2-way cache = thrash).
    for (u32 i = r0; i < r1; ++i) {
      for (u32 j = 0; j < p.nx; ++j) {
        core.vstore<double>(addr(old_base, i, j), initial_value(p, i, j));
      }
    }
    for (u32 i = r0; i < r1; ++i) {
      for (u32 j = 0; j < p.nx; ++j) {
        core.vstore<double>(addr(new_base, i, j), initial_value(p, i, j));
      }
    }
    svm.barrier();

    before[r] = core.counters();
    const TimePs t0 = core.now();

    for (u32 iter = 0; iter < p.iterations; ++iter) {
      const u32 lo = std::max(r0, 1u);
      const u32 hi = std::min(r1, p.ny - 1);
      for (u32 i = lo; i < hi; ++i) {
        for (u32 j = 1; j + 1 < p.nx; ++j) {
          const double north = core.vload<double>(addr(old_base, i - 1, j));
          const double south = core.vload<double>(addr(old_base, i + 1, j));
          const double west = core.vload<double>(addr(old_base, i, j - 1));
          const double east = core.vload<double>(addr(old_base, i, j + 1));
          core.compute_cycles(p.compute_cycles_per_cell);
          core.vstore<double>(addr(new_base, i, j),
                              0.25 * (north + south + west + east));
        }
      }
      std::swap(old_base, new_base);
      svm.barrier();
    }

    elapsed[r] = core.now() - t0;
    after[r] = core.counters();

    // Checksum of the final grid (outside the timed phase).
    double sum = 0.0;
    for (u32 i = r0; i < r1; ++i) {
      for (u32 j = 0; j < p.nx; ++j) {
        sum += core.vload<double>(addr(old_base, i, j));
      }
    }
    partial[r] = sum;
    svm.barrier();
  });

  LaplaceResult result;
  for (int r = 0; r < num_cores; ++r) {
    const auto i = static_cast<std::size_t>(r);
    result.elapsed = std::max(result.elapsed, elapsed[i]);
    result.checksum += partial[i];
    const scc::CoreCounters d = after[i] - before[i];
    result.page_faults += d.page_faults;
    result.wcb_flushes += d.wcb_flushes;
    result.l2_hits += d.l2_hits;
    result.l1_misses += d.l1_misses;
    result.dram_reads += d.dram_reads;
    result.dram_writes += d.dram_writes;
    result.mail_roundtrips += d.svm_mail_roundtrips;
  }
  for (const int c : cl.members()) {
    result.ownership_acquires += cl.node(c).svm().stats().ownership_acquires;
    result.invalidations += cl.node(c).svm().stats().invalidations_sent;
  }
  return result;
}

// ---------------------------------------------------------------------------
// iRCCE message-passing variant

LaplaceResult run_laplace_ircce(const LaplaceParams& p, int num_cores) {
  cluster::ClusterConfig cfg;
  cfg.chip.num_cores = num_cores;
  cfg.chip.core_mhz = p.core_mhz;
  cfg.chip.shared_dram_bytes = 16 << 20;
  const u64 rows_max =
      (p.ny + static_cast<u32>(num_cores) - 1) / static_cast<u32>(num_cores) +
      2;
  cfg.chip.private_dram_bytes = std::max<u64>(
      2 << 20, 4ull * (rows_max + 2) * p.nx * 8 + (1 << 20));
  cluster::Cluster cl(cfg);

  std::vector<double> partial(static_cast<std::size_t>(num_cores), 0.0);
  std::vector<TimePs> elapsed(static_cast<std::size_t>(num_cores), 0);
  std::vector<scc::CoreCounters> before(
      static_cast<std::size_t>(num_cores));
  std::vector<scc::CoreCounters> after(
      static_cast<std::size_t>(num_cores));
  std::vector<u64> messaged(static_cast<std::size_t>(num_cores), 0);

  cl.run([&](cluster::Node& n) {
    scc::Core& core = n.core();
    rcce::Rcce& rcce = n.rcce();
    const int rank = rcce.rank();
    const int size = rcce.size();
    const auto ri = static_cast<std::size_t>(rank);
    const auto [r0, r1] = laplace_rows_of_rank(p.ny, rank, size);
    const u32 rows_local = r1 - r0;
    const u64 row_bytes = static_cast<u64>(p.nx) * 8;

    // Local arrays with one ghost row above and below: local row l holds
    // global row (r0 - 1 + l).
    u64 old_l = n.kernel().kmalloc((rows_local + 2) * row_bytes, 4096);
    u64 new_l = n.kernel().kmalloc((rows_local + 2) * row_bytes, 4096);
    auto addr = [&](u64 base, u32 local_i, u32 j) {
      return base + static_cast<u64>(local_i) * row_bytes + j * 8;
    };
    for (u32 i = 0; i < rows_local; ++i) {
      for (u32 j = 0; j < p.nx; ++j) {
        const double v = initial_value(p, r0 + i, j);
        core.vstore<double>(addr(old_l, i + 1, j), v);
        core.vstore<double>(addr(new_l, i + 1, j), v);
      }
    }
    rcce.barrier();

    before[ri] = core.counters();
    const TimePs t0 = core.now();
    const int up = rank > 0 ? rank - 1 : -1;
    const int down = rank + 1 < size ? rank + 1 : -1;

    for (u32 iter = 0; iter < p.iterations; ++iter) {
      // Non-blocking ghost-row exchange of the current `old` array.
      std::vector<rcce::Rcce::RequestHandle> reqs;
      if (up >= 0) {
        reqs.push_back(rcce.irecv(addr(old_l, 0, 0), row_bytes, up));
        reqs.push_back(rcce.isend(addr(old_l, 1, 0), row_bytes, up));
      }
      if (down >= 0) {
        reqs.push_back(
            rcce.irecv(addr(old_l, rows_local + 1, 0), row_bytes, down));
        reqs.push_back(
            rcce.isend(addr(old_l, rows_local, 0), row_bytes, down));
      }
      rcce.wait_all(reqs);

      const u32 lo = std::max(r0, 1u);
      const u32 hi = std::min(r1, p.ny - 1);
      for (u32 gi = lo; gi < hi; ++gi) {
        const u32 li = gi - r0 + 1;
        for (u32 j = 1; j + 1 < p.nx; ++j) {
          const double north = core.vload<double>(addr(old_l, li - 1, j));
          const double south = core.vload<double>(addr(old_l, li + 1, j));
          const double west = core.vload<double>(addr(old_l, li, j - 1));
          const double east = core.vload<double>(addr(old_l, li, j + 1));
          core.compute_cycles(p.compute_cycles_per_cell);
          core.vstore<double>(addr(new_l, li, j),
                              0.25 * (north + south + west + east));
        }
      }
      std::swap(old_l, new_l);
      rcce.barrier();
    }

    elapsed[ri] = core.now() - t0;
    after[ri] = core.counters();
    messaged[ri] = rcce.stats().bytes_sent;

    double sum = 0.0;
    for (u32 i = 0; i < rows_local; ++i) {
      for (u32 j = 0; j < p.nx; ++j) {
        sum += core.vload<double>(addr(old_l, i + 1, j));
      }
    }
    partial[ri] = sum;
    rcce.barrier();
  });

  LaplaceResult result;
  for (int r = 0; r < num_cores; ++r) {
    const auto i = static_cast<std::size_t>(r);
    result.elapsed = std::max(result.elapsed, elapsed[i]);
    result.checksum += partial[i];
    const scc::CoreCounters d = after[i] - before[i];
    result.page_faults += d.page_faults;
    result.wcb_flushes += d.wcb_flushes;
    result.l2_hits += d.l2_hits;
    result.l1_misses += d.l1_misses;
    result.dram_reads += d.dram_reads;
    result.dram_writes += d.dram_writes;
    result.bytes_messaged += messaged[i];
  }
  return result;
}

}  // namespace msvm::workloads
