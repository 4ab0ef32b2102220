// The paper's application benchmark (Section 7.2.2): the two-dimensional
// Laplace (heat-distribution) problem solved by Jacobi over-relaxation,
//   u_new[i][j] = 1/4 (u_old[i-1][j] + u_old[i+1][j]
//                      + u_old[i][j-1] + u_old[i][j+1]),
// over a ny x nx grid of doubles with fixed boundary temperatures, a
// static block-row distribution over n cores, array swap plus barrier
// after every iteration.
//
// Three variants, matching Figure 9's three curves:
//   - SVM, Strong Memory Model
//   - SVM, Lazy Release Consistency
//   - iRCCE message passing (private arrays + ghost-row exchange)
//
// The paper's grid is 1024 x 512 doubles — each row is exactly one 4 KiB
// page, so boundary-row sharing is page-granular by construction (and the
// two arrays total 2 x 4 MiB, the size Table 1 allocates).
#pragma once

#include <vector>

#include "cluster/cluster.hpp"
#include "sim/faults.hpp"
#include "sim/types.hpp"
#include "svm/svm.hpp"

namespace msvm::workloads {

struct LaplaceParams {
  u32 nx = 512;    // row width in doubles (512 * 8 B = one page)
  u32 ny = 1024;   // number of rows
  u32 iterations = 10;
  /// FPU cost per 5-point stencil update (P54C-ish adds + multiply).
  u32 compute_cycles_per_cell = 8;
  /// Boundary temperature along the top edge (other edges at 0).
  double hot_edge = 100.0;
  /// Core clock; mesh/DRAM stay at 800 MHz (Section 3). perfbench sets
  /// it.
  u32 core_mhz = 533;
  /// Strong-model read-replication directory: boundary rows are read by
  /// one neighbour and written by their owner, the sharing pattern the
  /// directory turns into one grant + one invalidation per iteration.
  bool read_replication = false;
  /// Chaos layer: deterministic fault-injection plan (default: no faults).
  sim::FaultPlan faults;
};

struct LaplaceResult {
  /// Iteration-phase virtual time of the slowest core (excludes init).
  TimePs elapsed = 0;
  double checksum = 0.0;  // sum over the final grid, for correctness
  u64 page_faults = 0;    // total across cores, iteration phase only
  u64 ownership_acquires = 0;
  u64 wcb_flushes = 0;
  u64 l2_hits = 0;
  u64 l1_misses = 0;
  u64 dram_reads = 0;
  u64 dram_writes = 0;
  u64 bytes_messaged = 0;   // iRCCE variant only
  u64 mail_roundtrips = 0;  // blocking fault-path round-trips, iter phase
  u64 invalidations = 0;    // replica invalidations sent, all cores
};

/// Host-side reference solution (plain C++), for checksum validation.
double laplace_reference_checksum(const LaplaceParams& p);

/// Runs the SVM variant on `num_cores` cores under the given model.
LaplaceResult run_laplace_svm(const LaplaceParams& p, svm::Model model,
                              int num_cores, bool use_ipi = true);

/// Runs the iRCCE message-passing variant on `num_cores` cores.
LaplaceResult run_laplace_ircce(const LaplaceParams& p, int num_cores);

/// Row partition helper: rows [first, last) of rank r out of n (interior
/// distribution of ny rows including the boundary rows).
std::pair<u32, u32> laplace_rows_of_rank(u32 ny, int rank, int n);

}  // namespace msvm::workloads
