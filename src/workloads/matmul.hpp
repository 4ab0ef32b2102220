// Shared-memory matrix multiply C = A * B with a block-row distribution.
// Showcases the read-only-region optimisation of Section 6.4: after the
// collective initialisation, A and B are protected read-only, letting
// every core cache them in its (otherwise unusable) L2 while it computes
// its rows of C through the write-combine buffer.
#pragma once

#include "sim/faults.hpp"
#include "sim/types.hpp"
#include "svm/svm.hpp"

namespace msvm::workloads {

struct MatmulParams {
  u32 n = 64;  // square matrices n x n of doubles
  u32 compute_cycles_per_madd = 3;
  /// Protect A and B read-only before the compute phase (Section 6.4).
  bool protect_inputs = true;
  /// Strong-model read-replication directory (SvmConfig::read_replication):
  /// the protocol-level alternative to protect_inputs for read-mostly
  /// operands.
  bool read_replication = false;
  /// Mailbox delivery mode (the chaos campaign exercises both).
  bool use_ipi = true;
  /// Chaos layer: deterministic fault-injection plan (default: no faults).
  sim::FaultPlan faults;
};

struct MatmulResult {
  double checksum = 0.0;  // sum over C
  TimePs elapsed = 0;     // compute phase, slowest core
  u64 l2_hits = 0;        // evidence of the read-only optimisation
  u64 ownership_acquires = 0;
  u64 mail_roundtrips = 0;  // blocking fault-path round-trips, all cores
  u64 invalidations = 0;    // replica invalidations sent, all cores
};

MatmulResult run_matmul(const MatmulParams& p, svm::Model model,
                        int num_cores);

/// Host-side reference checksum for the same deterministic inputs.
double matmul_reference_checksum(const MatmulParams& p);

}  // namespace msvm::workloads
