// Lock-based shared histogram: the classic Lazy-Release-Consistency
// workload (every access to shared data protected by a lock, Section
// 6.2). Each core draws deterministic pseudo-random samples, bins them
// locally, then merges into the SVM-resident histogram under striped SVM
// locks — acquire invalidates, release publishes.
//
// Not to be confused with obs/latency_histo.hpp: that is the
// simulator's log-scaled *latency* histogram (a measurement container); this
// is a *workload* whose shared data happens to be a histogram.
#pragma once

#include <vector>

#include "sim/faults.hpp"
#include "sim/types.hpp"
#include "svm/svm.hpp"

namespace msvm::workloads {

struct HistogramParams {
  u32 bins = 256;
  u32 samples_per_core = 4096;
  u32 lock_stripes = 8;  // bins per lock stripe = bins / stripes
  u64 seed = 42;
  /// Strong-model read-replication directory (no effect under LRC).
  bool read_replication = false;
  /// Mailbox delivery mode (the chaos campaign exercises both).
  bool use_ipi = true;
  /// Chaos layer: deterministic fault-injection plan (default: no faults).
  sim::FaultPlan faults;
};

struct HistogramResult {
  std::vector<u64> bins;   // final shared histogram
  u64 total_samples = 0;
  TimePs elapsed = 0;      // slowest core, merge phase
  u64 mail_roundtrips = 0;  // blocking fault-path round-trips, all cores
  u64 invalidations = 0;    // replica invalidations sent, all cores
};

HistogramResult run_histogram(const HistogramParams& p, svm::Model model,
                              int num_cores);

/// Host-side reference for validation (same PRNG stream per rank).
std::vector<u64> histogram_reference(const HistogramParams& p,
                                     int num_cores);

}  // namespace msvm::workloads
