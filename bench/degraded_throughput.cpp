// Degraded-mode throughput: how much useful work the surviving cores
// still complete as 0..3 cores fail-stop mid-run. Each row runs the
// slot-mosaic kill workload under the heartbeat-lease recovery envelope
// and reports verified slots per virtual millisecond — the graceful-
// degradation curve of the recovery design (a dead core should cost its
// own share of the work plus a bounded recovery stall, not wedge or
// poison the rest of the chip).
//
//   ./degraded_throughput --cores=48 --pages=16 --seed=42
#include <cstdio>
#include <string>

#include "bench/bench_common.hpp"
#include "sim/faults.hpp"
#include "workloads/kill_mosaic.hpp"

int main(int argc, char** argv) {
  using namespace msvm;
  const u64 seed = bench::arg_seed(argc, argv);
  const int cores = bench::arg_cores(argc, argv);
  const u32 pages =
      static_cast<u32>(bench::arg_u64(argc, argv, "pages", 16));

  bench::print_header(
      "degraded-mode throughput under fail-stop core deaths",
      "verified slots per virtual ms as 0..3 cores die mid-run");

  bench::JsonReport json("degraded_throughput", seed);
  bench::obs_setup(argc, argv);
  json.topology(cores);
  json.config("pages", static_cast<u64>(pages));

  struct ModelRow {
    svm::Model model;
    bool read_replication;
    const char* name;
  };
  static constexpr ModelRow kModels[] = {
      {svm::Model::kStrong, false, "strong"},
      {svm::Model::kStrong, true, "strong+rr"},
      {svm::Model::kLazyRelease, false, "lrc"},
  };

  std::printf("%-10s %-6s %-10s %-9s %-9s %-11s %s\n", "model", "kills",
              "outcome", "verified", "lost", "makespan", "slots/ms");
  bench::print_row_sep();

  bool ok = true;
  for (const ModelRow& m : kModels) {
    for (int kills = 0; kills <= 3; ++kills) {
      workloads::KillMosaicParams p;
      p.pages = pages;
      p.seed = seed;
      p.read_replication = m.read_replication;
      // Deterministic staggered deaths spread across the run so each row
      // is a reproducible point on the degradation curve.
      for (int k = 0; k < kills; ++k) {
        sim::KillSpec spec;
        spec.core = 5 + k * 11;
        spec.at_ps = (1 + k) * kPsPerMs;
        p.faults.kills.push_back(spec);
      }
      p.faults.watchdog_ps = 500 * kPsPerMs;
      p.faults.lease_ps = 500 * kPsPerUs;

      const char* outcome = "correct";
      workloads::KillMosaicResult r;
      try {
        r = workloads::run_kill_mosaic(p, m.model, cores);
        if (r.slot_mismatches > 0) {
          outcome = "WRONG";
          ok = false;
        } else if (r.ranks_lost > 0) {
          outcome = "data-loss";
        }
      } catch (const sim::HangError&) {
        outcome = "clean-hang";
      }

      const double ms =
          static_cast<double>(r.makespan) / static_cast<double>(kPsPerMs);
      const double slots =
          static_cast<double>(r.ranks_verified) * static_cast<double>(pages);
      const double per_ms = ms > 0 ? slots / ms : 0.0;
      std::printf("%-10s %-6d %-10s %-9d %-9d %8.3fms %10.1f\n", m.name,
                  kills, outcome, r.ranks_verified, r.ranks_lost, ms,
                  per_ms);
      const std::string tag =
          std::string(m.name) + "_kills" + std::to_string(kills);
      json.sample(tag + "_slots_per_ms", per_ms);
      json.sample(tag + "_verified", static_cast<double>(r.ranks_verified));
    }
  }

  if (!ok) {
    std::fprintf(stderr,
                 "degraded_throughput FAILED: wrong data on a survivor\n");
    return 1;
  }
  return 0;
}
