// Scaling bench: SVM consistency models past the SCC's 48 cores.
//
// The paper evaluates on one 48-core die — the hardware's ceiling, not
// the model's. This sweep grows the chip grid (configure_cores) and runs
// {Strong, Strong+read-replication, LRC} on the Laplace and matmul
// workloads at 48..1024 cores, the range where DiSquawk-style systems
// operate, emitting the scaling curves into BENCH_scaling.json (one
// series per workload x model x count, diffable across commits).
//
// Flags:
//   --cores=N   run a single core count instead of the sweep
//   --iters=N   Laplace iterations (default 3)
//   --quick     CI smoke: counts {48, 256} on a smaller grid
//   --metrics   also fold the core counters into the JSON
//
// Expected shape: LRC scales furthest (no ownership round-trips); Strong
// pays per-fault mail latency that grows with mesh diameter; read
// replication recovers most of the gap on these read-mostly sharing
// patterns at the price of multicast invalidations.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "workloads/laplace.hpp"
#include "workloads/matmul.hpp"

using namespace msvm;

namespace {

struct Variant {
  const char* name;
  svm::Model model;
  bool read_replication;
};

constexpr Variant kVariants[] = {
    {"strong", svm::Model::kStrong, false},
    {"strong_rr", svm::Model::kStrong, true},
    {"lrc", svm::Model::kLazyRelease, false},
};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::arg_flag(argc, argv, "quick");
  const int only = bench::arg_cores(argc, argv, /*fallback=*/0);

  std::vector<int> counts;
  if (only > 0) {
    counts.push_back(only);
  } else if (quick) {
    counts = {48, 256};
  } else {
    counts = {48, 96, 192, 256, 512, 1024};
  }

  workloads::LaplaceParams lp;
  lp.nx = 512;
  lp.ny = quick ? 512 : 1024;
  lp.iterations =
      static_cast<u32>(bench::arg_u64(argc, argv, "iters", quick ? 2 : 3));

  workloads::MatmulParams mp;
  mp.n = quick ? 64 : 128;

  bench::print_header(
      "Scaling — SVM models past 48 cores (multi-chip grids)",
      "DiSquawk-scale extension of Lankes et al., PMAM'12, Section 7.2");
  std::printf("laplace %ux%u x%u iters, matmul %ux%u\n\n", lp.ny, lp.nx,
              lp.iterations, mp.n, mp.n);

  bench::JsonReport json("scaling", bench::arg_seed(argc, argv));
  bench::obs_setup(argc, argv);
  json.config("laplace_nx", static_cast<u64>(lp.nx));
  json.config("laplace_ny", static_cast<u64>(lp.ny));
  json.config("laplace_iters", static_cast<u64>(lp.iterations));
  json.config("matmul_n", static_cast<u64>(mp.n));
  {
    std::string swept;
    for (const int c : counts) {
      if (!swept.empty()) swept += ",";
      swept += std::to_string(c);
    }
    json.config("cores_swept", swept);
  }
  if (only > 0) {
    json.topology(scc::TopologySpec::for_cores(only), only);
  }

  std::printf("%6s | %12s %12s %12s | %12s %12s %12s\n", "cores",
              "lapl str", "lapl s+rr", "lapl lrc", "mm str", "mm s+rr",
              "mm lrc");
  std::printf("%6s | %38s | %38s\n", "", "[ms]", "[ms]");
  bench::print_row_sep();

  for (const int cores : counts) {
    double lapl_ms[3];
    double mm_ms[3];
    for (int v = 0; v < 3; ++v) {
      const Variant& var = kVariants[v];
      lp.read_replication = var.read_replication;
      const auto lr = run_laplace_svm(lp, var.model, cores);
      lapl_ms[v] = ps_to_ms(lr.elapsed);
      json.sample("laplace_" + std::string(var.name) + "_c" +
                      std::to_string(cores) + "_ms",
                  lapl_ms[v]);

      mp.read_replication = var.read_replication;
      const auto mr = run_matmul(mp, var.model, cores);
      mm_ms[v] = ps_to_ms(mr.elapsed);
      json.sample("matmul_" + std::string(var.name) + "_c" +
                      std::to_string(cores) + "_ms",
                  mm_ms[v]);
    }
    std::printf("%6d | %12.2f %12.2f %12.2f | %12.2f %12.2f %12.2f\n",
                cores, lapl_ms[0], lapl_ms[1], lapl_ms[2], mm_ms[0],
                mm_ms[1], mm_ms[2]);
    json.write();  // flush after every count: long sweeps stay diffable
  }
  bench::print_row_sep();
  std::printf(
      "expected shape: LRC degrades most gracefully with the mesh\n"
      "diameter; strong pays ownership round-trips per fault; read\n"
      "replication recovers most of the strong-model gap on these\n"
      "read-mostly patterns.\n");
  return 0;
}
