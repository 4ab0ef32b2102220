// Ablation 3 — read-only memory regions (Section 6.4): after protecting
// the matmul inputs read-only, every core may keep them in its L2 and no
// ownership traffic is needed even under the Strong Memory Model.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "workloads/matmul.hpp"

using namespace msvm;

int main(int argc, char** argv) {
  bench::obs_setup(argc, argv);
  workloads::MatmulParams p;
  p.n = static_cast<u32>(bench::arg_u64(argc, argv, "n", 64));

  bench::print_header(
      "Ablation — read-only regions (L2-enabled input sharing)",
      "Lankes et al., PMAM'12, Section 6.4");

  std::printf("matmul %ux%u doubles, strong memory model\n\n", p.n, p.n);
  bench::Claim claim(
      "protected: 0 transfers, > 0 L2 hits and faster than plain at every "
      "core count; plain: > 0 transfers from 2 cores on");

  std::printf("%6s | %14s %10s %12s | %14s %10s %12s\n", "cores",
              "protected[ms]", "L2 hits", "transfers", "plain [ms]",
              "L2 hits", "transfers");
  bench::print_row_sep();
  for (const int cores : {1, 2, 4, 8}) {
    p.protect_inputs = true;
    const auto with = run_matmul(p, svm::Model::kStrong, cores);
    p.protect_inputs = false;
    const auto without = run_matmul(p, svm::Model::kStrong, cores);
    std::printf("%6d | %14.3f %10llu %12llu | %14.3f %10llu %12llu\n",
                cores, ps_to_ms(with.elapsed),
                static_cast<unsigned long long>(with.l2_hits),
                static_cast<unsigned long long>(with.ownership_acquires),
                ps_to_ms(without.elapsed),
                static_cast<unsigned long long>(without.l2_hits),
                static_cast<unsigned long long>(without.ownership_acquires));
    claim.require(with.ownership_acquires == 0 && with.l2_hits > 0,
                  "protected at %d cores: %llu transfers == 0, %llu L2 hits "
                  "> 0",
                  cores,
                  static_cast<unsigned long long>(with.ownership_acquires),
                  static_cast<unsigned long long>(with.l2_hits));
    if (cores >= 2) {
      claim.require(without.ownership_acquires > 0,
                    "plain at %d cores: %llu transfers > 0", cores,
                    static_cast<unsigned long long>(
                        without.ownership_acquires));
    }
    claim.require(with.elapsed < without.elapsed,
                  "protected %.3f ms < plain %.3f ms at %d cores",
                  ps_to_ms(with.elapsed), ps_to_ms(without.elapsed), cores);
  }
  bench::print_row_sep();
  return claim.verdict();
}
