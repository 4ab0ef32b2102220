// Ablation — read-replication directory (an extension beyond the paper):
// under the single-owner Strong model, read-mostly pages ping-pong
// ownership through serial mailbox round-trips even when nobody writes.
// With SvmConfig::read_replication the directory installs read-only
// replicas after one grant, so the blocking fault-path round-trips
// collapse on read-shared workloads:
//   - matmul without protect_readonly (operand tiles are read by every
//     core, written by none after init),
//   - the lock-striped histogram merge (strong model),
//   - the Laplace boundary rows (read by one neighbour per iteration).
#include <cstdio>
#include <map>

#include "bench/bench_common.hpp"
#include "workloads/histogram.hpp"
#include "workloads/laplace.hpp"
#include "workloads/matmul.hpp"

using namespace msvm;

namespace {

struct Row {
  TimePs elapsed = 0;
  u64 roundtrips = 0;
  u64 invalidations = 0;
};

/// Prints one row and records its series; returns the round-trip win.
double print_row(const char* label, int cores, const Row& single,
                 const Row& repl, bench::JsonReport& json,
                 const char* series) {
  const double ratio =
      repl.roundtrips
          ? static_cast<double>(single.roundtrips) /
                static_cast<double>(repl.roundtrips)
          : (single.roundtrips ? 99.9 : 1.0);
  std::printf("%-18s %5d | %10.3f %9llu | %10.3f %9llu %7llu | %6.1fx\n",
              label, cores, ps_to_ms(single.elapsed),
              static_cast<unsigned long long>(single.roundtrips),
              ps_to_ms(repl.elapsed),
              static_cast<unsigned long long>(repl.roundtrips),
              static_cast<unsigned long long>(repl.invalidations), ratio);
  char key[96];
  std::snprintf(key, sizeof(key), "%s_single_rtt", series);
  json.sample(key, static_cast<double>(single.roundtrips));
  std::snprintf(key, sizeof(key), "%s_repl_rtt", series);
  json.sample(key, static_cast<double>(repl.roundtrips));
  std::snprintf(key, sizeof(key), "%s_single_ms", series);
  json.sample(key, ps_to_ms(single.elapsed));
  std::snprintf(key, sizeof(key), "%s_repl_ms", series);
  json.sample(key, ps_to_ms(repl.elapsed));
  return ratio;
}

}  // namespace

int main(int argc, char** argv) {
  const u32 n = static_cast<u32>(bench::arg_u64(argc, argv, "n", 48));
  const u32 iters =
      static_cast<u32>(bench::arg_u64(argc, argv, "iters", 6));
  const u64 seed = bench::arg_seed(argc, argv);

  bench::print_header(
      "Ablation — read replication (sharer directory vs. single owner)",
      "extension beyond Lankes et al.; cf. Section 6.1 ownership "
      "transfers");

  bench::JsonReport json("ablation_read_replication", argc, argv);
  json.config("matmul_n", static_cast<u64>(n));
  json.config("laplace_iters", static_cast<u64>(iters));

  // Matmul's operands are read-shared, so grants replace ownership
  // ping-pong; histogram and laplace share write-heavily (every replica
  // costs an invalidation) and gain less.
  bench::Claim claim(
      "matmul_readonly rtt win >= 2x; histogram and laplace rtt wins below "
      "matmul's at the same core count");
  std::map<int, double> matmul_win;  // by core count

  std::printf("strong memory model; rtt = blocking fault-path mailbox "
              "round-trips\n\n");
  std::printf("%-18s %5s | %10s %9s | %10s %9s %7s | %7s\n", "workload",
              "cores", "1-own [ms]", "rtt", "repl [ms]", "rtt", "inval",
              "rtt win");
  bench::print_row_sep();

  for (const int cores : {2, 4, 8}) {
    workloads::MatmulParams mp;
    mp.n = n;
    mp.protect_inputs = false;  // replication replaces the manual protect
    mp.read_replication = false;
    const auto m_single = run_matmul(mp, svm::Model::kStrong, cores);
    mp.read_replication = true;
    const auto m_repl = run_matmul(mp, svm::Model::kStrong, cores);
    const double win =
        print_row("matmul_readonly", cores,
                  {m_single.elapsed, m_single.mail_roundtrips,
                   m_single.invalidations},
                  {m_repl.elapsed, m_repl.mail_roundtrips,
                   m_repl.invalidations},
                  json, "matmul");
    matmul_win[cores] = win;
    claim.require(win >= 2.0,
                  "matmul_readonly rtt win %.1fx >= 2x at %d cores", win,
                  cores);
  }
  bench::print_row_sep();

  for (const int cores : {2, 4, 8}) {
    workloads::HistogramParams hp;
    hp.seed = seed;
    hp.read_replication = false;
    const auto h_single = run_histogram(hp, svm::Model::kStrong, cores);
    hp.read_replication = true;
    const auto h_repl = run_histogram(hp, svm::Model::kStrong, cores);
    const double win =
        print_row("histogram", cores,
                  {h_single.elapsed, h_single.mail_roundtrips,
                   h_single.invalidations},
                  {h_repl.elapsed, h_repl.mail_roundtrips,
                   h_repl.invalidations},
                  json, "histogram");
    claim.require(win < matmul_win[cores],
                  "histogram rtt win %.1fx < matmul's %.1fx at %d cores",
                  win, matmul_win[cores], cores);
  }
  bench::print_row_sep();

  for (const int cores : {2, 4, 8}) {
    workloads::LaplaceParams lp;
    lp.ny = 256;  // keep the ablation quick; sharing is per boundary row
    lp.iterations = iters;
    lp.read_replication = false;
    const auto l_single = run_laplace_svm(lp, svm::Model::kStrong, cores);
    lp.read_replication = true;
    const auto l_repl = run_laplace_svm(lp, svm::Model::kStrong, cores);
    const double win =
        print_row("laplace", cores,
                  {l_single.elapsed, l_single.mail_roundtrips,
                   l_single.invalidations},
                  {l_repl.elapsed, l_repl.mail_roundtrips,
                   l_repl.invalidations},
                  json, "laplace");
    claim.require(win < matmul_win[cores],
                  "laplace rtt win %.1fx < matmul's %.1fx at %d cores", win,
                  matmul_win[cores], cores);
  }
  bench::print_row_sep();
  return claim.verdict();
}
