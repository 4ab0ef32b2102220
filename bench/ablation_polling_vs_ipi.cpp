// Ablation 1 — requester-side waiting policy for ownership transfers:
// mailbox ACK (the paper's design) vs. polling the off-die owner vector
// (the authors' earlier prototype [14], which "runs against the so-called
// memory wall and doesn't scale very well").
//
// The memory wall is a *scalability* failure: one polling requester is
// harmless, but every concurrently-waiting core hammers the off-die
// owner vector, and with the memory-controller contention model enabled
// the polls of all pairs queue behind each other. Setup: N independent
// core pairs (one coherency domain each), every pair running the
// Table-1-row-4 ownership ping-pong over its own region simultaneously.
// Reported: mean permission-retrieval latency across pairs.
#include <cstdio>
#include <vector>

#include "bench/bench_common.hpp"
#include "cluster/cluster.hpp"

using namespace msvm;

namespace {

TimePs run(bool ack_via_mail, int pairs, u64 pages) {
  cluster::ClusterConfig cfg;
  cfg.chip.num_cores = 48;
  cfg.chip.shared_dram_bytes = 32 << 20;
  cfg.chip.private_dram_bytes = 1 << 20;
  cfg.chip.mc_contention = true;
  cfg.svm.model = svm::Model::kStrong;
  cfg.svm.ack_via_mail = ack_via_mail;
  for (int p = 0; p < pairs; ++p) {
    cfg.domains.push_back({2 * p, 2 * p + 1});
  }
  cluster::Cluster cl(cfg);

  std::vector<TimePs> per_pair(static_cast<std::size_t>(pairs), 0);
  const u64 page = scc::kPageBytes;

  cl.run([&](cluster::Node& n) {
    scc::Core& core = n.core();
    const bool is_even = n.rank() == 0;
    const u64 base = n.svm().alloc(pages * page);
    n.svm().barrier();
    // Warm-up: even core allocates, odd core maps + takes ownership.
    if (is_even) {
      for (u64 p = 0; p < pages; ++p) core.vstore<u32>(base + p * page, 1);
    }
    n.svm().barrier();
    if (!is_even) {
      for (u64 p = 0; p < pages; ++p) core.vstore<u32>(base + p * page, 2);
    }
    n.svm().barrier();
    // Measured phase, concurrently in every pair: the even core
    // re-acquires all its pages.
    if (is_even) {
      const TimePs t0 = core.now();
      for (u64 p = 0; p < pages; ++p) core.vstore<u32>(base + p * page, 3);
      per_pair[static_cast<std::size_t>(n.core_id() / 2)] =
          (core.now() - t0) / pages;
    }
    n.svm().barrier();
  });

  TimePs sum = 0;
  for (const TimePs t : per_pair) sum += t;
  return sum / static_cast<TimePs>(pairs);
}

}  // namespace

int main(int argc, char** argv) {
  bench::obs_setup(argc, argv);
  const u64 pages = bench::arg_u64(argc, argv, "pages", 128);

  bench::print_header(
      "Ablation — ownership wait: mailbox ACK vs. owner-vector polling",
      "Lankes et al., PMAM'12, Sections 2 & 6.1 (comparison with [14])");
  std::printf("%llu transfers per pair, all pairs concurrent, MC "
              "contention on\n\n",
              static_cast<unsigned long long>(pages));

  bench::Claim claim(
      "polling/mail retrieval <= 1.0x with 1 pair and >= 1.1x with 24 "
      "pairs");

  std::printf("%8s | %20s | %24s | %8s\n", "pairs",
              "retrieve (mail) [us]", "retrieve (polling) [us]",
              "penalty");
  bench::print_row_sep();
  for (const int pairs : {1, 4, 12, 24}) {
    const TimePs mail = run(/*ack_via_mail=*/true, pairs, pages);
    const TimePs poll = run(/*ack_via_mail=*/false, pairs, pages);
    const double penalty =
        static_cast<double>(poll) / static_cast<double>(mail);
    std::printf("%8d | %20.3f | %24.3f | %7.2fx\n", pairs, ps_to_us(mail),
                ps_to_us(poll), penalty);
    // One poller is harmless (no ACK mail to wait for); 24 concurrent
    // pollers saturate the memory controller: the memory wall.
    if (pairs == 1) {
      claim.require(penalty <= 1.0, "penalty %.2fx <= 1.0x with 1 pair",
                    penalty);
    } else if (pairs == 24) {
      claim.require(penalty >= 1.1, "penalty %.2fx >= 1.1x with 24 pairs",
                    penalty);
    }
  }
  bench::print_row_sep();
  return claim.verdict();
}
