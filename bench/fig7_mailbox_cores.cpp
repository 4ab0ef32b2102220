// Figure 7: average mailbox latency between cores 0 and 30 (5 hops) as a
// function of the number of activated cores, for three configurations:
//   (1) polling / no IPI          — grows with the activated-core count,
//                                   every receive buffer is scanned;
//   (2) IPI                       — nearly constant;
//   (3) IPI + background noise    — the remaining activated cores mail
//                                   each other permanently; latency stays
//                                   on the same level as (2).
#include <cstdio>
#include <utility>

#include "bench/bench_common.hpp"
#include "workloads/pingpong.hpp"

using namespace msvm;

int main(int argc, char** argv) {
  const int reps = static_cast<int>(bench::arg_u64(argc, argv, "reps", 150));

  bench::print_header(
      "Figure 7 — mailbox latency core 0 <-> 30 vs. activated cores",
      "Lankes et al., PMAM'12, Section 7.1, Figure 7");

  bench::JsonReport json("fig7", argc, argv);
  json.config("reps", static_cast<u64>(reps));

  bench::Claim claim(
      "no-IPI at 48 cores >= 5x its 2-core value; IPI and IPI+noise "
      "within 10% of their 2-core values");
  TimePs poll2 = 0;
  TimePs ipi2 = 0;

  std::printf("%10s | %14s | %14s | %18s\n", "activated", "no-IPI [us]",
              "IPI [us]", "IPI+noise [us]");
  bench::print_row_sep();

  for (const int activated : {2, 4, 8, 16, 24, 32, 40, 48}) {
    workloads::PingPongParams p;
    p.core_a = 0;
    p.core_b = 30;  // 5 hops, as in the paper
    p.activated_cores = activated;
    p.reps = reps;

    p.use_ipi = false;
    p.background_noise = false;
    const TimePs poll = run_mailbox_pingpong(p).half_rtt_mean;

    p.use_ipi = true;
    const TimePs ipi = run_mailbox_pingpong(p).half_rtt_mean;

    p.background_noise = true;
    const TimePs noisy =
        activated > 2 ? run_mailbox_pingpong(p).half_rtt_mean : ipi;

    std::printf("%10d | %14.3f | %14.3f | %18.3f\n", activated,
                ps_to_us(poll), ps_to_us(ipi), ps_to_us(noisy));
    json.sample("poll_us", ps_to_us(poll));
    json.sample("ipi_us", ps_to_us(ipi));
    json.sample("ipi_noise_us", ps_to_us(noisy));

    if (activated == 2) {
      poll2 = poll;
      ipi2 = ipi;
    }
    for (const auto& [curve, t] : {std::pair{"IPI", ipi},
                                    std::pair{"IPI+noise", noisy}}) {
      claim.require(t * 10 <= ipi2 * 11 && t * 10 >= ipi2 * 9,
                    "%s %.3f us at %d cores within 10%% of %.3f us at 2 "
                    "cores",
                    curve, ps_to_us(t), activated, ps_to_us(ipi2));
    }
    if (activated == 48) {
      claim.require(poll >= 5 * poll2,
                    "no-IPI %.3f us at 48 cores >= 5x its %.3f us at 2 "
                    "cores",
                    ps_to_us(poll), ps_to_us(poll2));
    }
  }
  bench::print_row_sep();
  return claim.verdict();
}
