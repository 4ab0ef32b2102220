#include "workloads/pingpong.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "kernel/kernel.hpp"
#include "mailbox/mailbox.hpp"
#include "obs/latency_histo.hpp"
#include "sccsim/chip.hpp"
#include "sim/rng.hpp"

namespace msvm::workloads {

namespace {

constexpr u8 kPing = 1;
constexpr u8 kPong = 2;
constexpr u8 kNoise = 3;

}  // namespace

PingPongResult run_mailbox_pingpong(const PingPongParams& params) {
  scc::ChipConfig ccfg;
  ccfg.num_cores = 48;
  ccfg.shared_dram_bytes = 4 << 20;
  ccfg.private_dram_bytes = 1 << 20;
  scc::Chip chip(ccfg);

  // Activated set: the ping-pong pair plus the lowest-numbered others.
  std::vector<int> active{params.core_a, params.core_b};
  for (int c = 0; c < ccfg.num_cores &&
                  static_cast<int>(active.size()) < params.activated_cores;
       ++c) {
    if (c != params.core_a && c != params.core_b) active.push_back(c);
  }
  std::sort(active.begin(), active.end());

  std::vector<int> noise_cores;
  if (params.background_noise) {
    for (const int c : active) {
      if (c != params.core_a && c != params.core_b) noise_cores.push_back(c);
    }
  }

  bool stop_flag = false;
  obs::LatencyHisto samples;
  u64 checks_before = 0;
  u64 checks_after = 0;

  std::vector<std::unique_ptr<kernel::Kernel>> kernels(
      static_cast<std::size_t>(ccfg.num_cores));
  std::vector<std::unique_ptr<mbox::MailboxSystem>> mboxes(
      static_cast<std::size_t>(ccfg.num_cores));

  for (const int core_id : active) {
    chip.spawn_program(core_id, [&, core_id](scc::Core& core) {
      auto& kern = kernels[static_cast<std::size_t>(core_id)];
      kern = std::make_unique<kernel::Kernel>(core);
      kern->boot();
      auto& mb = mboxes[static_cast<std::size_t>(core_id)];
      mb = std::make_unique<mbox::MailboxSystem>(*kern, params.use_ipi);
      mb->set_participants(active);

      const bool is_noise =
          std::find(noise_cores.begin(), noise_cores.end(), core_id) !=
          noise_cores.end();

      if (core_id == params.core_a) {
        sim::Rng stagger(0x9e37);
        for (int i = 0; i < params.reps + params.warmup; ++i) {
          // Decorrelate the sender from the receiver's poll-loop phase:
          // the simulation is deterministic, so without this stagger
          // every repetition hits the identical loop alignment and the
          // measured latency aliases instead of averaging. The pause is
          // outside the timed window and spans many poll periods.
          core.compute_cycles(1 + stagger.next_below(2048));
          const TimePs t0 = core.now();
          mbox::Mail m;
          m.type = kPing;
          mb->send(params.core_b, m);
          (void)mb->recv_type(kPong);
          if (i >= params.warmup) {
            samples.record((core.now() - t0) / 2);
          }
        }
        stop_flag = true;
        // Kick every halted participant so the run winds down promptly.
        for (const int other : active) {
          if (other != core_id) core.raise_ipi(other);
        }
      } else if (core_id == params.core_b) {
        sim::Rng stagger(0x51c2);
        for (int i = 0; i < params.reps + params.warmup; ++i) {
          if (i == params.warmup) {
            checks_before = mb->stats().slot_checks;
          }
          (void)mb->recv_type(kPing);
          mbox::Mail m;
          m.type = kPong;
          mb->send(params.core_a, m);
          // Randomise this core's poll-loop phase for the next ping (the
          // deterministic simulation otherwise locks both loops into a
          // hop-dependent interleaving pattern; real hardware jitters).
          core.compute_cycles(stagger.next_below(384));
        }
        checks_after = mb->stats().slot_checks;
        while (!stop_flag) kern->idle_once();
      } else if (is_noise) {
        // Background noise: ring of non-blocking mails among the idle
        // participants ("the remaining activated cores permanently
        // interact among themselves by sending mails", Section 7.1).
        const auto me = std::find(noise_cores.begin(), noise_cores.end(),
                                  core_id);
        const int next =
            noise_cores[static_cast<std::size_t>(
                (me - noise_cores.begin() + 1) % noise_cores.size())];
        while (!stop_flag) {
          if (next != core_id) {
            mbox::Mail m;
            m.type = kNoise;
            (void)mb->try_send(next, m);
          }
          // Discard received noise.
          while (mb->try_take([](const mbox::Mail& m) {
            return m.type == kNoise;
          })) {
          }
          if (!params.use_ipi) mb->poll_all();
          core.yield();
          core.compute_cycles(200);
        }
      } else {
        // Plain activated core: sits in the mailbox idle path.
        while (!stop_flag) {
          if (params.use_ipi) {
            kern->idle_once();
          } else {
            mb->poll_all();
            core.yield();
          }
        }
      }
    });
  }
  chip.run();

  PingPongResult result;
  result.half_rtt_mean = static_cast<TimePs>(samples.mean());
  result.half_rtt_min = samples.min();
  result.half_rtt_max = samples.max();
  result.slot_checks = checks_after - checks_before;
  return result;
}

}  // namespace msvm::workloads
