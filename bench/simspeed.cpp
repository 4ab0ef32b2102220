// Simulator-throughput benchmark: how fast does the simulation substrate
// run on the host? Emits BENCH_simspeed.json with host events/sec per
// subsystem, checked by the perf gate
// (tools/check_perf_regression.sh): every line of the JSON is compared
// exactly (determinism) except the series' medians and p95s, and a
// median fails only below 0.75x of its baseline.
//
// Five workloads, one per hot subsystem:
//   sched  — two-actor yield leapfrog through the event core
//   churn  — block/wake storm across 64 actors (queue re-keying)
//   mem    — L1-hit load/store loop through the inlined fast path
//   mail   — two-core mailbox ping-pong (deposit/poll/consume/reply)
//   convoy — 48 cores queueing on one TAS register (spin polls, most of
//            them parked: charged at the resume without running); its
//            events are simulated TAS polls. Its parked polls and its
//            dispatches are config fields, so the gate sees parking stop.
//
// Each sub-run repeats its workload back to back for at least a second
// of wall time, and the JSON records the best of --repeats sub-runs: a
// short run, or one median over noisy samples, let a passing build fail
// the gate on a slow moment of the host.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "kernel/kernel.hpp"
#include "mailbox/mailbox.hpp"
#include "sccsim/chip.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace msvm;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunResult {
  u64 events = 0;        // host-side event count (deterministic)
  TimePs makespan = 0;   // virtual time covered (deterministic)
  u64 parked_polls = 0;  // polls charged without a resume (deterministic)
  u64 dispatches = 0;    // scheduler dispatches (deterministic)
  double wall_s = 0.0;   // host seconds (noisy)
};

constexpr double kMinSubRunS = 1.0;

RunResult run_sched() {
  RunResult r;
  const double t0 = now_s();
  sim::Scheduler sched;
  constexpr int kActors = 4;
  constexpr u64 kYields = 50'000;
  for (int a = 0; a < kActors; ++a) {
    sched.spawn("actor", [&sched, &r] {
      for (u64 i = 0; i < kYields; ++i) {
        sched.current()->advance(10);
        sched.yield();
        ++r.events;
      }
      r.makespan = std::max(r.makespan, sched.current()->clock());
    });
  }
  sched.run();
  r.wall_s = now_s() - t0;
  return r;
}

RunResult run_churn() {
  RunResult r;
  const double t0 = now_s();
  sim::Scheduler sched;
  constexpr int kSleepers = 64;
  constexpr u64 kRounds = 400;
  std::vector<sim::Actor*> sleepers;
  for (int i = 0; i < kSleepers; ++i) {
    sleepers.push_back(&sched.spawn("sleeper", [&sched, &r] {
      while (sched.current()->clock() < 2'000'000) {
        (void)sched.block_until(sched.current()->clock() + 10'000);
        ++r.events;
      }
      r.makespan = std::max(r.makespan, sched.current()->clock());
    }));
  }
  sched.spawn("storm", [&] {
    u32 lcg = 0xdecafu;
    for (u64 round = 0; round < kRounds; ++round) {
      for (int k = 0; k < kSleepers * 4; ++k) {
        lcg = lcg * 1664525u + 1013904223u;
        sched.wake(*sleepers[lcg % kSleepers],
                   sched.current()->clock() + 1 + lcg % 97);
        ++r.events;
      }
      sched.current()->advance(4'000);
      sched.yield();
    }
  });
  sched.run();
  r.wall_s = now_s() - t0;
  return r;
}

RunResult run_mem() {
  RunResult r;
  const double t0 = now_s();
  scc::ChipConfig cfg;
  cfg.num_cores = 1;
  cfg.shared_dram_bytes = 4 << 20;
  cfg.private_dram_bytes = 1 << 20;
  scc::Chip chip(cfg);
  chip.spawn_program(0, [&](scc::Core& core) {
    scc::Pte pte;
    pte.frame_paddr = scc::kSharedBase;
    pte.present = true;
    pte.writable = true;
    pte.mpbt = true;
    core.pagetable().map(scc::kSvmVBase, pte);
    (void)core.vload<u64>(scc::kSvmVBase);  // warm the line
    constexpr u64 kAccesses = 400'000;
    u64 acc = 0;
    for (u64 i = 0; i < kAccesses; ++i) {
      acc += core.vload<u64>(scc::kSvmVBase + (i & 3) * 8);
      core.vstore<u64>(scc::kSvmVBase + (i & 3) * 8, acc);
    }
    r.events = 2 * kAccesses;
    r.makespan = core.now();
  });
  chip.run();
  r.wall_s = now_s() - t0;
  return r;
}

RunResult run_mail() {
  RunResult r;
  const double t0 = now_s();
  constexpr u8 kPing = 1;
  constexpr u8 kPong = 2;
  constexpr u64 kTrips = 2'000;
  scc::ChipConfig cfg;
  cfg.num_cores = 2;
  cfg.shared_dram_bytes = 4 << 20;
  cfg.private_dram_bytes = 1 << 20;
  scc::Chip chip(cfg);
  std::unique_ptr<kernel::Kernel> kernels[2];
  std::unique_ptr<mbox::MailboxSystem> mboxes[2];
  chip.spawn_program(0, [&](scc::Core& core) {
    kernels[0] = std::make_unique<kernel::Kernel>(core);
    kernels[0]->boot();
    mboxes[0] =
        std::make_unique<mbox::MailboxSystem>(*kernels[0], false);
    for (u64 i = 0; i < kTrips; ++i) {
      mbox::Mail m;
      m.type = kPing;
      mboxes[0]->send(1, m);
      (void)mboxes[0]->recv_type(kPong);
      ++r.events;
    }
    r.makespan = core.now();
  });
  chip.spawn_program(1, [&](scc::Core& core) {
    kernels[1] = std::make_unique<kernel::Kernel>(core);
    kernels[1]->boot();
    mboxes[1] =
        std::make_unique<mbox::MailboxSystem>(*kernels[1], false);
    for (u64 i = 0; i < kTrips; ++i) {
      (void)mboxes[1]->recv_type(kPing);
      mbox::Mail m;
      m.type = kPong;
      mboxes[1]->send(0, m);
    }
  });
  chip.run();
  r.wall_s = now_s() - t0;
  return r;
}

RunResult run_convoy() {
  RunResult r;
  const double t0 = now_s();
  constexpr int kCores = 48;
  constexpr int kRounds = 200;
  scc::ChipConfig cfg;
  cfg.num_cores = kCores;
  cfg.shared_dram_bytes = 4 << 20;
  cfg.private_dram_bytes = 1 << 20;
  scc::Chip chip(cfg);
  kernel::TasSpinlock lock(0);
  for (int i = 0; i < kCores; ++i) {
    chip.spawn_program(i, [&](scc::Core& core) {
      for (int k = 0; k < kRounds; ++k) {
        kernel::TasLockGuard guard(lock, core);
        core.compute_cycles(2'000);
      }
    });
  }
  chip.run();
  r.events = chip.total_counters().tas_acquires;
  r.makespan = chip.makespan();
  r.parked_polls = chip.scheduler().parked_polls();
  r.dispatches = chip.scheduler().lane_dispatched(0);
  r.wall_s = now_s() - t0;
  return r;
}

struct Workload {
  const char* name;
  RunResult (*run)();
  bool polls;  // reports <name>_parked_polls and <name>_dispatches
};

constexpr Workload kWorkloads[] = {
    {"sched", run_sched, false},
    {"churn", run_churn, false},
    {"mem", run_mem, false},
    {"mail", run_mail, false},
    {"convoy", run_convoy, true},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace msvm::bench;
  const u64 repeats = arg_u64(argc, argv, "repeats", 5);
  JsonReport report("simspeed", argc, argv);
  report.config("repeats", repeats);

  print_header("simspeed: host throughput of the simulation substrate",
               "simulator infrastructure (not a paper figure)");
  std::printf("%-8s %14s %16s\n", "workload", "events", "events/sec");
  print_row_sep();

  for (const Workload& w : kWorkloads) {
    RunResult first;
    bool have_first = false;
    double best_eps = 0.0;
    for (u64 rep = 0; rep < repeats; ++rep) {
      u64 events = 0;
      double wall_s = 0.0;
      while (wall_s < kMinSubRunS) {
        const RunResult r = w.run();
        if (!have_first) {
          first = r;
          have_first = true;
        } else if (first.events != r.events ||
                   first.makespan != r.makespan ||
                   first.parked_polls != r.parked_polls ||
                   first.dispatches != r.dispatches) {
          std::fprintf(stderr,
                       "simspeed: %s is nondeterministic across repeats\n",
                       w.name);
          return 1;
        }
        events += r.events;
        wall_s += r.wall_s;
      }
      best_eps = std::max(best_eps, static_cast<double>(events) / wall_s);
    }
    report.sample(std::string(w.name) + "_events_per_sec", best_eps);
    // Deterministic fields the gate compares exactly.
    report.config(std::string(w.name) + "_events", first.events);
    report.config(std::string(w.name) + "_makespan_ps",
                  static_cast<u64>(first.makespan));
    if (w.polls) {
      report.config(std::string(w.name) + "_parked_polls",
                    first.parked_polls);
      report.config(std::string(w.name) + "_dispatches", first.dispatches);
    }
    std::printf("%-8s %14llu %16.3g\n", w.name,
                static_cast<unsigned long long>(first.events), best_eps);
    if (w.polls) {
      std::printf("%-8s %14llu polls parked, %llu dispatches\n", "",
                  static_cast<unsigned long long>(first.parked_polls),
                  static_cast<unsigned long long>(first.dispatches));
    }
  }
  print_row_sep();
  std::printf("(best of %llu sub-runs of >= %.0f s each lands in\n"
              " BENCH_simspeed.json; the perf gate fails a median below\n"
              " 0.75x of its baseline and any other line that differs)\n",
              static_cast<unsigned long long>(repeats), kMinSubRunS);
  return 0;
}
