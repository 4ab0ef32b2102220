// kernel::spin_wait lets the scheduler step provably failed polls without
// resuming the waiting fiber. These tests pin that the stepping is exact:
// every scenario runs twice, once through spin_wait and once through a
// hand-written copy of the plain poll + relax loop that installs no hook,
// and the two runs must agree on every core's clock and counters and on
// the order in which the waiters got through. One case per condition
// under which the hook must hand the poll back to the fiber checks that
// the fiber did run it.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "kernel/kernel.hpp"
#include "sccsim/addrmap.hpp"
#include "sim/faults.hpp"

namespace msvm::kernel {
namespace {

enum class Loop { kSpinWait, kReference };

/// The plain wait loop every spin used before spin_wait had a hook: poll,
/// count, on_stuck, watchdog, relax, double the gap. `poll` is the whole
/// access (tas_try_acquire, or a counted uncached byte load).
template <typename Poll>
void reference_wait(scc::Core& core, Poll&& poll, const SpinWaitOpts& opts) {
  scc::Chip& chip = core.chip();
  sim::BlockScope scope(core.actor(), opts.site, opts.site_arg,
                        opts.site_arg2);
  const TimePs t0 = core.now();
  u64 spins = 0;
  TimePs gap = opts.start_ps;
  while (!poll()) {
    ++spins;
    if (opts.warn_every != 0 && spins % opts.warn_every == 0 &&
        opts.on_stuck) {
      opts.on_stuck(spins);
    }
    if (chip.watchdog().check(core.now(), t0, opts.site, core.id())) {
      chip.scheduler().block();
    }
    core.relax(gap);
    gap = std::min(gap * 2, opts.cap_ps);
  }
}

void wait_word(Loop loop, scc::Core& core, const scc::WatchedWord& w,
               const SpinWaitOpts& opts) {
  if (loop == Loop::kSpinWait) {
    spin_wait(core, w, opts);
    return;
  }
  if (w.kind == scc::WatchedWord::Kind::kTas) {
    reference_wait(core, [&] { return core.tas_try_acquire(w.reg); }, opts);
    return;
  }
  reference_wait(
      core,
      [&] {
        if (w.polls != nullptr) ++*w.polls;
        return core.pload<u8>(w.paddr, scc::MemPolicy::kUncached) ==
               w.expected;
      },
      opts);
}

/// Everything a run leaves that the two loops must agree on.
struct Outcome {
  std::vector<TimePs> clocks;
  std::vector<scc::CoreCounters> counters;
  std::vector<int> order;       // who got through, in order
  std::vector<u64> side;        // per-core scenario observables
  u64 elided = 0;
  std::string hang_report;
};

void expect_same(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.clocks, b.clocks);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.side, b.side);
  EXPECT_EQ(a.hang_report, b.hang_report);
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    for (const scc::CoreCounterField& f : scc::kCoreCounterFields) {
      EXPECT_EQ(a.counters[i].*f.member, b.counters[i].*f.member)
          << "core " << i << " counter " << f.name;
    }
  }
}

u64 total(const Outcome& o, u64 scc::CoreCounters::*field) {
  u64 sum = 0;
  for (const scc::CoreCounters& c : o.counters) sum += c.*field;
  return sum;
}

scc::ChipConfig config_for(int cores) {
  scc::ChipConfig cfg;
  cfg.shared_dram_bytes = 4 << 20;
  cfg.private_dram_bytes = 1 << 20;
  scc::configure_cores(cfg, cores);
  return cfg;
}

/// Knobs of the TAS convoy: core 0 takes register 0 and holds it for
/// `hold_cycles`; every other core then queues on it `rounds` times.
struct Convoy {
  int waiters = 3;
  u64 hold_cycles = 20'000;
  int rounds = 2;
  u64 warn_every = 0;
  int ipi_target = -1;  // core 0 raises one IPI on it while holding
};

Outcome run_convoy(Loop loop, const Convoy& k, scc::ChipConfig cfg) {
  scc::Chip chip(cfg);
  Outcome out;
  out.side.assign(static_cast<std::size_t>(cfg.num_cores), 0);
  for (int id = 0; id < cfg.num_cores; ++id) {
    chip.spawn_program(id, [&, id](scc::Core& c) {
      u64& side = out.side[static_cast<std::size_t>(id)];
      c.set_ipi_handler([&side](scc::Core&, const scc::IpiSourceSet&) {
        side += 1000;
      });
      const auto on_stuck = [&side](u64) { ++side; };
      SpinWaitOpts opts = tas_spin_opts(c, "test.convoy");
      opts.warn_every = k.warn_every;
      opts.on_stuck = on_stuck;
      if (id == 0) {
        wait_word(loop, c, scc::WatchedWord::tas(0), opts);
        c.compute_cycles(k.hold_cycles / 2);
        if (k.ipi_target >= 0) c.raise_ipi(k.ipi_target);
        c.compute_cycles(k.hold_cycles / 2);
        c.tas_release(0);
        return;
      }
      c.compute_cycles(50 + 7 * static_cast<u64>(id));
      for (int r = 0; r < k.rounds; ++r) {
        wait_word(loop, c, scc::WatchedWord::tas(0), opts);
        out.order.push_back(id);
        c.compute_cycles(300);
        c.tas_release(0);
        c.compute_cycles(100 + 13 * static_cast<u64>(id % 5));
      }
    });
  }
  try {
    chip.run();
  } catch (const sim::HangError& e) {
    out.hang_report = e.report();
  }
  for (int id = 0; id < cfg.num_cores; ++id) {
    out.clocks.push_back(chip.core(id).now());
    out.counters.push_back(chip.core(id).counters());
  }
  out.elided = chip.scheduler().elided_polls();
  return out;
}

/// A master-gather barrier on uncached MPB bytes, run `rounds` times:
/// core 0 waits for every arrival byte in its own MPB, then sets each
/// member's release byte. Members arrive after uneven work.
Outcome run_barrier(Loop loop, int members, int rounds) {
  const scc::ChipConfig cfg = config_for(members);
  scc::Chip chip(cfg);
  Outcome out;
  out.side.assign(static_cast<std::size_t>(members), 0);
  constexpr u32 kArriveOff = 0;
  constexpr u32 kReleaseOff = 1024;
  for (int id = 0; id < members; ++id) {
    chip.spawn_program(id, [&, id](scc::Core& c) {
      const scc::AddrMap& map = c.chip().map();
      u64* polls = &out.side[static_cast<std::size_t>(id)];
      SpinWaitOpts opts;
      opts.start_ps = 200 * kPsPerNs;
      opts.cap_ps = 50 * kPsPerUs;
      opts.site = "test.barrier";
      for (int r = 0; r < rounds; ++r) {
        const u8 sense = static_cast<u8>(r % 2 + 1);
        c.compute_cycles(2'000 + 3'000 * static_cast<u64>((id * 7 + r) % 11));
        if (id == 0) {
          for (int m = 1; m < members; ++m) {
            wait_word(loop, c,
                      scc::WatchedWord::mpb_byte(
                          map.mpb_base(0) + kArriveOff + static_cast<u32>(m),
                          sense, polls),
                      opts);
            out.order.push_back(m);
          }
          for (int m = 1; m < members; ++m) {
            c.pstore<u8>(map.mpb_base(m) + kReleaseOff, sense,
                         scc::MemPolicy::kUncached);
          }
        } else {
          c.pstore<u8>(map.mpb_base(0) + kArriveOff + static_cast<u32>(id),
                       sense, scc::MemPolicy::kUncached);
          wait_word(loop, c,
                    scc::WatchedWord::mpb_byte(map.mpb_base(id) + kReleaseOff,
                                               sense, polls),
                    opts);
        }
      }
    });
  }
  chip.run();
  for (int id = 0; id < members; ++id) {
    out.clocks.push_back(chip.core(id).now());
    out.counters.push_back(chip.core(id).counters());
  }
  out.elided = chip.scheduler().elided_polls();
  return out;
}

class SpinWaitConvoy : public ::testing::TestWithParam<int> {};

TEST_P(SpinWaitConvoy, HookSteppedWaitMatchesPlainLoop) {
  Convoy k;
  k.waiters = GetParam();
  const scc::ChipConfig cfg = config_for(k.waiters + 1);
  const Outcome hooked = run_convoy(Loop::kSpinWait, k, cfg);
  const Outcome plain = run_convoy(Loop::kReference, k, cfg);
  expect_same(hooked, plain);
  EXPECT_EQ(hooked.order.size(), static_cast<std::size_t>(k.waiters * 2));
  EXPECT_GT(total(hooked, &scc::CoreCounters::tas_spins), 0u);
  EXPECT_GT(hooked.elided, 0u);
  EXPECT_EQ(plain.elided, 0u);
}

// 47 waiters fill one 48-core die; 95 and 255 span two and six chips.
INSTANTIATE_TEST_SUITE_P(Waiters, SpinWaitConvoy,
                         ::testing::Values(3, 47, 95, 255));

TEST(SpinWaitHook, MidTickYieldStepIsExact) {
  // With 255 waiters nearly every poll wakes after a relax longer than
  // the boundary interval, so its tick passes a boundary while another
  // core is queued inside the tick: the fiber would yield mid-tick. A
  // poll the hook steps costs one elided entry, or two when it re-keys
  // at that yield, so more elided entries than failed polls means the
  // yield step ran.
  Convoy k;
  k.waiters = 255;
  const scc::ChipConfig cfg = config_for(k.waiters + 1);
  const Outcome hooked = run_convoy(Loop::kSpinWait, k, cfg);
  expect_same(hooked, run_convoy(Loop::kReference, k, cfg));
  EXPECT_GT(hooked.elided, total(hooked, &scc::CoreCounters::tas_spins));
}

TEST(SpinWaitHook, MpbFlagBarrierMatchesPlainLoop) {
  for (int members : {4, 48}) {
    SCOPED_TRACE(members);
    const Outcome hooked = run_barrier(Loop::kSpinWait, members, 4);
    const Outcome plain = run_barrier(Loop::kReference, members, 4);
    expect_same(hooked, plain);
    EXPECT_GT(total(hooked, &scc::CoreCounters::mpb_reads), 0u);
    EXPECT_GT(hooked.elided, 0u);
  }
}

TEST(SpinWaitHook, IpiMidWaitRunsTheFiber) {
  // The IPI wakes the sleeping waiter early; the handler runs on its
  // fiber, exactly once, in both loops.
  Convoy k;
  k.ipi_target = 2;
  const scc::ChipConfig cfg = config_for(k.waiters + 1);
  const Outcome hooked = run_convoy(Loop::kSpinWait, k, cfg);
  expect_same(hooked, run_convoy(Loop::kReference, k, cfg));
  EXPECT_EQ(hooked.side[2], 1000u);
  EXPECT_EQ(hooked.counters[2].ipi_irqs, 1u);
}

TEST(SpinWaitHook, PendingIpiWithoutWakeRunsTheFiber) {
  // Core 2 raises an IPI on the waiter every few hundred cycles. Some land
  // while the waiter is queued mid-poll rather than asleep: wake() skips a
  // scheduled actor, so only the pending GIC row tells the next poll to
  // deliver it.
  const scc::ChipConfig cfg = config_for(3);
  const auto run = [&](Loop loop) {
    scc::Chip chip(cfg);
    Outcome out;
    out.side.assign(3, 0);
    for (int id = 0; id < 3; ++id) {
      chip.spawn_program(id, [&, id](scc::Core& c) {
        u64& side = out.side[static_cast<std::size_t>(id)];
        c.set_ipi_handler(
            [&side](scc::Core&, const scc::IpiSourceSet&) { ++side; });
        const SpinWaitOpts opts = tas_spin_opts(c, "test.ipi");
        if (id == 2) {
          for (int k = 0; k < 300; ++k) {
            c.compute_cycles(97 + static_cast<u64>(k % 7) * 31);
            c.raise_ipi(1);
          }
          return;
        }
        if (id == 1) c.compute_cycles(10);
        wait_word(loop, c, scc::WatchedWord::tas(0), opts);
        c.compute_cycles(id == 0 ? 60'000 : 10);
        c.tas_release(0);
      });
    }
    chip.run();
    for (int id = 0; id < 3; ++id) {
      out.clocks.push_back(chip.core(id).now());
      out.counters.push_back(chip.core(id).counters());
    }
    out.elided = chip.scheduler().elided_polls();
    return out;
  };
  const Outcome hooked = run(Loop::kSpinWait);
  expect_same(hooked, run(Loop::kReference));
  EXPECT_GT(hooked.side[1], 0u);
  EXPECT_GT(hooked.elided, 0u);
}

TEST(SpinWaitHook, TimerTickDueRunsTheFiber) {
  // A 2.5 ms hold spans two 1 ms timer ticks; only the fiber delivers
  // them.
  Convoy k;
  k.hold_cycles = 1'400'000;
  const scc::ChipConfig cfg = config_for(k.waiters + 1);
  const Outcome hooked = run_convoy(Loop::kSpinWait, k, cfg);
  expect_same(hooked, run_convoy(Loop::kReference, k, cfg));
  EXPECT_GE(hooked.counters[1].timer_irqs, 2u);
  EXPECT_GT(hooked.elided, 0u);
}

TEST(SpinWaitHook, WarnEveryRunsTheFiber) {
  Convoy k;
  k.warn_every = 4;
  const scc::ChipConfig cfg = config_for(k.waiters + 1);
  const Outcome hooked = run_convoy(Loop::kSpinWait, k, cfg);
  expect_same(hooked, run_convoy(Loop::kReference, k, cfg));
  EXPECT_GT(hooked.side[1], 0u);  // on_stuck calls
  EXPECT_GT(hooked.elided, 0u);
}

TEST(SpinWaitHook, FaultsOnRunTheFiber) {
  Convoy k;
  scc::ChipConfig cfg = config_for(k.waiters + 1);
  cfg.faults.stall = 0.2;
  const Outcome hooked = run_convoy(Loop::kSpinWait, k, cfg);
  expect_same(hooked, run_convoy(Loop::kReference, k, cfg));
  EXPECT_EQ(hooked.elided, 0u);
}

TEST(SpinWaitHook, WatchdogTripRunsTheFiber) {
  // The holder never releases: the watchdog must trip on a waiter's
  // fiber at the same virtual moment, with the same report.
  scc::ChipConfig cfg = config_for(4);
  cfg.faults.watchdog_ps = 500 * kPsPerUs;
  const auto hung = [&](Loop loop) {
    scc::Chip chip(cfg);
    Outcome out;
    for (int id = 0; id < cfg.num_cores; ++id) {
      chip.spawn_program(id, [&, id](scc::Core& c) {
        const SpinWaitOpts opts = tas_spin_opts(c, "test.hang");
        wait_word(loop, c, scc::WatchedWord::tas(0), opts);
        if (id == 0) c.compute_cycles(1'000);
      });
    }
    try {
      chip.run();
    } catch (const sim::HangError& e) {
      out.hang_report = e.report();
    }
    for (int id = 0; id < cfg.num_cores; ++id) {
      out.clocks.push_back(chip.core(id).now());
      out.counters.push_back(chip.core(id).counters());
    }
    out.elided = chip.scheduler().elided_polls();
    return out;
  };
  const Outcome hooked = hung(Loop::kSpinWait);
  expect_same(hooked, hung(Loop::kReference));
  EXPECT_NE(hooked.hang_report.find("test.hang"), std::string::npos);
  EXPECT_GT(hooked.elided, 0u);
}

}  // namespace
}  // namespace msvm::kernel
