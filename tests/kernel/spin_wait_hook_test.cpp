// kernel::spin_wait parks a core whose poll failed: its later polls are
// charged in closed form when a write, an interrupt or a timeout wakes
// it, and never run. These tests pin that parking is exact: every
// scenario runs twice, once through spin_wait and once through a
// hand-written copy of the plain poll + relax loop, and the two runs must
// agree on every core's clock and counters, on the order in which the
// waiters got through and on the hang report. One case per condition
// under which the fiber must run a poll (a timer tick, an IPI, a
// watchdog trip, fault injection) checks that it did, and the tie cases
// place a write or an IPI on the exact picosecond where a parked poll
// reads or splits.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "kernel/kernel.hpp"
#include "sccsim/addrmap.hpp"
#include "sim/faults.hpp"
#include "sim/rng.hpp"

namespace msvm::kernel {
namespace {

enum class Loop { kSpinWait, kReference };

/// The plain wait loop spin_wait must reproduce exactly: poll,
/// watchdog, relax, double the gap. `poll` is the whole access
/// (tas_try_acquire, or a counted uncached byte load).
template <typename Poll>
void reference_wait(scc::Core& core, Poll&& poll, const SpinWaitOpts& opts) {
  scc::Chip& chip = core.chip();
  sim::BlockScope scope(core.actor(), opts.site, opts.site_arg,
                        opts.site_arg2);
  const TimePs t0 = core.now();
  TimePs gap = opts.start_ps;
  while (!poll()) {
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
  u64 parked = 0;      // polls charged without running
  u64 dispatches = 0;  // scheduler dispatches
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
  cfg.num_cores = cores;
  return cfg;
}

/// Knobs of the TAS convoy: core 0 takes register 0 and holds it for
/// `hold_cycles`; every other core then queues on it `rounds` times.
struct Convoy {
  int waiters = 3;
  u64 hold_cycles = 20'000;
  int rounds = 2;
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
      const SpinWaitOpts opts = tas_spin_opts(c, "test.convoy");
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
  out.parked = chip.scheduler().parked_polls();
  out.dispatches = chip.scheduler().lane_dispatched(0);
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
  out.parked = chip.scheduler().parked_polls();
  out.dispatches = chip.scheduler().lane_dispatched(0);
  return out;
}

class SpinWaitConvoy : public ::testing::TestWithParam<int> {};

TEST_P(SpinWaitConvoy, HookSteppedWaitMatchesPlainLoop) {
  Convoy k;
  k.waiters = GetParam();
  const scc::ChipConfig cfg = config_for(k.waiters + 1);
  const Outcome spin = run_convoy(Loop::kSpinWait, k, cfg);
  const Outcome plain = run_convoy(Loop::kReference, k, cfg);
  expect_same(spin, plain);
  EXPECT_EQ(spin.order.size(), static_cast<std::size_t>(k.waiters * 2));
  EXPECT_GT(total(spin, &scc::CoreCounters::tas_spins), 0u);
  EXPECT_GT(spin.parked, 0u);
  EXPECT_EQ(plain.parked, 0u);
}

// 47 waiters fill one 48-core die; 95 and 255 span two and six chips.
INSTANTIATE_TEST_SUITE_P(Waiters, SpinWaitConvoy,
                         ::testing::Values(3, 47, 95, 255));

/// A convoy with jittered timing: every core draws its start delay, its
/// hold cycles per round and its gap between rounds from `seed`.
Outcome run_jittered(Loop loop, u64 seed, int waiters) {
  const scc::ChipConfig cfg = config_for(waiters + 1);
  sim::Rng rng(seed);
  std::vector<std::vector<u64>> draws(static_cast<std::size_t>(waiters + 1));
  for (std::vector<u64>& d : draws) {
    for (int k = 0; k < 7; ++k) d.push_back(rng.next_range(1, 3'000));
  }
  scc::Chip chip(cfg);
  Outcome out;
  for (int id = 0; id <= waiters; ++id) {
    chip.spawn_program(id, [&, id](scc::Core& c) {
      const std::vector<u64>& d = draws[static_cast<std::size_t>(id)];
      const SpinWaitOpts opts = tas_spin_opts(c, "test.jitter");
      c.compute_cycles(d[0]);
      for (int r = 0; r < 3; ++r) {
        wait_word(loop, c, scc::WatchedWord::tas(0), opts);
        out.order.push_back(id);
        c.compute_cycles(d[static_cast<std::size_t>(1 + 2 * r)]);
        c.tas_release(0);
        c.compute_cycles(d[static_cast<std::size_t>(2 + 2 * r)]);
      }
    });
  }
  chip.run();
  for (int id = 0; id <= waiters; ++id) {
    out.clocks.push_back(chip.core(id).now());
    out.counters.push_back(chip.core(id).counters());
  }
  out.parked = chip.scheduler().parked_polls();
  out.dispatches = chip.scheduler().lane_dispatched(0);
  return out;
}

class SpinWaitJitter
    : public ::testing::TestWithParam<std::tuple<u64, int>> {};

TEST_P(SpinWaitJitter, JitteredConvoyMatchesPlainLoop) {
  const auto [seed, waiters] = GetParam();
  const Outcome spin = run_jittered(Loop::kSpinWait, seed, waiters);
  const Outcome plain = run_jittered(Loop::kReference, seed, waiters);
  expect_same(spin, plain);
  EXPECT_EQ(spin.order.size(), static_cast<std::size_t>(3 * (waiters + 1)));
  EXPECT_GT(spin.parked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsTimesWaiters, SpinWaitJitter,
    ::testing::Combine(::testing::Values(u64{11}, u64{12}, u64{13}),
                       ::testing::Values(3, 47, 255)));

TEST(SpinWaitHook, TiedWaitersPopInIdOrder) {
  // Cores 2 and 3 share a tile, so they sit at the same distance from
  // register 0, and they start together: every poll of one ties on time
  // with a poll of the other until one gets the lock, and the wheel must
  // order each tie as the heap does. (SchedulerWheel tests force the
  // wheel's ties directly.)
  const scc::ChipConfig cfg = config_for(4);
  const auto run = [&](Loop loop) {
    scc::Chip chip(cfg);
    Outcome out;
    for (int id = 0; id < 4; ++id) {
      chip.spawn_program(id, [&, id](scc::Core& c) {
        const SpinWaitOpts opts = tas_spin_opts(c, "test.tie");
        if (id == 1) return;
        if (id == 0) {
          wait_word(loop, c, scc::WatchedWord::tas(0), opts);
          c.compute_cycles(30'000);
          c.tas_release(0);
          return;
        }
        c.compute_cycles(200);
        wait_word(loop, c, scc::WatchedWord::tas(0), opts);
        out.order.push_back(id);
        c.compute_cycles(500);
        c.tas_release(0);
      });
    }
    chip.run();
    for (int id = 0; id < 4; ++id) {
      out.clocks.push_back(chip.core(id).now());
      out.counters.push_back(chip.core(id).counters());
    }
    out.parked = chip.scheduler().parked_polls();
    out.dispatches = chip.scheduler().lane_dispatched(0);
  out.dispatches = chip.scheduler().lane_dispatched(0);
    return out;
  };
  const Outcome spin = run(Loop::kSpinWait);
  expect_same(spin, run(Loop::kReference));
  EXPECT_EQ(spin.order, (std::vector<int>{3, 2}));
  // Core 2 lost and failed on until core 3 released.
  EXPECT_GT(spin.counters[2].tas_spins, spin.counters[3].tas_spins);
  EXPECT_GT(spin.parked, 0u);
}

TEST(SpinWaitHook, MidTickYieldStepIsExact) {
  // With 255 waiters nearly every poll wakes after a relax longer than
  // the boundary interval, so its tick passes a boundary while another
  // core's poll is due inside the tick: the plain loop yields mid-tick,
  // and a TAS read moves to the tick's end. Parked, those polls do not
  // run, and the waiter queued at each release must still be the one
  // whose read comes first. Each release queues about one waiter, so
  // the dispatches stay a small multiple of the acquisitions.
  Convoy k;
  k.waiters = 255;
  const scc::ChipConfig cfg = config_for(k.waiters + 1);
  const Outcome spin = run_convoy(Loop::kSpinWait, k, cfg);
  const Outcome plain = run_convoy(Loop::kReference, k, cfg);
  expect_same(spin, plain);
  EXPECT_GT(spin.parked, total(spin, &scc::CoreCounters::tas_spins) / 2);
  EXPECT_LT(spin.dispatches, 16 * spin.order.size());
  EXPECT_LT(spin.dispatches, plain.dispatches / 4);
}

/// What the plain loop saw of one TAS poll: its pop, the end of its
/// tick, and whether the core yielded in the tick (a split: the read
/// moved to the tick's end).
struct PollSeen {
  TimePs pop = 0;
  TimePs end = 0;
  bool split = false;
};

/// reference_wait on TAS register `reg` with tas_try_acquire opened up
/// (its tick, then its read), so that each poll's split is seen.
void probed_tas_wait(scc::Core& core, int reg, const SpinWaitOpts& opts,
                     std::vector<PollSeen>& seen) {
  const TimePs cost = core.poll_cost(scc::WatchedWord::tas(reg));
  sim::Scheduler& s = core.chip().scheduler();
  reference_wait(
      core,
      [&] {
        PollSeen p;
        p.pop = core.now();
        const u64 before = s.lane_dispatched(0);
        core.tick(cost);
        p.end = core.now();
        p.split = s.lane_dispatched(0) != before;
        seen.push_back(p);
        return core.tas_read(reg);
      },
      opts);
}

/// Moves `c`'s clock to exactly `at` with a tick that passes a boundary,
/// so that `c` competes (checks) at `at`. Returns true when it yielded
/// there.
bool check_at(scc::Core& c, TimePs at) {
  const TimePs interval = c.boundary_interval();
  while (c.now() + 2 * interval < at) {
    c.compute_cycles(scc::kBoundaryCheckCycles);
  }
  EXPECT_GT(at - c.now(), interval);
  const sim::Scheduler& s = c.chip().scheduler();
  const u64 before = s.lane_dispatched(0);
  c.tick(at - c.now());
  return s.lane_dispatched(0) != before;
}

/// How the holder's release of register 0 is ordered at `at`: at a
/// boundary check after computing, or at its pop after sleeping.
enum class Release { kAfterCompute, kAfterSleep };

struct TieRun {
  Outcome out;
  std::vector<std::vector<PollSeen>> seen;  // by core (reference loop)
};

/// Core `holder` takes register 0 and releases it at exactly `at`, and
/// the other waiters queue on it. With `ipi_at` set, core `raiser`
/// raises an IPI on `ipi_target` from a check at exactly that time.
/// Every other core computes throughout, so entries pend near the polls.
struct Tie {
  int cores = 3;
  int holder = 2;
  std::vector<int> waiters = {1};
  TimePs at = 0;
  Release how = Release::kAfterCompute;
  int raiser = -1;
  int ipi_target = -1;
  TimePs ipi_at = 0;
  int dense_waiter = -1;  // backs off to a 256-cycle cap only
  u64 late_start = 0;     // extra cycles before waiter 2 starts
};

TieRun run_tie(Loop loop, const Tie& k) {
  const scc::ChipConfig cfg = config_for(k.cores);
  scc::Chip chip(cfg);
  TieRun run;
  run.seen.resize(static_cast<std::size_t>(k.cores));
  run.out.side.assign(static_cast<std::size_t>(k.cores), 0);
  for (int id = 0; id < k.cores; ++id) {
    chip.spawn_program(id, [&, id](scc::Core& c) {
      u64& side = run.out.side[static_cast<std::size_t>(id)];
      c.set_ipi_handler([&side](scc::Core& self, const scc::IpiSourceSet&) {
        side += 1;
        self.compute_cycles(300);
      });
      SpinWaitOpts opts = tas_spin_opts(c, "test.tie");
      if (id == k.dense_waiter) opts.cap_ps = 256 * c.chip().config().core_cycle_ps();
      if (id == k.holder) {
        wait_word(loop, c, scc::WatchedWord::tas(0), opts);
        if (k.how == Release::kAfterSleep) {
          c.chip().scheduler().block_until(k.at);
        } else {
          check_at(c, k.at);
        }
        c.chip().release_tas(0);
        return;
      }
      if (id == k.raiser) {
        check_at(c, k.ipi_at);
        c.raise_ipi(k.ipi_target);
        return;
      }
      if (std::find(k.waiters.begin(), k.waiters.end(), id) ==
          k.waiters.end()) {
        c.compute_cycles(60'000);
        return;
      }
      c.compute_cycles(2'000 + 17 * static_cast<u64>(id) +
                       (id == 2 ? k.late_start : 0));
      if (loop == Loop::kReference) {
        probed_tas_wait(c, 0, opts, run.seen[static_cast<std::size_t>(id)]);
      } else {
        wait_word(loop, c, scc::WatchedWord::tas(0), opts);
      }
      run.out.order.push_back(id);
      c.compute_cycles(100);
      c.tas_release(0);
    });
  }
  chip.run();
  for (int id = 0; id < k.cores; ++id) {
    run.out.clocks.push_back(chip.core(id).now());
    run.out.counters.push_back(chip.core(id).counters());
  }
  run.out.parked = chip.scheduler().parked_polls();
  run.out.dispatches = chip.scheduler().lane_dispatched(0);
  return run;
}

TEST(SpinWaitHook, ReleaseTiedWithAParkedRead) {
  // The holder's release is ordered at exactly a poll's pop, or at
  // exactly the end of its tick, where a split poll reads, for every
  // poll of the first 100 us; the holder is the higher or the lower id,
  // and it releases from a boundary check or from the pop that ends a
  // sleep (it was blocked when the waiter last polled). The plain loop
  // says which polls split; both kinds of tie must come up.
  int split_ties = 0;
  int unsplit_ties = 0;
  for (const int holder : {2, 0}) {
    Tie probe;
    probe.holder = holder;
    probe.at = 150 * kPsPerUs;
    const std::vector<PollSeen> polls =
        run_tie(Loop::kReference, probe).seen[1];
    for (const PollSeen& p : polls) {
      if (p.end > 100 * kPsPerUs) break;
      for (const TimePs at : {p.pop, p.end}) {
        for (const Release how : {Release::kAfterCompute,
                                  Release::kAfterSleep}) {
          SCOPED_TRACE(::testing::Message() << "holder " << holder << " at "
                                            << at << " sleep "
                                            << (how == Release::kAfterSleep));
          Tie k = probe;
          k.at = at;
          k.how = how;
          const TieRun plain = run_tie(Loop::kReference, k);
          expect_same(run_tie(Loop::kSpinWait, k).out, plain.out);
          for (const PollSeen& q : plain.seen[1]) {
            if (q.end == at && q.split) ++split_ties;
            if (q.pop == at || (q.end == at && !q.split)) ++unsplit_ties;
          }
        }
      }
    }
  }
  EXPECT_GT(split_ties, 0);
  EXPECT_GT(unsplit_ties, 0);
}

TEST(SpinWaitHook, IpiOnAParkedWaiter) {
  // Core 3 raises an IPI on waiter 1 from a check at a poll's pop, in
  // the middle of its tick and at the tick's end. Inside a split poll
  // the waiter is queued for the rest of the poll, so the wake is
  // ignored and the next poll delivers it. The holder releases 10 ns
  // before some of the IPIs: then waiter 1 may be the one queued to take
  // the register, and the IPI handler delays its read past one of waiter
  // 2's, which polls every 256 cycles.
  int mid_split = 0;
  for (const TimePs lead : {TimePs{0}, 10 * kPsPerNs}) {
    Tie probe;
    probe.cores = 5;
    probe.holder = 0;
    probe.waiters = {1, 2};
    probe.at = 150 * kPsPerUs;
    probe.raiser = 3;
    probe.ipi_target = 1;
    probe.ipi_at = 149 * kPsPerUs;
    probe.dense_waiter = 2;
    const std::vector<PollSeen> polls =
        run_tie(Loop::kReference, probe).seen[1];
    for (const PollSeen& p : polls) {
      if (p.end > 100 * kPsPerUs) break;
      for (const TimePs at : {p.pop, (p.pop + p.end) / 2, p.end}) {
        SCOPED_TRACE(::testing::Message() << "ipi at " << at << " lead "
                                          << lead);
        Tie k = probe;
        k.ipi_at = at;
        if (lead > 0) k.at = at - lead;
        const TieRun plain = run_tie(Loop::kReference, k);
        const TieRun spin = run_tie(Loop::kSpinWait, k);
        expect_same(spin.out, plain.out);
        if (lead == 0) {
          EXPECT_EQ(plain.out.side[1], 1u);  // delivered while it waited
        }
        for (const PollSeen& q : plain.seen[1]) {
          if (q.split && q.pop < at && at < q.end) ++mid_split;
        }
      }
    }
  }
  EXPECT_GT(mid_split, 0);
}

/// Core 1 waits on a byte of core 0's MPB, and core 2 stores it at
/// exactly `store_at`: from a check, or at the pop that ends a sleep.
/// Core 0 computes throughout. `seen`, in the reference loop, gets each
/// poll: its pop, the end of its tick, and whether the tick yielded.
Outcome run_flag(Loop loop, TimePs store_at, Release how,
                 std::vector<PollSeen>* seen) {
  const scc::ChipConfig cfg = config_for(3);
  scc::Chip chip(cfg);
  Outcome out;
  out.side.assign(3, 0);
  const u64 flag = chip.map().mpb_base(0) + 77;
  for (int id = 0; id < 3; ++id) {
    chip.spawn_program(id, [&, id](scc::Core& c) {
      if (id == 0) {
        c.compute_cycles(60'000);
        return;
      }
      if (id == 2) {
        if (how == Release::kAfterSleep) {
          c.chip().scheduler().block_until(store_at);
        } else {
          check_at(c, store_at);
        }
        c.pstore<u8>(flag, 1, scc::MemPolicy::kUncached);
        return;
      }
      SpinWaitOpts opts;
      opts.start_ps = 200 * kPsPerNs;
      opts.cap_ps = 50 * kPsPerUs;
      opts.site = "test.flag";
      c.compute_cycles(2'000);
      u64* polls = &out.side[1];
      const scc::WatchedWord w = scc::WatchedWord::mpb_byte(flag, 1, polls);
      // The first poll's tick passes a boundary halfway, so it may split.
      c.tick(c.next_boundary() - c.now() - c.poll_cost(w) / 2);
      if (loop == Loop::kSpinWait) {
        spin_wait(c, w, opts);
      } else {
        sim::Scheduler& s = c.chip().scheduler();
        reference_wait(
            c,
            [&] {
              PollSeen p;
              p.pop = c.now();
              const u64 before = s.lane_dispatched(0);
              ++*polls;
              const bool got =
                  c.pload<u8>(flag, scc::MemPolicy::kUncached) == 1;
              p.end = c.now();
              p.split = s.lane_dispatched(0) != before;
              if (seen != nullptr) seen->push_back(p);
              return got;
            },
            opts);
      }
      out.order.push_back(id);
    });
  }
  chip.run();
  for (int id = 0; id < 3; ++id) {
    out.clocks.push_back(chip.core(id).now());
    out.counters.push_back(chip.core(id).counters());
  }
  out.parked = chip.scheduler().parked_polls();
  return out;
}

TEST(SpinWaitHook, MpbStoreAroundAParkedPoll) {
  // The store is ordered at a poll's pop, in the middle of its tick, or
  // at its end, from a check or from the pop that ends a sleep. An MPB
  // poll reads before its tick, so a store in the middle of a split poll
  // lands after the read failed and before the waiter sleeps again: the
  // next poll must find the byte set, also when the split poll is the
  // wait's first (run by the fiber, before the wait ever parked).
  std::vector<PollSeen> polls;
  run_flag(Loop::kReference, 200 * kPsPerUs, Release::kAfterCompute, &polls);
  int mid_split = 0;
  int first_split = 0;
  for (const PollSeen& p : polls) {
    if (p.end > 150 * kPsPerUs) break;
    for (const TimePs at : {p.pop, (p.pop + p.end) / 2, p.end}) {
      for (const Release how : {Release::kAfterCompute,
                                Release::kAfterSleep}) {
        SCOPED_TRACE(::testing::Message() << "store at " << at << " sleep "
                                          << (how == Release::kAfterSleep));
        std::vector<PollSeen> seen;
        const Outcome plain = run_flag(Loop::kReference, at, how, &seen);
        expect_same(run_flag(Loop::kSpinWait, at, how, nullptr), plain);
        for (std::size_t i = 0; i < seen.size(); ++i) {
          const PollSeen& q = seen[i];
          if (q.split && q.pop < at && at < q.end) {
            ++mid_split;
            if (i == 0) ++first_split;
          }
        }
      }
    }
  }
  EXPECT_GT(mid_split, 0);
  EXPECT_GT(first_split, 0);
}

/// Core 1 sleeps until exactly `at` and core 3 checks at exactly `at`;
/// each then test-and-sets register 5 with no tick, so whoever resumes
/// first takes it. Core 2 spins on register 0, which core 0 holds asleep
/// until 200 us, polling every 256 cycles: only its polls can be earlier
/// than the tie. `yielded`, in the reference loop,
/// says whether core 3 yielded at its check.
Outcome run_boundary_tie(Loop loop, TimePs at, bool* yielded) {
  const scc::ChipConfig cfg = config_for(4);
  scc::Chip chip(cfg);
  Outcome out;
  for (int id = 0; id < 4; ++id) {
    chip.spawn_program(id, [&, id](scc::Core& c) {
      SpinWaitOpts opts = tas_spin_opts(c, "test.boundary");
      opts.cap_ps = 256 * c.chip().config().core_cycle_ps();
      switch (id) {
        case 0:
          wait_word(loop, c, scc::WatchedWord::tas(0), opts);
          c.chip().scheduler().block_until(200 * kPsPerUs);
          c.tas_release(0);
          return;
        case 1:
          c.chip().scheduler().block_until(at);
          break;
        case 2:
          c.compute_cycles(100);
          wait_word(loop, c, scc::WatchedWord::tas(0), opts);
          c.tas_release(0);
          return;
        default: {
          const bool y = check_at(c, at);
          if (yielded != nullptr) *yielded = y;
        }
      }
      if (c.tas_read(5)) out.order.push_back(id);
    });
  }
  chip.run();
  for (int id = 0; id < 4; ++id) {
    out.clocks.push_back(chip.core(id).now());
    out.counters.push_back(chip.core(id).counters());
  }
  out.parked = chip.scheduler().parked_polls();
  return out;
}

TEST(SpinWaitHook, BoundaryTieWithAParkedPollEarlier) {
  // Core 1's pop ties with core 3's check on time, and core 1 has the
  // lower id. In the plain loop core 3 yields at its check whenever one
  // of core 2's polls is due before it, and then core 1 takes register 5;
  // otherwise core 3 keeps running and takes it. Parked, core 2's polls
  // are not entries, and the scheduler must still find the earlier one.
  int yields = 0;
  int keeps = 0;
  for (TimePs at = 20 * kPsPerUs; at < 30 * kPsPerUs; at += 97'531) {
    SCOPED_TRACE(::testing::Message() << "tie at " << at);
    bool yielded = false;
    const Outcome plain = run_boundary_tie(Loop::kReference, at, &yielded);
    const Outcome spin = run_boundary_tie(Loop::kSpinWait, at, nullptr);
    expect_same(spin, plain);
    EXPECT_GT(spin.parked, 0u);
    (yielded ? yields : keeps) += 1;
  }
  EXPECT_GT(yields, 0);
  EXPECT_GT(keeps, 0);
}

TEST(SpinWaitHook, IpiDelaysTheQueuedReader) {
  // The holder frees register 0 just before one of waiter 1's polls, so
  // waiter 1 is queued to read it first and waiter 2 stays parked. Then
  // an IPI reaches waiter 1 before that read: its handler runs first, and
  // over the sweep of waiter 2's phase, waiter 2's next read sometimes
  // comes before waiter 1's delayed one and takes the register.
  Tie probe;
  probe.cores = 5;
  probe.holder = 0;
  probe.waiters = {1, 2};
  probe.at = 150 * kPsPerUs;
  probe.raiser = 3;
  probe.ipi_target = 1;
  probe.ipi_at = 149 * kPsPerUs;
  const std::vector<PollSeen> polls =
      run_tie(Loop::kReference, probe).seen[1];
  TimePs pop = 0;
  for (const PollSeen& p : polls) {
    if (p.pop > 60 * kPsPerUs) {
      pop = p.pop;
      break;
    }
  }
  ASSERT_GT(pop, 0u);
  std::vector<int> first(5, 0);
  for (u64 late = 0; late < 4'200; late += 97) {
    SCOPED_TRACE(::testing::Message() << "waiter 2 starts " << late
                                      << " cycles late");
    Tie k = probe;
    k.late_start = late;
    k.at = pop - 10 * kPsPerNs;
    k.ipi_at = pop - 5 * kPsPerNs;
    const TieRun plain = run_tie(Loop::kReference, k);
    expect_same(run_tie(Loop::kSpinWait, k).out, plain.out);
    ASSERT_FALSE(plain.out.order.empty());
    ++first[static_cast<std::size_t>(plain.out.order.front())];
  }
  EXPECT_GT(first[1], 0);
  EXPECT_GT(first[2], 0);
}

TEST(SpinWaitHook, MpbBarrierOf256Members) {
  const Outcome spin = run_barrier(Loop::kSpinWait, 256, 2);
  expect_same(spin, run_barrier(Loop::kReference, 256, 2));
  EXPECT_GT(spin.parked, 0u);
}

TEST(SpinWaitHook, MpbFlagBarrierMatchesPlainLoop) {
  for (int members : {4, 48}) {
    SCOPED_TRACE(members);
    const Outcome spin = run_barrier(Loop::kSpinWait, members, 4);
    const Outcome plain = run_barrier(Loop::kReference, members, 4);
    expect_same(spin, plain);
    EXPECT_GT(total(spin, &scc::CoreCounters::mpb_reads), 0u);
    EXPECT_GT(spin.parked, 0u);
  }
}

TEST(SpinWaitHook, IpiMidWaitRunsTheFiber) {
  // The IPI wakes the sleeping waiter early; the handler runs on its
  // fiber, exactly once, in both loops.
  Convoy k;
  k.ipi_target = 2;
  const scc::ChipConfig cfg = config_for(k.waiters + 1);
  const Outcome spin = run_convoy(Loop::kSpinWait, k, cfg);
  expect_same(spin, run_convoy(Loop::kReference, k, cfg));
  EXPECT_EQ(spin.side[2], 1000u);
  EXPECT_EQ(spin.counters[2].ipi_irqs, 1u);
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
    out.parked = chip.scheduler().parked_polls();
    out.dispatches = chip.scheduler().lane_dispatched(0);
  out.dispatches = chip.scheduler().lane_dispatched(0);
    return out;
  };
  const Outcome spin = run(Loop::kSpinWait);
  expect_same(spin, run(Loop::kReference));
  EXPECT_GT(spin.side[1], 0u);
  EXPECT_GT(spin.parked, 0u);
}

TEST(SpinWaitHook, TimerTickDueRunsTheFiber) {
  // A 2.5 ms hold spans two 1 ms timer ticks; only the fiber delivers
  // them.
  Convoy k;
  k.hold_cycles = 1'400'000;
  const scc::ChipConfig cfg = config_for(k.waiters + 1);
  const Outcome spin = run_convoy(Loop::kSpinWait, k, cfg);
  expect_same(spin, run_convoy(Loop::kReference, k, cfg));
  EXPECT_GE(spin.counters[1].timer_irqs, 2u);
  EXPECT_GT(spin.parked, 0u);
}

TEST(SpinWaitHook, TimerTickAndIpiOnParkedWaiters) {
  // 47 waiters parked on the wheel while core 0 holds for two timer
  // ticks and raises an IPI on waiter 5 mid-hold: the IPI's wake pulls a
  // parked entry off the wheel, and every tick that falls due hands a
  // parked waiter back to its fiber.
  Convoy k;
  k.waiters = 47;
  k.hold_cycles = 1'400'000;
  k.rounds = 1;
  k.ipi_target = 5;
  const scc::ChipConfig cfg = config_for(k.waiters + 1);
  const Outcome spin = run_convoy(Loop::kSpinWait, k, cfg);
  expect_same(spin, run_convoy(Loop::kReference, k, cfg));
  EXPECT_EQ(spin.counters[5].ipi_irqs, 1u);
  EXPECT_GE(spin.counters[47].timer_irqs, 2u);
  EXPECT_GT(spin.parked, 0u);
}

TEST(SpinWaitHook, FaultsOnRunTheFiber) {
  Convoy k;
  scc::ChipConfig cfg = config_for(k.waiters + 1);
  cfg.faults.stall = 0.2;
  const Outcome spin = run_convoy(Loop::kSpinWait, k, cfg);
  expect_same(spin, run_convoy(Loop::kReference, k, cfg));
  EXPECT_EQ(spin.parked, 0u);
}

TEST(SpinWaitHook, WatchdogTripRunsTheFiber) {
  // The holder never releases: the watchdog must trip on a waiter's
  // fiber at the same virtual moment, with the same report, taken while
  // the other waiters are parked on the wheel.
  for (int cores : {4, 48}) {
  SCOPED_TRACE(cores);
  scc::ChipConfig cfg = config_for(cores);
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
    out.parked = chip.scheduler().parked_polls();
    out.dispatches = chip.scheduler().lane_dispatched(0);
  out.dispatches = chip.scheduler().lane_dispatched(0);
    return out;
  };
  const Outcome spin = hung(Loop::kSpinWait);
  expect_same(spin, hung(Loop::kReference));
  EXPECT_NE(spin.hang_report.find("test.hang"), std::string::npos);
  EXPECT_GT(spin.parked, 0u);
  }
}

}  // namespace
}  // namespace msvm::kernel
