#include "kernel/kernel.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "sccsim/addrmap.hpp"
#include "sim/log.hpp"

namespace msvm::kernel {

namespace {

/// One spin_wait, as a state machine both the fiber and the scheduler's
/// poll hook can advance. Each poll is: the relax wake-up, then the read
/// and its access tick (TAS: tick then test-and-set; MPB byte: load then
/// tick), then the loop tail (spin count, watchdog, the next relax).
/// The tick may yield mid-way when it passes a boundary, which splits a
/// poll in two; `phase_` records where the fiber must pick up when the
/// hook hands it back.
class SpinWait {
 public:
  SpinWait(scc::Core& core, const scc::WatchedWord& word,
           const SpinWaitOpts& opts)
      : core_(core),
        word_(word),
        opts_(opts),
        cost_(core.poll_cost(word)),
        t0_(core.now()),
        backoff_(opts.start_ps) {}

  void run();

 private:
  enum class Phase : u8 {
    kPoll,      // next: a whole poll
    kSleeping,  // relaxing until slept_at_ + gap; next: the wake-up
    kRead,      // TAS access ticked (the fiber would have yielded); next:
                // the test-and-set
    kMissed,    // the poll failed and is charged; next: the loop tail
  };

  sim::PollStep step(TimePs at, bool timed_out, TimePs others);

  /// After a failed poll of a TAS word: forces the register open when
  /// its holder is dead past the lease (see spin_wait).
  void break_dead_holder();

  TimePs next_gap() {
    const TimePs gap = backoff_;
    backoff_ = std::min(backoff_ * 2, opts_.cap_ps);
    return gap;
  }

  scc::Core& core_;
  const scc::WatchedWord word_;
  const SpinWaitOpts& opts_;
  const TimePs cost_;  // access latency of one poll
  const TimePs t0_;    // when the wait began (watchdog)
  TimePs backoff_;
  TimePs slept_at_ = 0;
  u64 spins_ = 0;
  Phase phase_ = Phase::kPoll;
};

void SpinWait::run() {
  scc::Chip& chip = core_.chip();
  sim::Actor& self = *core_.actor();
  sim::BlockScope scope(&self, opts_.site, opts_.site_arg, opts_.site_arg2);
  const auto hook = [this](TimePs at, bool timed_out, TimePs others) {
    return step(at, timed_out, others);
  };
  for (;;) {
    if (phase_ != Phase::kMissed) {
      const bool got = phase_ == Phase::kRead ? core_.tas_read(word_.reg)
                                              : core_.poll(word_);
      if (got) return;
      if (word_.kind == scc::WatchedWord::Kind::kTas) break_dead_holder();
    }
    ++spins_;
    if (chip.watchdog().check(core_.now(), t0_, opts_.site, core_.id())) {
      chip.scheduler().block();  // parked; teardown unwinds via cancel
    }
    const TimePs gap = next_gap();
    phase_ = Phase::kPoll;
    if (core_.in_interrupt() || core_.irqs_masked()) {
      core_.relax(gap);  // cannot sleep here: no hook either
      continue;
    }
    slept_at_ = core_.now();
    phase_ = Phase::kSleeping;
    {
      // The hook only runs while the fiber is parked in this block; the
      // guard also clears it when teardown unwinds the fiber from here.
      // It is gone before the wake-up below, which may yield: a yielder
      // never carries a hook back into the scheduler.
      struct HookGuard {
        sim::Actor& actor;
        ~HookGuard() { actor.set_poll_hook({}); }
      } guard{self};
      self.set_poll_hook(hook);
      chip.scheduler().block_until(slept_at_ + gap);
    }
    if (phase_ == Phase::kSleeping) {  // the hook left the wake-up to us
      core_.wake_from_relax(slept_at_);
      phase_ = Phase::kPoll;
    }
  }
}

sim::PollStep SpinWait::step(TimePs at, bool timed_out, TimePs others) {
  constexpr sim::PollStep kRun{};
  const bool tas = word_.kind == scc::WatchedWord::Kind::kTas;
  switch (phase_) {
    case Phase::kSleeping:
      // A poll that might succeed, or a wake-up that is not the plain
      // timeout, is the fiber's.
      if (!timed_out || !core_.can_step_poll(at, cost_) ||
          core_.word_ready(word_)) {
        return kRun;
      }
      core_.wake_quiet(at, slept_at_);
      if (!tas) core_.charge_failed_poll(word_);
      if (core_.tick_quiet(cost_) && others < core_.now()) {
        // The fiber would yield mid-tick: re-queue at the tick's end, as
        // maybe_yield does, with the rest of the poll pending.
        phase_ = tas ? Phase::kRead : Phase::kMissed;
        return {core_.now(), /*timeout=*/false};
      }
      if (tas) core_.charge_failed_poll(word_);  // still held: see above
      break;
    case Phase::kRead:
      // The test-and-set reads the register at this post-yield moment.
      if (core_.word_ready(word_)) return kRun;
      core_.charge_failed_poll(word_);
      break;
    case Phase::kMissed:
      break;
    case Phase::kPoll:
      return kRun;
  }
  phase_ = Phase::kMissed;
  // The loop tail: a watchdog trip acts on the host, so it is the
  // fiber's too. (No poll is stepped while a death or a lease could
  // make break_dead_holder act: see Core::can_step_poll.)
  if (core_.chip().watchdog().would_trip(core_.now(), t0_)) return kRun;
  ++spins_;
  slept_at_ = core_.now();
  phase_ = Phase::kSleeping;
  return {slept_at_ + next_gap(), /*timeout=*/true};
}

void SpinWait::break_dead_holder() {
  scc::Chip& chip = core_.chip();
  if (chip.dead_count() == 0 || !chip.lease_enabled()) return;
  const int holder = chip.memory().tas_holder(word_.reg);
  if (holder < 0 || !chip.core_dead(holder) ||
      !chip.peer_presumed_dead(holder, core_.now())) {
    return;
  }
  // The holder fail-stopped inside its critical section. Several waiters
  // may break the same register: the release is idempotent, and the
  // next test-and-set picks a single winner.
  MSVM_LOG_INFO("core %d: breaking TAS lock %d held by dead core %d "
                "t=%.3fms",
                core_.id(), word_.reg, holder, ps_to_ms(core_.now()));
  chip.memory().tas_write_release(word_.reg);
  ++core_.counters().tas_locks_broken;
  core_.compute_cycles(200);  // modelled detection/repair cost
}

}  // namespace

SpinWaitOpts tas_spin_opts(scc::Core& core, const char* site,
                           u64 site_arg) {
  const TimePs cycle = core.chip().config().core_cycle_ps();
  SpinWaitOpts opts;
  opts.start_ps = 16 * cycle;
  opts.cap_ps = 4096 * cycle;
  opts.site = site;
  opts.site_arg = site_arg;
  return opts;
}

void spin_wait(scc::Core& core, const scc::WatchedWord& word,
               const SpinWaitOpts& opts) {
  SpinWait(core, word, opts).run();
}

void master_gather_barrier(scc::Core& core, const std::vector<int>& members,
                           u8& sense, const GatherBarrierFlags& flags) {
  const u8 want = sense;
  sense = want == 1 ? 2 : 1;
  const scc::AddrMap& map = core.chip().map();
  const int master = members.front();
  SpinWaitOpts opts;
  opts.start_ps = 200 * kPsPerNs;
  opts.cap_ps = 50 * kPsPerUs;
  if (core.id() == master) {
    opts.site = flags.gather_site;
    for (std::size_t i = 1; i < members.size(); ++i) {
      const u64 flag = map.mpb_base(master) + flags.arrive +
                       static_cast<u32>(members[i]);
      opts.site_arg = static_cast<u64>(members[i]);
      spin_wait(core, scc::WatchedWord::mpb_byte(flag, want, flags.polls),
                opts);
    }
    for (std::size_t i = 1; i < members.size(); ++i) {
      core.pstore<u8>(map.mpb_base(members[i]) + flags.release, want,
                      scc::MemPolicy::kUncached);
    }
  } else {
    core.pstore<u8>(map.mpb_base(master) + flags.arrive +
                        static_cast<u32>(core.id()),
                    want, scc::MemPolicy::kUncached);
    opts.site = flags.release_site;
    opts.site_arg = static_cast<u64>(master);
    spin_wait(core,
              scc::WatchedWord::mpb_byte(map.mpb_base(core.id()) +
                                             flags.release,
                                         want, flags.polls),
              opts);
  }
}

Kernel::Kernel(scc::Core& core) : core_(core) {}

void Kernel::boot() {
  assert(!booted_ && "kernel booted twice");
  booted_ = true;

  scc::Chip& chip = core_.chip();
  const scc::ChipConfig& cfg = chip.config();

  // Identity-style map of the core's private DRAM: cacheable through L1
  // and L2 (the SCC enables caches on private regions by default), never
  // MPBT. Mapped eagerly — the private region is the kernel's own memory,
  // there is nothing lazy about it.
  const u64 priv_phys = chip.map().private_base(core_.id());
  for (u64 off = 0; off < cfg.private_dram_bytes; off += scc::kPageBytes) {
    scc::Pte pte;
    pte.frame_paddr = priv_phys + off;
    pte.present = true;
    pte.writable = true;
    pte.mpbt = false;
    core_.pagetable().map(scc::kPrivVBase + off, pte);
  }
  heap_next_ = scc::kPrivVBase;
  heap_end_ = scc::kPrivVBase + cfg.private_dram_bytes;

  // Interrupt dispatch: fan out to every registered client.
  core_.set_ipi_handler([this](scc::Core&, const scc::IpiSourceSet& sources) {
    for (auto& h : ipi_handlers_) h(sources);
  });
  core_.set_timer_handler([this](scc::Core&) {
    for (auto& h : timer_handlers_) h();
  });

  // Heartbeat lease (failure detection, opt-in via faults `lease=DUR`):
  // every timer tick refreshes this core's lease host-side; a peer whose
  // lease lapses is presumed fail-stopped. The modelled cost is a couple
  // of register writes inside the already-charged timer handler.
  if (chip.lease_enabled()) {
    chip.record_heartbeat(core_.id(), core_.now());  // alive at boot
    add_timer_handler([this] {
      core_.compute_cycles(20);
      core_.chip().record_heartbeat(core_.id(), core_.now());
    });
  }

  // Fault dispatch: SVM addresses go to the SVM subsystem, anything else
  // is a kernel bug.
  core_.set_fault_handler([this](scc::Core&, u64 vaddr, bool is_write) {
    if (vaddr >= scc::kSvmVBase && svm_fault_handler_) {
      svm_fault_handler_(vaddr, is_write);
      return;
    }
    std::fprintf(stderr,
                 "kernel panic (core %d): unhandled %s fault at 0x%llx\n",
                 core_.id(), is_write ? "write" : "read",
                 static_cast<unsigned long long>(vaddr));
    std::abort();
  });
}

u64 Kernel::kmalloc(u64 bytes, u64 align) {
  assert(booted_ && "kmalloc before boot");
  assert(align != 0 && (align & (align - 1)) == 0);
  const u64 base = (heap_next_ + align - 1) & ~(align - 1);
  if (base + bytes > heap_end_) {
    std::fprintf(stderr,
                 "kernel panic (core %d): private heap exhausted "
                 "(%llu bytes requested)\n",
                 core_.id(), static_cast<unsigned long long>(bytes));
    std::abort();
  }
  heap_next_ = base + bytes;
  // Bookkeeping cost of the allocation path itself.
  core_.compute_cycles(60);
  return base;
}

u64 Kernel::kheap_remaining() const { return heap_end_ - heap_next_; }

}  // namespace msvm::kernel
