#include "kernel/kernel.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "sccsim/addrmap.hpp"
#include "sim/log.hpp"

namespace msvm::kernel {

namespace {

/// One spin_wait. Each poll is: the relax wake-up, then the read and its
/// access tick (TAS: tick then test-and-set; MPB byte: load then tick),
/// then the loop tail (watchdog, the next relax). Where the core may
/// park, a failed poll parks it instead of sleeping (park() below).
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
  /// Parks the wait that went to sleep at `slept_at` for `gap`, if the
  /// core and the train allow it, and returns false otherwise. On return
  /// from the park the failed polls are charged, and `read` says that the
  /// next poll's wake-up and tick are done as well: its read is next.
  bool park(TimePs slept_at, TimePs gap, bool& read);

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
};

void SpinWait::run() {
  scc::Chip& chip = core_.chip();
  sim::BlockScope scope(core_.actor(), opts_.site, opts_.site_arg,
                        opts_.site_arg2);
  bool read = false;
  for (;;) {
    const bool got = read ? core_.tas_read(word_.reg) : core_.poll(word_);
    read = false;
    if (got) return;
    if (word_.kind == scc::WatchedWord::Kind::kTas) break_dead_holder();
    if (chip.watchdog().check(core_.now(), t0_, opts_.site, core_.id())) {
      chip.scheduler().block();  // parked; teardown unwinds via cancel
    }
    const TimePs gap = next_gap();
    if (core_.in_interrupt() || core_.irqs_masked()) {
      core_.relax(gap);  // cannot sleep here
      continue;
    }
    const TimePs slept_at = core_.now();
    if (park(slept_at, gap, read)) continue;
    chip.scheduler().block_until(slept_at + gap);
    core_.wake_from_relax(slept_at);
  }
}

bool SpinWait::park(TimePs slept_at, TimePs gap, bool& read) {
  scc::Chip& chip = core_.chip();
  const sim::Watchdog& watchdog = chip.watchdog();
  // An MPB poll reads before its tick, which may yield: a store can have
  // readied the byte since. Then the next poll succeeds; sleep for it.
  if (!core_.can_park() || watchdog.tripped() || core_.word_ready(word_)) {
    return false;
  }
  const sim::PollTrain train(slept_at, gap, opts_.cap_ps, cost_,
                             core_.boundary_interval(),
                             core_.next_boundary());
  if (!train.valid()) return false;
  // The fiber runs the first poll that meets a timer tick, or at whose
  // tail the watchdog trips.
  u64 limit = train.first_reaching(core_.next_timer());
  bool quiet = false;
  if (watchdog.enabled()) {
    const u64 trip = train.first_reaching(t0_ + watchdog.limit_ps() + 1);
    if (trip < limit) {
      limit = trip;
      quiet = true;
    }
  }
  if (limit == 0) return false;
  chip.watch(core_, word_);
  struct Unwatch {  // also when teardown unwinds the fiber from the park
    scc::Chip& chip;
    scc::Core& core;
    const scc::WatchedWord& word;
    ~Unwatch() { chip.unwatch(core, word); }
  } unwatch{chip, core_, word_};
  // What the plain loop's failed polls left behind.
  const auto charge = [&](const sim::ParkResume& r) {
    TimePs busy = train.slept_after(r.polls) - slept_at;
    TimePs boundary = train.boundary_after(r.polls);
    if (r.read) {
      busy += train.gap(r.polls) + cost_;
      boundary = train.boundary_after(r.polls + 1);
    }
    core_.charge_parked(word_, r.polls, busy, boundary);
  };
  const sim::ParkResume r =
      chip.scheduler().park(train, limit, quiet, charge);
  backoff_ = train.gap(r.polls + 1);  // next_gap() after poll r.polls
  read = r.read;
  if (!read) core_.wake_from_relax(train.slept_after(r.polls));
  return true;
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
  chip.release_tas(word_.reg);
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
