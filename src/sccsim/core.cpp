#include "sccsim/core.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "sccsim/chip.hpp"
#include "sim/log.hpp"

namespace msvm::scc {

namespace {

[[noreturn]] void die(const char* msg, u64 addr) {
  std::fprintf(stderr, "msvm::scc::Core fatal: %s (addr=0x%llx)\n", msg,
               static_cast<unsigned long long>(addr));
  std::abort();
}

/// Event::c of a kMemRead/kMemWrite: the target's kind and owner.
u64 mem_target(const PhysTarget& t) {
  return (static_cast<u64>(t.kind) << 8) | static_cast<u64>(t.owner & 0xff);
}

}  // namespace

Core::Core(Chip& chip, int id)
    : chip_(chip),
      topo_(&chip.topology()),
      bus_(&chip.bus()),
      id_(id),
      l1_(kL1Bytes, kL1Assoc, kLineBytes),
      l2_(kL2Bytes, kL2Assoc, kLineBytes),
      wcb_(kLineBytes) {
  core_cycle_ps_ = chip.latency().core_cycles(1);
  timer_period_ps_ = chip.config().timer_period_us * kPsPerUs;
  boundary_interval_ps_ = kBoundaryCheckCycles * core_cycle_ps_;
  lat_tlb_walk_ps_ = kTlbMissCycles * core_cycle_ps_;
  lat_l1_hit_ps_ = chip.latency().l1_hit();
  lat_store_hit_ps_ = chip.latency().store_hit();
  lat_wcb_merge_ps_ = chip.latency().wcb_merge();
}

void Core::bind_actor(sim::Actor* actor) {
  actor_ = actor;
  next_timer_ = actor->clock() + timer_period_ps_;
  next_boundary_ = actor->clock() + boundary_interval_ps_;
}

// ---------------------------------------------------------------------------
// time & interrupts

void Core::tick(TimePs cost) {
  actor_->advance(cost);
  counters_.busy_ps += cost;
  if (actor_->clock() >= next_boundary_) boundary();
}

void Core::boundary() {
  if (chip_.faults().enabled()) {
    // Scheduled fail-stop: the core dies between two instructions —
    // mid-protocol, mid-handler, locks held, WCB dirty, whatever the
    // moment happened to be. fail_stop() parks the fiber and never
    // returns. Checked even inside handlers and masked sections: death
    // does not wait for sti.
    if (actor_->clock() >= chip_.kill_time(id_)) {
      chip_.fail_stop(*this);
    }
    // Bounded virtual-time stall: the core simply loses time, as if the
    // hardware thread was starved. Delivered work resumes afterwards.
    const TimePs stall = chip_.faults().stall_ps();
    if (stall > 0) {
      actor_->advance(stall);
      counters_.busy_ps += stall;
      publish(obs::EventKind::kFaultInject,
              static_cast<u64>(obs::InjectKind::kStall), stall);
    }
  }
  next_boundary_ = actor_->clock() + boundary_interval_ps_;
  if (in_irq_) {
    // Handlers run with interrupts masked; re-delivery happens when the
    // outer deliver_interrupts() loop finishes.
  } else if (irq_mask_depth_ > 0) {
    // Masked (an access commit or an explicit cli section): remember
    // that a delivery opportunity passed so the unmask point can make up
    // for it even if every subsequent tick is masked too.
    pending_irq_check_ = true;
  } else {
    deliver_interrupts();
  }
  chip_.scheduler().maybe_yield();
}

void Core::deliver_interrupts() {
  // Interrupt handlers themselves perform modelled memory accesses which
  // tick(); the in_irq_ flag keeps delivery non-reentrant, the same way a
  // kernel runs handlers with interrupts masked.
  in_irq_ = true;
  if (chip_.gic().has_pending(id_)) {
    const IpiSourceSet sources = chip_.gic().take_pending(id_);
    ++counters_.ipi_irqs;
    tick(chip_.latency().irq_entry());
    if (ipi_handler_) ipi_handler_(*this, sources);
    tick(chip_.latency().irq_exit());
  }
  if (actor_->clock() >= next_timer_) {
    // Catch up without replaying every missed period (a long halt should
    // deliver one tick, not a burst).
    while (next_timer_ <= actor_->clock()) next_timer_ += timer_period_ps_;
    ++counters_.timer_irqs;
    tick(chip_.latency().irq_entry());
    if (timer_handler_) timer_handler_(*this);
    tick(chip_.latency().irq_exit());
  }
  in_irq_ = false;
}

void Core::compute_cycles(u64 core_cycles) {
  // Slice long computations at the boundary-check granularity so
  // interrupts are delivered *during* the work, not after it — a single
  // bulk tick would make a 1 ms computation an uninterruptible block.
  while (core_cycles > 0) {
    const u64 step = std::min<u64>(core_cycles, kBoundaryCheckCycles);
    tick(step * core_cycle_ps_);
    core_cycles -= step;
  }
}

void Core::yield() { chip_.scheduler().maybe_yield(); }

void Core::relax(TimePs gap) {
  if (in_irq_ || irq_mask_depth_ > 0) {
    // Cannot sleep inside a handler or a masked section; fall back to a
    // plain cooperative pause.
    tick(gap);
    chip_.scheduler().maybe_yield();
    return;
  }
  const TimePs t0 = actor_->clock();
  chip_.scheduler().block_until(t0 + gap);
  wake_from_relax(t0);
}

void Core::wake_from_relax(TimePs slept_at) {
  counters_.busy_ps += actor_->clock() - slept_at;  // account like spin time
  deliver_interrupts();
}

void Core::halt() {
  assert(irq_mask_depth_ == 0 && "halt with interrupts masked");
  // Sleep until the next timer tick unless an IPI arrives first. The GIC
  // wake goes through Chip, which calls scheduler().wake on our actor.
  if (!chip_.gic().has_pending(id_)) {
    TimePs deadline = next_timer_;
    if (chip_.faults().enabled() && deadline > actor_->clock()) {
      // Spurious wakeup: resume early for no reason. Callers of halt()
      // already re-check their wake condition in a loop, so this only
      // probes that the loops really are condition-driven.
      const TimePs early =
          chip_.faults().spurious_wake_ps(deadline - actor_->clock());
      if (early > 0) {
        publish(obs::EventKind::kFaultInject,
                static_cast<u64>(obs::InjectKind::kSpuriousWake), early);
        deadline -= early;
      }
    }
    chip_.scheduler().block_until(deadline);
  }
  if (!in_irq_) deliver_interrupts();
}

// ---------------------------------------------------------------------------
// translation

MemPolicy Core::policy_of(const Pte& pte) {
  // Non-MPBT pages are L1+L2 write-through on the real part: private
  // memory and read-only SVM regions.
  return pte.mpbt ? MemPolicy::kMpbt : MemPolicy::kCachedWT;
}

void Core::tlb_fill(u64 vpage, const Pte& pte) {
  if (tlb_epoch_ != pagetable_.epoch()) {
    for (auto& e : tlb_) e.vpage = ~u64{0};
    tlb_epoch_ = pagetable_.epoch();
  }
  TlbEntry& slot = tlb_[vpage % kTlbEntries];
  slot.vpage = vpage;
  slot.pte = pte;
}

// Returns WITH interrupts masked: the caller commits the access and then
// unmasks. This makes the translation+commit pair atomic against served
// ownership transfers (which may unmap the page) — the same guarantee a
// real instruction has.
Core::Translation Core::translate(u64 vaddr, bool is_write) {
  irq_disable();
  const u64 vpage = pagetable_.vpage_of(vaddr);
  const Pte* hit = tlb_probe(vpage);
  if (hit != nullptr && (!is_write || hit->writable)) {
    ++counters_.tlb_hits;
    return {hit->frame_paddr + pagetable_.page_offset(vaddr),
            policy_of(*hit)};
  }
  // TLB miss: the hardware walks the page table (the walk itself is
  // charged; the entries are private-memory resident).
  ++counters_.tlb_misses;
  tick(lat_tlb_walk_ps_);

  int guard = 0;
  for (;;) {
    const Pte* pte = pagetable_.find(vaddr);
    if (pte != nullptr && pte->present && (!is_write || pte->writable)) {
      tlb_fill(vpage, *pte);
      return {pte->frame_paddr + pagetable_.page_offset(vaddr),
              policy_of(*pte)};
    }
    if (!fault_handler_) die("page fault with no handler installed", vaddr);
    if (++guard > 1024) die("page fault not resolved by handler", vaddr);
    ++counters_.page_faults;
    // Exception entry cost: trap + kernel prologue. The handler itself
    // runs with interrupts live (it may wait on the mailbox system and
    // must keep serving incoming requests).
    irq_enable();
    tick(chip_.latency().irq_entry());
    fault_handler_(*this, vaddr, is_write);
    irq_disable();
  }
}

// ---------------------------------------------------------------------------
// virtual plane

void Core::vread(u64 vaddr, void* out, u32 size) {
  ++counters_.loads;
  u8* dst = static_cast<u8*>(out);
  while (size > 0) {
    const u32 line_off = static_cast<u32>(vaddr & (kLineBytes - 1));
    const u32 seg = std::min(size, kLineBytes - line_off);
    // translate() returns with interrupts masked; the commit below is
    // therefore atomic against interrupt handlers, the way a real load
    // instruction is. Without this, an ownership transfer served
    // mid-commit could unmap the page between translation and the data
    // movement.
    const Translation tr = translate(vaddr, /*is_write=*/false);
    read_path(tr.paddr, dst, seg, tr.policy);
    irq_enable();
    vaddr += seg;
    dst += seg;
    size -= seg;
  }
}

void Core::vwrite(u64 vaddr, const void* src, u32 size) {
  ++counters_.stores;
  const u8* s = static_cast<const u8*>(src);
  while (size > 0) {
    const u32 line_off = static_cast<u32>(vaddr & (kLineBytes - 1));
    const u32 seg = std::min(size, kLineBytes - line_off);
    const Translation tr = translate(vaddr, /*is_write=*/true);
    write_path(tr.paddr, s, seg, tr.policy);
    irq_enable();
    vaddr += seg;
    s += seg;
    size -= seg;
  }
}

void Core::irq_enable() {
  assert(irq_mask_depth_ > 0);
  --irq_mask_depth_;
  deliver_deferred();
}

void Core::deliver_deferred() {
  if (pending_irq_check_ && irq_mask_depth_ == 0 && !in_irq_) {
    pending_irq_check_ = false;
    deliver_interrupts();
  }
}

// ---------------------------------------------------------------------------
// physical plane

void Core::pread(u64 paddr, void* out, u32 size, MemPolicy pol) {
  u8* dst = static_cast<u8*>(out);
  while (size > 0) {
    const u32 line_off = static_cast<u32>(paddr & (kLineBytes - 1));
    const u32 seg = std::min(size, kLineBytes - line_off);
    read_path(paddr, dst, seg, pol);
    paddr += seg;
    dst += seg;
    size -= seg;
  }
}

void Core::pwrite(u64 paddr, const void* src, u32 size, MemPolicy pol) {
  const u8* s = static_cast<const u8*>(src);
  while (size > 0) {
    const u32 line_off = static_cast<u32>(paddr & (kLineBytes - 1));
    const u32 seg = std::min(size, kLineBytes - line_off);
    write_path(paddr, s, seg, pol);
    paddr += seg;
    s += seg;
    size -= seg;
  }
}

// ---------------------------------------------------------------------------
// cache pipeline (per-segment: never straddles a line)

void Core::read_path(u64 paddr, void* out, u32 size, MemPolicy pol) {
  switch (pol) {
    case MemPolicy::kUncached: {
      ++counters_.uncached_ops;
      tick(device_read(paddr, out, size));
      return;
    }
    case MemPolicy::kMpbt: {
      // Loads must observe this core's own buffered stores: forward when
      // fully dirty, otherwise drain the buffer first.
      if (wcb_.overlaps(paddr, size)) {
        if (wcb_.forward(paddr, out, size)) {
          tick(chip_.latency().l1_hit());
          return;
        }
        flush_wcb();
      }
      if (l1_.read(paddr, out, size)) {
        ++counters_.l1_hits;
        tick(chip_.latency().l1_hit());
        return;
      }
      ++counters_.l1_misses;
      // Read-allocate the full line from the device; MPBT bypasses L2.
      u8 line[kLineBytes];
      const u64 la = l1_.line_addr(paddr);
      tick(device_read(la, line, kLineBytes));
      l1_.fill(la, line, /*mpbt=*/true);
      std::memcpy(out, line + (paddr - la), size);
      return;
    }
    case MemPolicy::kCachedWT: {
      if (l1_.read(paddr, out, size)) {
        ++counters_.l1_hits;
        tick(chip_.latency().l1_hit());
        return;
      }
      ++counters_.l1_misses;
      u8 line[kLineBytes];
      const u64 la = l1_.line_addr(paddr);
      if (l2_.read(la, line, kLineBytes)) {
        ++counters_.l2_hits;
        tick(chip_.latency().l2_hit());
      } else {
        ++counters_.l2_misses;
        tick(device_read(la, line, kLineBytes));
        l2_.fill(la, line, /*mpbt=*/false);
      }
      l1_.fill(la, line, /*mpbt=*/false);
      std::memcpy(out, line + (paddr - la), size);
      return;
    }
  }
}

void Core::write_path(u64 paddr, const void* src, u32 size, MemPolicy pol) {
  switch (pol) {
    case MemPolicy::kUncached: {
      ++counters_.uncached_ops;
      tick(device_write(paddr, src, size));
      return;
    }
    case MemPolicy::kMpbt: {
      // Write-through into a present L1 line keeps our own reads coherent
      // with the combine buffer (no allocate on miss).
      if (l1_.write(paddr, src, size)) {
        tick(chip_.latency().store_hit());
      }
      auto flush = wcb_.store(paddr, src, size);
      if (flush.has_value()) {
        ++counters_.wcb_flushes;
        tick(device_write_masked(flush->line_addr, flush->data,
                                 flush->size, flush->dirty_mask));
        flush = wcb_.store(paddr, src, size);
        assert(!flush.has_value());
      }
      ++counters_.wcb_merges;
      tick(chip_.latency().wcb_merge());
      return;
    }
    case MemPolicy::kCachedWT: {
      // Plain write-through: update any present copies, pay the full
      // downstream write (this is the "like uncachable memory" store path
      // of Section 7.2.2 — no combine buffer without the MPBT type).
      if (l1_.write(paddr, src, size)) {
        tick(chip_.latency().store_hit());
      }
      l2_.write(paddr, src, size);
      tick(device_write(paddr, src, size));
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// devices

TimePs Core::device_latency(const PhysTarget& t, u64 paddr, bool is_write) {
  const LatencyModel& lat = chip_.latency();
  switch (t.kind) {
    case MemKind::kSharedDram:
    case MemKind::kPrivateDram: {
      const int hops = topo_->hops_core_to_mc(id_, t.owner);
      const TimePs queue = chip_.mc_queue_delay(t.owner, actor_->clock());
      if (is_write) {
        ++counters_.dram_writes;
        return lat.dram_write(hops) + queue;
      }
      ++counters_.dram_reads;
      return lat.dram_access(hops) + queue;
    }
    case MemKind::kMpb: {
      const int hops = topo_->hops_between_cores(id_, t.owner);
      if (is_write) {
        ++counters_.mpb_writes;
        return lat.mpb_write(hops);
      }
      ++counters_.mpb_reads;
      return lat.mpb_access(hops);
    }
    case MemKind::kTas:
    case MemKind::kInvalid:
      break;
  }
  die("access to unmapped physical address", paddr);
}

TimePs Core::device_read(u64 paddr, void* out, u32 size) {
  const PhysTarget t = chip_.map().decode(paddr);
  const TimePs cost = device_latency(t, paddr, /*is_write=*/false);
  chip_.memory().read(paddr, t, out, size);
  // kCatMem is the firehose category (--trace-mem): off even under a
  // plain --trace, so the bus drops this by default.
  publish(obs::EventKind::kMemRead, paddr, size, mem_target(t));
  return cost;
}

TimePs Core::device_write(u64 paddr, const void* src, u32 size) {
  const PhysTarget t = chip_.map().decode(paddr);
  const TimePs cost = device_latency(t, paddr, /*is_write=*/true);
  chip_.memory().write(paddr, t, src, size);
  if (t.kind == MemKind::kMpb) chip_.mpb_written(paddr, size);
  publish(obs::EventKind::kMemWrite, paddr, size, mem_target(t));
  return cost;
}

TimePs Core::device_write_masked(u64 paddr, const void* src, u32 size,
                                 u64 mask) {
  const PhysTarget t = chip_.map().decode(paddr);
  const TimePs cost = device_latency(t, paddr, /*is_write=*/true);
  chip_.memory().write_masked(paddr, t, src, size, mask);
  if (t.kind == MemKind::kMpb) chip_.mpb_written(paddr, size);
  return cost;
}

// ---------------------------------------------------------------------------
// special ops

void Core::cl1invmb() {
  ++counters_.cl1invmb_count;
  l1_.invalidate_mpbt();
  tick(chip_.latency().cl1invmb());
}

void Core::flush_wcb() {
  auto flush = wcb_.flush();
  if (!flush.has_value()) return;
  ++counters_.wcb_flushes;
  tick(device_write_masked(flush->line_addr, flush->data, flush->size,
                           flush->dirty_mask));
  publish(obs::EventKind::kWcbFlush, flush->line_addr, flush->size);
}

TimePs Core::tas_cost(int reg) const {
  const int hops =
      topo_->hops(topo_->coord_of_core(id_), topo_->coord_of_core(reg));
  return chip_.latency().tas_access(hops);
}

bool Core::tas_read(int reg) {
  if (!chip_.memory().tas_read_acquire(reg, id_)) {
    charge_failed_polls(WatchedWord::tas(reg));
    return false;
  }
  ++counters_.tas_acquires;
  return true;
}

void Core::tas_release(int reg) {
  tick(tas_cost(reg));
  chip_.release_tas(reg);
}

// ---------------------------------------------------------------------------
// watched words

bool Core::poll(const WatchedWord& w) {
  if (w.kind == WatchedWord::Kind::kTas) return tas_try_acquire(w.reg);
  if (w.polls != nullptr) ++*w.polls;
  return pload<u8>(w.paddr, MemPolicy::kUncached) == w.expected;
}

bool Core::word_ready(const WatchedWord& w) const {
  if (w.kind == WatchedWord::Kind::kTas) {
    return chip_.memory().tas_holder(w.reg) < 0;
  }
  u8 v = 0;
  chip_.memory().read(w.paddr, &v, 1);
  return v == w.expected;
}

TimePs Core::poll_cost(const WatchedWord& w) const {
  if (w.kind == WatchedWord::Kind::kTas) return tas_cost(w.reg);
  // What read_path's uncached device read charges for an MPB byte.
  const int owner = chip_.map().decode(w.paddr).owner;
  return chip_.latency().mpb_access(topo_->hops_between_cores(id_, owner));
}

void Core::charge_failed_polls(const WatchedWord& w, u64 n) {
  if (w.kind == WatchedWord::Kind::kTas) {
    counters_.tas_acquires += n;
    counters_.tas_spins += n;
    return;
  }
  counters_.uncached_ops += n;
  counters_.mpb_reads += n;
  if (w.polls != nullptr) *w.polls += n;
}

bool Core::can_park() const {
  return !in_irq_ && irq_mask_depth_ == 0 && !chip_.gic().has_pending(id_) &&
         !chip_.faults().enabled() && !chip_.tracking_deaths() &&
         !chip_.lease_enabled() && !chip_.bus().enabled(obs::kCatMem);
}

// ---------------------------------------------------------------------------
// interrupts out

void Core::raise_ipi(int target) {
  const int hops = topo_->hops_core_to_system_if(id_);
  tick(chip_.latency().gic_access(hops));
  ++counters_.ipis_sent;
  publish(obs::EventKind::kIpiRaise, static_cast<u64>(target));
  sim::FaultInjector& faults = chip_.faults();
  if (faults.enabled()) {
    if (faults.drop_ipi()) {  // lost on the wire: no pending bit
      publish(obs::EventKind::kFaultInject,
              static_cast<u64>(obs::InjectKind::kIpiDrop));
      return;
    }
    const TimePs extra = faults.ipi_extra_delay_ps();
    if (extra > 0) {
      publish(obs::EventKind::kFaultInject,
              static_cast<u64>(obs::InjectKind::kIpiDelay), extra);
      chip_.gic().raise_delayed(target, id_, actor_->clock(), extra);
      return;
    }
  }
  chip_.gic().raise(target, id_, actor_->clock());
}

}  // namespace msvm::scc
