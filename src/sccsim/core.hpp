// One simulated SCC core: the P54C-style memory pipeline (L1, L2, write-
// combine buffer, page-table translation) plus interrupt delivery and the
// binding to its scheduler actor.
//
// Two access planes are exposed:
//   - vload/vstore/vread/vwrite: *virtual* addresses, translated through
//     this core's private page table; a missing/forbidden mapping vectors
//     into the registered fault handler (the SVM layer) exactly like a
//     hardware page fault, at any call depth.
//   - pread/pwrite: *physical* addresses with an explicit memory policy;
//     this is the plane kernel code (mailboxes, scratchpad, owner vector)
//     uses, mirroring MetalSVM's kernel running on identity mappings.
//
// All latency accounting funnels through tick(), which also delivers
// timer/IPI interrupts at access boundaries and bounds virtual-time skew
// between cores via the scheduler's maybe_yield.
#pragma once

#include <array>
#include <cstring>
#include <functional>
#include <string>

#include "obs/bus.hpp"
#include "sccsim/addrmap.hpp"
#include "sccsim/cache.hpp"
#include "sccsim/config.hpp"
#include "sccsim/counters.hpp"
#include "sccsim/gic.hpp"
#include "sccsim/mesh.hpp"
#include "sccsim/pagetable.hpp"
#include "sccsim/wcb.hpp"
#include "sim/scheduler.hpp"
#include "sim/types.hpp"

namespace msvm::scc {

class Chip;

/// How an access moves through the cache hierarchy.
enum class MemPolicy : u8 {
  kUncached,   // straight to the device, no caching
  kMpbt,       // MPBT type: L1 write-through + WCB, bypasses L2
  kCachedWT,   // L1 + L2, write-through, read-allocate only
};

/// The word a spin wait polls: a Test-and-Set register (ready when a
/// test-and-set would acquire it) or an MPB byte read uncached (ready when
/// it holds `expected`). `polls`, when set, is a caller counter bumped on
/// every read of the byte (e.g. Rcce::flag_polls).
struct WatchedWord {
  enum class Kind : u8 { kTas, kMpbByte };

  Kind kind = Kind::kTas;
  int reg = 0;           // kTas
  u64 paddr = 0;         // kMpbByte
  u8 expected = 0;       // kMpbByte
  u64* polls = nullptr;  // kMpbByte

  static WatchedWord tas(int reg) {
    WatchedWord w;
    w.reg = reg;
    return w;
  }
  static WatchedWord mpb_byte(u64 paddr, u8 expected,
                              u64* polls = nullptr) {
    WatchedWord w;
    w.kind = Kind::kMpbByte;
    w.paddr = paddr;
    w.expected = expected;
    w.polls = polls;
    return w;
  }
};

class Core {
 public:
  Core(Chip& chip, int id);

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  int id() const { return id_; }
  Chip& chip() { return chip_; }

  // ---- virtual-address (application) plane ----

  template <typename T>
  T vload(u64 vaddr) {
    T out;
    if (!vread_fast(vaddr, &out)) vread(vaddr, &out, sizeof(T));
    return out;
  }

  template <typename T>
  void vstore(u64 vaddr, T value) {
    if (!vwrite_fast(vaddr, &value)) vwrite(vaddr, &value, sizeof(T));
  }

  void vread(u64 vaddr, void* out, u32 size);
  void vwrite(u64 vaddr, const void* src, u32 size);

  // ---- physical (kernel) plane ----

  template <typename T>
  T pload(u64 paddr, MemPolicy pol) {
    T out;
    pread(paddr, &out, sizeof(T), pol);
    return out;
  }

  template <typename T>
  void pstore(u64 paddr, T value, MemPolicy pol) {
    pwrite(paddr, &value, sizeof(T), pol);
  }

  void pread(u64 paddr, void* out, u32 size, MemPolicy pol);
  void pwrite(u64 paddr, const void* src, u32 size, MemPolicy pol);

  // ---- special instructions / registers ----

  /// CL1INVMB: invalidates every MPBT-tagged L1 line.
  void cl1invmb();

  /// Drains the write-combine buffer to memory.
  void flush_wcb();

  /// One attempt on the Test-and-Set register `reg` (a read): true when
  /// the lock was free and is now held by this core.
  bool tas_try_acquire(int reg) {
    tick(tas_cost(reg));
    return tas_read(reg);
  }

  /// The read half of tas_try_acquire: the test-and-set itself, its
  /// access latency already charged. A successful read records this core
  /// as the register's holder (Memory::tas_holder).
  bool tas_read(int reg);

  /// Releases Test-and-Set register `reg` (a write).
  void tas_release(int reg);

  /// Raises an IPI on `target` through the Global Interrupt Controller.
  void raise_ipi(int target);

  // ---- watched words (kernel::spin_wait) ----

  /// One poll of `w`, charged like any access: tas_try_acquire, or an
  /// uncached load of the byte. True when the word was ready.
  bool poll(const WatchedWord& w);

  /// Host-side peek: would a poll of `w` at this host moment succeed?
  /// Zero simulated cost, no state change.
  bool word_ready(const WatchedWord& w) const;

  /// Access latency of one poll of `w`.
  TimePs poll_cost(const WatchedWord& w) const;

  /// The counters of `n` failed polls of `w` (tas_acquires + tas_spins,
  /// or uncached_ops + mpb_reads + *polls). A failed poll changes no
  /// memory, so these are all it leaves behind.
  void charge_failed_polls(const WatchedWord& w, u64 n = 1);

  /// True when a spin wait on this core may park (sim::Scheduler::park):
  /// no handler is running and interrupts are live, no IPI is pending,
  /// and nothing acts or publishes inside an access (fault injection,
  /// fail-stop or lease tracking, the kCatMem firehose).
  bool can_park() const;

  /// The time state a parked wait's poll train starts from.
  TimePs next_timer() const { return next_timer_; }
  TimePs next_boundary() const { return next_boundary_; }
  TimePs boundary_interval() const { return boundary_interval_ps_; }

  /// What a parked wait's failed polls left behind, charged at its
  /// resume: `polls` failed polls of `w`, `busy_ps` of spin time, and the
  /// boundary the last tick re-armed.
  void charge_parked(const WatchedWord& w, u64 polls, TimePs busy_ps,
                     TimePs next_boundary) {
    charge_failed_polls(w, polls);
    counters_.busy_ps += busy_ps;
    next_boundary_ = next_boundary;
  }

  // ---- time ----

  TimePs now() const { return actor_->clock(); }

  // ---- observability ----

  /// Publishes one event on the chip's bus, stamped with this core's
  /// virtual clock and id. Host-side only: it never moves the clock, and
  /// the bus drops the event when its kind's category is off.
  [[gnu::always_inline]] inline void publish(obs::EventKind kind, u64 a = 0,
                                             u64 b = 0, u64 c = 0) {
    bus_->publish(kind, id_, actor_->clock(), a, b, c);
  }

  /// Charges pure compute time (ALU/FPU work between memory accesses).
  void compute_cycles(u64 core_cycles);

  /// Cooperatively yields to earlier cores (cheap when already earliest).
  void yield();

  /// Halts until the next interrupt (IPI or timer) is delivered, then
  /// returns. Models the kernel idle "hlt".
  void halt();

  /// Sleeps for `gap` of virtual time (or until an IPI arrives, whichever
  /// is first), then delivers pending interrupts. Used by spin loops as a
  /// scheduler-friendly backoff: semantically a bounded pause, but it
  /// releases the host scheduler instead of churning through yields.
  void relax(TimePs gap);

  /// The second half of relax(): accounts the sleep that began at
  /// `slept_at` as spin time and delivers pending interrupts. For wait
  /// loops that block on their own (kernel::spin_wait).
  void wake_from_relax(TimePs slept_at);

  // ---- kernel integration ----

  using FaultHandler = std::function<void(Core&, u64 vaddr, bool is_write)>;
  using TimerHandler = std::function<void(Core&)>;
  using IpiHandler = std::function<void(Core&, const IpiSourceSet& sources)>;

  void set_fault_handler(FaultHandler h) { fault_handler_ = std::move(h); }
  void set_timer_handler(TimerHandler h) { timer_handler_ = std::move(h); }
  void set_ipi_handler(IpiHandler h) { ipi_handler_ = std::move(h); }

  bool in_interrupt() const { return in_irq_; }

  /// Masks interrupt delivery (cli/sti, nestable). A delivery opportunity
  /// that passes while masked fires at the final irq_enable(), like a
  /// pending interrupt after sti. Used to make memory-access commits and
  /// mailbox slot claims atomic against handlers, the way instructions
  /// are on real hardware.
  void irq_disable() { ++irq_mask_depth_; }
  void irq_enable();
  bool irqs_masked() const { return irq_mask_depth_ > 0; }

  PageTable& pagetable() { return pagetable_; }
  const PageTable& pagetable() const { return pagetable_; }
  CoreCounters& counters() { return counters_; }
  const CoreCounters& counters() const { return counters_; }
  Cache& l1() { return l1_; }
  Cache& l2() { return l2_; }
  WriteCombineBuffer& wcb() { return wcb_; }

  /// Scheduler binding (installed by Chip::spawn_program).
  void bind_actor(sim::Actor* actor);
  sim::Actor* actor() { return actor_; }

  /// Charges `cost` picoseconds and performs boundary work (interrupt
  /// delivery, cooperative yield) when due. Public so that higher layers
  /// (mailbox slot checks, kernel entry costs) can charge modelled
  /// software overheads.
  void tick(TimePs cost);

 private:
  // ---- inlined fast path -----------------------------------------------
  //
  // An L1 hit whose cost fits inside the current boundary interval is a
  // pure header-only operation: translation, tag check, LRU stamp, byte
  // copy, clock advance. Translation is a TLB hit, or a TLB miss on a
  // present page (for stores: writable and MPBT), whose walk is charged,
  // counted and filled through tlb_probe/tlb_fill exactly as translate()
  // does. The path never touches the Mesh/latency machinery, never masks
  // interrupts (no boundary can fall inside the access, walk included, so
  // masking would be a no-op), and publishes no bus events (only device
  // transactions do). Every pre-condition is checked before any state is
  // mutated, so a bail-out to the slow path is free, and the slow path
  // then performs the access bit- and cycle-identically.
  //
  // Invariant (pinned by tests/sccsim/core_fastpath_test.cpp): for any
  // access, fast path taken or not, counters, clocks, TLB, cache/LRU
  // state and data movement are identical to the slow path's.

  template <typename T>
  [[gnu::always_inline]] inline bool vread_fast(u64 vaddr, T* out) {
    constexpr u32 size = sizeof(T);
    const u32 off = static_cast<u32>(vaddr & kLineOffMask);
    if (off + size > kLineOffMask + 1) return false;  // straddles a line
    const u64 vpage = vaddr >> kPageShift;
    const Pte* pte = tlb_probe(vpage);
    const bool walk = pte == nullptr;
    if (walk) pte = pagetable_.find(vaddr);
    if (pte == nullptr || !pte->present) return false;
    const u64 paddr = pte->frame_paddr + (vaddr & kPageOffMask);
    // Buffered stores must be observed; any WCB overlap is slow-path work
    // (forward or drain). Only MPBT loads consult the WCB.
    if (pte->mpbt && wcb_.overlaps(paddr, size)) return false;
    const TimePs cost = (walk ? lat_tlb_walk_ps_ : 0) + lat_l1_hit_ps_;
    if (actor_->clock() + cost >= next_boundary_) return false;
    const u8* bytes = l1_.hit_bytes(paddr);
    if (bytes == nullptr) return false;
    // Commit: replicate the slow path's counters and timing exactly.
    count_translation(vpage, *pte, walk);
    std::memcpy(out, bytes + off, size);
    ++counters_.loads;
    ++counters_.l1_hits;
    counters_.busy_ps += cost;
    actor_->advance(cost);
    return true;
  }

  template <typename T>
  [[gnu::always_inline]] inline bool vwrite_fast(u64 vaddr, const T* src) {
    constexpr u32 size = sizeof(T);
    const u32 off = static_cast<u32>(vaddr & kLineOffMask);
    if (off + size > kLineOffMask + 1) return false;  // straddles a line
    const u64 vpage = vaddr >> kPageShift;
    const Pte* pte = tlb_probe(vpage);
    const bool walk = pte == nullptr;
    if (walk) pte = pagetable_.find(vaddr);
    if (pte == nullptr || !pte->present || !pte->writable) return false;
    // Only the MPBT write path stays on-core (WCB merge); write-through
    // CachedWT stores always pay a device transaction — slow path.
    if (!pte->mpbt) return false;
    const u64 paddr = pte->frame_paddr + (vaddr & kPageOffMask);
    // Mergeable only when the WCB is empty or already holds this line;
    // anything else must flush downstream first — slow path.
    if (wcb_.valid() && wcb_.line_addr() != (paddr & ~kLineOffMask)) {
      return false;
    }
    // Bound the cost by the worst case (store-hit + merge) so the check
    // is independent of whether L1 holds the line; a near-boundary store
    // that would still have fit simply takes the slow path.
    const TimePs walk_ps = walk ? lat_tlb_walk_ps_ : 0;
    if (actor_->clock() + walk_ps + lat_store_hit_ps_ + lat_wcb_merge_ps_ >=
        next_boundary_) {
      return false;
    }
    count_translation(vpage, *pte, walk);
    TimePs cost = walk_ps + lat_wcb_merge_ps_;
    if (u8* bytes = l1_.hit_bytes(paddr)) {  // write-through into L1
      std::memcpy(bytes + off, src, size);
      cost += lat_store_hit_ps_;
    }
    wcb_.merge(paddr & ~kLineOffMask, off, src, size);
    ++counters_.stores;
    ++counters_.wcb_merges;
    counters_.busy_ps += cost;
    actor_->advance(cost);
    return true;
  }

  /// A fast path's translation, once it commits: a TLB hit counts; a walk
  /// counts a miss and fills the slot, as translate() does (its cost is
  /// the caller's to charge).
  [[gnu::always_inline]] inline void count_translation(u64 vpage,
                                                       const Pte& pte,
                                                       bool walk) {
    if (!walk) {
      ++counters_.tlb_hits;
      return;
    }
    ++counters_.tlb_misses;
    tlb_fill(vpage, pte);
  }

  // Translation outcome for one access segment.
  struct Translation {
    u64 paddr;
    MemPolicy policy;
  };

  Translation translate(u64 vaddr, bool is_write);

  /// The one TLB probe (fast paths and translate()): the present mapping
  /// cached for `vpage`, or nullptr. Every entry is stale while the page
  /// table's epoch differs from the one the TLB was filled under.
  [[gnu::always_inline]] inline const Pte* tlb_probe(u64 vpage) const {
    if (tlb_epoch_ != pagetable_.epoch()) return nullptr;
    const TlbEntry& slot = tlb_[vpage % kTlbEntries];
    return slot.vpage == vpage && slot.pte.present ? &slot.pte : nullptr;
  }
  /// The one TLB fill, after a walk: first the epoch sync (drop every
  /// entry cached under an older epoch), then the slot for `vpage`.
  void tlb_fill(u64 vpage, const Pte& pte);

  /// Access latency of one test-and-set of register `reg`.
  TimePs tas_cost(int reg) const;
  static MemPolicy policy_of(const Pte& pte);

  void read_path(u64 paddr, void* out, u32 size, MemPolicy pol);
  void write_path(u64 paddr, const void* src, u32 size, MemPolicy pol);

  /// One device transaction (<= one line), its address decoded once.
  /// Returns its latency.
  TimePs device_read(u64 paddr, void* out, u32 size);
  TimePs device_write(u64 paddr, const void* src, u32 size);
  TimePs device_write_masked(u64 paddr, const void* src, u32 size,
                             u64 mask);
  TimePs device_latency(const PhysTarget& t, u64 paddr, bool is_write);

  void deliver_interrupts();
  void deliver_deferred();
  void boundary();

  Chip& chip_;
  const Topology* topo_;  // cached for the device-latency hot path
  obs::EventBus* bus_;    // cached for publish()
  int id_;
  sim::Actor* actor_ = nullptr;

  Cache l1_;
  Cache l2_;
  WriteCombineBuffer wcb_;
  PageTable pagetable_;
  CoreCounters counters_;

  FaultHandler fault_handler_;
  TimerHandler timer_handler_;
  IpiHandler ipi_handler_;

  bool in_irq_ = false;
  bool pending_irq_check_ = false;
  int irq_mask_depth_ = 0;
  TimePs next_timer_ = 0;
  TimePs next_boundary_ = 0;
  TimePs timer_period_ps_ = 0;
  TimePs boundary_interval_ps_ = 0;

  // Constants cached at construction for the inlined fast path and tick
  // callers (the latency model composes them from ChipConfig once; they
  // never change during a run, and no access divides to get them).
  TimePs core_cycle_ps_ = 0;
  TimePs lat_tlb_walk_ps_ = 0;
  TimePs lat_l1_hit_ps_ = 0;
  TimePs lat_store_hit_ps_ = 0;
  TimePs lat_wcb_merge_ps_ = 0;

  static constexpr u64 kLineOffMask = kLineBytes - 1;
  static constexpr u64 kPageOffMask = kPageBytes - 1;

  // The modelled TLB: 64 entries, direct-mapped on vpage, invalidated
  // wholesale whenever the page table's epoch moves (tlb_probe/tlb_fill).
  // A hit is free; a miss charges kTlbMissCycles for the walk, on the
  // fast path when the walk and the L1 hit fit before the next boundary,
  // otherwise in translate().
  struct TlbEntry {
    u64 vpage = ~u64{0};
    Pte pte;
  };
  static constexpr std::size_t kTlbEntries = 64;
  std::array<TlbEntry, kTlbEntries> tlb_;
  u64 tlb_epoch_ = ~u64{0};
};

}  // namespace msvm::scc
