// The per-core MetalSVM kernel substrate.
//
// MetalSVM runs a small bare-metal kernel on every SCC core (Section 4);
// this class is that kernel's simulated counterpart. It owns the boot-time
// memory setup (identity mapping of the core's private DRAM, L1+L2
// cached), a private-heap allocator, and the interrupt dispatch fabric
// that the mailbox system plugs into: "at every interrupt the kernel
// checks all receiving buffers for incoming messages" (Section 5) is
// realised by registering a timer callback, and the GIC path by an IPI
// callback.
#pragma once

#include <functional>
#include <vector>

#include "sccsim/chip.hpp"
#include "sccsim/core.hpp"

namespace msvm::kernel {

/// Tuning for spin_wait below. The backoff is in picoseconds: the first
/// relax gap, doubled after every failed poll up to the cap.
struct SpinWaitOpts {
  TimePs start_ps = 0;
  TimePs cap_ps = 0;
  const char* site = "kernel.spin";  // wait-site label for hang reports
  u64 site_arg = 0;                  // e.g. the contended register/page
  u64 site_arg2 = 0;                 // e.g. the peer core
};

/// The backoff of every TAS spin in the tree: 16 core cycles, doubling
/// to a 4096-cycle cap.
SpinWaitOpts tas_spin_opts(scc::Core& core, const char* site,
                           u64 site_arg = 0);

/// The one wait loop: poll `word`, and after each failure relax for the
/// backoff gap (so the writer can run), then double the gap up to the
/// cap. The wait is annotated as a wait site and checks the chip
/// watchdog, so a word that never becomes ready is a structured hang
/// report instead of a silent livelock; both are host-side only.
///
/// A TAS register whose holder fail-stopped stays set forever. After a
/// failed poll of a TAS word, once a core is dead and the heartbeat
/// lease is on, the waiter forces the register open when its recorded
/// holder (Memory::tas_holder) is dead and presumed so by the lease. The
/// break costs 200 cycles and counts in CoreCounters::tas_locks_broken.
/// Every TAS lock in the tree waits here, so all of them break alike.
///
/// A failed poll parks the core (sim::Scheduler::park) instead of
/// sleeping, where it may: no handler is running, interrupts are live
/// and no IPI is pending, and nothing acts or publishes inside an access
/// (fault injection, kill or lease tracking, the kCatMem firehose). A
/// parked core's later polls would all fail while nobody writes its word,
/// so they are not run: the core holds one event entry, at the first poll
/// that meets a timer tick or a watchdog trip. A TAS release
/// (Chip::release_tas), a store to the watched MPB byte (every store path,
/// WCB flushes included) or an IPI wakes it, at the poll the plain loop
/// would have read the word with, and the skipped polls are charged in
/// closed form: clock, busy time, the failed polls' counters and the
/// backoff. Every clock and counter is what the plain loop produces
/// (DESIGN.md §11, "Spinning cores leave the event order").
void spin_wait(scc::Core& core, const scc::WatchedWord& word,
               const SpinWaitOpts& opts);

/// One endpoint's flag bytes and labels for master_gather_barrier.
struct GatherBarrierFlags {
  u32 arrive = 0;   // MPB offset of the arrival bytes, by core id
  u32 release = 0;  // MPB offset of each member's release byte
  const char* gather_site = "";   // member 0's wait site
  const char* release_site = "";  // every other member's wait site
  u64* polls = nullptr;           // counts every flag poll, if set
};

/// The sense-reversing master-gather barrier over MPB flag bytes. Member
/// 0 waits until every other member's arrival byte in its own MPB holds
/// `sense`, then writes `sense` to each one's release byte; every other
/// member writes its arrival byte and waits on its own release byte.
/// Both waits back off from 200 ns, doubling to a 50 us cap. `sense`
/// flips between 1 and 2 on every call.
void master_gather_barrier(scc::Core& core, const std::vector<int>& members,
                           u8& sense, const GatherBarrierFlags& flags);

class Kernel {
 public:
  explicit Kernel(scc::Core& core);

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  scc::Core& core() { return core_; }
  int core_id() const { return core_.id(); }

  /// Boot-time setup: maps the private region and installs the interrupt
  /// and fault dispatchers on the core. Must run before any other use.
  void boot();

  // ---- private-memory heap (virtual addresses) ----

  /// Allocates `bytes` from this core's private region; returns a virtual
  /// address mapped cacheable (L1 + L2). Never freed (kernel bump heap).
  u64 kmalloc(u64 bytes, u64 align = 8);

  /// Bytes still available in the private heap.
  u64 kheap_remaining() const;

  // ---- interrupt clients ----

  using IpiCallback = std::function<void(const scc::IpiSourceSet& sources)>;
  using TimerCallback = std::function<void()>;

  void add_ipi_handler(IpiCallback cb) {
    ipi_handlers_.push_back(std::move(cb));
  }
  void add_timer_handler(TimerCallback cb) {
    timer_handlers_.push_back(std::move(cb));
  }

  /// SVM page-fault entry: invoked for faults on addresses at or above
  /// kSvmVBase. Faults elsewhere are fatal (a wild access in "kernel"
  /// code).
  using SvmFaultHandler =
      std::function<void(u64 vaddr, bool is_write)>;
  void set_svm_fault_handler(SvmFaultHandler h) {
    svm_fault_handler_ = std::move(h);
  }

  /// Idle step: halts until the next interrupt is delivered.
  void idle_once() { core_.halt(); }

 private:
  scc::Core& core_;
  u64 heap_next_ = 0;
  u64 heap_end_ = 0;
  std::vector<IpiCallback> ipi_handlers_;
  std::vector<TimerCallback> timer_handlers_;
  SvmFaultHandler svm_fault_handler_;
  bool booted_ = false;
};

/// Spin lock over an SCC Test-and-Set register. The register index
/// doubles as the lock identity chip-wide, mirroring how MetalSVM guards
/// its scratch pad "by a lock, which is realized by the SCC-specific
/// Test-And-Set-Registers" (Section 6.3).
class TasSpinlock {
 public:
  explicit TasSpinlock(int reg) : reg_(reg) {}

  int reg() const { return reg_; }

  /// Acquires, cooperatively yielding between failed attempts so other
  /// simulated cores can make progress and release. Exponential backoff
  /// keeps a contended register from hammering the mesh (and keeps the
  /// simulation host-efficient under heavy contention).
  void lock(scc::Core& core) {
    spin_wait(core, scc::WatchedWord::tas(reg_),
              tas_spin_opts(core, "tas.lock", static_cast<u64>(reg_)));
  }

  void unlock(scc::Core& core) { core.tas_release(reg_); }

 private:
  int reg_;
};

/// RAII guard for TasSpinlock.
class TasLockGuard {
 public:
  TasLockGuard(TasSpinlock& lock, scc::Core& core)
      : lock_(lock), core_(core) {
    lock_.lock(core_);
  }
  ~TasLockGuard() { lock_.unlock(core_); }
  TasLockGuard(const TasLockGuard&) = delete;
  TasLockGuard& operator=(const TasLockGuard&) = delete;

 private:
  TasSpinlock& lock_;
  scc::Core& core_;
};

}  // namespace msvm::kernel
