// ProtocolEnv — the seam between the coherence-protocol core and the
// world. Policies (policy.hpp) are written as linear, blocking protocol
// code, but every effect — a metadata word, a message, a page-table or
// cache action, a lock, a modelled cost — goes through this interface.
//
// Two implementations exist:
//   * svm::Svm (svm/svm.hpp), one per core: binds the env to the simulated
//     SCC — uncached ploads/pstores for metadata, mailbox mails for
//     messages, CL1INVMB/WCB/page-table callbacks, TAS transfer locks.
//   * the deterministic protocol harness (tests/svm/protocol_harness.hpp):
//     scripted message queues and plain arrays, so protocol interleavings
//     become table-driven unit tests with no fibers and no chip.
#pragma once

#include "svm/protocol/meta.hpp"
#include "svm/protocol/types.hpp"

namespace msvm::svm::proto {

class ProtocolEnv : public TraceSink {
 public:
  ~ProtocolEnv() override = default;

  /// This core's chip-wide id (the id protocol metadata speaks).
  virtual int self() const = 0;

  /// Typed metadata accessor (owner vector / scratchpad / directory).
  virtual MetaWord& meta() = 0;

  /// Per-core protocol statistics to update.
  virtual SvmStats& stats() = 0;

  /// Protocol-event sink (inherited from TraceSink): the binding layer
  /// forwards records to the observability event bus (which keeps the
  /// per-core ring dumped on errors), the harness to a plain log.
  ///   virtual void trace(const TraceEvent& e) = 0;

  // ---- transport ----

  /// Sends a protocol message to `dest` (blocking until deposited).
  virtual void send(int dest, const Msg& m) = 0;

  /// Sends `m` to every core in `dests`, excluding this core. Returns
  /// the number of messages sent. Set-typed (not a u64 mask) so the
  /// invalidation fan-out works on directories wider than 64 cores.
  virtual int multicast(const SharerSet& dests, const Msg& m) = 0;

  /// Blocks until a message of `type` for `page` arrives, draining and
  /// dispatching unrelated protocol traffic meanwhile.
  virtual Msg wait_match(MsgType type, u64 page) = 0;

  /// One cooperative scheduling step (the owner-vector polling fallback
  /// spins on metadata and must let other cores run in between).
  virtual void yield() = 0;

  // ---- local page / cache actions ----

  /// Flushes the write-combine buffer (release semantics).
  virtual void flush_wcb() = 0;

  /// Invalidates the MPBT-tagged L1 lines (acquire semantics).
  virtual void cl1invmb() = 0;

  /// Installs a mapping for `page` backed by `frame` (MPBT-typed).
  virtual void map_page(u64 page, u16 frame, bool writable) = 0;

  /// Revokes the mapping of `page` (present := false).
  virtual void unmap_page(u64 page) = 0;

  /// Downgrades the mapping of `page` to read-only (stays present).
  virtual void downgrade_page(u64 page) = 0;

  // ---- frame integrity (default no-op: the plain env has no seals) ----

  /// Seals `page`'s frame: records a generation-stamped checksum of the
  /// frame contents at a point where they are quiescent — ownership
  /// handoff after the WCB flush, or an Exclusive -> Shared downgrade.
  /// `exclusive` says nobody holds a mapping at the seal point (the
  /// handoff case: owner unmapped, sharers already invalidated), i.e.
  /// the next toucher is guaranteed to verify before reading — the only
  /// window where the chaos layer may inject frame corruption without
  /// risking a silent wrong read. The protocol core marks the *where*;
  /// the binding layer owns the how (and whether: seals only exist when
  /// the integrity layer is armed).
  virtual void page_seal([[maybe_unused]] u64 page,
                         [[maybe_unused]] bool exclusive) {}

  /// Verifies `page`'s frame against its seal before this core starts
  /// trusting the data (ownership acquired, replica granted). On a
  /// mismatch the binding layer poisons the page and throws
  /// SvmIntegrityError — a verify never returns with bad data mapped.
  virtual void page_verify([[maybe_unused]] u64 page) {}

  // ---- serialisation ----

  /// Acquires/releases the per-page transfer lock that serialises
  /// ownership transfers and directory transitions of `page`.
  virtual void transfer_lock(u64 page) = 0;
  virtual void transfer_unlock(u64 page) = 0;

  /// Masks/unmasks interrupts around check-then-map windows (an incoming
  /// request served in between would unmap the page again).
  virtual void irq_off() = 0;
  virtual void irq_on() = 0;

  // ---- modelled cost and diagnostics ----

  /// Charges `cycles` of modelled software cost to this core.
  virtual void cost_cycles(u32 cycles) = 0;

  /// Raises a hardware-counter event (mapped onto scc::CoreCounters by
  /// the binding layer, onto plain tallies by the harness).
  virtual void hw_count(HwEvent event, u64 delta) = 0;

  /// Rate-limited progress diagnostics (non-converging acquire loops).
  virtual void warn(const char* message) = 0;
};

}  // namespace msvm::svm::proto
