// SvmRuntime — the binding layer between the transport-agnostic protocol
// core (svm/protocol/) and the simulated SCC. One instance per core; it
//
//   * implements proto::MetaStore by issuing uncached ploads/pstores at
//     the SvmDomain's owner-vector / scratchpad / directory addresses,
//   * implements proto::ProtocolEnv by binding message sends/waits to
//     mbox::Mail traffic, page actions to the page table and the
//     CL1INVMB/WCB callbacks, the transfer lock to its TAS register, and
//     modelled costs to Core::compute_cycles,
//   * owns the fault path: the kernel's SVM fault handler enters here,
//     the model-independent first-touch / remap machinery
//     runs here, and everything protocol-shaped is delegated to the
//     CoherencePolicy instance selected from SvmConfig.
//
// The Svm endpoint (svm.hpp) keeps only collectives, barriers and locks.
#pragma once

#include <optional>

#include "mailbox/reliable.hpp"
#include "svm/svm.hpp"

namespace msvm::svm {

class SvmRuntime final : public proto::ProtocolEnv,
                         public proto::MetaStore {
 public:
  SvmRuntime(kernel::Kernel& kernel, mbox::MailboxSystem& mbox,
             SvmDomain& domain);

  SvmRuntime(const SvmRuntime&) = delete;
  SvmRuntime& operator=(const SvmRuntime&) = delete;

  proto::CoherencePolicy& policy() { return *policy_; }
  const proto::CoherencePolicy& policy() const { return *policy_; }

  // ---- per-core region attributes (the region map is the domain's) ----

  /// Region id of `vaddr` in the domain's region map, or
  /// SvmDomain::kNoRegion.
  u16 region_of(u64 vaddr) const;
  /// This core's read-only bit for region `id`. It is per core because
  /// protect_readonly takes effect on each core at its own call: a core
  /// that has not reached the call yet may still write the region. Once
  /// set, the bit stays set.
  bool region_readonly(u16 id) const {
    return id < readonly_.size() && readonly_[id];
  }
  void set_region_readonly(u16 id);

  // ---- fault path (installed as the kernel's SVM fault handler) ----

  void handle_fault(u64 vaddr, bool is_write);

  /// Appends this core's SVM diagnostics (stats, in-flight request,
  /// owner-vector word of the contended page, protocol event ring) to a
  /// watchdog hang report. Reads simulated memory host-side, cost-free.
  void append_hang_report(std::string& out);

  /// This core's protocol-event ring on the chip's observability bus.
  const obs::EventRing& trace_ring() const;

  // ---- proto::ProtocolEnv ----

  int self() const override { return core_.id(); }
  proto::MetaWord& meta() override { return meta_word_; }
  proto::SvmStats& stats() override { return stats_; }
  /// TraceSink: stamps the record with this core's virtual clock and
  /// publishes it on the chip's observability bus (which keeps it in
  /// this core's ring and fans it out to any attached sinks).
  void trace(const proto::TraceEvent& e) override;
  void send(int dest, const proto::Msg& m) override;
  int multicast(const proto::SharerSet& dests, const proto::Msg& m) override;
  proto::Msg wait_match(proto::MsgType type, u64 page) override;
  void yield() override;
  void flush_wcb() override;
  void cl1invmb() override;
  void map_page(u64 page, u16 frame, bool writable) override;
  void unmap_page(u64 page) override;
  void downgrade_page(u64 page) override;
  void transfer_lock(u64 page) override;
  void transfer_unlock(u64 page) override;
  void page_seal(u64 page, bool exclusive) override;
  void page_verify(u64 page) override;
  void irq_off() override;
  void irq_on() override;
  void cost_cycles(u32 cycles) override;
  void hw_count(proto::HwEvent event, u64 delta) override;
  void warn(const char* message) override;

  // ---- proto::MetaStore (uncached simulated-memory words) ----

  /// One uncached simulated transaction per word; a directory entry's
  /// words sit 8 bytes apart from sharer_entry_paddr(page).
  u64 load(proto::MetaKind kind, u64 page, int word) override;
  void store(proto::MetaKind kind, u64 page, int word, u64 value) override;

 private:
  /// Converts an incoming protocol mail and hands it to the policy.
  void dispatch_mail(const mbox::Mail& mail);

  /// One request this core originated and has not been fully acked:
  /// the stamped mail for idempotent retransmission, plus the set of
  /// destinations still owing an ACK (a single member for unicast
  /// requests, the sharer set for an invalidation multicast).
  struct PendingRequest {
    mbox::Mail mail;        // exactly as first sent (arg16 = seq)
    proto::SharerSet awaiting;
    u64 page = 0;
    u16 seq = 0;
    proto::MsgType ack_type = proto::MsgType::kOwnershipAck;
  };

  /// Receiver-side ACK filter: drops duplicates (same sender, type,
  /// page, seq) so a retransmitted or fault-duplicated ACK can never be
  /// counted twice against a multicast wait; survivors go to the inbox.
  void on_ack_mail(const mbox::Mail& mail);

  /// Re-sends the pending request to every destination still owing an
  /// ACK. try_send only: when the original mail still sits in the slot
  /// it is still deliverable and a duplicate deposit must not clobber
  /// unrelated traffic.
  void retransmit_pending();

  // ---- fail-stop recovery (the robustness PR; see protocol/recovery.hpp)

  /// Called from the bounded wait's timeout path: if a peer still owing
  /// an ACK — or the recorded owner of the awaited page — is dead past
  /// its lease, repairs the page under the transfer lock we already hold
  /// and returns the dead peer's ACK, synthesized. Returns nullopt when
  /// no relevant core is dead; throws SvmDataLossError when the repair
  /// (or an earlier one) poisoned the page.
  std::optional<mbox::Mail> try_dead_peer_recovery();

  /// Binding wrapper around proto::recover_page: computes the dead set
  /// and the dead owner's dirty-WCB verdict from the chip, fences the
  /// domain's recovery epoch, and publishes kRecoveryBegin/End.
  proto::RecoveryAction run_page_recovery(u64 page, int dead_core);

  /// True when `page`'s recorded owner is dead and its write-combine
  /// buffer died holding a line inside this page's frame.
  bool dead_owner_died_dirty(u64 page);

  /// Releases any transfer locks this core still holds (data-loss throw
  /// unwinding out of a protocol flow that is not exception-aware).
  void release_held_transfer_locks();

  /// A core's first mapping of a page, under the scratchpad lock: first
  /// touch chip-wide, or a mapping of the frame another core allocated;
  /// the model-dependent tail is delegated to the policy. (A Strong
  /// re-fault remaps from its own PTE, see handle_fault.)
  void mapping_fault(u64 vaddr, u64 page_idx, bool is_write);

  /// Frames come from the preferred controller's quarter while it lasts,
  /// then fall back round-robin — the NUMA-style placement of Sec. 6.3.
  u16 alloc_frame_near(int preferred_mc);
  void zero_frame(u16 frame_no);
  void install_mapping(u64 page_vaddr, u16 frame_no, bool writable);
  /// Installs the read-only-region mapping (L2-cacheable, Section 6.4).
  void map_readonly(u64 page_vaddr, u16 frame_no);
  u64 page_index_of(u64 vaddr) const;
  u64 page_vaddr_of(u64 page_idx) const;

  // ---- integrity layer (armed only; see DESIGN.md §15) ----

  /// Host-side CRC32C of the frame at simulated physical `frame_base`.
  u32 frame_crc(u64 frame_base);
  /// The CRC-mismatch tail of page_verify and scrub_tick: marks `page`
  /// permanently lost. Owner word := kOwnerCorrupt (a traced metadata
  /// store, so the auditor and the ECC shadow both see the poison);
  /// publishes kPageCorrupt.
  void poison_page(u64 page, u32 gen);
  /// The frame number the scratchpad publishes for `page`, read
  /// host-side at no simulated cost; 0 before first touch.
  u16 published_frame(u64 page);
  /// One metadata word through the flipmeta + ECC-shadow pipeline.
  u64 meta_load_word(u64 paddr, u32 bits, proto::MetaKind kind, u64 page);
  void meta_store_word(u64 paddr, u64 value, u32 bits, u64 page);
  /// Simulated physical address of word `word` of `page`'s metadata
  /// entry of `kind`.
  u64 meta_paddr(proto::MetaKind kind, u64 page, int word) const;
  /// Timer hook (registered only when the plan sets scrub_ps): walks a
  /// bounded slice of this core's sealed pages per period, poisoning any
  /// frame that no longer matches its seal.
  void scrub_tick();

  kernel::Kernel& kernel_;
  mbox::MailboxSystem& mbox_;
  SvmDomain& domain_;
  scc::Core& core_;

  proto::MetaWord meta_word_;
  proto::SvmStats stats_;
  std::unique_ptr<proto::CoherencePolicy> policy_;

  // Private batch of contiguous frames (see alloc_frame_near).
  u16 frame_batch_next_ = 0;
  u16 frame_batch_end_ = 0;

  std::vector<bool> readonly_;  // by region id; grown on first set

  // ---- protocol-mail resilience (all host-side bookkeeping) ----

  u16 serving_seq_ = 0;  // seq of the request currently being served;
                         // forwards and ACKs echo it so the chain keeps
                         // the originator's sequence number end to end
  std::optional<PendingRequest> pending_;
  /// Request sequence stamping + bounded recent-ACK dedup (wrap and
  /// eviction semantics live in mailbox/reliable.hpp, where they are
  /// unit-tested directly).
  mbox::AckRing acks_;

  // ---- integrity layer state (all inert unless integrity_) ----

  bool integrity_ = false;  // latched from FaultPlan::integrity_armed()
  TimePs scrub_period_ps_ = 0;
  TimePs next_scrub_ps_ = 0;
  u64 scrub_cursor_ = 0;   // resumes the bounded walk across passes
  int scrub_rank_ = 0;     // this core's index among the domain members
  int scrub_stride_ = 1;   // member count (each core scrubs its slice)
};

}  // namespace msvm::svm
