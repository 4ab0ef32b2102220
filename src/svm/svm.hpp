// MetalSVM's shared-virtual-memory subsystem (paper, Section 6) — the
// primary contribution of the reproduced paper.
//
// A collective svm_alloc() reserves virtual address space only; physical
// frames appear on first touch (Section 6.3): the faulting core consults a
// 16-bit per-page entry in the on-die *scratchpad* (carved out of the
// MPBs, guarded by a Test-and-Set lock) to learn whether any core already
// allocated a frame; if not, it allocates one from the region of its
// *nearest memory controller* and publishes the frame number. The 16-bit
// representation is what limits the paper's SVM to 256 MiB of shared
// memory (2^16 frames x 4 KiB).
//
// Two consistency models (Sections 6.1, 6.2):
//
//  * Strong Memory Model — at any time a page has exactly one owner, the
//    only core allowed to read or write it. Ownership lives in an off-die
//    *owner vector*. A permission fault sends an ownership request
//    through the mailbox system; the owner flushes its write-combine
//    buffer, invalidates its MPBT-tagged L1 lines (CL1INVMB), drops its
//    own mapping, publishes the new owner and replies by mail.
//
//  * Lazy Release Consistency — every core maps pages writable; data
//    moves at synchronisation points only (diff-free WCB flushes).
//
// Since the protocol-engine refactor the subsystem is layered:
//
//   svm/protocol/   the transport-agnostic protocol core: the per-page
//                   state machine, CoherencePolicy implementations
//                   (StrongOwnerPolicy / ReadReplicationPolicy /
//                   LrcPolicy), typed metadata ops (MetaWord) and the
//                   TraceSink event seam. No sccsim/sim/mailbox
//                   includes (CI-enforced).
//   svm.* (this)    one Svm object per core: the collectives (alloc,
//                   barrier, protect) and locks the application calls,
//                   and the binding of the protocol core to the chip
//                   (page faults, mbox::Mail traffic, CL1INVMB/WCB
//                   callbacks, the simulated owner-vector/directory/
//                   scratchpad words).
//   svm_domain.cpp  the chip-wide SvmDomain layout.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernel/kernel.hpp"
#include "mailbox/mailbox.hpp"
#include "mailbox/reliable.hpp"
#include "sccsim/chip.hpp"
#include "svm/protocol/policy.hpp"
#include "svm/protocol/recovery.hpp"

namespace msvm::svm {

enum class Model : u8 { kStrong, kLazyRelease };

/// Directory entry layout (read-replication mode) — canonical definitions
/// live in the protocol core; re-exported here for the full-stack tests.
using proto::dir_bit;
using proto::kDirSharedBit;

/// Per-core protocol/runtime statistics (defined in the protocol core so
/// policies can update their slice without seeing runtime headers).
using SvmStats = proto::SvmStats;

/// Fail-stop recovery vocabulary (defined in the protocol core, see
/// svm/protocol/recovery.hpp): the typed data-loss error thrown on any
/// access to a page whose owner died with unflushed writes, and the
/// owner-word sentinel that marks such a page.
using proto::kOwnerLost;
using proto::SvmDataLossError;

/// Data-integrity vocabulary (svm/protocol/recovery.hpp): the typed error
/// thrown on any access to a page that failed checksum verification with
/// no clean copy left, and its owner-word poison sentinel.
using proto::kOwnerCorrupt;
using proto::SvmIntegrityError;

/// Thrown (into the faulting simulated program) on a write to a page
/// protected with protect_readonly() — the debugging aid of Section 6.4.
/// The faulting core's protocol-event trace is dumped to stderr first.
class SvmProtectionError : public std::runtime_error {
 public:
  explicit SvmProtectionError(u64 vaddr)
      : std::runtime_error("write to read-only SVM region"),
        vaddr_(vaddr) {}
  u64 vaddr() const { return vaddr_; }

 private:
  u64 vaddr_;
};

/// Modelled software path costs (core cycles). The two bigger ones are
/// calibrated against the paper's Table 1 (row 1: 741 us per 4 MiB
/// reservation; row 2: ~112 us per physically allocated frame, which
/// on the original kernel includes the allocator walk and page-table
/// bookkeeping beyond the 4 KiB zeroing our memory model charges). The
/// per-step ownership cost is proto::kOwnershipSoftwareCycles.
inline constexpr u32 kAllocRegionCyclesPerPage = 385;
inline constexpr u32 kMapSoftwareCycles = 600;
inline constexpr u32 kFirstTouchSoftwareCycles = 54500;

struct SvmConfig {
  Model model = Model::kLazyRelease;
  /// Requester waits for the ACK mail (paper's design). When false, the
  /// requester instead *polls the off-die owner vector*, reproducing the
  /// authors' earlier prototype [14] that "runs against the memory wall".
  bool ack_via_mail = true;
  /// MSI-style read replication for the Strong model (an extension beyond
  /// the paper): the off-die owner vector is upgraded to a directory entry
  /// {owner, sharer bitmask, Exclusive | Shared}. A read fault installs a
  /// read-only replica after a single grant from the owner (no ownership
  /// transfer, no CL1INVMB on the owner — its write-through L1 is not
  /// stale); a write fault multicasts invalidations to all sharers before
  /// taking exclusive ownership.
  /// Off by default so every paper-reproduction figure stays bit-identical.
  bool read_replication = false;

  /// Fault-injection switches (testing only) — see proto::Sabotage.
  using Sabotage = proto::Sabotage;
  Sabotage sabotage;
};

/// Chip-wide SVM bookkeeping shared by all per-core Svm objects:
/// the simulated-memory layout of the owner vector, the scratchpad and
/// the per-MC frame allocators.
///
/// Several *coherency domains* may coexist on one chip (the paper's
/// Section 1 goal: "a dynamic partitioning of the SCC's computing
/// resources into several coherency domains"): construct one SvmDomain
/// per group with a distinct `slot` out of `num_slots`. Each slot owns a
/// disjoint share of the virtual SVM space (and thus of the scratchpad
/// and owner-vector index ranges); the frame allocators and TAS
/// registers are chip-level resources the domains share.
class SvmDomain {
 public:
  SvmDomain(scc::Chip& chip, SvmConfig cfg, std::vector<int> members,
            int slot = 0, int num_slots = 1);

  const SvmConfig& config() const { return cfg_; }
  const std::vector<int>& members() const { return members_; }
  scc::Chip& chip() { return chip_; }

  // ---- layout queries (simulated physical addresses) ----

  /// First global SVM page index (and thus virtual-address offset) of
  /// this domain's share.
  u64 page_index_base() const { return page_index_base_; }
  u64 vbase() const;
  u64 owner_entry_paddr(u64 page_idx) const;
  u64 scratchpad_entry_paddr(u64 page_idx) const;
  /// First word of `page_idx`'s directory entry (read-replication mode
  /// only; the area exists only when the mode is configured, keeping the
  /// metadata layout — and thus every flag-off run — bit-identical to the
  /// paper's).
  u64 sharer_entry_paddr(u64 page_idx) const;
  u64 mc_counter_paddr(int mc) const;
  u64 frame_paddr(u16 frame_no) const;
  /// Inverse of frame_paddr: the frame number a PTE's frame_paddr names.
  u16 frame_of_paddr(u64 paddr) const;

  /// First/last+1 allocatable frame numbers for a memory controller.
  std::pair<u16, u16> frame_range_of_mc(int mc) const;

  /// Frames below the metadata area, across all MCs (the allocatable
  /// total; frame 0 is the sentinel and never handed out).
  u64 total_frames() const;

  /// TAS register of the paper's single scratchpad lock (Section 6.3).
  static constexpr int kScratchpadLockReg = 0;

  /// TAS register serialising ownership transfers of `page_idx`. Without
  /// it, three or more cores thrashing one page can chase a moving owner
  /// through request forwards indefinitely (a livelock the paper's
  /// two-core experiments never exposed).
  int transfer_lock_reg(u64 page_idx) const;

  /// Number of transfer-lock registers: transfer_lock_reg maps every page
  /// into [0, transfer_lock_regs()).
  int transfer_lock_regs() const { return chip_.topology().max_cores() / 2; }

  /// TAS register for application-level SVM locks.
  int app_lock_reg(int lock_id) const;

  /// Bytes per read-replication directory entry: proto::dir_words() of
  /// the die's core count, 8 bytes each.
  u32 dir_entry_stride() const {
    return 8u * static_cast<u32>(
                    proto::dir_words(chip_.topology().max_cores()));
  }

  /// Collective-call symmetry check: every member must allocate the same
  /// region sequence. Returns the canonical base for allocation number
  /// `seq` of `bytes`, recording it (and its pages in the region map) on
  /// first sight.
  u64 register_alloc(int rank, u64 bytes);

  /// Region id of global page `page_idx`: the sequence number of the
  /// collective allocation covering it, or kNoRegion. One map per
  /// domain; what differs per core (the read-only bit) is kept by each
  /// core's Svm.
  static constexpr u16 kNoRegion = 0xffff;
  u16 region_of_page(u64 page_idx) const {
    const u64 rel = page_idx - page_index_base_;
    return rel < region_by_page_.size() ? region_by_page_[rel] : kNoRegion;
  }

 private:
  scc::Chip& chip_;
  SvmConfig cfg_;
  std::vector<int> members_;

  u64 mc_area_bytes_ = 64;   // per-MC frame counters (64 on the SCC)
  u64 meta_base_ = 0;        // shared-DRAM offset of the metadata area
  u64 page_capacity_total_ = 0;  // chip-wide SVM page capacity
  u64 svm_page_capacity_ = 0;   // this domain's share
  u64 page_index_base_ = 0;     // first global page index of the share
  u32 entries_per_mpb_ = 0;

 public:
  // Fail-stop recovery epoch: bumped once per page repaired, host-side.
  // Each per-page repair runs under that page's transfer lock, so the
  // sequence is strictly increasing — the coherence auditor asserts
  // exactly that off the kRecoveryBegin events.
  u64 recovery_epoch = 0;

  // ---- integrity layer (host-side; sized only when the fault plan arms
  // it, so flag-off runs carry no state and stay byte-identical) ----

  /// One page's frame seal: the generation-stamped CRC32C taken at the
  /// last point the frame was provably quiescent (ownership handoff, or
  /// an Exclusive -> Shared downgrade). `exclusive` records whether
  /// nobody held a mapping at the seal point — the only seals the chaos
  /// layer may corrupt without risking a silent wrong read. A writable
  /// mapping invalidates the seal (the frame is no longer quiescent).
  struct PageSeal {
    u32 crc = 0;
    u32 gen = 0;        // bumped per reseal; echoed in kPageSeal/kPageCorrupt
    bool valid = false;
    bool exclusive = false;
  };
  /// Indexed by (page - page_index_base()); empty unless integrity_armed.
  std::vector<PageSeal> seals;

  /// ECC-model shadow of the SVM metadata words, keyed by simulated
  /// physical address: every metadata store records its true value here,
  /// and every load compares — a divergence (an injected flipmeta bit)
  /// is corrected back from the shadow, the way ECC scrubs a single-bit
  /// DRAM error. Empty unless integrity_armed.
  std::unordered_map<u64, u64> meta_shadow;

 private:
  struct AllocRecord {
    u64 bytes;
    u64 base;
    u32 seen;  // members that have reached this collective call
  };
  std::vector<AllocRecord> allocs_;
  std::vector<u64> next_alloc_seq_;  // per rank
  // Domain-relative page -> region id. Allocations are laid out back to
  // back from vbase(), so the table ends at the last allocated page.
  std::vector<u16> region_by_page_;
};

/// Renders the protocol events of one per-core observability ring in the
/// classic `svm-trace` text format: the newest `max_events` entries, one
/// per line prefixed with `prefix`, preceded by a "... N earlier
/// event(s)" line when the ring overflowed or was truncated.
std::string proto_trace_dump(const obs::EventRing& ring,
                             const char* prefix = "  ",
                             std::size_t max_events = 32);

/// One core's SVM subsystem: the application's collectives and locks on
/// top, and beneath them the binding of the protocol core to the
/// simulated SCC. It installs itself as the kernel's SVM fault handler
/// and as the mailbox handler for the protocol mail types, and
///
///   * implements proto::MetaStore by issuing uncached ploads/pstores at
///     the SvmDomain's owner-vector / scratchpad / directory addresses,
///   * implements proto::ProtocolEnv by binding message sends/waits to
///     mbox::Mail traffic, page actions to the page table and the
///     CL1INVMB/WCB callbacks, the transfer lock to its TAS register, and
///     modelled costs to Core::compute_cycles,
///   * owns the fault path: the frame is learned here (first touch,
///     Section 6.3) and everything protocol-shaped is delegated to the
///     CoherencePolicy instance selected from SvmConfig.
class Svm final : public proto::ProtocolEnv, public proto::MetaStore {
 public:
  Svm(kernel::Kernel& kernel, mbox::MailboxSystem& mbox, SvmDomain& domain);

  Svm(const Svm&) = delete;
  Svm& operator=(const Svm&) = delete;

  int rank() const { return rank_; }
  Model model() const { return domain_.config().model; }
  const SvmStats& stats() const { return stats_; }

  /// The per-core protocol-event ring (state transitions, messages,
  /// metadata writes) on the chip's observability bus — rendered by the
  /// cluster report's `svm-trace` section and dumped on
  /// SvmProtectionError. Format with proto_trace_dump().
  const obs::EventRing& trace() const;

  // ---- collective operations (every member must call, same args) ----

  /// Reserves `bytes` of shared virtual address space; returns its base
  /// (identical on every member). No physical memory is allocated yet.
  u64 alloc(u64 bytes);

  /// Barrier with consistency semantics: the policy's release hook (WCB
  /// flush) before arrival and its acquire hook (CL1INVMB under Lazy
  /// Release) after release.
  void barrier();

  /// Marks [vaddr, vaddr+bytes) read-only and L2-cacheable (Section 6.4)
  /// for the rest of the run.
  void protect_readonly(u64 vaddr, u64 bytes);

  // ---- locks (Lazy Release acquire/release points) ----

  void lock_acquire(int lock_id);
  void lock_release(int lock_id);

  // ---- typed accessors (thin sugar over the core's virtual plane) ----

  template <typename T>
  T read(u64 vaddr) {
    return core_.vload<T>(vaddr);
  }
  template <typename T>
  void write(u64 vaddr, T value) {
    core_.vstore<T>(vaddr, value);
  }

  scc::Core& core() { return core_; }

  /// Appends this core's SVM diagnostics (stats, in-flight request,
  /// owner-vector word of the contended page, protocol event ring) to a
  /// watchdog hang report. Reads simulated memory host-side, cost-free.
  void append_hang_report(std::string& out);

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

  /// The kernel's SVM fault handler (Section 6): learns the page's frame
  /// and hands the model-dependent tail to the policy.
  void handle_fault(u64 vaddr, bool is_write);

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

  // ---- fail-stop recovery (see protocol/recovery.hpp) ----

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

  /// Frames come from the preferred controller's quarter while it lasts,
  /// then fall back round-robin — the NUMA-style placement of Sec. 6.3.
  u16 alloc_frame_near(int preferred_mc);
  void zero_frame(u16 frame_no);
  /// Maps `page_vaddr` to `frame_no`. SVM pages are MPBT-typed (L1
  /// write-through + WCB, no L2); read-only regions are not, so they may
  /// use the L2 (Section 6.4).
  void install_mapping(u64 page_vaddr, u16 frame_no, bool writable,
                       bool mpbt);
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
  /// Timer hook (registered only when the plan sets scrub): walks a
  /// bounded slice of this core's sealed pages per tick, poisoning any
  /// frame that no longer matches its seal.
  void scrub_tick();

  mbox::MailboxSystem& mbox_;
  SvmDomain& domain_;
  scc::Core& core_;
  int rank_ = -1;  // this core's index among the domain members
  u8 barrier_sense_ = 1;

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
  u64 scrub_cursor_ = 0;   // resumes the bounded walk across passes
};

}  // namespace msvm::svm
