// Svm — one core's SVM subsystem: the collectives and locks the
// application calls, and the binding of the transport-agnostic protocol
// core (svm/protocol/) to the simulated SCC. Everything protocol-shaped
// is delegated to the CoherencePolicy; this file keeps the fault path,
// the mail transport, the metadata words and the integrity layer.
#include "svm/svm.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "sccsim/addrmap.hpp"
#include "sim/crc32c.hpp"
#include "sim/log.hpp"
#include "svm/svm_panic.hpp"

namespace msvm::svm {

namespace {

using proto::kFrameMask;

// The bridge converts protocol TraceKind values to obs::EventKind by
// cast; the enumerators are defined to line up.
static_assert(static_cast<int>(proto::TraceKind::kTransition) ==
              static_cast<int>(obs::EventKind::kProtoTransition));
static_assert(static_cast<int>(proto::TraceKind::kMsgSend) ==
              static_cast<int>(obs::EventKind::kProtoMsgSend));
static_assert(static_cast<int>(proto::TraceKind::kMsgRecv) ==
              static_cast<int>(obs::EventKind::kProtoMsgRecv));
static_assert(static_cast<int>(proto::TraceKind::kMetaWrite) ==
              static_cast<int>(obs::EventKind::kProtoMetaWrite));
static_assert(static_cast<int>(proto::TraceKind::kFault) ==
              static_cast<int>(obs::EventKind::kProtoFault));

// obs keeps its own copy of the mail types (it sits below svm); the
// Perfetto flow arrows and the heatmap's transfer counts read it.
static_assert(static_cast<u8>(proto::MsgType::kOwnershipReq) ==
              obs::kWireOwnershipReq);
static_assert(static_cast<u8>(proto::MsgType::kOwnershipAck) ==
              obs::kWireOwnershipAck);
static_assert(static_cast<u8>(proto::MsgType::kReadReq) ==
              obs::kWireReadReq);
static_assert(static_cast<u8>(proto::MsgType::kReadAck) ==
              obs::kWireReadAck);
static_assert(static_cast<u8>(proto::MsgType::kInval) == obs::kWireInval);
static_assert(static_cast<u8>(proto::MsgType::kInvalAck) ==
              obs::kWireInvalAck);

std::unique_ptr<proto::CoherencePolicy> make_policy(const SvmConfig& cfg) {
  proto::PolicyConfig pcfg;
  pcfg.ack_via_mail = cfg.ack_via_mail;
  pcfg.sabotage = cfg.sabotage;
  if (cfg.model == Model::kStrong) {
    if (cfg.read_replication) {
      return std::make_unique<proto::ReadReplicationPolicy>(pcfg);
    }
    return std::make_unique<proto::StrongOwnerPolicy>(pcfg);
  }
  return std::make_unique<proto::LrcPolicy>(pcfg);
}

/// Accumulates the virtual time spent inside the fault handler (protocol
/// waits included) into the faulting core's stall telemetry; the RAII
/// form also covers the SvmProtectionError throw.
class FaultStallScope {
 public:
  explicit FaultStallScope(scc::Core& core)
      : core_(core), t0_(core.now()) {}
  ~FaultStallScope() {
    core_.counters().svm_fault_stall_ps += core_.now() - t0_;
  }
  FaultStallScope(const FaultStallScope&) = delete;
  FaultStallScope& operator=(const FaultStallScope&) = delete;

 private:
  scc::Core& core_;
  TimePs t0_;
};

/// Publishes a begin/end event pair around a scope; the RAII end also
/// covers exceptional exits (SvmProtectionError, watchdog-park unwind),
/// so a Chrome-trace slice is always closed.
class SpanScope {
 public:
  SpanScope(scc::Core& core, obs::EventKind begin, obs::EventKind end,
            u64 a, u64 b, u64 c)
      : core_(core), end_(end), a_(a), b_(b), c_(c) {
    core_.publish(begin, a_, b_, c_);
  }
  ~SpanScope() { core_.publish(end_, a_, b_, c_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  scc::Core& core_;
  obs::EventKind end_;
  u64 a_, b_, c_;
};

}  // namespace

Svm::Svm(kernel::Kernel& kernel, mbox::MailboxSystem& mbox,
         SvmDomain& domain)
    : mbox_(mbox),
      domain_(domain),
      core_(kernel.core()),
      meta_word_(*this, domain.chip().topology().max_cores(), this),
      policy_(make_policy(domain.config())) {
  kernel.set_svm_fault_handler(
      [this](u64 vaddr, bool is_write) { handle_fault(vaddr, is_write); });
  // ACKs pass through the dedup filter before reaching the inbox that
  // wait_match consumes. Requests are deliberately NOT deduplicated: the
  // serve paths are idempotent (a stale or duplicated request is simply
  // re-answered), whereas a duplicated InvalAck would falsely satisfy
  // one of the N outstanding multicast waits.
  for (const proto::MsgType req : {proto::MsgType::kOwnershipReq,
                                   proto::MsgType::kReadReq,
                                   proto::MsgType::kInval}) {
    mbox_.set_handler(static_cast<u8>(req),
                      [this](const mbox::Mail& m) { dispatch_mail(m); });
    mbox_.set_handler(static_cast<u8>(proto::ack_of(req)),
                      [this](const mbox::Mail& m) { on_ack_mail(m); });
  }
  const std::vector<int>& members = domain_.members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == core_.id()) rank_ = static_cast<int>(i);
  }
  assert(rank_ >= 0 && "core is not a member of the SVM domain");

  // Integrity layer: latched once — the plan is immutable for the run,
  // and a latched bool keeps the flag-off fast paths branch-predictable.
  const sim::FaultPlan& plan = core_.chip().faults().plan();
  integrity_ = plan.integrity_armed();
  if (plan.scrub) {
    // Background scrubber: each member walks its own slice of the seal
    // vector (cursors interleaved by rank), so the domain is covered
    // without any cross-core coordination and without double-verifying
    // pages.
    scrub_cursor_ = static_cast<u64>(rank_);
    kernel.add_timer_handler([this] { scrub_tick(); });
  }
}

void Svm::trace(const proto::TraceEvent& e) {
  // The bus keeps the event in this core's always-on ring and fans it
  // out to any attached sinks (trace collector, heatmap).
  core_.publish(static_cast<obs::EventKind>(e.kind), e.page,
                static_cast<u64>(e.a), static_cast<u64>(e.b));
}

const obs::EventRing& Svm::trace() const {
  return core_.chip().bus().ring(core_.id());
}

std::string proto_trace_dump(const obs::EventRing& ring,
                             const char* prefix, std::size_t max_events) {
  const std::vector<obs::Event> events = ring.snapshot();
  const std::size_t n = events.size();
  const std::size_t first = n > max_events ? n - max_events : 0;
  std::string out;
  if (ring.recorded() > n || first > 0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "... %llu earlier event(s)\n",
                  static_cast<unsigned long long>(ring.recorded() -
                                                  (n - first)));
    out += prefix;
    out += buf;
  }
  for (std::size_t i = first; i < n; ++i) {
    const obs::Event& e = events[i];
    const proto::TraceEvent te{static_cast<proto::TraceKind>(e.kind),
                               e.a, e.b, e.c};
    out += prefix;
    out += proto::to_string(te);
    out += '\n';
  }
  return out;
}

u64 Svm::page_index_of(u64 vaddr) const {
  return (vaddr - scc::kSvmVBase) >> scc::kPageShift;
}

u64 Svm::page_vaddr_of(u64 page_idx) const {
  return scc::kSvmVBase + (page_idx << scc::kPageShift);
}

u16 Svm::region_of(u64 vaddr) const {
  if (vaddr < scc::kSvmVBase) return SvmDomain::kNoRegion;
  return domain_.region_of_page(page_index_of(vaddr));
}

void Svm::append_hang_report(std::string& out) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "core %d svm: acquires=%llu serves=%llu forwards=%llu "
                "retransmits=%llu dup_acks_dropped=%llu\n",
                core_.id(),
                static_cast<unsigned long long>(stats_.ownership_acquires),
                static_cast<unsigned long long>(stats_.ownership_serves),
                static_cast<unsigned long long>(stats_.ownership_forwards),
                static_cast<unsigned long long>(stats_.retransmits),
                static_cast<unsigned long long>(stats_.dup_acks_dropped));
  out += buf;
  if (pending_) {
    // The owner word is read host-side (no simulated cost; the sim is
    // already declared hung) so the report can say who the directory
    // thinks owns the contended page.
    u16 owner_word = 0;
    core_.chip().memory().read(domain_.owner_entry_paddr(pending_->page),
                               &owner_word, sizeof(owner_word));
    std::snprintf(
        buf, sizeof(buf),
        "core %d svm: in-flight request type=0x%x page=%llu seq=%u "
        "awaiting=%d (word0=0x%llx) owner_word=%u\n",
        core_.id(), pending_->mail.type,
        static_cast<unsigned long long>(pending_->page), pending_->seq,
        pending_->awaiting.count(),
        static_cast<unsigned long long>(pending_->awaiting.word(0)),
        owner_word);
    out += buf;
  }
  out += proto_trace_dump(trace(), "  svm-trace: ");
}

// ---------------------------------------------------------------------------
// collectives

u64 Svm::alloc(u64 bytes) {
  const u64 page = scc::kPageBytes;
  const u64 pages = (bytes + page - 1) / page;
  const u64 base = domain_.register_alloc(rank_, bytes);
  // Region bookkeeping cost scales with the page count (the paper's
  // Table 1 row 1: reserving 4 MiB costs ~741 us in total).
  core_.compute_cycles(pages * kAllocRegionCyclesPerPage);
  barrier();
  return base;
}

void Svm::barrier() {
  ++stats_.barriers;
  // Release semantics: our writes must be in memory before we signal
  // arrival.
  policy_->on_release(*this);

  const scc::MpbLayout& mpb = core_.chip().map().layout();
  kernel::master_gather_barrier(
      core_, domain_.members(), barrier_sense_,
      {mpb.barrier_arrive, mpb.barrier_release, "svm.barrier_gather",
       "svm.barrier_release"});

  // Acquire semantics: under Lazy Release the data written by others
  // before the barrier must not be shadowed by stale cache lines.
  policy_->on_acquire(*this);
}

void Svm::protect_readonly(u64 vaddr, u64 bytes) {
  ++stats_.protect_calls;
  const u16 region = region_of(vaddr);
  if (region == SvmDomain::kNoRegion) {
    panic("protect_readonly outside any SVM region");
  }
  const u64 page = scc::kPageBytes;
  // Make our writes visible and drop our MPBT lines: the region's lines
  // will re-enter the caches as plain (L2-capable) lines.
  core_.flush_wcb();
  core_.cl1invmb();
  for (u64 off = 0; off < bytes; off += page) {
    core_.pagetable().update(vaddr + off, [](scc::Pte& p) {
      p.writable = false;
      p.mpbt = false;
    });
    core_.compute_cycles(40);
  }
  if (region >= readonly_.size()) readonly_.resize(region + std::size_t{1});
  readonly_[region] = true;
  barrier();
}

// ---------------------------------------------------------------------------
// locks

void Svm::lock_acquire(int lock_id) {
  ++stats_.lock_acquires;
  const int reg = domain_.app_lock_reg(lock_id);
  kernel::spin_wait(core_, scc::WatchedWord::tas(reg),
                    kernel::tas_spin_opts(core_, "svm.lock_acquire",
                                          static_cast<u64>(lock_id)));
  core_.publish(obs::EventKind::kLockAcquire, static_cast<u64>(reg),
                static_cast<u64>(lock_id));
  // Entering the critical section: see the lock holder's released data.
  policy_->on_acquire(*this);
}

void Svm::lock_release(int lock_id) {
  // Leaving: push our modifications down to memory.
  policy_->on_release(*this);
  const int reg = domain_.app_lock_reg(lock_id);
  core_.tas_release(reg);
  core_.publish(obs::EventKind::kLockRelease, static_cast<u64>(reg),
                static_cast<u64>(lock_id));
}

// ---------------------------------------------------------------------------
// mail dispatch

void Svm::dispatch_mail(const mbox::Mail& mail) {
  const proto::Msg msg{static_cast<proto::MsgType>(mail.type), mail.p0,
                       static_cast<int>(mail.p1)};
  trace(proto::TraceEvent{proto::TraceKind::kMsgRecv, msg.page,
                          static_cast<u64>(msg.type),
                          static_cast<u64>(msg.requester)});
  const SpanScope serve_span(core_, obs::EventKind::kServeBegin,
                             obs::EventKind::kServeEnd, msg.page,
                             static_cast<u64>(mail.type), mail.arg16);
  // While serving this request, every mail we emit for it — the ACK, or
  // a forward along the ownership chain — echoes its sequence number, so
  // the originator's bounded wait matches the eventual ACK no matter how
  // many hops served it. Save/restore keeps nesting safe (a serve may
  // stall in send() and drain further requests).
  struct SeqScope {
    u16& slot;
    u16 saved;
    ~SeqScope() { slot = saved; }
  } seq_scope{serving_seq_, serving_seq_};
  serving_seq_ = mail.arg16;
  policy_->on_message(msg, *this);
}

// ---------------------------------------------------------------------------
// fault path

void Svm::handle_fault(u64 vaddr, bool is_write) {
  if (is_write) {
    ++core_.counters().svm_write_faults;
  } else {
    ++core_.counters().svm_read_faults;
  }
  FaultStallScope stall(core_);
  const u64 page_idx = page_index_of(vaddr);
  trace(proto::TraceEvent{proto::TraceKind::kFault, page_idx,
                          is_write ? u64{1} : u64{0}, 0});
  const SpanScope fault_span(core_, obs::EventKind::kFaultBegin,
                             obs::EventKind::kFaultEnd, page_idx,
                             is_write ? u64{1} : u64{0}, 0);
  const u16 region = region_of(vaddr);
  if (region == SvmDomain::kNoRegion) {
    std::fprintf(stderr,
                 "svm (core %d): fault at 0x%llx outside any region\n",
                 core_.id(), static_cast<unsigned long long>(vaddr));
    std::abort();
  }
  if (is_write && region_readonly(region)) {
    // The debugging aid of Section 6.4: surface the faulting core's
    // recent protocol history alongside the error.
    std::fprintf(stderr,
                 "svm (core %d): write to read-only region at 0x%llx; "
                 "last protocol events:\n%s",
                 core_.id(), static_cast<unsigned long long>(vaddr),
                 proto_trace_dump(trace(), "  svm-trace: ").c_str());
    throw SvmProtectionError(vaddr);
  }

  try {
    const scc::Pte* pte = core_.pagetable().find(vaddr);
    const bool mapped = pte != nullptr && pte->present;
    const bool readonly = region_readonly(region);
    if (mapped && readonly) panic("unresolvable SVM fault");
    // Mapping costs its software whichever way the frame is learned:
    // Table 1's retrieval row includes it.
    if (!mapped) core_.compute_cycles(kMapSoftwareCycles);
    u16 frame = 0;
    // First touch and read-only regions map the page here; every other
    // fault is the policy's to resolve.
    bool map_here = false;
    if (pte != nullptr && !readonly) {
      // A page this core has mapped before, outside a read-only region:
      // unmapped by an ownership transfer, or (read replication) a read-
      // only replica taking a write. A frame never moves after first
      // touch, so the PTE still names it and the scratchpad lock, whose
      // job is to arbitrate that first allocation, stays out of the way.
      assert(model() == Model::kStrong &&
             "LRC never unmaps a page, so it never re-faults on one");
      if (!mapped) ++stats_.map_faults;
      frame = domain_.frame_of_paddr(pte->frame_paddr);
      assert(frame == published_frame(page_idx) &&
             "PTE frame differs from the scratchpad's");
    } else {
      // This core's first mapping of the page (or its first since the
      // region turned read-only): learn the frame from the scratchpad.
      const int lock_reg = SvmDomain::kScratchpadLockReg;
      kernel::spin_wait(
          core_, scc::WatchedWord::tas(lock_reg),
          kernel::tas_spin_opts(core_, "svm.scratchpad_lock", page_idx));
      core_.publish(obs::EventKind::kLockAcquire, lock_reg, page_idx);
      frame = meta_word_.scratchpad(page_idx) & kFrameMask;
      map_here = frame == 0 || readonly;
      if (frame == 0) {
        // First touch chip-wide: allocate near our memory controller,
        // zero it and publish the 16-bit representation.
        ++stats_.first_touch_allocs;
        core_.compute_cycles(kFirstTouchSoftwareCycles);
        frame =
            alloc_frame_near(core_.chip().topology().nearest_mc(core_.id()));
        zero_frame(frame);
        meta_word_.set_scratchpad(page_idx, frame);
        meta_word_.set_owner(page_idx, static_cast<u16>(core_.id()));
      } else {
        ++stats_.map_faults;
      }
      core_.tas_release(lock_reg);
      core_.publish(obs::EventKind::kLockRelease, lock_reg, page_idx);
    }
    if (map_here) {
      install_mapping(page_vaddr_of(page_idx), frame, !readonly, !readonly);
      policy_->note_mapped(page_idx, !readonly, *this);
    } else {
      // Strong retrieves the access permission from the page owner, read
      // replication joins the sharer set on reads, LRC simply remaps
      // writable.
      policy_->fault(page_idx, frame, is_write, *this);
    }
  } catch (const proto::SvmDataLossError&) {
    // The typed loss unwinds through protocol flows that are not
    // exception-aware; a transfer lock still held here would wedge every
    // other core contending for its stripe.
    release_held_transfer_locks();
    throw;
  }
}

// ---------------------------------------------------------------------------
// frame allocation

u16 Svm::alloc_frame_near(int preferred_mc) {
  // Each core draws from a private *batch* of contiguous frames and only
  // refills the batch from the shared per-MC counter. Besides cutting
  // counter traffic, this keeps one core's consecutively-touched pages
  // physically contiguous: interleaving allocations from several cores
  // would give every core's data an 8+ KiB physical stride, which maps
  // whole row-streams onto the same L1 sets (the page-coloring problem).
  if (frame_batch_next_ < frame_batch_end_) {
    core_.compute_cycles(20);
    return frame_batch_next_++;
  }
  constexpr u16 kBatchFrames = 32;  // 128 KiB of contiguity
  // Past the SCC die the fixed 32-frame batch over-reserves: N cores
  // stranding 31 frames each can exhaust the pools outright. Fair-share
  // the batch against the total frame budget instead; at <= 48 cores the
  // historical batch (and thus frame placement) is kept exactly.
  u64 batch = kBatchFrames;
  const int ncores = core_.chip().config().num_cores;
  if (ncores > 48) {
    const u64 fair = domain_.total_frames() / (2 * static_cast<u64>(ncores));
    batch = std::clamp<u64>(fair, 1, kBatchFrames);
  }
  const int nmc = core_.chip().topology().num_mem_controllers();
  for (int k = 0; k < nmc; ++k) {
    const int mc = (preferred_mc + k) % nmc;
    const auto [lo, hi] = domain_.frame_range_of_mc(mc);
    (void)lo;
    const u64 next = core_.pload<u64>(domain_.mc_counter_paddr(mc),
                                      scc::MemPolicy::kUncached);
    if (next < hi) {
      const u64 take = std::min<u64>(batch, hi - next);
      core_.pstore<u64>(domain_.mc_counter_paddr(mc), next + take,
                        scc::MemPolicy::kUncached);
      frame_batch_next_ = static_cast<u16>(next);
      frame_batch_end_ = static_cast<u16>(next + take);
      return frame_batch_next_++;
    }
  }
  panic("out of shared SVM memory (all frame pools exhausted)");
}

void Svm::zero_frame(u16 frame_no) {
  const u64 base = domain_.frame_paddr(frame_no);
  const u8 zeros[scc::kLineBytes] = {0};
  for (u32 off = 0; off < scc::kPageBytes; off += scc::kLineBytes) {
    core_.pwrite(base + off, zeros, scc::kLineBytes, scc::MemPolicy::kMpbt);
  }
  core_.flush_wcb();
}

// ---------------------------------------------------------------------------
// mappings

void Svm::install_mapping(u64 page_vaddr, u16 frame_no, bool writable,
                          bool mpbt) {
  scc::Pte pte;
  pte.frame_paddr = domain_.frame_paddr(frame_no);
  pte.present = true;
  pte.writable = writable;
  pte.mpbt = mpbt;
  core_.pagetable().map(page_vaddr, pte);
  core_.compute_cycles(80);
  if (integrity_ && writable) {
    // A writable mapping ends the frame's quiescence: the seal no longer
    // describes what DRAM will hold, so retire it (covers the ownership
    // fast paths and LRC's free remaps alike).
    const u64 rel = page_index_of(page_vaddr) - domain_.page_index_base();
    if (rel < domain_.seals.size()) domain_.seals[rel].valid = false;
  }
}

// ---------------------------------------------------------------------------
// proto::ProtocolEnv — transport

namespace {

// Default retransmission schedule: far above any fault-free protocol
// wait (which is bounded by the peers' interrupt/poll latency, well
// under a timer period), so the clean path never observes a timeout.
constexpr TimePs kRetryBasePs = 50 * kPsPerMs;
constexpr TimePs kRetryCapPs = 400 * kPsPerMs;
// Under an armed recovery envelope (FaultPlan::recovery_armed) a
// slot-stuck or lost request retries within a small workload instead.
constexpr TimePs kArmedRetryBasePs = 2 * kPsPerMs;
constexpr TimePs kArmedRetryCapPs = 8 * kArmedRetryBasePs;

}  // namespace

void Svm::send(int dest, const proto::Msg& m) {
  trace(proto::TraceEvent{proto::TraceKind::kMsgSend, m.page,
                          static_cast<u64>(m.type),
                          static_cast<u64>(dest)});
  mbox::Mail mail;
  mail.type = static_cast<u8>(m.type);
  mail.p0 = m.page;
  mail.p1 = static_cast<u64>(m.requester);
  if (proto::is_request(m.type) && m.requester == self()) {
    // A fresh request this core originates: stamp a new sequence number
    // and remember it for bounded-wait retransmission.
    mail.arg16 = acks_.next_seq();
    proto::SharerSet awaiting(meta_word_.dir_width());
    awaiting.set(dest);
    pending_ = PendingRequest{mail, awaiting, m.page, mail.arg16,
                              proto::ack_of(m.type)};
  } else {
    // Forward of someone else's request, or an ACK: echo the sequence
    // number of the request being served so the chain stays matched.
    mail.arg16 = serving_seq_;
  }
  mbox_.send(dest, mail);
}

int Svm::multicast(const proto::SharerSet& dests,
                          const proto::Msg& m) {
  trace(proto::TraceEvent{proto::TraceKind::kMsgSend, m.page,
                          static_cast<u64>(m.type), dests.word(0)});
  mbox::Mail mail;
  mail.type = static_cast<u8>(m.type);
  mail.p0 = m.page;
  mail.p1 = static_cast<u64>(m.requester);
  mail.arg16 = acks_.next_seq();
  proto::SharerSet awaiting = dests;
  awaiting.clear(self());
  std::vector<int> list;
  list.reserve(static_cast<std::size_t>(awaiting.count()));
  awaiting.for_each([&list](int dest) { list.push_back(dest); });
  pending_ = PendingRequest{mail, awaiting, m.page, mail.arg16,
                            proto::ack_of(m.type)};
  return mbox_.multicast(list, mail);
}

void Svm::retransmit_pending() {
  if (!pending_) return;
  pending_->awaiting.for_each([this](int dest) {
    if (mbox_.try_send(dest, pending_->mail)) {
      ++stats_.retransmits;
      trace(proto::TraceEvent{proto::TraceKind::kMsgSend, pending_->page,
                              static_cast<u64>(pending_->mail.type),
                              static_cast<u64>(dest)});
      core_.publish(obs::EventKind::kMailRetransmit, static_cast<u64>(dest),
                    obs::pack_mail(pending_->mail.type, pending_->seq,
                                   static_cast<obs::u8>(core_.id())),
                    pending_->page);
      MSVM_LOG_INFO("core %d: retransmit type=0x%x page=%llu seq=%u -> %d",
                    core_.id(), pending_->mail.type,
                    static_cast<unsigned long long>(pending_->page),
                    pending_->seq, dest);
    }
  });
}

void Svm::on_ack_mail(const mbox::Mail& mail) {
  switch (acks_.admit(mbox::ack_key(mail))) {
    case mbox::AckRing::Admit::kDuplicate:
      ++stats_.dup_acks_dropped;
      MSVM_LOG_INFO("core %d: dropped duplicate ack type=0x%x page=%llu "
                    "seq=%u from %d",
                    core_.id(), mail.type,
                    static_cast<unsigned long long>(mail.p0), mail.arg16,
                    mail.sender);
      return;
    case mbox::AckRing::Admit::kFreshEvicting:
      ++stats_.acks_evicted;  // ring capacity hit
      break;
    case mbox::AckRing::Admit::kFresh:
      break;
  }
  mbox_.enqueue_inbox(mail);
}

proto::Msg Svm::wait_match(proto::MsgType type, u64 page) {
  const u8 mail_type = static_cast<u8>(type);
  sim::BlockScope scope(core_.chip().scheduler().current(),
                        "svm.wait_match", static_cast<u64>(mail_type),
                        page);
  // Every protocol wait follows the send or multicast that set a
  // matching pending_. Only an ACK echoing that request's sequence number
  // counts, so stray ACKs from abandoned earlier rounds rot in the inbox
  // instead of satisfying this wait. On timeout, retransmit idempotently
  // with exponential backoff.
  if (!pending_ || pending_->ack_type != type || pending_->page != page) {
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "wait_match type %u page %llu without a matching request",
                  static_cast<unsigned>(mail_type),
                  static_cast<unsigned long long>(page));
    panic(msg);
  }
  mbox::Mail mail;
  const u16 seq = pending_->seq;
  const auto pred = [mail_type, page, seq](const mbox::Mail& m) {
    return m.type == mail_type && m.p0 == page && m.arg16 == seq;
  };
  const bool armed = core_.chip().faults().plan().recovery_armed();
  const TimePs cap = armed ? kArmedRetryCapPs : kRetryCapPs;
  TimePs timeout = armed ? kArmedRetryBasePs : kRetryBasePs;
  const TimePs t0 = core_.now();
  for (;;) {
    const auto m = mbox_.recv_match_until(pred, core_.now() + timeout);
    if (m) {
      mail = *m;
      break;
    }
    if (core_.chip().watchdog().check(core_.now(), t0, "svm.wait_match",
                                      core_.id())) {
      core_.chip().scheduler().block();  // parked until teardown
    }
    // Failure detection: an ACK that will never come because the peer
    // fail-stopped. Repair the page (we hold its transfer lock) and
    // satisfy the wait with a synthesized ACK — the acquire loops all
    // re-verify owner/directory state after wait_match returns, so a
    // synthesized ACK is no stronger a claim than a real one.
    if (core_.chip().dead_count() > 0 && core_.chip().lease_enabled()) {
      const std::optional<mbox::Mail> synth = try_dead_peer_recovery();
      if (synth) {
        mail = *synth;
        break;
      }
    }
    retransmit_pending();
    timeout = std::min<TimePs>(timeout * 2, cap);
  }
  if (type == proto::MsgType::kInvalAck) {
    // Multicast wait: retire this responder; keep the entry while
    // other sharers still owe their ACK.
    if (mail.sender >= 0) pending_->awaiting.clear(mail.sender);
    if (pending_->awaiting.none()) pending_.reset();
  } else {
    pending_.reset();
  }
  const proto::Msg msg{type, mail.p0, static_cast<int>(mail.p1)};
  trace(proto::TraceEvent{proto::TraceKind::kMsgRecv, msg.page,
                          static_cast<u64>(msg.type),
                          static_cast<u64>(msg.requester)});
  return msg;
}

void Svm::yield() { core_.yield(); }

// ---------------------------------------------------------------------------
// proto::ProtocolEnv — local page / cache actions

void Svm::flush_wcb() { core_.flush_wcb(); }

void Svm::cl1invmb() { core_.cl1invmb(); }

void Svm::map_page(u64 page, u16 frame, bool writable) {
  install_mapping(page_vaddr_of(page), frame, writable, /*mpbt=*/true);
}

void Svm::unmap_page(u64 page) {
  core_.pagetable().update(page_vaddr_of(page), [](scc::Pte& p) {
    p.present = false;
    p.writable = false;
  });
}

void Svm::downgrade_page(u64 page) {
  core_.pagetable().update(page_vaddr_of(page),
                           [](scc::Pte& p) { p.writable = false; });
}

// ---------------------------------------------------------------------------
// proto::ProtocolEnv — serialisation, cost, diagnostics

void Svm::transfer_lock(u64 page) {
  kernel::spin_wait(core_,
                    scc::WatchedWord::tas(domain_.transfer_lock_reg(page)),
                    kernel::tas_spin_opts(core_, "svm.transfer_lock", page));
}

void Svm::transfer_unlock(u64 page) {
  core_.tas_release(domain_.transfer_lock_reg(page));
}

// ---------------------------------------------------------------------------
// fail-stop recovery (repair rules in svm/protocol/recovery.hpp)

bool Svm::dead_owner_died_dirty(u64 page) {
  scc::Chip& chip = core_.chip();
  const u16 owner = meta_word_.owner(page);
  if (owner >= static_cast<u16>(chip.config().num_cores)) return false;
  if (!chip.core_dead(owner) || !chip.dead_wcb_valid(owner)) return false;
  // The write-through L1 publishes every store except the single-line
  // WCB, so the only possible unflushed data is the line the owner's WCB
  // held at death — the page is dirty iff that line is in its frame.
  const u64 base = domain_.frame_paddr(meta_word_.frame_of(page));
  const u64 line = chip.dead_wcb_line(owner);
  return line >= base && line < base + scc::kPageBytes;
}

proto::RecoveryAction Svm::run_page_recovery(u64 page,
                                                    int dead_core) {
  scc::Chip& chip = core_.chip();
  // Ground truth for *who* is dead comes from the chip; the lease only
  // gated *when* the survivors were allowed to act on it.
  proto::SharerSet dead(meta_word_.dir_width());
  for (int i = 0; i < chip.config().num_cores; ++i) {
    if (chip.core_dead(i)) dead.set(i);
  }
  const bool dirty = dead_owner_died_dirty(page);
  const u64 epoch = ++domain_.recovery_epoch;
  core_.publish(obs::EventKind::kRecoveryBegin, epoch, dead.word(0), page);
  const proto::RecoveryAction action = proto::recover_page(
      *this, page, dead, dirty, domain_.config().read_replication);
  core_.publish(obs::EventKind::kRecoveryEnd, epoch,
                static_cast<u64>(action), page);
  MSVM_LOG_INFO(
      "core %d: recovered page %llu after death of core %d: %s "
      "(epoch %llu) t=%.3fms",
      core_.id(), static_cast<unsigned long long>(page), dead_core,
      proto::to_string(action), static_cast<unsigned long long>(epoch),
      ps_to_ms(core_.now()));
  return action;
}

std::optional<mbox::Mail> Svm::try_dead_peer_recovery() {
  scc::Chip& chip = core_.chip();
  const TimePs now = core_.now();
  const u64 page = pending_->page;
  int dead = -1;
  pending_->awaiting.for_each([&](int p) {
    if (dead < 0 && chip.core_dead(p) && chip.peer_presumed_dead(p, now)) {
      dead = p;
    }
  });
  if (dead < 0) {
    // The peer we mailed is alive, but it may have forwarded our request
    // along an ownership chain whose recorded tail died.
    const u16 owner = meta_word_.owner(page);
    if (owner == kOwnerLost) {
      // Someone else already repaired this page and declared it lost.
      pending_.reset();
      throw SvmDataLossError(page, kOwnerLost);
    }
    if (owner < static_cast<u16>(chip.config().num_cores) &&
        chip.core_dead(owner) && chip.peer_presumed_dead(owner, now)) {
      dead = static_cast<int>(owner);
    }
    if (dead < 0) return std::nullopt;
  }
  if (run_page_recovery(page, dead) == proto::RecoveryAction::kLost) {
    pending_.reset();
    throw SvmDataLossError(page, dead);
  }
  // Synthesize the dead peer's ACK. wait_match's caller re-verifies the
  // repaired metadata, exactly as it would after a real ACK, and the
  // multicast retire logic in wait_match sees `sender` = the dead core.
  mbox::Mail synth = pending_->mail;
  synth.type = static_cast<u8>(pending_->ack_type);
  synth.arg16 = pending_->seq;
  synth.p0 = page;
  synth.p1 = 0;
  synth.sender = dead;
  return synth;
}

void Svm::release_held_transfer_locks() {
  const scc::Memory& tas = core_.chip().memory();
  for (int reg = 0; reg < domain_.transfer_lock_regs(); ++reg) {
    if (tas.tas_holder(reg) == core_.id()) core_.tas_release(reg);
  }
}

void Svm::irq_off() { core_.irq_disable(); }

void Svm::irq_on() { core_.irq_enable(); }

void Svm::cost_cycles(u32 cycles) { core_.compute_cycles(cycles); }

void Svm::hw_count(proto::HwEvent event, u64 delta) {
  switch (event) {
    case proto::HwEvent::kMailRoundtrip:
      core_.counters().svm_mail_roundtrips += delta;
      break;
  }
}

void Svm::warn(const char* message) {
  MSVM_LOG_ERROR("core %d: %s t=%.3fms", core_.id(), message,
                 ps_to_ms(core_.now()));
}

// ---------------------------------------------------------------------------
// integrity layer — generation-stamped frame seals, detect-or-die
// poisoning, and the background scrubber. Every function here returns
// immediately unless the fault plan armed the layer, so a flag-off run
// is byte-identical to one built before this code existed.

namespace {

// Modelled software costs (core cycles). The CRC is a table-driven
// byte-at-a-time loop (~1 cycle/byte on the P54C-class core).
constexpr u32 kCrcCyclesPerByte = 1;
constexpr u32 kMetaEccCycles = 200;

// Host-side access to a 16- or 64-bit metadata word as it sits in
// memory, beside the simulated pload/pstore: the ECC check and repair,
// the scrubber's fallback read, and flip injection.
u64 read_raw_word(scc::Memory& mem, u64 paddr, u32 bits) {
  if (bits == 16) {
    u16 word = 0;
    mem.read(paddr, &word, sizeof(word));
    return word;
  }
  u64 word = 0;
  mem.read(paddr, &word, sizeof(word));
  return word;
}

void write_raw_word(scc::Memory& mem, u64 paddr, u64 value, u32 bits) {
  if (bits == 16) {
    const u16 word = static_cast<u16>(value);
    mem.write(paddr, &word, sizeof(word));
  } else {
    mem.write(paddr, &value, sizeof(value));
  }
}

}  // namespace

u32 Svm::frame_crc(u64 frame_base) {
  // Host-side read of the whole frame (the simulated cost is charged by
  // the callers, who know whether the pass is a seal, verify or scrub).
  scc::Memory& mem = core_.chip().memory();
  u8 buf[256];
  u32 crc = 0;
  for (u32 off = 0; off < scc::kPageBytes; off += sizeof(buf)) {
    const u32 chunk = std::min<u32>(sizeof(buf), scc::kPageBytes - off);
    mem.read(frame_base + off, buf, chunk);
    crc = off == 0 ? sim::crc32c(buf, chunk)
                   : sim::crc32c_extend(crc, buf, chunk);
  }
  return crc;
}

void Svm::page_seal(u64 page, bool exclusive) {
  if (!integrity_) return;
  const u64 rel = page - domain_.page_index_base();
  assert(rel < domain_.seals.size() && "sealed page outside the domain");
  const u16 frame = meta_word_.frame_of(page);
  const u64 base = domain_.frame_paddr(frame);

  SvmDomain::PageSeal& seal = domain_.seals[rel];
  seal.crc = frame_crc(base);
  ++seal.gen;
  seal.valid = true;
  seal.exclusive = exclusive;
  ++stats_.pages_sealed;
  core_.compute_cycles(scc::kPageBytes * kCrcCyclesPerByte);

  core_.publish(obs::EventKind::kPageSeal, page, seal.gen, seal.crc);

  if (!exclusive) return;
  // Chaos injection point: the injector corrupts frames only behind
  // exclusive seals — the frame is unmapped everywhere and any sharer
  // was invalidated before the handoff, so the next core to touch the
  // page provably verifies before reading. Corrupting a non-exclusive
  // (downgrade) seal could be read through a surviving read-only mapping
  // without a verify: exactly the silent-wrong outcome this layer
  // exists to kill, so those seals are verify-only.
  const i64 bit =
      core_.chip().faults().page_flip_bit(u64{scc::kPageBytes} * 8);
  if (bit < 0) return;
  scc::Memory& mem = core_.chip().memory();
  const u64 paddr = base + static_cast<u64>(bit >> 3);
  u8 byte = 0;
  mem.read(paddr, &byte, 1);
  byte ^= static_cast<u8>(1u << (bit & 7));
  mem.write(paddr, &byte, 1);
  core_.publish(obs::EventKind::kFaultInject,
                static_cast<u64>(obs::InjectKind::kPageFlip), page,
                static_cast<u64>(bit));
}

void Svm::poison_page(u64 page, u32 gen) {
  // The only outcome of a failed seal check. The injector flips frames
  // only behind exclusive seals, and no cache can hold a clean line of
  // such a frame: the seal is taken after the owner flushed its WCB, ran
  // CL1INVMB and unmapped the page, and after every sharer ran CL1INVMB
  // on invalidation. Traced metadata store: the coherence auditor sees
  // the sentinel, and the ECC shadow records it — so a later
  // "correction" can never resurrect the pre-poison owner word.
  meta_word_.set_owner(page, kOwnerCorrupt);
  const u64 rel = page - domain_.page_index_base();
  if (rel < domain_.seals.size()) {
    // The page is dead; retire the seal so the scrubber reports (and the
    // ledger counts) each poisoning exactly once.
    domain_.seals[rel].valid = false;
  }
  ++stats_.pages_poisoned;
  core_.publish(obs::EventKind::kPageCorrupt, page, gen);
}

void Svm::page_verify(u64 page) {
  if (!integrity_) return;
  const u64 rel = page - domain_.page_index_base();
  assert(rel < domain_.seals.size() && "verified page outside the domain");
  SvmDomain::PageSeal& seal = domain_.seals[rel];
  if (!seal.valid) return;  // nothing to check against (e.g. first touch)
  ++stats_.seal_verifies;
  core_.compute_cycles(scc::kPageBytes * kCrcCyclesPerByte);
  const u64 base = domain_.frame_paddr(meta_word_.frame_of(page));
  if (frame_crc(base) == seal.crc) return;
  // Detect-or-die: no clean copy can exist (see poison_page), so the
  // page is poisoned. The typed throw unwinds to handle_fault, which
  // releases any transfer lock this core holds.
  poison_page(page, seal.gen);
  throw proto::SvmIntegrityError(page);
}

u16 Svm::published_frame(u64 page) {
  // Golden from the ECC shadow when the integrity layer is armed (a raw
  // read could see an injected flipmeta bit); raw memory otherwise, and
  // for a word never stored since boot.
  const u64 paddr = domain_.scratchpad_entry_paddr(page);
  const auto it = domain_.meta_shadow.find(paddr);
  const u64 entry = it != domain_.meta_shadow.end()
                        ? it->second
                        : read_raw_word(core_.chip().memory(), paddr, 16);
  return static_cast<u16>(entry) & kFrameMask;
}

void Svm::scrub_tick() {
  const u64 n = domain_.seals.size();
  if (n == 0) return;
  // Bounded per-tick work: the scrubber runs in timer-interrupt context
  // and must not stall the interrupted computation for a whole share.
  constexpr u64 kPagesPerPass = 32;
  u64 walked = 0;
  u64 corrupt = 0;
  for (u64 steps = 0; steps < n && walked < kPagesPerPass; ++steps) {
    const u64 rel = scrub_cursor_ % n;
    const u64 page = domain_.page_index_base() + rel;
    scrub_cursor_ = rel + domain_.members().size();
    SvmDomain::PageSeal& seal = domain_.seals[rel];
    if (!seal.valid) continue;
    ++walked;
    // A scrub must not trust a possibly-flipped scratchpad word.
    const u16 frame = published_frame(page);
    if (frame == 0) continue;
    const u64 base = domain_.frame_paddr(frame);
    core_.compute_cycles(scc::kPageBytes * kCrcCyclesPerByte);
    if (frame_crc(base) == seal.crc) continue;
    ++corrupt;
    // Poisoned from interrupt context too (no throw — no access is
    // faulting), so the next toucher gets the typed error instead of a
    // stale verify.
    poison_page(page, seal.gen);
  }
  if (walked == 0) return;
  core_.publish(obs::EventKind::kScrubPass, walked, corrupt);
}

// ---------------------------------------------------------------------------
// proto::MetaStore — one choke point for all metadata words (the former
// owner_read/owner_write/dir_read/dir_write/scratchpad_read/
// scratchpad_write boilerplate, deduplicated)

u64 Svm::meta_load_word(u64 paddr, u32 bits, proto::MetaKind kind,
                               u64 page) {
  // ECC model: the word is checked against the host-side shadow of the
  // last store and a divergence (an injected flipmeta bit) corrected in
  // place — the way ECC DRAM scrubs a single-bit error on read — before
  // any protocol decision can act on the flipped word. The check runs
  // host-side at load *issue*, before the simulated pload samples
  // memory: the pload's modelled latency yields the fiber, and a
  // concurrent legitimate store completing inside that window would make
  // a completion-time comparison flag good data as corrupt (shadow and
  // memory only move together at store issue, see meta_store_word).
  bool corrected = false;
  if (integrity_) {
    const auto it = domain_.meta_shadow.find(paddr);
    if (it != domain_.meta_shadow.end()) {
      scc::Memory& mem = core_.chip().memory();
      if (read_raw_word(mem, paddr, bits) != it->second) {
        // No yield may happen between this repair write and the pload's
        // sample below, or a concurrently injected flip could slip past
        // the check — the modelled ECC cost is charged after the load.
        const u64 good = it->second;
        write_raw_word(mem, paddr, good, bits);
        ++stats_.meta_corrections;
        corrected = true;
        core_.publish(obs::EventKind::kMetaCorrupt, page,
                      static_cast<u64>(kind), good);
      }
    }
  }
  const u64 value =
      bits == 16 ? core_.pload<u16>(paddr, scc::MemPolicy::kUncached)
                 : core_.pload<u64>(paddr, scc::MemPolicy::kUncached);
  if (corrected) core_.compute_cycles(kMetaEccCycles);
  return value;
}

void Svm::meta_store_word(u64 paddr, u64 value, u32 bits,
                                 u64 page) {
  if (bits == 16) {
    value &= 0xffff;  // shadow must compare equal to the zero-extended load
  }
  // Shadow first: the uncached pstore applies its device write at issue
  // but then yields for the modelled latency, and the shadow must move
  // in the same atomic step as memory — a load issued inside the latency
  // window would otherwise see new data against an old shadow and
  // "correct" a legitimate store away.
  if (integrity_) domain_.meta_shadow[paddr] = value;
  if (bits == 16) {
    core_.pstore<u16>(paddr, static_cast<u16>(value),
                      scc::MemPolicy::kUncached);
  } else {
    core_.pstore<u64>(paddr, value, scc::MemPolicy::kUncached);
  }
  if (!integrity_) return;
  // Chaos injection point: flip one bit of the word as stored. Sound at
  // any rate — the shadow comparison above catches the flip at the next
  // load, so a flipped owner/frame/directory word is never acted upon.
  const int bit = core_.chip().faults().meta_flip_bit(bits);
  if (bit < 0) return;
  write_raw_word(core_.chip().memory(), paddr, value ^ (u64{1} << bit),
                 bits);
  core_.publish(obs::EventKind::kFaultInject,
                static_cast<u64>(obs::InjectKind::kMetaFlip), page,
                static_cast<u64>(bit));
}

u64 Svm::meta_paddr(proto::MetaKind kind, u64 page,
                           int word) const {
  switch (kind) {
    case proto::MetaKind::kOwner:
      return domain_.owner_entry_paddr(page);
    case proto::MetaKind::kScratchpad:
      return domain_.scratchpad_entry_paddr(page);
    case proto::MetaKind::kDirectory:
      return domain_.sharer_entry_paddr(page) + 8 * static_cast<u64>(word);
  }
  panic("unknown MetaKind");
}

u64 Svm::load(proto::MetaKind kind, u64 page, int word) {
  const u32 bits = kind == proto::MetaKind::kDirectory ? 64 : 16;
  return meta_load_word(meta_paddr(kind, page, word), bits, kind, page);
}

void Svm::store(proto::MetaKind kind, u64 page, int word,
                       u64 value) {
  const u32 bits = kind == proto::MetaKind::kDirectory ? 64 : 16;
  meta_store_word(meta_paddr(kind, page, word), value, bits, page);
}

}  // namespace msvm::svm
