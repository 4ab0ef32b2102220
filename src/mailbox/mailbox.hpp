// MetalSVM's asynchronous mailbox system (paper, Section 5).
//
// Topology: the receiver's MPB holds one cache-line mailbox per potential
// sender (a single-reader / single-writer pair per channel, which is what
// makes the synchronisation trivially safe). A mailbox carries a `flag`
// byte owned by the protocol: the sender sets it after depositing payload,
// the receiver clears it after consuming. A sender finding the flag still
// set busy-waits "until the receiver has consumed the mail".
//
// Two delivery modes, the subject of Figures 6 and 7:
//   - poll mode (use_ipi = false): the kernel checks every participating
//     sender's slot on each timer interrupt and in the idle/wait loops.
//     Each check costs ~100 core cycles (paper footnote 2), so the cost
//     grows linearly with the number of activated cores.
//   - IPI mode (use_ipi = true): after depositing a mail the sender raises
//     an inter-processor interrupt through the Global Interrupt
//     Controller; the receiver's handler checks *only the raiser's slot*,
//     making the latency independent of the core count.
//
// Incoming mail is dispatched to a registered per-type handler (the SVM
// ownership protocol installs one) or, when no handler matches, queued in
// a software inbox that recv_match() consumes.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "kernel/kernel.hpp"
#include "mailbox/mail_ring.hpp"
#include "sim/fnref.hpp"
#include "sim/types.hpp"

namespace msvm::mbox {

struct Mail {
  u8 type = 0;
  u16 arg16 = 0;
  u64 p0 = 0;
  u64 p1 = 0;
  u64 p2 = 0;
  /// Filled in by the receiving side.
  int sender = -1;
};

struct MailboxStats {
  u64 sent = 0;
  u64 received = 0;
  u64 slot_checks = 0;      // individual mailbox flag checks
  u64 send_stalls = 0;      // send attempts that found the slot full
  u64 handler_dispatch = 0;
  u64 inbox_enqueued = 0;
  u64 multicasts = 0;       // multicast() calls (fan-out counted in sent)
  TimePs send_stall_ps = 0; // virtual time spent stalled in send()
  TimePs recv_wait_ps = 0;  // virtual time spent blocked in recv_match*
  u64 sweep_recoveries = 0; // mails found by the IPI-mode poll sweep
  u64 dispatches_deferred = 0;  // handler runs queued past the depth cap
  u64 dead_drops = 0;       // sends dropped: destination presumed dead
  u64 corrupt_drops = 0;    // deliveries dropped on a CRC mismatch
};

/// Self-description of MailboxStats, in declaration order, for
/// table-driven aggregation and metrics export.
struct MailboxStatsField {
  const char* name;
  u64 MailboxStats::*member;
};

inline constexpr MailboxStatsField kMailboxStatsFields[] = {
    {"sent", &MailboxStats::sent},
    {"received", &MailboxStats::received},
    {"slot_checks", &MailboxStats::slot_checks},
    {"send_stalls", &MailboxStats::send_stalls},
    {"handler_dispatch", &MailboxStats::handler_dispatch},
    {"inbox_enqueued", &MailboxStats::inbox_enqueued},
    {"multicasts", &MailboxStats::multicasts},
    {"send_stall_ps", &MailboxStats::send_stall_ps},
    {"recv_wait_ps", &MailboxStats::recv_wait_ps},
    {"sweep_recoveries", &MailboxStats::sweep_recoveries},
    {"dispatches_deferred", &MailboxStats::dispatches_deferred},
    {"dead_drops", &MailboxStats::dead_drops},
    {"corrupt_drops", &MailboxStats::corrupt_drops},
};

class MailboxSystem {
 public:
  /// `use_ipi` selects the delivery mode (see file comment). The mailbox
  /// registers itself with the kernel's interrupt fabric at construction
  /// and takes its IPI-loss defences from the chip's fault plan.
  MailboxSystem(kernel::Kernel& kernel, bool use_ipi);

  MailboxSystem(const MailboxSystem&) = delete;
  MailboxSystem& operator=(const MailboxSystem&) = delete;

  bool use_ipi() const { return use_ipi_; }
  int core_id() const { return kernel_.core_id(); }

  /// Declares which cores participate in the communication domain; in
  /// poll mode only their slots are scanned ("the benchmark activates
  /// only two cores. Therefore, only one receive buffer per core has to
  /// be checked", Section 7.1). Defaults to every core on the chip.
  void set_participants(std::vector<int> cores);

  /// Sends a mail to `dest`, busy-waiting while dest's slot for this
  /// sender is still full. Incoming mail continues to be drained while
  /// stalled, so mutual sends cannot deadlock. In IPI mode an IPI is
  /// raised after the deposit.
  void send(int dest, const Mail& mail);

  /// Non-blocking send: returns false (without waiting) when dest's slot
  /// for this sender is still full.
  bool try_send(int dest, const Mail& mail);

  /// Sends `mail` to every core in `dests`, always excluding the calling
  /// core. There is no hardware broadcast on the chip: the fan-out is a
  /// software loop of ordinary sends, each paying the full deposit cost
  /// (the SVM invalidation protocol amortises the latency by overlapping
  /// the ACK waits). Returns the number of mails sent.
  int multicast(const std::vector<int>& dests, const Mail& mail);

  /// Registers a handler for a mail type. Handled types never reach the
  /// inbox; the handler runs in whatever context noticed the mail
  /// (interrupt, idle loop, or a wait loop).
  using Handler = std::function<void(const Mail&)>;
  void set_handler(u8 type, Handler handler);

  /// Scans every participating sender's slot once; returns mails seen.
  int poll_all();

  /// Scans one sender's slot; returns mails seen (0 or 1).
  int poll_from(int sender);

  /// Blocks until a mail satisfying `pred` arrives (via inbox), draining
  /// and dispatching other traffic meanwhile. Poll mode spins over
  /// poll_all(); IPI mode halts between interrupts.
  ///
  /// The predicate is a non-owning reference (sim::FnRef): constructing
  /// one never allocates — the SVM fault path builds a fresh predicate
  /// per protocol wait, which as a std::function heap-allocated every
  /// time the capture outgrew the small-buffer limit. A lambda passed
  /// directly to these calls outlives the wait (full-expression
  /// lifetime); see fnref.hpp for the storage rule.
  using Predicate = sim::FnRef<bool(const Mail&)>;
  Mail recv_match(Predicate pred);

  /// Like recv_match but gives up (returns nullopt) once the core's
  /// virtual clock reaches `deadline`. The deadline check is host-side
  /// only: a wait that succeeds before the deadline is cycle-identical
  /// to recv_match. This is the primitive under the SVM layer's bounded
  /// protocol waits and retransmission.
  std::optional<Mail> recv_match_until(Predicate pred, TimePs deadline);

  /// Convenience: waits for the next mail of `type`.
  Mail recv_type(u8 type) {
    return recv_match([type](const Mail& m) { return m.type == type; });
  }

  /// Non-blocking inbox take.
  std::optional<Mail> try_take(Predicate pred);

  /// Queues a mail into the software inbox as if it had arrived without
  /// a registered handler. Used by handlers that filter traffic (e.g.
  /// the SVM ack dedup) and then hand the survivors to waiting
  /// recv_match callers.
  void enqueue_inbox(const Mail& mail);

  const MailboxStats& stats() const { return stats_; }

  /// Mails queued in the software inbox that no recv_match took yet.
  std::size_t inbox_depth() const { return inbox_.size(); }

 private:
  /// Physical address of the slot written by `sender` in `receiver`'s MPB.
  u64 slot_paddr(int receiver, int sender) const;

  /// Writes payload + flag into an empty slot and raises the IPI.
  void deposit(u64 slot, const Mail& mail, int dest);

  /// Reads one slot; on full: consumes, dispatches/queues, clears flag.
  bool check_slot(int sender);

  void dispatch(Mail mail);

  /// Shared wait loop of recv_match / recv_match_until; `deadline` is
  /// kTimeNever for an unbounded wait.
  std::optional<Mail> recv_loop(Predicate pred, TimePs deadline);

  /// Timer callback in IPI mode under the recovery envelope.
  void sweep_tick();

  kernel::Kernel& kernel_;
  scc::Core& core_;
  bool use_ipi_;
  /// True in IPI mode when the fault plan arms the recovery envelope
  /// (FaultPlan::recovery_armed): every 2nd timer interrupt the receiver
  /// scans all participating slots, catching mails whose interrupt was
  /// lost. Off on a plan-free run (bit-identical); a missed IPI then
  /// wedges the receiver like the real part.
  bool sweep_ = false;
  std::vector<int> participants_;
  std::vector<Handler> handlers_;  // indexed by type
  MailRing<Mail> inbox_;
  /// Handler runs deferred past kMaxDispatchDepth, drained iteratively
  /// by the outermost dispatch (see MailboxSystem::dispatch).
  MailRing<Mail> deferred_;
  MailboxStats stats_;
  /// True when the fault plan arms the integrity layer: mails are sealed
  /// with a CRC32C on deposit and verified (drop on mismatch) on
  /// delivery. Latched at construction — the plan is fixed per chip.
  bool integrity_ = false;
  static constexpr int kMaxDispatchDepth = 16;
  int dispatch_depth_ = 0;
  u32 poll_jitter_ = 0x12345u;
  u32 sweep_countdown_ = 0;
};

}  // namespace msvm::mbox
