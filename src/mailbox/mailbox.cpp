#include "mailbox/mailbox.hpp"

#include <cassert>
#include <cstring>

#include "sccsim/addrmap.hpp"
#include "sim/crc32c.hpp"
#include "sim/log.hpp"

namespace msvm::mbox {

namespace {

using scc::kMailBytes;

// Byte layout of a 32-byte mailbox line.
constexpr u32 kFlagOff = 0;
constexpr u32 kTypeOff = 1;
constexpr u32 kArgOff = 2;
constexpr u32 kP0Off = 4;
constexpr u32 kP1Off = 12;
constexpr u32 kP2Off = 20;
// Bytes 28..31 were unused padding; the integrity layer stores a CRC32C
// of bytes [1, 28) there when armed. The flag byte stays outside the
// checksum: it is flow control, and a flipped flag manifests as a lost
// or spurious delivery, both already covered by the retransmit layer.
constexpr u32 kCrcOff = 28;
constexpr u32 kCrcSpanOff = kTypeOff;
constexpr u32 kCrcSpanBytes = kCrcOff - kCrcSpanOff;

// Modelled software cost of checking one receive buffer: "Currently, the
// mailbox system requires 100 processor cycles to check one receive
// buffer" (paper footnote 2). The uncached MPB flag read is charged on
// top by the memory model.
constexpr u64 kSlotCheckCycles = 100;

// Under an armed recovery envelope (FaultPlan::recovery_armed) the IPI
// mailbox scans every slot on every kSweepTicks-th timer interrupt: the
// paper's poll path, run at a low rate to catch mails whose IPI was lost.
constexpr u32 kSweepTicks = 2;

// Software cost of composing/consuming a mail (copies, bookkeeping).
constexpr u64 kMailSoftwareCycles = 60;

// Modelled cost of checksumming one 27-byte mail span (table-driven
// software CRC32C, ~1 cycle/byte plus setup). Charged only when the
// integrity layer is armed, so flags-off runs stay cycle-identical.
constexpr u64 kMailCrcCycles = 40;

}  // namespace

MailboxSystem::MailboxSystem(kernel::Kernel& kernel, bool use_ipi)
    : kernel_(kernel),
      core_(kernel.core()),
      use_ipi_(use_ipi),
      sweep_(use_ipi &&
             kernel.core().chip().faults().plan().recovery_armed()),
      handlers_(256),
      integrity_(kernel.core().chip().faults().plan().integrity_armed()),
      sweep_countdown_(kSweepTicks) {
  const int n = core_.chip().num_cores();
  participants_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) participants_.push_back(i);

  if (use_ipi_) {
    // Event-driven path: check exactly the slots of the cores that raised
    // the interrupt.
    kernel_.add_ipi_handler([this](const scc::IpiSourceSet& sources) {
      sources.for_each([this](int src) { poll_from(src); });
    });
    if (sweep_) {
      // Low-rate safety net against lost interrupts: every 2nd timer
      // tick, scan all slots anyway. Off on plan-free runs — a sweep
      // costs slot-check cycles even when every IPI arrives.
      kernel_.add_timer_handler([this] { sweep_tick(); });
    }
  } else {
    // Poll path: scan everything on every timer interrupt; idle and wait
    // loops scan explicitly.
    kernel_.add_timer_handler([this] { poll_all(); });
  }
}

void MailboxSystem::sweep_tick() {
  if (--sweep_countdown_ != 0) return;
  sweep_countdown_ = kSweepTicks;
  const int seen = poll_all();
  if (seen <= 0) return;
  // Every mail found here is one whose IPI never got us to check the
  // slot — interrupt loss evidence.
  stats_.sweep_recoveries += static_cast<u64>(seen);
  core_.publish(obs::EventKind::kMailSweep, static_cast<u64>(seen));
  MSVM_LOG_INFO("core %d: poll sweep recovered %d mail(s) missed by IPI",
                core_.id(), seen);
}

void MailboxSystem::set_participants(std::vector<int> cores) {
  participants_ = std::move(cores);
}

u64 MailboxSystem::slot_paddr(int receiver, int sender) const {
  const scc::AddrMap& map = core_.chip().map();
  return map.mpb_base(receiver) + map.layout().mail_slot(sender);
}

void MailboxSystem::deposit(u64 slot, const Mail& mail, int dest) {
  // Deposit payload, then set the flag — the flag write is the release
  // point of the SRSW channel.
  core_.compute_cycles(kMailSoftwareCycles);
  u8 line[kMailBytes] = {0};
  line[kTypeOff] = mail.type;
  std::memcpy(line + kArgOff, &mail.arg16, sizeof(mail.arg16));
  std::memcpy(line + kP0Off, &mail.p0, sizeof(mail.p0));
  std::memcpy(line + kP1Off, &mail.p1, sizeof(mail.p1));
  std::memcpy(line + kP2Off, &mail.p2, sizeof(mail.p2));
  if (integrity_) {
    // Seal the payload span; the receiver verifies before dispatching.
    const u32 crc = sim::crc32c(line + kCrcSpanOff, kCrcSpanBytes);
    std::memcpy(line + kCrcOff, &crc, sizeof(crc));
    core_.compute_cycles(kMailCrcCycles);
  }
  core_.pwrite(slot + 1, line + 1, kMailBytes - 1,
               scc::MemPolicy::kUncached);
  core_.pstore<u8>(slot + kFlagOff, 1, scc::MemPolicy::kUncached);
  ++stats_.sent;
  MSVM_LOG_DEBUG("core %d: DEPOSIT type=%u p0=%llu -> %d", core_.id(),
                 mail.type, static_cast<unsigned long long>(mail.p0), dest);
  // p1 carries the requester rank on protocol mails; the packed word
  // lets the trace exporter reconstruct request/ACK flow chains.
  core_.publish(
      obs::EventKind::kMailSend, static_cast<u64>(dest),
      obs::pack_mail(mail.type, mail.arg16, static_cast<obs::u8>(mail.p1)),
      mail.p0);
  if (use_ipi_) core_.raise_ipi(dest);
}

bool MailboxSystem::try_send(int dest, const Mail& mail) {
  const u64 slot = slot_paddr(dest, core_.id());
  // The flag check and the deposit must be atomic against our own
  // interrupt handlers: a handler interrupting between them could itself
  // deposit into this very slot (e.g. an ownership ACK), which the
  // resumed send would silently overwrite.
  core_.irq_disable();
  const u8 flag =
      core_.pload<u8>(slot + kFlagOff, scc::MemPolicy::kUncached);
  if (flag != 0) {
    core_.irq_enable();
    return false;
  }
  deposit(slot, mail, dest);
  core_.irq_enable();
  return true;
}

void MailboxSystem::send(int dest, const Mail& mail) {
  sim::BlockScope scope(core_.chip().scheduler().current(), "mbox.send",
                        static_cast<u64>(dest), mail.type);
  TimePs stall_t0 = 0;  // clock at the first full-slot observation
  u64 stall_spins = 0;
  // Wait for the destination slot to drain. Keep consuming our own
  // incoming traffic meanwhile: the peer may be blocked sending to *us*.
  for (;;) {
    if (try_send(dest, mail)) {
      if (stall_t0 != 0) stats_.send_stall_ps += core_.now() - stall_t0;
      return;
    }
    // Fail fast on a dead destination: its inbound slot will never drain
    // again, so stalling here would hang until the watchdog. The mail is
    // dropped — exactly what the wire does to a dead receiver — and the
    // sender recovers through the protocol retransmission/recovery layer.
    // (A deposit into an *empty* dead slot above is harmless: the MPB is
    // just memory, and nobody will read it.)
    if (core_.chip().peer_presumed_dead(dest, core_.now())) {
      ++stats_.dead_drops;
      if (stall_t0 != 0) stats_.send_stall_ps += core_.now() - stall_t0;
      return;
    }
    ++stats_.send_stalls;
    if (stall_t0 == 0) stall_t0 = core_.now();
    if (core_.chip().watchdog().check(core_.now(), stall_t0, "mbox.send",
                                      core_.id())) {
      core_.chip().scheduler().block();  // parked until teardown
    }
    if (!use_ipi_) {
      poll_all();
    } else if (core_.in_interrupt() || core_.irqs_masked()) {
      // Nested interrupt delivery is masked while a handler runs. Drain
      // pending IPIs by hand, otherwise two cores replying to each other
      // from handler context would deadlock on full slots.
      scc::Gic& gic = core_.chip().gic();
      if (gic.has_pending(core_.id())) {
        const scc::IpiSourceSet sources = gic.take_pending(core_.id());
        sources.for_each([this](int src) { poll_from(src); });
      } else if (sweep_ && ++stall_spins % 16 == 0) {
        // A deposit whose IPI was lost is invisible to the GIC drain,
        // and the timer-driven sweep cannot nest into handler context:
        // two handlers stalled sending ACKs to each other, both wake
        // IPIs dropped, would deadlock. Under the recovery envelope
        // (off on plan-free runs), scan all slots at a low rate from
        // the stall loop itself.
        poll_all();
      }
    }
    // In IPI mode (outside handlers) incoming mail is consumed by the
    // interrupt handler, which the re-reads above let run at boundaries.
    core_.yield();
  }
}

int MailboxSystem::multicast(const std::vector<int>& dests,
                             const Mail& mail) {
  ++stats_.multicasts;
  int sent = 0;
  for (const int dest : dests) {
    if (dest == core_.id()) continue;  // never self: poll skips our slot
    assert(dest >= 0 && dest < core_.chip().num_cores());
    send(dest, mail);
    ++sent;
  }
  return sent;
}

void MailboxSystem::set_handler(u8 type, Handler handler) {
  handlers_[type] = std::move(handler);
}

int MailboxSystem::poll_all() {
  int seen = 0;
  for (const int sender : participants_) {
    if (sender == core_.id()) continue;
    if (check_slot(sender)) ++seen;
  }
  return seen;
}

int MailboxSystem::poll_from(int sender) {
  if (sender == core_.id()) return 0;
  return check_slot(sender) ? 1 : 0;
}

bool MailboxSystem::check_slot(int sender) {
  ++stats_.slot_checks;
  core_.compute_cycles(kSlotCheckCycles);
  const u64 slot = slot_paddr(core_.id(), sender);
  // The flag read, payload read and flag clear must be atomic against
  // our own interrupt handlers: an IPI/timer handler landing mid-consume
  // would re-poll this very slot, find the flag still set, and dispatch
  // the same mail twice. Dispatch happens after unmasking so handler
  // code runs with normal interrupt delivery.
  core_.irq_disable();
  const u8 flag =
      core_.pload<u8>(slot + kFlagOff, scc::MemPolicy::kUncached);
  if (flag == 0) {
    core_.irq_enable();
    return false;
  }
  if (core_.chip().faults().enabled() &&
      core_.chip().faults().delay_flag()) {
    // Injected visibility delay: the flag byte is set but this check
    // pretends it is not — the mail stays deposited and a later check
    // (poll, sweep, or retransmission-triggered) will see it.
    core_.irq_enable();
    core_.publish(obs::EventKind::kFaultInject,
                  static_cast<u64>(obs::InjectKind::kMailDelay));
    return false;
  }

  Mail mail;
  u8 line[kMailBytes];
  core_.pread(slot, line, kMailBytes, scc::MemPolicy::kUncached);
  if (core_.chip().faults().enabled()) {
    // Injected MPB corruption: one bit of the line as read — payload or
    // CRC, never the flag byte (a flipped flag is a lost/spurious
    // delivery, the omission fault domain).
    const int bit =
        core_.chip().faults().mail_flip_bit((kMailBytes - 1) * 8);
    if (bit >= 0) {
      line[1 + static_cast<u32>(bit) / 8] ^=
          static_cast<u8>(1u << (static_cast<u32>(bit) % 8));
      core_.publish(obs::EventKind::kFaultInject,
                    static_cast<u64>(obs::InjectKind::kMailFlip),
                    static_cast<u64>(bit));
    }
  }
  if (integrity_) {
    core_.compute_cycles(kMailCrcCycles);
    u32 stored = 0;
    std::memcpy(&stored, line + kCrcOff, sizeof(stored));
    const u32 computed = sim::crc32c(line + kCrcSpanOff, kCrcSpanBytes);
    if (stored != computed) {
      // Corrupt mail: consume the slot — the sender must not stay
      // blocked on it — but never dispatch. Requests and ACKs are both
      // recovered by the seq/retransmit layer above; counting the drop
      // is what lets the campaign ledger reconcile every injected flip.
      core_.pstore<u8>(slot + kFlagOff, 0, scc::MemPolicy::kUncached);
      core_.irq_enable();
      ++stats_.corrupt_drops;
      MSVM_LOG_INFO("core %d: dropped corrupt mail from %d (crc %08x != %08x)",
                    core_.id(), sender, stored, computed);
      core_.publish(obs::EventKind::kMailCorruptDrop,
                    static_cast<u64>(sender),
                    obs::pack_mail(line[kTypeOff], 0, 0), computed);
      return true;
    }
  }
  mail.type = line[kTypeOff];
  std::memcpy(&mail.arg16, line + kArgOff, sizeof(mail.arg16));
  std::memcpy(&mail.p0, line + kP0Off, sizeof(mail.p0));
  std::memcpy(&mail.p1, line + kP1Off, sizeof(mail.p1));
  std::memcpy(&mail.p2, line + kP2Off, sizeof(mail.p2));
  mail.sender = sender;
  MSVM_LOG_DEBUG("core %d: CONSUME type=%u p0=%llu from %d", core_.id(),
                 mail.type, static_cast<unsigned long long>(mail.p0),
                 sender);
  // Consuming the mail: clear the flag so the sender may reuse the slot.
  core_.pstore<u8>(slot + kFlagOff, 0, scc::MemPolicy::kUncached);
  core_.irq_enable();
  ++stats_.received;
  core_.publish(
      obs::EventKind::kMailDeliver, static_cast<u64>(sender),
      obs::pack_mail(mail.type, mail.arg16, static_cast<obs::u8>(mail.p1)),
      mail.p0);
  core_.compute_cycles(kMailSoftwareCycles);
  dispatch(mail);
  if (core_.chip().faults().enabled() &&
      core_.chip().faults().duplicate_mail()) {
    // Injected duplicate delivery: the same consumed mail is handed to
    // dispatch a second time, probing the receiver-side dedup.
    core_.publish(obs::EventKind::kFaultInject,
                  static_cast<u64>(obs::InjectKind::kMailDup));
    dispatch(mail);
  }
  return true;
}

void MailboxSystem::dispatch(Mail mail) {
  if (!handlers_[mail.type]) {
    ++stats_.inbox_enqueued;
    inbox_.push_back(mail);
    return;
  }
  // Handlers may send replies, which may stall and drain more traffic,
  // dispatching nested mails. Under retransmission storms that mutual
  // recursion is unbounded (every retransmitted request served from
  // within the previous serve adds a stack level until the fiber's guard
  // page faults), so past a fixed depth the handler run is deferred: the
  // mail was already consumed (its slot flag cleared — that is what
  // unblocks the sender), only the handler body waits for the outermost
  // dispatcher to drain the queue iteratively. Clean runs never nest
  // anywhere near the cap, so the fast path is byte-for-byte the
  // historical recursive dispatch.
  if (dispatch_depth_ >= kMaxDispatchDepth) {
    ++stats_.dispatches_deferred;
    deferred_.push_back(mail);
    return;
  }
  ++dispatch_depth_;
  ++stats_.handler_dispatch;
  handlers_[mail.type](mail);
  --dispatch_depth_;
  while (dispatch_depth_ == 0 && !deferred_.empty()) {
    const Mail m = deferred_.front();
    deferred_.pop_front();
    ++dispatch_depth_;
    ++stats_.handler_dispatch;
    handlers_[m.type](m);
    --dispatch_depth_;
  }
}

std::optional<Mail> MailboxSystem::try_take(Predicate pred) {
  for (std::size_t i = 0; i < inbox_.size(); ++i) {
    if (pred(inbox_.at(i))) {
      const Mail m = inbox_.at(i);
      inbox_.erase_at(i);
      return m;
    }
  }
  return std::nullopt;
}

void MailboxSystem::enqueue_inbox(const Mail& mail) {
  ++stats_.inbox_enqueued;
  inbox_.push_back(mail);
}

std::optional<Mail> MailboxSystem::recv_loop(Predicate pred,
                                             TimePs deadline) {
  sim::BlockScope scope(core_.chip().scheduler().current(), "mbox.recv");
  const TimePs t0 = core_.now();
  u64 rounds = 0;
  for (;;) {
    if (auto m = try_take(pred)) {
      stats_.recv_wait_ps += core_.now() - t0;
      return m;
    }
    if (core_.now() >= deadline) {
      // Host-side bound only: a wait that succeeds before the deadline
      // never observes it and is cycle-identical to the unbounded wait.
      stats_.recv_wait_ps += core_.now() - t0;
      return std::nullopt;
    }
    if (++rounds % 5000 == 0) {
      MSVM_LOG_ERROR("core %d: recv_match starving (round %llu, inbox=%zu)",
                     core_.id(), static_cast<unsigned long long>(rounds),
                     inbox_.size());
    }
    if (core_.chip().watchdog().check(core_.now(), t0, "mbox.recv",
                                      core_.id())) {
      core_.chip().scheduler().block();  // parked until teardown
    }
    if (use_ipi_) {
      // Sleep until an interrupt (the IPI handler fills the inbox).
      kernel_.idle_once();
    } else {
      poll_all();
      // A short jittered pause between scans decouples this poll loop
      // from lock-step coupling with the peer (and keeps the host
      // scheduler out of per-iteration churn). The jitter (~90-150 core
      // cycles, well below one slot check) models the pipeline noise a
      // real poll loop has; without it the deterministic simulation
      // aliases poll phases against the sender.
      poll_jitter_ = poll_jitter_ * 1103515245u + 12345u;
      const u64 pause = 90 + (poll_jitter_ >> 16) % 64;
      core_.relax(pause * core_.chip().config().core_cycle_ps());
    }
  }
}

Mail MailboxSystem::recv_match(Predicate pred) {
  return *recv_loop(pred, kTimeNever);
}

std::optional<Mail> MailboxSystem::recv_match_until(Predicate pred,
                                                    TimePs deadline) {
  return recv_loop(pred, deadline);
}

}  // namespace msvm::mbox
