// Typed event vocabulary of the observability subsystem.
//
// Every layer of the simulator publishes its interesting moments as one
// flat Event record: the protocol engine's state transitions and
// messages, the SVM runtime's fault/serve windows, mailbox deposits and
// deliveries, lock and WCB activity, memory-system transactions, and the
// chaos layer's injections. Events carry the publishing core's *virtual*
// timestamp — recording is host-side only and costs zero simulated time,
// which is what lets the whole subsystem stay bit-identical whether it
// is enabled or not.
//
// The obs library is the bottom of the dependency stack (even msvm_sim
// links it), so this header is deliberately freestanding: no sim/sccsim
// includes, local fixed-width aliases like the protocol core's.
#pragma once

#include <cstdint>

namespace msvm::obs {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i32 = std::int32_t;

/// Every event kind the bus understands. The first five mirror the
/// protocol layer's trace vocabulary one-to-one (same order, same
/// payload meaning) so the binding layer converts by cast.
enum class EventKind : u8 {
  // Protocol engine (payload: a = page, b/c = old TraceEvent a/b).
  kProtoTransition = 0,  // b: old PageState, c: new PageState
  kProtoMsgSend = 1,     // b: MsgType, c: destination core / multicast mask
  kProtoMsgRecv = 2,     // b: MsgType, c: requester id
  kProtoMetaWrite = 3,   // b: MetaKind | word index << 8, c: value
  kProtoFault = 4,       // b: 1 = write fault, c: fault-path tag

  // SVM runtime spans and instants.
  kFaultBegin,       // a: page, b: is_write — enter the fault handler
  kFaultEnd,         // a: page, b: is_write — leave the fault handler
  kServeBegin,       // a: page, b: mail type, c: request seq
  kServeEnd,         // a: page, b: mail type, c: request seq
  kMailRetransmit,   // a: dest core, b: packed mail, c: page

  // Synchronisation / kernel.
  kLockAcquire,  // a: TAS register, b: app lock id or page
  kLockRelease,  // a: TAS register, b: app lock id or page
  kWcbFlush,     // (no payload)
  kIpiRaise,     // a: target core

  // Mailbox transport.
  kMailSend,     // a: dest core,   b: packed mail (see pack_mail), c: p0
  kMailDeliver,  // a: sender core, b: packed mail,                 c: p0
  kMailSweep,    // a: mails recovered by this poll sweep

  // Memory system (high volume; gated separately, see kCatMem).
  kMemRead,   // a: paddr, b: size, c: target kind << 8 | owner
  kMemWrite,  // a: paddr, b: size, c: target kind << 8 | owner

  // Chaos layer.
  kFaultInject,   // a: InjectKind, b: injected delay in ps (when timed)
  kWatchdogTrip,  // a: core that noticed the hang

  // Failure recovery (category kCatProto: the auditor and the proto
  // rings must see epoch fences under the default mask).
  kRecoveryBegin,  // a: epoch, b: dead-core bitmask (low 64), c: page
  kRecoveryEnd,    // a: epoch, b: proto::RecoveryAction taken, c: page

  // Integrity layer (category kCatIntegrity): checksummed mail and
  // sealed pages turning corruption into detection-and-recovery.
  kMailCorruptDrop,  // a: sender core, b: packed mail, c: computed crc
  kPageSeal,         // a: page, b: seal generation, c: crc32c
  kPageCorrupt,      // a: page, b: seal generation; the page is poisoned
  kMetaCorrupt,      // a: page, b: MetaKind, c: corrected value
  kScrubPass,        // a: pages walked, b: corruptions found
};

/// What the chaos layer injected (payload `a` of kFaultInject).
enum class InjectKind : u8 {
  kIpiDrop = 0,
  kIpiDelay,
  kMailDelay,
  kMailDup,
  kStall,
  kSpuriousWake,
  kCoreKill,
  kMailFlip,
  kPageFlip,
  kMetaFlip,
};

inline const char* to_string(InjectKind k) {
  switch (k) {
    case InjectKind::kIpiDrop: return "ipi-drop";
    case InjectKind::kIpiDelay: return "ipi-delay";
    case InjectKind::kMailDelay: return "mail-delay";
    case InjectKind::kMailDup: return "mail-dup";
    case InjectKind::kStall: return "stall";
    case InjectKind::kSpuriousWake: return "spurious-wake";
    case InjectKind::kCoreKill: return "core-kill";
    case InjectKind::kMailFlip: return "mail-flip";
    case InjectKind::kPageFlip: return "page-flip";
    case InjectKind::kMetaFlip: return "meta-flip";
  }
  return "?";
}

inline const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kProtoTransition: return "proto-transition";
    case EventKind::kProtoMsgSend: return "proto-send";
    case EventKind::kProtoMsgRecv: return "proto-recv";
    case EventKind::kProtoMetaWrite: return "proto-meta";
    case EventKind::kProtoFault: return "proto-fault";
    case EventKind::kFaultBegin: return "svm-fault";
    case EventKind::kFaultEnd: return "svm-fault";
    case EventKind::kServeBegin: return "svm-serve";
    case EventKind::kServeEnd: return "svm-serve";
    case EventKind::kMailRetransmit: return "mail-retransmit";
    case EventKind::kLockAcquire: return "lock-acquire";
    case EventKind::kLockRelease: return "lock-release";
    case EventKind::kWcbFlush: return "wcb-flush";
    case EventKind::kIpiRaise: return "ipi";
    case EventKind::kMailSend: return "mail-send";
    case EventKind::kMailDeliver: return "mail-deliver";
    case EventKind::kMailSweep: return "mail-sweep";
    case EventKind::kMemRead: return "mem-read";
    case EventKind::kMemWrite: return "mem-write";
    case EventKind::kFaultInject: return "fault-inject";
    case EventKind::kWatchdogTrip: return "watchdog-trip";
    case EventKind::kRecoveryBegin: return "recovery-begin";
    case EventKind::kRecoveryEnd: return "recovery-end";
    case EventKind::kMailCorruptDrop: return "mail-corrupt-drop";
    case EventKind::kPageSeal: return "page-seal";
    case EventKind::kPageCorrupt: return "page-corrupt";
    case EventKind::kMetaCorrupt: return "meta-corrupt";
    case EventKind::kScrubPass: return "scrub-pass";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Categories: the bus's runtime gate. EventBus::publish looks up each
// event's category here and drops it when the mask has that category
// off; publishing sites never name a category themselves.

inline constexpr u32 kCatProto = 1u << 0;  // always on: feeds the rings
inline constexpr u32 kCatSvm = 1u << 1;
inline constexpr u32 kCatMail = 1u << 2;
inline constexpr u32 kCatSync = 1u << 3;
inline constexpr u32 kCatMem = 1u << 4;  // high volume, off by default
inline constexpr u32 kCatChaos = 1u << 5;
inline constexpr u32 kCatIntegrity = 1u << 6;

/// What `--trace` turns on (everything but the memory firehose).
inline constexpr u32 kCatTrace =
    kCatProto | kCatSvm | kCatMail | kCatSync | kCatChaos | kCatIntegrity;
inline constexpr u32 kCatAll = kCatTrace | kCatMem;

constexpr u32 category_of(EventKind k) {
  switch (k) {
    case EventKind::kProtoTransition:
    case EventKind::kProtoMsgSend:
    case EventKind::kProtoMsgRecv:
    case EventKind::kProtoMetaWrite:
    case EventKind::kProtoFault:
      return kCatProto;
    case EventKind::kFaultBegin:
    case EventKind::kFaultEnd:
    case EventKind::kServeBegin:
    case EventKind::kServeEnd:
    case EventKind::kMailRetransmit:
      return kCatSvm;
    case EventKind::kLockAcquire:
    case EventKind::kLockRelease:
    case EventKind::kWcbFlush:
    case EventKind::kIpiRaise:
      return kCatSync;
    case EventKind::kMailSend:
    case EventKind::kMailDeliver:
    case EventKind::kMailSweep:
      return kCatMail;
    case EventKind::kMemRead:
    case EventKind::kMemWrite:
      return kCatMem;
    case EventKind::kFaultInject:
    case EventKind::kWatchdogTrip:
      return kCatChaos;
    case EventKind::kRecoveryBegin:
    case EventKind::kRecoveryEnd:
      return kCatProto;
    case EventKind::kMailCorruptDrop:
    case EventKind::kPageSeal:
    case EventKind::kPageCorrupt:
    case EventKind::kMetaCorrupt:
    case EventKind::kScrubPass:
      return kCatIntegrity;
  }
  return kCatProto;
}

/// One published event. `core` is the publishing core (-1 for chip-level
/// sources like the watchdog); `t_ps` is that core's virtual clock.
struct Event {
  u64 t_ps = 0;
  u64 a = 0;
  u64 b = 0;
  u64 c = 0;
  EventKind kind = EventKind::kProtoTransition;
  i32 core = -1;
};

// ---------------------------------------------------------------------------
// Mail payload packing: kMailSend/kMailDeliver compress the protocol-
// relevant mail header into Event::b so the exporter can reconstruct
// request/ACK chains.

constexpr u64 pack_mail(u8 type, u16 seq, u8 requester) {
  return static_cast<u64>(type) | (static_cast<u64>(seq) << 16) |
         (static_cast<u64>(requester) << 32);
}
constexpr u8 mail_type(u64 packed) { return static_cast<u8>(packed); }
constexpr u16 mail_seq(u64 packed) {
  return static_cast<u16>(packed >> 16);
}
constexpr u8 mail_requester(u64 packed) {
  return static_cast<u8>(packed >> 32);
}

/// On-wire SVM protocol mail types: the values of svm::proto::MsgType,
/// copied because obs sits below the svm layer. svm/svm.cpp pins the
/// copy with static_asserts.
inline constexpr u8 kWireOwnershipReq = 0x20;
inline constexpr u8 kWireOwnershipAck = 0x21;
inline constexpr u8 kWireReadReq = 0x22;
inline constexpr u8 kWireReadAck = 0x23;
inline constexpr u8 kWireInval = 0x24;
inline constexpr u8 kWireInvalAck = 0x25;

constexpr bool is_wire_request(u8 type) {
  return type == kWireOwnershipReq || type == kWireReadReq ||
         type == kWireInval;
}
constexpr bool is_wire_ack(u8 type) {
  return type == kWireOwnershipAck || type == kWireReadAck ||
         type == kWireInvalAck;
}

/// Flow id linking one protocol request round-trip end to end: stamped
/// from (originating requester, sequence number), both of which every
/// hop of the chain echoes.
constexpr u64 flow_id(u8 requester, u16 seq) {
  return (static_cast<u64>(requester) << 16) | seq;
}

}  // namespace msvm::obs
