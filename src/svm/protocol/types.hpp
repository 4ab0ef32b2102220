// Transport-agnostic vocabulary of the SVM coherence-protocol core.
//
// Everything under src/svm/protocol/ is the *protocol layer*: the
// per-page state machine, the policy classes that drive it, and the data
// types they exchange. The layer deliberately has no idea what a chip,
// fiber, or mailbox is — it consumes protocol messages and fault events
// and emits messages and metadata operations through the ProtocolEnv
// interface (env.hpp). The per-core svm::Svm (svm/svm.hpp) adapts it
// to the simulated SCC; the test harness (tests/svm/protocol_harness.hpp)
// adapts it to scripted message sequences. An include-layering CI check
// keeps sccsim/sim/mailbox/kernel headers out of this directory.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace msvm::svm::proto {

// Local fixed-width aliases: the protocol layer cannot include
// sim/types.hpp (layering), and these are identical to the msvm-wide
// aliases, so the two sets interconvert freely at the binding layer.
using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;

/// The explicit per-page state machine. Under the Strong model a page is
/// OwnedRW on exactly one core and Invalid everywhere else; the
/// read-replication extension adds SharedRO replicas (owner downgraded,
/// sharers read-only). Under Lazy Release every mapped page is OwnedRW
/// on every core — writes meet at synchronisation points only, and the
/// diff-free write-combine buffer (dirty-byte flushes) is what makes
/// concurrent writers to disjoint bytes of one page safe.
enum class PageState : u8 {
  kInvalid = 0,   // no mapping (or mapping revoked by the protocol)
  kSharedRO = 1,  // read-only replica / downgraded owner copy
  kOwnedRW = 2,   // writable mapping
};

inline const char* to_string(PageState s) {
  switch (s) {
    case PageState::kInvalid: return "Invalid";
    case PageState::kSharedRO: return "SharedRO";
    case PageState::kOwnedRW: return "OwnedRW";
  }
  return "?";
}

/// Protocol message types, which are also the on-wire mailbox mail types:
/// the binding layer converts by cast, and the protocol core never sees
/// a mailbox header. Each request's ACK is the next value.
enum class MsgType : u8 {
  kOwnershipReq = 0x20,  // Strong: move ownership to `requester`
  kOwnershipAck = 0x21,  // transfer complete (or confirmed already done)
  kReadReq = 0x22,       // read replication: grant a read-only replica
  kReadAck = 0x23,       // Exclusive -> Shared downgrade done
  kInval = 0x24,         // write upgrade: drop your replica
  kInvalAck = 0x25,      // replica dropped
};

/// A request is stamped with a fresh sequence number by the core that
/// originates it, and awaited; everything else answers one.
constexpr bool is_request(MsgType t) {
  return t == MsgType::kOwnershipReq || t == MsgType::kReadReq ||
         t == MsgType::kInval;
}

/// The ACK that answers request `t`.
constexpr MsgType ack_of(MsgType t) {
  return static_cast<MsgType>(static_cast<u8>(t) + 1);
}

inline const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kOwnershipReq: return "OwnershipReq";
    case MsgType::kOwnershipAck: return "OwnershipAck";
    case MsgType::kReadReq: return "ReadReq";
    case MsgType::kReadAck: return "ReadAck";
    case MsgType::kInval: return "Inval";
    case MsgType::kInvalAck: return "InvalAck";
  }
  return "?";
}

/// A protocol message. `requester` survives forwarding: when a stale
/// owner forwards an OwnershipReq along the ownership chain, the
/// original faulting core's id rides in the payload.
struct Msg {
  MsgType type = MsgType::kOwnershipReq;
  u64 page = 0;       // global SVM page index
  int requester = 0;  // payload core id (requester / upgrader)
};

/// Read-replication directory entry layout, one rule on every die: the
/// entry of a page is a bit vector of dir_words(n) 64-bit words. Sharer
/// i — a core holding a read-only replica, never the owner — is bit
/// i % 64 of word i / 64. Bit 63 of the last word (kDirSharedBit) marks
/// the Shared state: the owner downgraded its own mapping to read-only
/// and the frame in DRAM is clean.
inline constexpr u64 kDirSharedBit = u64{1} << 63;
inline constexpr u64 dir_bit(int core_id) { return u64{1} << core_id; }

/// Words per directory entry on an n-core die: one below 64 cores
/// (sharers in bits [0, 63)), else one word per 64 sharers plus a last
/// word that holds only the Shared bit.
inline constexpr int dir_words(int num_cores) {
  return num_cores < 64 ? 1 : 1 + (num_cores + 63) / 64;
}

/// Fault-injection switches (testing only): each one removes a single
/// step of the consistency protocols. Because the simulated caches
/// carry real data, enabling any of these must produce *wrong results*
/// in the protocol tests — evidence that the simulator's incoherence
/// is real and the protocol steps are all load-bearing.
struct Sabotage {
  bool skip_serve_wcb_flush = false;   // Strong step 3a (Section 6.1)
  bool skip_serve_cl1invmb = false;    // Strong step 3b
  bool skip_serve_unmap = false;       // Strong "clears its access
                                       // permission"
  bool skip_release_flush = false;     // LRC release (Section 6.2)
  bool skip_acquire_invalidate = false;  // LRC acquire
};

/// Modelled software cost charged per protocol step (core cycles).
inline constexpr u32 kOwnershipSoftwareCycles = 400;

/// The slice of SvmConfig the protocol core needs. The binding layer
/// fills it from SvmConfig; the harness constructs it directly.
struct PolicyConfig {
  /// Requester waits for the ACK mail (paper's design). When false, the
  /// requester instead polls the off-die owner vector, reproducing the
  /// authors' earlier prototype [14] that "runs against the memory wall".
  bool ack_via_mail = true;
  Sabotage sabotage;
};

/// Protocol/runtime statistics of one core's SVM endpoint. Plain data;
/// defined here (not in svm.hpp) so policies can update their slice
/// through ProtocolEnv::stats() without seeing any runtime header.
struct SvmStats {
  u64 map_faults = 0;          // frame existed, mapping installed
  u64 first_touch_allocs = 0;  // this core allocated the frame
  u64 ownership_acquires = 0;  // strong-model permission retrievals
  u64 ownership_serves = 0;    // requests this core answered as owner
  u64 ownership_forwards = 0;  // stale requests forwarded onward
  u64 barriers = 0;
  u64 lock_acquires = 0;
  u64 protect_calls = 0;
  // Read-replication directory protocol (all zero with the flag off).
  u64 replica_installs = 0;    // read-only replica mappings installed
  u64 replica_grants = 0;      // Exclusive->Shared downgrades served
  u64 invalidations_sent = 0;  // per-sharer invalidation mails sent
  u64 invalidations_received = 0;  // replicas this core dropped on demand
  // Resilience machinery (all zero on a fault-free run).
  u64 retransmits = 0;         // protocol requests re-sent after timeout
  u64 dup_acks_dropped = 0;    // duplicate ACK mails discarded by dedup
  u64 acks_evicted = 0;        // live keys overwritten in the dedup ring
  // Fail-stop recovery (all zero unless a core was killed).
  u64 recoveries = 0;          // recover_page invocations
  u64 sharers_pruned = 0;      // dead cores removed from sharer sets
  u64 pages_rehomed = 0;       // dead-owner pages moved to a live sharer
  u64 pages_refetched = 0;     // dead-owner pages re-homed to the detector
  u64 pages_lost = 0;          // pages poisoned (owner died dirty)
  // Data integrity (all zero unless the integrity layer is armed).
  u64 pages_sealed = 0;        // frame checksums recorded at handoff
  u64 seal_verifies = 0;       // frame checksums checked before trusting
  u64 pages_poisoned = 0;      // frames that failed their seal check
  u64 meta_corrections = 0;    // metadata words caught and corrected
};

/// Self-description of SvmStats: one entry per field, in declaration
/// order. Aggregation (cluster report) and metrics export walk this
/// table instead of hand-listing fields.
struct SvmStatsField {
  const char* name;
  u64 SvmStats::*member;
};

inline constexpr SvmStatsField kSvmStatsFields[] = {
    {"map_faults", &SvmStats::map_faults},
    {"first_touch_allocs", &SvmStats::first_touch_allocs},
    {"ownership_acquires", &SvmStats::ownership_acquires},
    {"ownership_serves", &SvmStats::ownership_serves},
    {"ownership_forwards", &SvmStats::ownership_forwards},
    {"barriers", &SvmStats::barriers},
    {"lock_acquires", &SvmStats::lock_acquires},
    {"protect_calls", &SvmStats::protect_calls},
    {"replica_installs", &SvmStats::replica_installs},
    {"replica_grants", &SvmStats::replica_grants},
    {"invalidations_sent", &SvmStats::invalidations_sent},
    {"invalidations_received", &SvmStats::invalidations_received},
    {"retransmits", &SvmStats::retransmits},
    {"dup_acks_dropped", &SvmStats::dup_acks_dropped},
    {"acks_evicted", &SvmStats::acks_evicted},
    {"recoveries", &SvmStats::recoveries},
    {"sharers_pruned", &SvmStats::sharers_pruned},
    {"pages_rehomed", &SvmStats::pages_rehomed},
    {"pages_refetched", &SvmStats::pages_refetched},
    {"pages_lost", &SvmStats::pages_lost},
    {"pages_sealed", &SvmStats::pages_sealed},
    {"seal_verifies", &SvmStats::seal_verifies},
    {"pages_poisoned", &SvmStats::pages_poisoned},
    {"meta_corrections", &SvmStats::meta_corrections},
};

/// Hardware-counter events the protocol raises; the binding layer maps
/// them onto scc::CoreCounters, the harness onto plain tallies.
enum class HwEvent : u8 {
  kMailRoundtrip,  // one request/ACK (or multicast/ACK-set) round-trip
};

/// Which metadata word a MetaStore access targets (see meta.hpp).
/// Lives here so trace formatting can name metadata writes.
enum class MetaKind : u8 {
  kOwner = 0,       // u16: owning core id
  kScratchpad = 1,  // u16: frame number (bit 15 unused, masked)
  kDirectory = 2,   // u64 words: sharer bits, kDirSharedBit in the last
};

inline const char* to_string(MetaKind k) {
  switch (k) {
    case MetaKind::kOwner: return "owner";
    case MetaKind::kScratchpad: return "scratchpad";
    case MetaKind::kDirectory: return "dir";
  }
  return "?";
}

/// What a metadata write record names: the MetaKind in the low byte and
/// the index of the word written above it. Owner and scratchpad entries
/// and single-word directories only have word 0, so their tag is the
/// bare MetaKind.
inline constexpr u64 meta_tag(MetaKind kind, int word) {
  return static_cast<u64>(kind) | static_cast<u64>(word) << 8;
}
inline constexpr MetaKind meta_tag_kind(u64 tag) {
  return static_cast<MetaKind>(tag & 0xff);
}
inline constexpr int meta_tag_word(u64 tag) {
  return static_cast<int>(tag >> 8);
}

// ---------------------------------------------------------------------------
// Protocol-event tracing. The protocol core describes what happened
// (state transitions, message send/receive, metadata writes, fault
// entries, in program order) and hands each record to a TraceSink; where
// the records go — the observability event bus under the simulator, a
// plain vector under the test harness — is the consumer's business.
// (This seam replaced the bespoke per-core TraceRing that used to live
// in protocol/trace.hpp.)

enum class TraceKind : u8 {
  kTransition = 0,  // a: old PageState, b: new PageState
  kMsgSend = 1,     // a: MsgType, b: destination core (or multicast mask)
  kMsgRecv = 2,     // a: MsgType, b: requester id
  kMetaWrite = 3,   // a: meta_tag(MetaKind, word), b: value written
  kFault = 4,       // a: 1 = write fault, b: fault-path tag
};

struct TraceEvent {
  TraceKind kind = TraceKind::kTransition;
  u64 page = 0;
  u64 a = 0;
  u64 b = 0;
};

/// Consumer seam for protocol-event records. ProtocolEnv derives from
/// it, so policies call env.trace(...) and MetaWord can be handed the
/// env as its sink.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void trace(const TraceEvent& e) = 0;
};

/// Renders one event ("page 12 Invalid -> OwnedRW", "page 3 send
/// OwnershipReq -> core 5", ...). Kept in the protocol layer so every
/// consumer (hang reports, the svm-trace section, test failures) prints
/// the same text.
inline std::string to_string(const TraceEvent& e) {
  char buf[128];
  switch (e.kind) {
    case TraceKind::kTransition:
      std::snprintf(buf, sizeof(buf), "page %llu %s -> %s",
                    static_cast<unsigned long long>(e.page),
                    to_string(static_cast<PageState>(e.a)),
                    to_string(static_cast<PageState>(e.b)));
      break;
    case TraceKind::kMsgSend:
      std::snprintf(buf, sizeof(buf), "page %llu send %s -> core %llu",
                    static_cast<unsigned long long>(e.page),
                    to_string(static_cast<MsgType>(e.a)),
                    static_cast<unsigned long long>(e.b));
      break;
    case TraceKind::kMsgRecv:
      std::snprintf(buf, sizeof(buf), "page %llu recv %s (req by %llu)",
                    static_cast<unsigned long long>(e.page),
                    to_string(static_cast<MsgType>(e.a)),
                    static_cast<unsigned long long>(e.b));
      break;
    case TraceKind::kMetaWrite: {
      char word[16] = "";  // word 0 prints bare
      if (meta_tag_word(e.a) != 0) {
        std::snprintf(word, sizeof(word), "[%d]", meta_tag_word(e.a));
      }
      std::snprintf(buf, sizeof(buf), "page %llu %s%s := 0x%llx",
                    static_cast<unsigned long long>(e.page),
                    to_string(meta_tag_kind(e.a)), word,
                    static_cast<unsigned long long>(e.b));
      break;
    }
    case TraceKind::kFault:
      std::snprintf(buf, sizeof(buf), "page %llu %s fault",
                    static_cast<unsigned long long>(e.page),
                    e.a != 0 ? "write" : "read");
      break;
    default:
      std::snprintf(buf, sizeof(buf), "page %llu ?",
                    static_cast<unsigned long long>(e.page));
      break;
  }
  return buf;
}

}  // namespace msvm::svm::proto
