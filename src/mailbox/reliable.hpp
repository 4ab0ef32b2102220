// Receiver-side ACK dedup for the SVM runtime's protocol mail: the
// request sequence-tag generator and a bounded ring of recently seen ACK
// identities. The mailbox is unreliable under fault injection (a
// CRC-failed mail is consumed but never dispatched), so the originator
// times out and retransmits under the same identity with
// MailboxSystem::try_send; this ring absorbs the double delivery when
// the original was merely delayed rather than lost.
//
// AckRing remembers the last 64 ACK identity keys (sender, type, page,
// seq packed by ack_key). A key already present is a duplicate — a
// retransmitted or fault-duplicated ACK that must not be counted twice
// against a multicast wait. The ring is deliberately small: an identity
// only needs to be remembered for the window in which its duplicate can
// still arrive (one retransmission timeout), and 64 outstanding ACK
// identities comfortably cover one core's in-flight protocol state.
// Evicting a live entry is therefore harmless for correctness (a
// duplicate of an evicted ACK is re-admitted and retires an already-
// satisfied wait, which the wait loops tolerate) but worth counting:
// a hot `acks_evicted` tally means the window assumption is under
// pressure and the ring should grow.
//
// Sequence wraparound: seq numbers are u16 and 0 is never issued. When
// the counter wraps, keys remembered from the previous sequence epoch
// could collide with fresh identities and silently swallow a legitimate
// ACK — so the ring is cleared at the wrap point, trading at worst one
// redundant retransmission for the collision hazard.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "mailbox/mailbox.hpp"

namespace msvm::mbox {

class AckRing {
 public:
  using u16 = std::uint16_t;
  using u64 = std::uint64_t;

  static constexpr std::size_t kEntries = 64;

  enum class Admit : std::uint8_t {
    kDuplicate,      // key already remembered: drop the ACK
    kFresh,          // new key, stored in a free slot
    kFreshEvicting,  // new key, displaced a live entry (capacity hit)
  };

  /// Stamps the next request sequence number (1..65535; 0 is skipped).
  /// Clears the ring when the counter wraps — see the header comment.
  u16 next_seq() {
    if (++seq_ == 0) {
      seen_.fill(0);
      next_slot_ = 0;
      seq_ = 1;
      ++wraps_;
    }
    return seq_;
  }

  /// Admits an ACK identity key. Key 0 is never remembered (it is the
  /// cleared-slot sentinel), so callers must pack a non-zero key.
  Admit admit(u64 key) {
    for (const u64 seen : seen_) {
      if (seen == key) return Admit::kDuplicate;
    }
    const std::size_t slot = next_slot_++ % seen_.size();
    const Admit verdict =
        seen_[slot] != 0 ? Admit::kFreshEvicting : Admit::kFresh;
    seen_[slot] = key;
    return verdict;
  }

  u16 seq() const { return seq_; }
  u64 wraps() const { return wraps_; }
  /// True when `key` is currently remembered (test introspection).
  bool remembers(u64 key) const {
    for (const u64 seen : seen_) {
      if (seen == key) return true;
    }
    return false;
  }

 private:
  std::array<u64, kEntries> seen_{};
  std::size_t next_slot_ = 0;
  u16 seq_ = 0;
  u64 wraps_ = 0;
};

/// SplitMix64 finaliser: mixes one delivered ACK's identity (sender,
/// type, page/key, seq) into a dedup-ring key. Never returns 0 (the
/// ring's empty-slot sentinel).
inline AckRing::u64 ack_key(const Mail& m) {
  u64 x = (static_cast<u64>(static_cast<u32>(m.sender)) << 32) ^
          (static_cast<u64>(m.type) << 24) ^ (m.p0 << 16) ^ m.arg16;
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x == 0 ? 1 : x;  // 0 means "empty ring entry"
}

}  // namespace msvm::mbox
