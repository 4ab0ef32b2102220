// Fail-stop recovery (the robustness PR): when a core dies mid-protocol
// the pages it owned, the directory bits it held, and the ACKs it owed
// must all be repaired before the survivors can make progress.
//
// The coordinator is deliberately *per page and lazy*: the core that
// detects the death — always a core blocked in a bounded protocol wait,
// which therefore already holds the page's transfer lock — repairs
// exactly the page it is waiting on. Pages owned by a dead core that
// nobody touches stay broken until someone faults on them, at which
// point that faulting core (again under the transfer lock) repairs them.
// Because every directory transition in the live protocol happens under
// the same per-page transfer lock, recovery can never race a live
// transition; a global stop-the-world walk would have had to, or to
// fence every lock holder.
//
// Repair rules per page (write-through L1 + single-line WCB make these
// exact, see DESIGN.md §13):
//   * dead cores are pruned from the sharer set (their replicas died
//     with them);
//   * a dead owner's page is re-homed to the lowest-id surviving sharer
//     (its read-only replica plus the clean DRAM frame are the page),
//     or to the recovering core itself when no sharer survives — the
//     DRAM frame holds every write the dead owner ever published;
//   * unless the owner died with an unflushed write-combine line inside
//     this page's frame: then the frame may be torn (earlier lines of
//     the same burst already evicted, the last line gone forever), the
//     owner word is poisoned with kOwnerLost, and every later access
//     surfaces SvmDataLossError instead of silent garbage.
//
// Protocol layer: no sccsim/sim/mailbox/kernel includes (CI-enforced).
// Who is dead, and whether the owner died dirty, are facts about the
// chip; the binding layer passes them in as plain values.
#pragma once

#include <stdexcept>
#include <string>

#include "svm/protocol/env.hpp"
#include "svm/protocol/meta.hpp"
#include "svm/protocol/sharer_set.hpp"
#include "svm/protocol/types.hpp"

namespace msvm::svm::proto {

/// Owner-word sentinel for a page whose last owner died with unflushed
/// writes: the frame in DRAM may be torn, so the page is poisoned. Core
/// ids are bounded by the chip's core count (<= 1024), far below this.
inline constexpr u16 kOwnerLost = 0xffff;

/// Owner-word sentinel for a page whose frame failed its integrity
/// check (checksum mismatch against the seal taken at the last
/// ownership handoff). Distinct from kOwnerLost so reports can tell
/// "owner died dirty" from "bits rotted in DRAM".
inline constexpr u16 kOwnerCorrupt = 0xfffe;

/// Typed, never-silent result of touching a poisoned page. Thrown out
/// of the faulting access; the cluster layer records it per member.
class SvmDataLossError : public std::runtime_error {
 public:
  SvmDataLossError(u64 page, int dead_owner)
      : std::runtime_error("SVM data loss: page " + std::to_string(page) +
                           " owned by fail-stopped core " +
                           std::to_string(dead_owner) +
                           " with unflushed writes"),
        page_(page),
        dead_owner_(dead_owner) {}

  u64 page() const { return page_; }
  int dead_owner() const { return dead_owner_; }

 private:
  u64 page_;
  int dead_owner_;

 protected:
  SvmDataLossError(const std::string& what, u64 page, int dead_owner)
      : std::runtime_error(what), page_(page), dead_owner_(dead_owner) {}
};

/// Typed, never-silent result of touching a corruption-poisoned page:
/// the frame's checksum failed verification and no clean copy (owner
/// cache, surviving replica) existed to rebuild it from. Derives from
/// SvmDataLossError so every existing unwind path (transfer-lock
/// release, cluster per-member accounting) treats it as data loss.
class SvmIntegrityError : public SvmDataLossError {
 public:
  explicit SvmIntegrityError(u64 page)
      : SvmDataLossError("SVM data integrity: page " +
                             std::to_string(page) +
                             " failed checksum verification with no "
                             "clean copy to recover from",
                         page, /*dead_owner=*/-1) {}
};

/// The one poison check of the protocol core: whether `owner` is one of
/// the two sentinels above. A serving core drops a request for such a
/// page without an ACK (the requester's own path finds the sentinel);
/// a requester calls throw_poisoned.
inline bool poisoned(u16 owner) {
  return owner == kOwnerLost || owner == kOwnerCorrupt;
}

/// A requester that read a poisoned owner word under the page's transfer
/// lock: releases the lock and throws the sentinel's typed error —
/// never silent garbage.
[[noreturn]] inline void throw_poisoned(ProtocolEnv& env, u64 page,
                                        u16 owner) {
  env.transfer_unlock(page);
  if (owner == kOwnerLost) throw SvmDataLossError(page, kOwnerLost);
  throw SvmIntegrityError(page);
}

/// What recover_page did to the page.
enum class RecoveryAction : u8 {
  kNone = 0,      // nothing dead touched this page
  kPruned = 1,    // dead sharers removed; the (live) owner kept the page
  kRehomed = 2,   // dead owner; a surviving sharer was elected owner
  kRefetched = 3, // dead owner, no sharer; recovering core became owner
  kLost = 4,      // dead owner died dirty; owner word poisoned
};

inline const char* to_string(RecoveryAction a) {
  switch (a) {
    case RecoveryAction::kNone: return "none";
    case RecoveryAction::kPruned: return "pruned";
    case RecoveryAction::kRehomed: return "rehomed";
    case RecoveryAction::kRefetched: return "refetched";
    case RecoveryAction::kLost: return "lost";
  }
  return "?";
}

/// Repairs one page after fail-stop deaths. MUST be called holding the
/// page's transfer lock (the caller is the blocked requester, which
/// already does). `dead` is the full set of fail-stopped cores;
/// `owner_died_dirty` says whether the page's (dead) owner died with an
/// unflushed write-combine line inside this page's frame;
/// `has_directory` gates the sharer-set repair (false under the plain
/// Strong model, whose metadata has no directory words to read).
/// Idempotent: a second call after repair returns kNone/kPruned without
/// further writes.
RecoveryAction recover_page(ProtocolEnv& env, u64 page,
                            const SharerSet& dead, bool owner_died_dirty,
                            bool has_directory);

}  // namespace msvm::svm::proto
