// ShadowDirectory — the always-on (debug-mode) coherence auditor.
//
// A host-side mirror of every protocol transition, fed off the
// observability event bus (zero simulated cost, like every sink). It
// replays the per-page ownership state machine from the kProto* events
// and asserts the protocol's global invariants the per-core state
// machines cannot check locally:
//
//   * writer exclusivity — at most one core in OwnedRW per page at any
//     causal instant (Strong and read-replication; LRC is exempt by
//     design: every core maps pages writable);
//   * sharer subset — a core entering SharedRO is either the page's
//     recorded owner (downgrade) or a member of the directory entry it
//     just joined, rebuilt word by word from the traced writes, so every
//     core on every die is checked;
//   * recovery-epoch monotonicity — kRecoveryBegin events carry a
//     strictly increasing epoch (each per-page repair runs under that
//     page's transfer lock);
//   * dead-core silence — a fail-stopped core publishes no protocol
//     events after its kCoreKill injection record;
//   * poison finality — a page the integrity layer poisoned (every
//     kPageCorrupt event is a poisoning) never re-enters OwnedRW or
//     SharedRO: there is no un-poison transition, so any later mapping
//     of that page means some core trusted known-bad data. Needs
//     obs::kCatIntegrity enabled alongside kCatProto
//     (KillMosaicParams::audit does).
//
// Events are processed in bus-arrival order, NOT timestamp order:
// arrival order respects simulator causality (a mail cannot be received
// before its deposit, a metadata word cannot be read before the store
// that produced it — all host-ordered), while per-core timestamps are
// mutually unordered across cores. Causal order is exactly what the
// invariants constrain.
//
// The dead-core bookkeeping needs the kCoreKill injection records:
// enable obs::kCatChaos alongside the default kCatProto when auditing a
// run with kill faults (KillMosaicParams::audit does; the kill and flip
// campaigns always set it).
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/bus.hpp"

namespace msvm::svm {

using u64 = obs::u64;

class ShadowDirectory final : public obs::EventSink {
 public:
  struct Config {
    /// Writer-exclusivity and sharer-subset checks; disable under LRC,
    /// where every core legitimately maps pages writable.
    bool single_writer = true;
  };

  ShadowDirectory() = default;
  explicit ShadowDirectory(Config cfg) : cfg_(cfg) {}

  void on_event(const obs::Event& e) override;

  u64 events_audited() const { return events_audited_; }
  const std::vector<std::string>& violations() const { return violations_; }
  u64 violation_count() const { return violation_count_; }
  bool clean() const { return violation_count_ == 0; }

  /// Human-readable summary (event count, each violation on a line).
  std::string report() const;

 private:
  struct PageShadow {
    int writer = -1;        // core currently in OwnedRW, -1 when none
    u64 owner_word = 0;     // last written owner-vector value
    bool owner_known = false;
    std::vector<u64> dir;   // last written directory entry, by word
  };

  void record_violation(const obs::Event& e, const char* invariant,
                        const std::string& detail);

  Config cfg_;
  std::unordered_map<u64, PageShadow> pages_;
  std::unordered_set<int> dead_;
  std::unordered_set<u64> poisoned_;  // integrity-poisoned pages
  u64 mail_corrupt_drops_ = 0;
  u64 page_corruptions_ = 0;
  u64 meta_corruptions_ = 0;
  u64 last_epoch_ = 0;
  u64 events_audited_ = 0;
  u64 violation_count_ = 0;
  std::vector<std::string> violations_;  // capped; the count is exact
  static constexpr std::size_t kMaxStoredViolations = 64;
};

}  // namespace msvm::svm
