// CoherencePolicy — the protocol core proper. One policy instance per
// core drives the explicit per-page state machine (PageState) for one of
// the paper's consistency models:
//
//   * StrongOwnerPolicy — Section 6.1's single-owner model: at any time
//     a page is OwnedRW on exactly one core and Invalid everywhere else;
//     any fault moves ownership via an OwnershipReq/Ack round-trip.
//   * ReadReplicationPolicy — the MSI-style directory extension (PR 1):
//     read faults install SharedRO replicas after a ReadReq/Ack grant;
//     write faults multicast Inval to the sharer set first.
//   * LrcPolicy — Section 6.2's Lazy Release Consistency: every core
//     maps pages OwnedRW; data moves at synchronisation points only
//     (release flushes the diff-free WCB, acquire invalidates the
//     SVM-tagged L1 lines), which is what makes concurrent writers to
//     disjoint bytes of one page safe.
//
// Policies are written against ProtocolEnv only: no sccsim, fiber,
// kernel, or mailbox headers (CI enforces this), so the same code runs
// under the simulated chip and under the scripted test harness.
#pragma once

#include <unordered_map>

#include "svm/protocol/env.hpp"
#include "svm/protocol/types.hpp"

namespace msvm::svm::proto {

class CoherencePolicy {
 public:
  explicit CoherencePolicy(PolicyConfig cfg) : cfg_(cfg) {}
  virtual ~CoherencePolicy() = default;

  CoherencePolicy(const CoherencePolicy&) = delete;
  CoherencePolicy& operator=(const CoherencePolicy&) = delete;

  virtual const char* name() const = 0;

  /// Resolves a fault on a page whose frame already exists — either a
  /// mapping fault (first access after a revocation) or a permission
  /// upgrade (present but read-only). `frame` is the 15-bit frame number
  /// the fault path read from the scratchpad; flows that must re-read it
  /// under their own serialisation do so through env.meta().
  virtual void fault(u64 page, u16 frame, bool is_write,
                     ProtocolEnv& env) = 0;

  /// Handles an incoming protocol message addressed to this core.
  virtual void on_message(const Msg& m, ProtocolEnv& env) = 0;

  /// Release-side synchronisation hook (lock release, barrier entry):
  /// our writes must be in memory before anyone can observe the
  /// synchronisation. Common to both models.
  virtual void on_release(ProtocolEnv& env) {
    if (!cfg_.sabotage.skip_release_flush) env.flush_wcb();
  }

  /// Acquire-side synchronisation hook (lock acquire, barrier exit).
  /// A no-op under the Strong model — ownership transfer already moved
  /// the data; LRC overrides it with the L1 invalidation.
  virtual void on_acquire(ProtocolEnv& env) { (void)env; }

  /// The binding layer installs mappings outside the protocol (first
  /// touch, read-only regions); this keeps the state machine
  /// and the trace in step with those installs.
  void note_mapped(u64 page, bool writable, ProtocolEnv& env) {
    transition(page, writable ? PageState::kOwnedRW : PageState::kSharedRO,
               env);
  }

  /// Current state-machine view of `page` on this core.
  PageState state_of(u64 page) const {
    const auto it = state_.find(page);
    return it == state_.end() ? PageState::kInvalid : it->second;
  }

  const PolicyConfig& config() const { return cfg_; }

 protected:
  /// Moves `page` to `next` in the local state machine, recording the
  /// transition through the trace sink (host-side only, no simulated
  /// cost).
  void transition(u64 page, PageState next, ProtocolEnv& env) {
    PageState& slot = state_[page];
    if (slot == next) return;
    env.trace(TraceEvent{TraceKind::kTransition, page,
                         static_cast<u64>(slot),
                         static_cast<u64>(next)});
    slot = next;
  }

  PolicyConfig cfg_;

 private:
  std::unordered_map<u64, PageState> state_;
};

/// Strong single-owner model (paper Section 6.1).
class StrongOwnerPolicy : public CoherencePolicy {
 public:
  explicit StrongOwnerPolicy(PolicyConfig cfg)
      : StrongOwnerPolicy(cfg, /*read_replication=*/false) {}

  const char* name() const override { return "strong-owner"; }
  void fault(u64 page, u16 frame, bool is_write,
             ProtocolEnv& env) override;
  void on_message(const Msg& m, ProtocolEnv& env) override;

 protected:
  StrongOwnerPolicy(PolicyConfig cfg, bool read_replication)
      : CoherencePolicy(cfg), read_replication_(read_replication) {}

  /// The ownership-transfer flow shared with the read-replication
  /// subclass (which prepends sharer invalidation and a directory check
  /// on the fast path).
  void acquire_ownership(u64 page, ProtocolEnv& env);
  void serve_ownership_request(const Msg& m, ProtocolEnv& env);

  /// Multicasts invalidations to every sharer of `page` (except this
  /// core), waits for all ACKs, and resets the directory word to
  /// Exclusive. Must be called holding the page's transfer lock.
  void invalidate_sharers(u64 page, ProtocolEnv& env);

  const bool read_replication_;
};

/// Strong model + MSI-style read replication (directory of SharedRO
/// replicas; the PR 1 extension beyond the paper).
class ReadReplicationPolicy : public StrongOwnerPolicy {
 public:
  explicit ReadReplicationPolicy(PolicyConfig cfg)
      : StrongOwnerPolicy(cfg, /*read_replication=*/true) {}

  const char* name() const override { return "read-replication"; }
  void fault(u64 page, u16 frame, bool is_write,
             ProtocolEnv& env) override;
  void on_message(const Msg& m, ProtocolEnv& env) override;

 private:
  void acquire_read_replica(u64 page, u16 frame, ProtocolEnv& env);
  void serve_read_request(const Msg& m, ProtocolEnv& env);
  void serve_invalidation(const Msg& m, ProtocolEnv& env);
};

/// Lazy Release Consistency (paper Section 6.2).
class LrcPolicy : public CoherencePolicy {
 public:
  explicit LrcPolicy(PolicyConfig cfg) : CoherencePolicy(cfg) {}

  const char* name() const override { return "lazy-release"; }
  void fault(u64 page, u16 frame, bool is_write,
             ProtocolEnv& env) override;
  void on_message(const Msg& m, ProtocolEnv& env) override;
  void on_acquire(ProtocolEnv& env) override;
};

}  // namespace msvm::svm::proto
