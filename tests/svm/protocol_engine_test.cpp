// Table-driven protocol tests against the deterministic harness
// (protocol_harness.hpp): the same CoherencePolicy code that runs under
// the simulated chip is driven here with scripted message sequences and
// fault events — no fibers, no chip — so interleavings that are timing
// accidents in the full simulator are exact, repeatable scenarios here.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "protocol_harness.hpp"
#include "svm/protocol/policy.hpp"

namespace msvm::svm {
namespace {

using proto::u64;

using harness::Harness;
using harness::kPageBytes;
using harness::Model;
using proto::dir_bit;
using proto::HwEvent;
using proto::kDirSharedBit;
using proto::Msg;
using proto::MsgType;
using proto::PageState;
using proto::PolicyConfig;

// ---------------------------------------------------------------------------
// Strong single-owner model

TEST(ProtocolStrong, OwnershipTransferMovesDataAndState) {
  Harness h(2, Model::kStrong);
  h.seed_page(5, /*owner=*/0);
  const u64 addr = 5 * kPageBytes;

  h.write(0, addr, 7);  // owner writes; the byte sits in core 0's WCB
  h.write(1, addr + 1, 9);  // core 1 write-faults -> ownership transfer

  EXPECT_EQ(h.owner(5), 1);
  EXPECT_EQ(h.state_of(0, 5), PageState::kInvalid);
  EXPECT_EQ(h.state_of(1, 5), PageState::kOwnedRW);
  EXPECT_FALSE(h.mapped(0, 5));
  EXPECT_TRUE(h.writable(1, 5));
  // The serve flushed core 0's WCB before handing the page over, so the
  // new owner reads the old owner's data.
  EXPECT_EQ(h.read(1, addr), 7);
  EXPECT_EQ(h.read(1, addr + 1), 9);
  EXPECT_EQ(h.stats(0).ownership_serves, 1u);
  EXPECT_EQ(h.stats(1).ownership_acquires, 1u);
  EXPECT_GE(h.flushes(0), 1u);
  EXPECT_EQ(h.invalidates(0), 1u);  // CL1INVMB is part of the serve
  EXPECT_EQ(h.hw(1, HwEvent::kMailRoundtrip), 1u);
}

TEST(ProtocolStrong, FastPathRemapsWithoutAnyTraffic) {
  Harness h(2, Model::kStrong);
  h.seed_page(3, /*owner=*/0);
  h.drop_mapping(0, 3);  // a mapping dropped outside the protocol

  h.write(0, 3 * kPageBytes, 1);

  EXPECT_EQ(h.stats(0).ownership_acquires, 1u);
  EXPECT_EQ(h.hw(0, HwEvent::kMailRoundtrip), 0u);
  EXPECT_EQ(h.inbox_size(0), 0u);
  EXPECT_EQ(h.inbox_size(1), 0u);
  EXPECT_EQ(h.state_of(0, 3), PageState::kOwnedRW);
  // Exactly one modelled software step, no round-trip cost.
  EXPECT_EQ(h.cost(0), proto::kOwnershipSoftwareCycles);
}

// Two write faults contending for one page, with a third core as the
// initial owner: core 1's request is already in flight when core 0
// faults, so the owner serves core 1 first and core 0's request has to
// chase the moving owner through a forward.
TEST(ProtocolStrong, ConcurrentWriteFaultsChaseThroughForward) {
  Harness h(3, Model::kStrong);
  h.seed_page(7, /*owner=*/2);
  h.inject(2, Msg{MsgType::kOwnershipReq, 7, /*requester=*/1});

  h.run_fault(0, 7, /*is_write=*/true);

  // Dispatch order (deterministic): owner 2 serves the in-flight request
  // from core 1 first, then forwards core 0's request to the new owner 1,
  // which serves it.
  EXPECT_EQ(h.owner(7), 0);
  EXPECT_EQ(h.state_of(0, 7), PageState::kOwnedRW);
  EXPECT_EQ(h.stats(2).ownership_serves, 1u);
  EXPECT_EQ(h.stats(2).ownership_forwards, 1u);
  EXPECT_EQ(h.stats(1).ownership_serves, 1u);

  // Core 1 transiently owned the page without ever mapping it; its ACK
  // from core 2 is still queued. Now its fault flow runs: the stale ACK
  // satisfies the first wait, the re-verification loop notices the owner
  // vector still says core 0, and a second request converges.
  h.run_fault(1, 7, /*is_write=*/true);

  EXPECT_EQ(h.owner(7), 1);
  EXPECT_EQ(h.state_of(1, 7), PageState::kOwnedRW);
  EXPECT_EQ(h.state_of(0, 7), PageState::kInvalid);
  EXPECT_EQ(h.hw(1, HwEvent::kMailRoundtrip), 2u);  // stale + real ACK

  // The duplicate request still queued at core 0 is answered with a
  // plain confirmation (owner == requester), not another transfer.
  EXPECT_EQ(h.drain_all(), 1);
  EXPECT_EQ(h.stats(0).ownership_serves, 1u);
  EXPECT_EQ(h.owner(7), 1);
}

TEST(ProtocolStrong, PollingFallbackConvergesWithoutAcks) {
  PolicyConfig cfg;
  cfg.ack_via_mail = false;  // the authors' earlier owner-vector polling
  Harness h(2, Model::kStrong, cfg);
  h.seed_page(2, /*owner=*/0);

  h.run_fault(1, 2, /*is_write=*/true);

  EXPECT_EQ(h.owner(2), 1);
  EXPECT_EQ(h.state_of(1, 2), PageState::kOwnedRW);
  EXPECT_EQ(h.hw(1, HwEvent::kMailRoundtrip), 0u);
  EXPECT_EQ(h.inbox_size(0), 0u);
  EXPECT_EQ(h.inbox_size(1), 0u);
}

// ---------------------------------------------------------------------------
// Sabotage knobs, strong model: each removed step must be observable as
// wrong data (or a protocol violation), proving the step is load-bearing.

TEST(ProtocolStrongSabotage, SkippedServeFlushLosesTheOwnersWrites) {
  const auto transferred_value = [](PolicyConfig cfg) {
    Harness h(2, Model::kStrong, cfg);
    h.seed_page(1, /*owner=*/0);
    h.write(0, kPageBytes, 7);      // sits in core 0's WCB
    h.write(1, kPageBytes + 1, 1);  // forces the transfer
    return h.read(1, kPageBytes);
  };

  EXPECT_EQ(transferred_value(PolicyConfig{}), 7);

  PolicyConfig sabotaged;
  sabotaged.sabotage.skip_serve_wcb_flush = true;
  EXPECT_EQ(transferred_value(sabotaged), 0);  // the write never landed
}

TEST(ProtocolStrongSabotage, SkippedServeInvalidateReadsStaleCache) {
  const auto reread_value = [](PolicyConfig cfg) {
    Harness h(2, Model::kStrong, cfg);
    h.seed_page(4, /*owner=*/0);
    const u64 addr = 4 * kPageBytes;
    EXPECT_EQ(h.read(0, addr), 0);  // core 0 caches the stale byte
    h.write(1, addr, 9);            // ownership moves to core 1
    return h.read(0, addr);         // ownership moves back to core 0
  };

  EXPECT_EQ(reread_value(PolicyConfig{}), 9);

  PolicyConfig sabotaged;
  sabotaged.sabotage.skip_serve_cl1invmb = true;
  EXPECT_EQ(reread_value(sabotaged), 0);  // served from the stale L1
}

TEST(ProtocolStrongSabotage, SkippedServeUnmapAllowsRogueWrites) {
  PolicyConfig sabotaged;
  sabotaged.sabotage.skip_serve_unmap = true;
  Harness h(2, Model::kStrong, sabotaged);
  h.seed_page(6, /*owner=*/0);
  const u64 addr = 6 * kPageBytes;

  h.write(1, addr, 5);  // transfer: core 0 serves but keeps its mapping
  ASSERT_EQ(h.owner(6), 1);

  // Core 0 can now write without faulting: no acquire, no traffic, while
  // its own state machine says the page is Invalid.
  h.write(0, addr, 8);
  EXPECT_EQ(h.stats(0).ownership_acquires, 0u);
  EXPECT_EQ(h.state_of(0, 6), PageState::kInvalid);
  EXPECT_TRUE(h.writable(0, 6));
  EXPECT_EQ(h.inbox_size(1), 0u);

  // Without the knob the same write faults and transfers ownership back.
  Harness ctrl(2, Model::kStrong);
  ctrl.seed_page(6, /*owner=*/0);
  ctrl.write(1, addr, 5);
  ctrl.write(0, addr, 8);
  EXPECT_EQ(ctrl.stats(0).ownership_acquires, 1u);
  EXPECT_EQ(ctrl.owner(6), 0);
}

// ---------------------------------------------------------------------------
// Read replication (directory protocol)

TEST(ProtocolReadReplication, ReadFaultInstallsReplicaViaGrant) {
  Harness h(3, Model::kReadReplication);
  h.seed_page(9, /*owner=*/0);
  const u64 addr = 9 * kPageBytes;
  h.write(0, addr, 7);

  EXPECT_EQ(h.read(1, addr), 7);  // grant round-trip published the WCB

  EXPECT_EQ(h.state_of(0, 9), PageState::kSharedRO);
  EXPECT_FALSE(h.writable(0, 9));  // owner downgraded itself
  EXPECT_EQ(h.state_of(1, 9), PageState::kSharedRO);
  EXPECT_FALSE(h.writable(1, 9));
  EXPECT_EQ(h.dir(9), kDirSharedBit | dir_bit(1));
  EXPECT_EQ(h.owner(9), 0);  // ownership did NOT move
  EXPECT_EQ(h.stats(0).replica_grants, 1u);
  EXPECT_EQ(h.stats(1).replica_installs, 1u);
  EXPECT_EQ(h.hw(1, HwEvent::kMailRoundtrip), 1u);

  // Second reader joins the Shared page without contacting anyone.
  EXPECT_EQ(h.read(2, addr), 7);
  EXPECT_EQ(h.stats(2).replica_installs, 1u);
  EXPECT_EQ(h.hw(2, HwEvent::kMailRoundtrip), 0u);
  EXPECT_EQ(h.inbox_size(0), 0u);
  EXPECT_EQ(h.dir(9), kDirSharedBit | dir_bit(1) | dir_bit(2));
}

TEST(ProtocolReadReplication, WriteUpgradeInvalidatesSharerSet) {
  Harness h(3, Model::kReadReplication);
  h.seed_page(9, /*owner=*/0);
  const u64 addr = 9 * kPageBytes;
  h.write(0, addr, 7);
  ASSERT_EQ(h.read(1, addr), 7);
  ASSERT_EQ(h.read(2, addr), 7);

  // Sharer 1 upgrades: invalidate the other sharer, then take ownership.
  h.write(1, addr, 8);

  EXPECT_EQ(h.owner(9), 1);
  EXPECT_EQ(h.dir(9), 0u);  // Exclusive again
  EXPECT_EQ(h.state_of(1, 9), PageState::kOwnedRW);
  EXPECT_EQ(h.state_of(0, 9), PageState::kInvalid);
  EXPECT_EQ(h.state_of(2, 9), PageState::kInvalid);
  EXPECT_FALSE(h.mapped(2, 9));
  EXPECT_EQ(h.stats(1).invalidations_sent, 1u);
  EXPECT_EQ(h.stats(2).invalidations_received, 1u);

  // The invalidated reader re-faults and sees the upgrader's write.
  EXPECT_EQ(h.read(2, addr), 8);
  EXPECT_EQ(h.state_of(2, 9), PageState::kSharedRO);
}

TEST(ProtocolReadReplication, DuplicateInvalidationIsIdempotent) {
  Harness h(2, Model::kReadReplication);
  h.seed_page(1, /*owner=*/0);

  // An Inval for a page this core holds no replica of (e.g. delivered
  // after the replica was already dropped) is served without damage.
  h.inject(1, Msg{MsgType::kInval, 1, /*requester=*/0});
  EXPECT_EQ(h.drain_all(), 1);

  EXPECT_EQ(h.stats(1).invalidations_received, 1u);
  EXPECT_EQ(h.state_of(1, 1), PageState::kInvalid);
  EXPECT_EQ(h.inbox_size(0), 1u);  // the (stray) InvalAck
}

// ---------------------------------------------------------------------------
// Lazy Release Consistency: lock acquire/release via the policy hooks

TEST(ProtocolLrc, LockHandoffMovesDataThroughSyncHooks) {
  Harness h(2, Model::kLrc);

  h.write(0, 0, 1);   // inside core 0's critical section
  h.sync_release(0);  // lock release: WCB flush
  h.sync_acquire(1);  // lock acquire: CL1INVMB
  EXPECT_EQ(h.read(1, 0), 1);

  // Both cores hold writable mappings of the same page — LRC exchanges
  // no protocol messages at all.
  EXPECT_EQ(h.state_of(0, 0), PageState::kOwnedRW);
  EXPECT_EQ(h.state_of(1, 0), PageState::kOwnedRW);
  EXPECT_EQ(h.inbox_size(0), 0u);
  EXPECT_EQ(h.inbox_size(1), 0u);
  EXPECT_EQ(h.stats(0).ownership_acquires, 0u);
}

// The scripted release-before-acquire interleaving: an acquire that runs
// before the writer's release sees stale data (correct under LRC), and
// only the *next* acquire — ordered after the release — sees the write.
TEST(ProtocolLrc, ReleaseBeforeAcquireInterleaving) {
  Harness h(2, Model::kLrc);

  h.write(0, 0, 1);
  h.sync_acquire(1);  // acquire BEFORE the writer released
  EXPECT_EQ(h.read(1, 0), 0);  // stale by design: nothing released yet

  h.sync_release(0);  // the release lands after core 1's acquire
  // Still stale: core 1 cached the byte and has not re-acquired.
  EXPECT_EQ(h.read(1, 0), 0);

  h.sync_acquire(1);  // acquire ordered after the release
  EXPECT_EQ(h.read(1, 0), 1);
}

TEST(ProtocolLrcSabotage, SkippedReleaseFlushHidesTheWrite) {
  const auto handoff_value = [](PolicyConfig cfg) {
    Harness h(2, Model::kLrc, cfg);
    h.write(0, 0, 1);
    h.sync_release(0);
    h.sync_acquire(1);
    return h.read(1, 0);
  };

  EXPECT_EQ(handoff_value(PolicyConfig{}), 1);

  PolicyConfig sabotaged;
  sabotaged.sabotage.skip_release_flush = true;
  EXPECT_EQ(handoff_value(sabotaged), 0);
}

TEST(ProtocolLrcSabotage, SkippedAcquireInvalidateReadsStaleCache) {
  const auto handoff_value = [](PolicyConfig cfg) {
    Harness h(2, Model::kLrc, cfg);
    EXPECT_EQ(h.read(1, 0), 0);  // core 1 caches the stale byte
    h.write(0, 0, 1);
    h.sync_release(0);
    h.sync_acquire(1);
    return h.read(1, 0);
  };

  EXPECT_EQ(handoff_value(PolicyConfig{}), 1);

  PolicyConfig sabotaged;
  sabotaged.sabotage.skip_acquire_invalidate = true;
  EXPECT_EQ(handoff_value(sabotaged), 0);
}

// Diff-free WCB semantics: two cores write disjoint bytes of one page
// between synchronisation points; both writes survive because flushes
// publish dirty bytes only, not whole pages.
TEST(ProtocolLrc, DisjointWritesToOnePageMerge) {
  Harness h(3, Model::kLrc);

  h.write(0, 0, 1);
  h.write(1, 1, 2);
  h.sync_release(0);
  EXPECT_EQ(h.memory(0), 1);
  EXPECT_EQ(h.memory(1), 0);  // core 1 has not released yet
  h.sync_release(1);

  h.sync_acquire(2);
  EXPECT_EQ(h.read(2, 0), 1);
  EXPECT_EQ(h.read(2, 1), 2);
}

// ---------------------------------------------------------------------------
// Trace seam (TraceSink): the protocol layer narrates every fault,
// message, transition and metadata write to its environment. The bounded
// ring that used to live here moved to obs::EventRing (tests/obs).

TEST(ProtocolTrace, RecordsFaultsMessagesAndTransitions) {
  Harness h(2, Model::kStrong);
  h.seed_page(5, /*owner=*/0);
  h.write(1, 5 * kPageBytes, 9);

  const std::string requester = h.trace(1).dump("");
  EXPECT_NE(requester.find("page 5 write fault"), std::string::npos);
  EXPECT_NE(requester.find("send OwnershipReq -> core 0"),
            std::string::npos);
  EXPECT_NE(requester.find("recv OwnershipAck"), std::string::npos);
  EXPECT_NE(requester.find("Invalid -> OwnedRW"), std::string::npos);

  const std::string server = h.trace(0).dump("");
  EXPECT_NE(server.find("recv OwnershipReq"), std::string::npos);
  EXPECT_NE(server.find("OwnedRW -> Invalid"), std::string::npos);
  EXPECT_NE(server.find("owner := 0x1"), std::string::npos);
}

TEST(ProtocolTrace, MetaWordRecordsEveryWrite) {
  struct ToyStore final : proto::MetaStore {
    u64 words[3][16] = {};
    u64 load(proto::MetaKind kind, u64 page, int) override {
      return words[static_cast<int>(kind)][page];
    }
    void store(proto::MetaKind kind, u64 page, int, u64 value) override {
      words[static_cast<int>(kind)][page] = value;
    }
  };

  struct VecSink final : proto::TraceSink {
    std::vector<proto::TraceEvent> events;
    void trace(const proto::TraceEvent& e) override {
      events.push_back(e);
    }
  };

  ToyStore store;
  VecSink sink;
  proto::MetaWord meta(store, /*dir_width=*/48, &sink);

  meta.set_owner(3, 7);
  meta.set_scratchpad(1, 0x8000 | 5);
  proto::DirEntry entry(meta.dir_width());
  entry.shared = true;
  entry.sharers.set(4);
  meta.store_dir_entry(2, entry);

  EXPECT_EQ(meta.owner(3), 7);
  EXPECT_EQ(meta.frame_of(1), 5);  // unused bit 15 masked off
  const proto::DirEntry back = meta.dir_entry(2);
  EXPECT_TRUE(back.shared);
  EXPECT_TRUE(back.sharers.test(4));
  EXPECT_EQ(back.sharers.count(), 1);
  // The packed single-word form round-trips through the raw store.
  EXPECT_EQ(store.words[static_cast<int>(proto::MetaKind::kDirectory)][2],
            kDirSharedBit | dir_bit(4));

  ASSERT_EQ(sink.events.size(), 3u);  // reads are not traced
  EXPECT_EQ(sink.events[0].kind, proto::TraceKind::kMetaWrite);
  EXPECT_EQ(sink.events[0].page, 3u);
  EXPECT_EQ(sink.events[0].a, static_cast<u64>(proto::MetaKind::kOwner));
  EXPECT_EQ(sink.events[0].b, 7u);
}

}  // namespace
}  // namespace msvm::svm
