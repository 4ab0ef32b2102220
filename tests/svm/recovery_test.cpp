// recover_page unit tests against the deterministic harness: every
// RecoveryAction outcome (prune / re-home / refetch / poison), the
// idempotence guarantee, and the no-directory (plain Strong) path —
// links the protocol library only, like the engine tests.
#include "svm/protocol/recovery.hpp"

#include <gtest/gtest.h>

#include "protocol_harness.hpp"

namespace msvm::svm {
namespace {

using harness::Harness;
using harness::Model;
using proto::RecoveryAction;
using proto::SharerSet;
using proto::u64;

constexpr u64 kPage = 7;

SharerSet dead_set(std::initializer_list<int> cores) {
  SharerSet s(64);
  for (const int c : cores) s.set(c);
  return s;
}

/// Directory word with the given sharers (single-word, <= 64 cores).
u64 dir_word(std::initializer_list<int> sharers) {
  u64 w = 0;
  for (const int s : sharers) w |= u64{1} << s;
  return w | proto::kDirSharedBit;
}

TEST(Recovery, NoneWhenNothingDeadTouchesThePage) {
  Harness h(4, Model::kReadReplication);
  h.seed_page(kPage, /*owner=*/0);
  const RecoveryAction a = proto::recover_page(
      h.env(2), kPage, dead_set({3}), /*owner_died_dirty=*/false,
      /*has_directory=*/true);
  EXPECT_EQ(a, RecoveryAction::kNone);
  EXPECT_EQ(h.owner(kPage), 0);
  EXPECT_EQ(h.stats(2).recoveries, 1u);
  EXPECT_EQ(h.stats(2).sharers_pruned, 0u);
}

TEST(Recovery, PrunesDeadSharersAndKeepsLiveOwner) {
  Harness h(6, Model::kReadReplication);
  h.seed_page(kPage, /*owner=*/0);
  h.store(proto::MetaKind::kDirectory, kPage, 0, dir_word({2, 3, 4}));
  const RecoveryAction a = proto::recover_page(
      h.env(1), kPage, dead_set({3}), false, true);
  EXPECT_EQ(a, RecoveryAction::kPruned);
  EXPECT_EQ(h.owner(kPage), 0);
  const u64 dir = h.dir(kPage) & ~proto::kDirSharedBit;
  EXPECT_EQ(dir, (u64{1} << 2) | (u64{1} << 4));
  EXPECT_EQ(h.stats(1).sharers_pruned, 1u);
}

TEST(Recovery, RehomesDeadOwnerToLowestSurvivingSharer) {
  Harness h(6, Model::kReadReplication);
  h.seed_page(kPage, /*owner=*/1);
  h.store(proto::MetaKind::kDirectory, kPage, 0, dir_word({2, 4}));
  const RecoveryAction a = proto::recover_page(
      h.env(5), kPage, dead_set({1}), /*owner_died_dirty=*/false, true);
  EXPECT_EQ(a, RecoveryAction::kRehomed);
  EXPECT_EQ(h.owner(kPage), 2);  // lowest-id survivor elected
  // The elected core left the sharer list (the directory never lists
  // the owner); the other sharer remains.
  const u64 dir = h.dir(kPage) & ~proto::kDirSharedBit;
  EXPECT_EQ(dir, u64{1} << 4);
  EXPECT_EQ(h.stats(5).pages_rehomed, 1u);
  EXPECT_EQ(h.stats(5).pages_lost, 0u);
}

TEST(Recovery, RefetchesWhenNoSharerSurvives) {
  Harness h(6, Model::kReadReplication);
  h.seed_page(kPage, /*owner=*/1);
  const RecoveryAction a = proto::recover_page(
      h.env(3), kPage, dead_set({1}), /*owner_died_dirty=*/false, true);
  EXPECT_EQ(a, RecoveryAction::kRefetched);
  EXPECT_EQ(h.owner(kPage), 3);  // the recovering core took the page
  EXPECT_EQ(h.stats(3).pages_refetched, 1u);
}

TEST(Recovery, DirtyOwnerDeathPoisonsThePage) {
  Harness h(6, Model::kReadReplication);
  h.seed_page(kPage, /*owner=*/1);
  h.store(proto::MetaKind::kDirectory, kPage, 0, dir_word({2, 4}));
  const RecoveryAction a = proto::recover_page(
      h.env(5), kPage, dead_set({1}), /*owner_died_dirty=*/true, true);
  EXPECT_EQ(a, RecoveryAction::kLost);
  EXPECT_EQ(h.owner(kPage), proto::kOwnerLost);
  // A torn frame must not keep advertised replicas either.
  EXPECT_EQ(h.dir(kPage) & ~proto::kDirSharedBit, 0u);
  EXPECT_EQ(h.stats(5).pages_lost, 1u);
}

TEST(Recovery, RepairIsIdempotent) {
  Harness h(6, Model::kReadReplication);
  h.seed_page(kPage, /*owner=*/1);
  h.store(proto::MetaKind::kDirectory, kPage, 0, dir_word({2}));
  ASSERT_EQ(proto::recover_page(h.env(4), kPage, dead_set({1}), false,
                                true),
            RecoveryAction::kRehomed);
  // Second walk over the already-repaired page: nothing left to do.
  EXPECT_EQ(proto::recover_page(h.env(4), kPage, dead_set({1}), false,
                                true),
            RecoveryAction::kNone);
  EXPECT_EQ(h.owner(kPage), 2);
  EXPECT_EQ(h.stats(4).pages_rehomed, 1u);
}

TEST(Recovery, PoisonedPageStaysPoisoned) {
  Harness h(4, Model::kReadReplication);
  h.seed_page(kPage, /*owner=*/1);
  ASSERT_EQ(proto::recover_page(h.env(2), kPage, dead_set({1}), true,
                                true),
            RecoveryAction::kLost);
  // A later recovery attempt (even a "clean" one) must not resurrect
  // the page: kOwnerLost is never in the dead set.
  EXPECT_EQ(proto::recover_page(h.env(2), kPage, dead_set({1}), false,
                                true),
            RecoveryAction::kNone);
  EXPECT_EQ(h.owner(kPage), proto::kOwnerLost);
  EXPECT_EQ(h.stats(2).pages_lost, 1u);
}

TEST(Recovery, PlainStrongHasNoDirectoryToRepair) {
  Harness h(4, Model::kStrong);
  h.seed_page(kPage, /*owner=*/1);
  // Strong metadata has no directory words: the repair must not read or
  // write them, and a dead owner re-homes straight to the recoverer.
  const RecoveryAction a = proto::recover_page(
      h.env(2), kPage, dead_set({1}), /*owner_died_dirty=*/false,
      /*has_directory=*/false);
  EXPECT_EQ(a, RecoveryAction::kRefetched);
  EXPECT_EQ(h.owner(kPage), 2);
}

}  // namespace
}  // namespace msvm::svm
