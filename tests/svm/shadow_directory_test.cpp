// ShadowDirectory invariant tests driven by synthetic obs::Events — each
// test hand-crafts the minimal event arrival sequence that either
// satisfies or violates one audited invariant, so every violation path
// is exercised without running a simulated chip.
#include "svm/shadow_directory.hpp"

#include <gtest/gtest.h>

#include "svm/protocol/types.hpp"

namespace msvm::svm {
namespace {

using obs::Event;
using obs::EventKind;
using obs::InjectKind;

Event ev(EventKind kind, u64 a, u64 b, u64 c, int core, u64 t = 0) {
  return Event{t, a, b, c, kind, core};
}

Event transition(u64 page, proto::PageState from, proto::PageState to,
                 int core) {
  return ev(EventKind::kProtoTransition, page, static_cast<u64>(from),
            static_cast<u64>(to), core);
}

Event meta_write(u64 page, proto::MetaKind kind, u64 value, int core,
                 int word = 0) {
  return ev(EventKind::kProtoMetaWrite, page, proto::meta_tag(kind, word),
            value, core);
}

/// A 96-core directory entry as traced: two sharer words, then the word
/// holding the Shared bit.
void wide_dir_write(ShadowDirectory& shadow, u64 page, u64 w0, u64 w1) {
  const u64 words[] = {w0, w1, proto::kDirSharedBit};
  for (int w = 0; w < 3; ++w) {
    shadow.on_event(
        meta_write(page, proto::MetaKind::kDirectory, words[w], 0, w));
  }
}

Event kill(int core) {
  return ev(EventKind::kFaultInject,
            static_cast<u64>(InjectKind::kCoreKill), 0, 0, core);
}

constexpr auto kInvalid = proto::PageState::kInvalid;
constexpr auto kSharedRO = proto::PageState::kSharedRO;
constexpr auto kOwnedRW = proto::PageState::kOwnedRW;

TEST(ShadowDirectory, CleanOwnershipHandoff) {
  ShadowDirectory shadow;
  shadow.on_event(transition(7, kInvalid, kOwnedRW, 0));
  shadow.on_event(transition(7, kOwnedRW, kInvalid, 0));
  shadow.on_event(transition(7, kInvalid, kOwnedRW, 1));
  EXPECT_TRUE(shadow.clean());
  EXPECT_EQ(shadow.events_audited(), 3u);
  EXPECT_NE(shadow.report().find("(clean)"), std::string::npos);
}

TEST(ShadowDirectory, TwoConcurrentWritersViolateExclusivity) {
  ShadowDirectory shadow;
  shadow.on_event(transition(7, kInvalid, kOwnedRW, 0));
  shadow.on_event(transition(7, kInvalid, kOwnedRW, 1));
  ASSERT_EQ(shadow.violation_count(), 1u);
  EXPECT_NE(shadow.violations()[0].find("writer-exclusivity"),
            std::string::npos);
  EXPECT_NE(shadow.violations()[0].find("page 7"), std::string::npos);
  // A second page is tracked independently.
  shadow.on_event(transition(8, kInvalid, kOwnedRW, 2));
  EXPECT_EQ(shadow.violation_count(), 1u);
}

TEST(ShadowDirectory, ReacquireByTheSameWriterIsClean) {
  ShadowDirectory shadow;
  shadow.on_event(transition(3, kInvalid, kOwnedRW, 5));
  shadow.on_event(transition(3, kOwnedRW, kOwnedRW, 5));
  EXPECT_TRUE(shadow.clean());
}

TEST(ShadowDirectory, SharerOutsideDirectoryWordIsFlagged) {
  ShadowDirectory shadow;
  // Directory word admits cores 1 and 2; owner is core 0.
  shadow.on_event(meta_write(9, proto::MetaKind::kOwner, 0, 0));
  shadow.on_event(
      meta_write(9, proto::MetaKind::kDirectory, (1u << 1) | (1u << 2), 0));
  shadow.on_event(transition(9, kInvalid, kSharedRO, 2));  // in word: clean
  shadow.on_event(transition(9, kOwnedRW, kSharedRO, 0));  // owner: exempt
  EXPECT_TRUE(shadow.clean());
  shadow.on_event(transition(9, kInvalid, kSharedRO, 3));  // neither
  ASSERT_EQ(shadow.violation_count(), 1u);
  EXPECT_NE(shadow.violations()[0].find("sharer-subset"),
            std::string::npos);
}

TEST(ShadowDirectory, SubsetCheckNeedsBothMetaWordsObserved) {
  ShadowDirectory shadow;
  // Only the directory word has been seen — the owner word is unknown,
  // so an arrival-order gap must not be reported as a violation.
  shadow.on_event(meta_write(9, proto::MetaKind::kDirectory, 0, 0));
  shadow.on_event(transition(9, kInvalid, kSharedRO, 3));
  EXPECT_TRUE(shadow.clean());
}

TEST(ShadowDirectory, SubsetCheckCoversWideChips) {
  ShadowDirectory shadow;
  // 96 cores: core 69 is bit 5 of word 1; core 70 is in no word.
  shadow.on_event(meta_write(9, proto::MetaKind::kOwner, 0, 0));
  wide_dir_write(shadow, 9, proto::dir_bit(3), proto::dir_bit(69 - 64));
  shadow.on_event(transition(9, kInvalid, kSharedRO, 69));
  EXPECT_TRUE(shadow.clean());
  shadow.on_event(transition(9, kInvalid, kSharedRO, 70));
  ASSERT_EQ(shadow.violation_count(), 1u);
  EXPECT_NE(shadow.violations()[0].find("sharer-subset"),
            std::string::npos);
}

TEST(ShadowDirectory, CoreSixtyThreeIsASharerOfAWideDirectory) {
  ShadowDirectory shadow;
  // Past 63 cores bit 63 of word 0 is sharer 63; the Shared bit is bit
  // 63 of the last word.
  shadow.on_event(meta_write(9, proto::MetaKind::kOwner, 0, 0));
  wide_dir_write(shadow, 9, proto::dir_bit(63), 0);
  shadow.on_event(transition(9, kInvalid, kSharedRO, 63));
  EXPECT_TRUE(shadow.clean());
}

TEST(ShadowDirectory, SingleWriterOffSkipsOwnershipChecks) {
  // LRC maps pages writable on every core by design.
  ShadowDirectory::Config cfg;
  cfg.single_writer = false;
  ShadowDirectory shadow(cfg);
  shadow.on_event(transition(1, kInvalid, kOwnedRW, 0));
  shadow.on_event(transition(1, kInvalid, kOwnedRW, 1));
  shadow.on_event(transition(1, kInvalid, kOwnedRW, 2));
  EXPECT_TRUE(shadow.clean());
}

TEST(ShadowDirectory, RecoveryEpochMustGrowStrictly) {
  ShadowDirectory shadow;
  shadow.on_event(ev(EventKind::kRecoveryBegin, 1, 0, 4, 0));
  shadow.on_event(ev(EventKind::kRecoveryBegin, 2, 0, 5, 0));
  EXPECT_TRUE(shadow.clean());
  shadow.on_event(ev(EventKind::kRecoveryBegin, 2, 0, 6, 0));
  ASSERT_EQ(shadow.violation_count(), 1u);
  EXPECT_NE(shadow.violations()[0].find("epoch-monotonicity"),
            std::string::npos);
}

TEST(ShadowDirectory, DeadCoreMustStaySilent) {
  ShadowDirectory shadow;
  shadow.on_event(kill(4));
  EXPECT_TRUE(shadow.clean());  // the kill record itself is not flagged
  shadow.on_event(transition(2, kInvalid, kSharedRO, 4));
  ASSERT_EQ(shadow.violation_count(), 1u);
  EXPECT_NE(shadow.violations()[0].find("dead-silence"),
            std::string::npos);
}

TEST(ShadowDirectory, KillReleasesTheShadowWriterSlot) {
  ShadowDirectory shadow;
  // Core 4 dies holding OwnedRW on page 6: it never publishes the exit
  // transition, so the kill must free the slot for recovery's new owner.
  shadow.on_event(transition(6, kInvalid, kOwnedRW, 4));
  shadow.on_event(kill(4));
  shadow.on_event(transition(6, kInvalid, kOwnedRW, 5));
  EXPECT_TRUE(shadow.clean());
}

TEST(ShadowDirectory, ViolationStorageIsCappedButCountIsNot) {
  ShadowDirectory shadow;
  shadow.on_event(kill(1));
  for (int i = 0; i < 100; ++i) {
    shadow.on_event(transition(1, kInvalid, kSharedRO, 1));
  }
  EXPECT_EQ(shadow.violation_count(), 100u);
  EXPECT_EQ(shadow.violations().size(), 64u);
  EXPECT_NE(shadow.report().find("more (storage capped)"),
            std::string::npos);
}

}  // namespace
}  // namespace msvm::svm
