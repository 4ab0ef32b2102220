// AckRing boundary behaviour: capacity eviction, duplicate detection,
// and the u16 sequence wraparound (which clears the ring so stale keys
// from the previous sequence epoch cannot swallow fresh ACKs). These are
// exactly the paths a simulated run would need ~65k protocol round-trips
// to reach, hence the standalone class and this direct test.
#include "mailbox/reliable.hpp"

#include <gtest/gtest.h>

namespace msvm::mbox {
namespace {

using Admit = AckRing::Admit;
using u64 = AckRing::u64;

TEST(AckRing, FreshThenDuplicate) {
  AckRing ring;
  EXPECT_EQ(ring.admit(0xabcd), Admit::kFresh);
  EXPECT_EQ(ring.admit(0xabcd), Admit::kDuplicate);
  EXPECT_TRUE(ring.remembers(0xabcd));
  EXPECT_EQ(ring.admit(0xef01), Admit::kFresh);
  EXPECT_EQ(ring.admit(0xabcd), Admit::kDuplicate);
}

TEST(AckRing, SequenceNumbersSkipZero) {
  AckRing ring;
  EXPECT_EQ(ring.next_seq(), 1);
  EXPECT_EQ(ring.next_seq(), 2);
  EXPECT_EQ(ring.seq(), 2);
}

TEST(AckRing, CapacityEvictionIsCountedAndFifo) {
  AckRing ring;
  // Fill every slot: all fresh, no evictions yet.
  for (u64 k = 1; k <= AckRing::kEntries; ++k) {
    EXPECT_EQ(ring.admit(k), Admit::kFresh) << "key " << k;
  }
  // One more displaces the oldest entry (slot 0, key 1).
  EXPECT_EQ(ring.admit(1000), Admit::kFreshEvicting);
  EXPECT_FALSE(ring.remembers(1));
  EXPECT_TRUE(ring.remembers(2));
  EXPECT_TRUE(ring.remembers(1000));
  // The evicted key is re-admitted as fresh work — the double-count
  // hazard the ring guards against has a bounded window, not an
  // unbounded memory.
  EXPECT_EQ(ring.admit(1), Admit::kFreshEvicting);
}

TEST(AckRing, WrapClearsRingAndCountsWrap) {
  AckRing ring;
  // Park some ACK identities from the pre-wrap sequence epoch.
  ASSERT_EQ(ring.admit(0x1111), Admit::kFresh);
  ASSERT_EQ(ring.admit(0x2222), Admit::kFresh);
  // Drive the u16 counter to the wrap point: 65535 increments reach
  // seq 65535, the next one wraps to 1 (0 is reserved).
  for (int i = 0; i < 65535; ++i) ring.next_seq();
  ASSERT_EQ(ring.seq(), 65535);
  ASSERT_EQ(ring.wraps(), 0u);
  EXPECT_EQ(ring.next_seq(), 1);
  EXPECT_EQ(ring.wraps(), 1u);
  // The wrap cleared the ring: the old epoch's keys are forgotten, so a
  // same-packed key from the new epoch is fresh (not a false duplicate),
  // and nothing counts as an eviction right after the clear.
  EXPECT_FALSE(ring.remembers(0x1111));
  EXPECT_FALSE(ring.remembers(0x2222));
  EXPECT_EQ(ring.admit(0x1111), Admit::kFresh);
}

TEST(AckRing, SecondWrapAlsoCounted) {
  AckRing ring;
  // Each epoch is 65535 calls (values 1..65535) plus the wrapping call
  // that re-yields 1; two full wraps and one more call land on seq 2.
  for (int i = 0; i < 2 * 65536; ++i) ring.next_seq();
  EXPECT_EQ(ring.wraps(), 2u);
  EXPECT_EQ(ring.seq(), 2);
}

}  // namespace
}  // namespace msvm::mbox
