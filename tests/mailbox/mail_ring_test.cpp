// MailRing against std::deque: random pushes, pops and order-preserving
// erases at the front, the middle and the back, across wrap-around and
// growth. erase_at shifts whichever side of the erased slot is shorter,
// so both shift directions, and the wrap of either, must keep the order.
#include "mailbox/mail_ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "sim/rng.hpp"

namespace msvm::mbox {
namespace {

::testing::AssertionResult same(const MailRing<u64>& ring,
                                const std::deque<u64>& ref) {
  if (ring.size() != ref.size() || ring.empty() != ref.empty()) {
    return ::testing::AssertionFailure()
           << "size " << ring.size() << ", expected " << ref.size();
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (ring.at(i) != ref[i]) {
      return ::testing::AssertionFailure()
             << "index " << i << ": " << ring.at(i) << ", expected "
             << ref[i];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(MailRing, EraseAtFrontMiddleAndBackKeepsOrder) {
  MailRing<u64> ring;
  std::deque<u64> ref;
  for (u64 v = 0; v < 9; ++v) {
    ring.push_back(v);
    ref.push_back(v);
  }
  for (const std::size_t i : {std::size_t{0}, std::size_t{3},
                              std::size_t{6}, std::size_t{1},
                              std::size_t{4}, std::size_t{0}}) {
    ring.erase_at(i);
    ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
    ASSERT_TRUE(same(ring, ref)) << "after erase_at(" << i << ")";
  }
  while (!ref.empty()) {
    ring.erase_at(ref.size() - 1);
    ref.pop_back();
    ASSERT_TRUE(same(ring, ref));
  }
}

TEST(MailRing, RandomOpsMatchDeque) {
  // Phases alternate between filling (up to a few hundred deep, so the
  // slab grows several times) and draining (so head and tail lap the
  // slab and erases straddle the wrap).
  sim::Rng rng(0x5eed);
  MailRing<u64> ring;
  std::deque<u64> ref;
  u64 next = 0;
  std::size_t front = 0, middle = 0, back = 0, max_depth = 0;
  for (int step = 0; step < 40'000; ++step) {
    const bool filling = (step / 1'500) % 2 == 0;
    const u64 r = rng.next_below(100);
    if (ref.empty() || r < (filling ? 65u : 25u)) {
      ring.push_back(next);
      ref.push_back(next);
      ++next;
    } else if (r < 70) {
      ASSERT_EQ(ring.front(), ref.front());
      ring.pop_front();
      ref.pop_front();
    } else {
      // Erase biased to the ends: an overdriven inbox takes at or next
      // to the front; predicate takes also land anywhere.
      std::size_t i = 0;
      const u64 where = rng.next_below(4);
      if (where == 0) {
        i = 0;
      } else if (where == 1) {
        i = ref.size() - 1;
      } else {
        i = static_cast<std::size_t>(rng.next_below(ref.size()));
      }
      if (i == 0) {
        ++front;
      } else if (i + 1 == ref.size()) {
        ++back;
      } else {
        ++middle;
      }
      ring.erase_at(i);
      ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
    }
    ASSERT_TRUE(same(ring, ref)) << "step " << step;
    max_depth = std::max(max_depth, ref.size());
  }
  EXPECT_GT(front, 1'000u);
  EXPECT_GT(middle, 1'000u);
  EXPECT_GT(back, 1'000u);
  EXPECT_GT(next, 10'000u);
  EXPECT_GT(max_depth, 256u);  // the slab grew past 16 several times
}

}  // namespace
}  // namespace msvm::mbox
