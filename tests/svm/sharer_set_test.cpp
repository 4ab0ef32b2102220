// SharerSet and directory-entry tests: the inline-word set at SCC
// widths, the spilled multi-word set at 65 and 1024 cores, and the
// DirEntry round-trip through MetaWord's one packing rule (sharer i in
// bit i % 64 of word i / 64, Shared in bit 63 of the last word) at 63,
// 65 and 1024 cores.
//
// Links the protocol library only — the sharer set must stay free of
// simulator dependencies.
#include "svm/protocol/sharer_set.hpp"

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "svm/protocol/meta.hpp"

namespace msvm::svm::proto {
namespace {

TEST(SharerSet, InlineWordAtSccWidth) {
  SharerSet s(48);
  EXPECT_EQ(s.num_words(), 1);
  EXPECT_TRUE(s.none());
  s.set(0);
  s.set(47);
  EXPECT_TRUE(s.test(0));
  EXPECT_TRUE(s.test(47));
  EXPECT_FALSE(s.test(23));
  EXPECT_EQ(s.count(), 2);
  EXPECT_EQ(s.word(0), (u64{1} << 47) | 1);
  s.clear(0);
  EXPECT_EQ(s.count(), 1);
  // Out-of-width ids are ignored, not UB.
  s.set(48);
  s.set(-1);
  EXPECT_EQ(s.count(), 1);
  EXPECT_FALSE(s.test(48));
}

TEST(SharerSet, SpillsAtSixtyFive) {
  SharerSet s(65);
  EXPECT_EQ(s.num_words(), 2);
  s.set(63);
  s.set(64);  // first bit of the second word
  EXPECT_TRUE(s.test(63));
  EXPECT_TRUE(s.test(64));
  EXPECT_EQ(s.count(), 2);
  EXPECT_EQ(s.word(0), u64{1} << 63);
  EXPECT_EQ(s.word(1), u64{1});
  s.clear(63);
  EXPECT_FALSE(s.test(63));
  EXPECT_TRUE(s.test(64));
  EXPECT_TRUE(s.any());
  s.clear(64);
  EXPECT_TRUE(s.none());
}

TEST(SharerSet, WordRoundTripAtSixtyFive) {
  // Serialise through word()/set_word() — the exact path the wide
  // MetaStore uses — and get the same membership back.
  SharerSet a(65);
  a.set(0);
  a.set(31);
  a.set(63);
  a.set(64);
  SharerSet b(65);
  for (int w = 0; w < a.num_words(); ++w) b.set_word(w, a.word(w));
  for (int id = 0; id < 65; ++id) {
    EXPECT_EQ(b.test(id), a.test(id)) << "id " << id;
  }
  EXPECT_EQ(b.count(), 4);
}

TEST(SharerSet, SpillRoundTripAtTenTwentyFour) {
  SharerSet a(1024);
  EXPECT_EQ(a.num_words(), 16);
  const int members[] = {0, 1, 63, 64, 511, 512, 767, 1023};
  for (const int id : members) a.set(id);
  EXPECT_EQ(a.count(), 8);

  SharerSet b(1024);
  for (int w = 0; w < a.num_words(); ++w) b.set_word(w, a.word(w));
  std::vector<int> seen;
  b.for_each([&seen](int id) { seen.push_back(id); });
  EXPECT_EQ(seen, std::vector<int>(std::begin(members), std::end(members)))
      << "for_each must visit members in ascending order";

  b.reset();
  EXPECT_TRUE(b.none());
  EXPECT_EQ(b.count(), 0);
}

// ---- DirEntry round-trips through MetaWord's packing ----

/// Word-indexed store over a plain map: the raw words MetaWord packed.
class MapStore : public MetaStore {
 public:
  u64 load(MetaKind kind, u64 page, int word) override {
    const auto it = words_.find({kind, page, word});
    return it == words_.end() ? 0 : it->second;
  }
  void store(MetaKind kind, u64 page, int word, u64 value) override {
    words_[{kind, page, word}] = value;
  }
  std::size_t size() const { return words_.size(); }

 private:
  std::map<std::tuple<MetaKind, u64, int>, u64> words_;
};

class DirEntryRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(DirEntryRoundTrip, OneBitVector) {
  const int cores = GetParam();
  MapStore store;
  MetaWord meta(store, cores);
  DirEntry e(cores);
  e.shared = true;
  for (const int id : {0, 4, 62, 63, 64, 129, 511, 1023}) e.sharers.set(id);
  meta.store_dir_entry(7, e);
  EXPECT_EQ(store.size(), static_cast<std::size_t>(dir_words(cores)))
      << "one store per entry word, no more";

  const DirEntry back = meta.dir_entry(7);
  EXPECT_TRUE(back.shared);
  EXPECT_EQ(back.sharers.count(), e.sharers.count());
  for (int id = 0; id < cores; ++id) {
    ASSERT_EQ(back.sharers.test(id), e.sharers.test(id)) << "id " << id;
  }
  meta.clear_dir(7);
  EXPECT_TRUE(meta.dir_entry(7).none());
}

INSTANTIATE_TEST_SUITE_P(Dies, DirEntryRoundTrip,
                         ::testing::Values(63, 65, 1024),
                         ::testing::PrintToStringParamName());

TEST(DirEntry, RawWordsFollowTheOneRule) {
  DirEntry e63(63), e65(65);
  e63.shared = e65.shared = true;
  for (const int id : {4, 62}) e63.sharers.set(id);
  for (const int id : {63, 64}) e65.sharers.set(id);
  MapStore narrow, wide;
  MetaWord(narrow, 63).store_dir_entry(7, e63);
  MetaWord(wide, 65).store_dir_entry(7, e65);
  // Below 64 cores: one word, sharers under the Shared bit.
  EXPECT_EQ(narrow.size(), 1u);
  EXPECT_EQ(narrow.load(MetaKind::kDirectory, 7, 0),
            kDirSharedBit | dir_bit(4) | dir_bit(62));
  // 65 cores: two sharer words, then a last word with only Shared.
  EXPECT_EQ(wide.size(), 3u);
  EXPECT_EQ(wide.load(MetaKind::kDirectory, 7, 0), dir_bit(63));
  EXPECT_EQ(wide.load(MetaKind::kDirectory, 7, 1), dir_bit(0));
  EXPECT_EQ(wide.load(MetaKind::kDirectory, 7, 2), kDirSharedBit);
}

}  // namespace
}  // namespace msvm::svm::proto
