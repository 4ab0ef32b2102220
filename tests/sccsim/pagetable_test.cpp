// PageTable against std::map: random map, update and find over pages of
// three address windows (the private window at kPrivVBase, the SVM
// window at kSvmVBase and one 2^23+ pages beyond it), each straddling a
// 4096-page boundary, so lookups cross leaves of the two-level table and
// new leaves appear mid-run. Every mutation bumps the epoch exactly once;
// a miss changes nothing. Frame 0 is a valid frame (shared DRAM starts at
// paddr 0), so a PTE with every field clear must not read as "never
// mapped".
#include "sccsim/pagetable.hpp"

#include <gtest/gtest.h>

#include <map>

#include "sccsim/addrmap.hpp"
#include "sim/rng.hpp"

namespace msvm::scc {
namespace {

bool same_pte(const Pte& a, const Pte& b) {
  return a.frame_paddr == b.frame_paddr && a.present == b.present &&
         a.writable == b.writable && a.mpbt == b.mpbt;
}

Pte random_pte(sim::Rng& rng) {
  Pte p;
  p.frame_paddr = rng.next_below(1u << 20) * kPageBytes;
  p.present = rng.next_below(4) != 0;
  p.writable = rng.next_below(2) != 0;
  p.mpbt = rng.next_below(2) != 0;
  return p;
}

TEST(PageTable, NeverMappedPageIsAbsent) {
  PageTable pt;
  EXPECT_EQ(pt.find(kSvmVBase), nullptr);
  EXPECT_EQ(pt.find(kPrivVBase + 123), nullptr);
  bool called = false;
  EXPECT_FALSE(pt.update(kSvmVBase, [&](Pte&) { called = true; }));
  EXPECT_FALSE(called);
  EXPECT_EQ(pt.epoch(), 0u);
}

TEST(PageTable, RandomOpsMatchStdMap) {
  sim::Rng rng(0xbadc0de);
  PageTable pt;
  std::map<u64, Pte> ref;  // vpage -> PTE
  const u64 svm = kSvmVBase >> kPageShift;
  const u64 windows[] = {kPrivVBase >> kPageShift, svm,
                         svm + (u64{1} << 23) + (u64{5} << 12)};
  // 6,000 candidate pages per window, centred on a 4096-page boundary:
  // neighbouring candidates land in different leaves. Pages 0 and 64 of
  // each window share a TLB slot; the table must not care.
  auto random_vaddr = [&] {
    const u64 vpage =
        windows[rng.next_below(3)] - 3'000 + rng.next_below(6'000);
    return (vpage << kPageShift) | rng.next_below(kPageBytes);
  };
  u64 epoch = pt.epoch();
  int maps = 0, updates = 0, missed_updates = 0, hits = 0, misses = 0;
  for (int step = 0; step < 60'000; ++step) {
    const u64 vaddr = random_vaddr();
    const u64 vpage = vaddr >> kPageShift;
    const auto it = ref.find(vpage);
    const u64 op = rng.next_below(10);
    if (op < 3) {
      const Pte pte = random_pte(rng);
      pt.map(vaddr, pte);
      ref[vpage] = pte;
      ++maps;
      ASSERT_EQ(pt.epoch(), ++epoch);
    } else if (op < 5) {
      const bool present = rng.next_below(2) != 0;
      const bool ok = pt.update(vaddr, [&](Pte& p) {
        p.present = present;
        p.writable = !p.writable;
      });
      ASSERT_EQ(ok, it != ref.end());
      if (ok) {
        it->second.present = present;
        it->second.writable = !it->second.writable;
        ++updates;
        ++epoch;
      } else {
        ++missed_updates;
      }
      ASSERT_EQ(pt.epoch(), epoch);
    } else {
      const Pte* got = pt.find(vaddr);
      if (it == ref.end()) {
        ASSERT_EQ(got, nullptr) << "vpage " << vpage;
        ++misses;
      } else {
        ASSERT_NE(got, nullptr) << "vpage " << vpage;
        ASSERT_TRUE(same_pte(*got, it->second)) << "vpage " << vpage;
        ++hits;
      }
      ASSERT_EQ(pt.epoch(), epoch);
    }
  }
  // Every mapping survived the maps and leaves that came after it.
  for (const auto& [vpage, pte] : ref) {
    const Pte* got = pt.find(vpage << kPageShift);
    ASSERT_NE(got, nullptr) << "vpage " << vpage;
    EXPECT_TRUE(same_pte(*got, pte)) << "vpage " << vpage;
  }
  EXPECT_GT(ref.size(), 9'000u);
  EXPECT_GT(maps, 10'000);
  EXPECT_GT(updates, 1'000);
  EXPECT_GT(missed_updates, 1'000);
  EXPECT_GT(hits, 1'000);
  EXPECT_GT(misses, 1'000);
}

TEST(PageTable, FrameZeroIsMappedAndEmptyEntriesAreNot) {
  PageTable pt;
  const u64 page = kSvmVBase + 5 * kPageBytes;
  Pte zero;  // frame 0, present: the first frame of shared DRAM
  zero.frame_paddr = 0;
  zero.present = true;
  pt.map(page, zero);
  const Pte* got = pt.find(page + 17);
  ASSERT_NE(got, nullptr);
  EXPECT_TRUE(same_pte(*got, zero));

  // An unmapped read-only page of frame 0 has every field clear, yet is
  // mapped.
  const u64 blank_page = page + kPageBytes;
  Pte blank = zero;
  blank.present = false;
  pt.map(blank_page, blank);
  ASSERT_NE(pt.find(blank_page), nullptr);
  EXPECT_TRUE(same_pte(*pt.find(blank_page), blank));
  const u64 epoch = pt.epoch();
  EXPECT_TRUE(pt.update(blank_page, [](Pte& p) { p.present = true; }));
  EXPECT_EQ(pt.epoch(), epoch + 1);
  EXPECT_TRUE(pt.find(blank_page)->present);

  // Never-mapped entries beside them, in the same leaf, are absent.
  for (const u64 vaddr :
       {kSvmVBase, page - kPageBytes, page + 2 * kPageBytes}) {
    EXPECT_EQ(pt.find(vaddr), nullptr) << vaddr;
    bool called = false;
    EXPECT_FALSE(pt.update(vaddr, [&](Pte&) { called = true; }));
    EXPECT_FALSE(called);
  }
  EXPECT_EQ(pt.epoch(), epoch + 1);

  // Entries never move: the pointer find() gave stays the entry's.
  for (u64 i = 0; i < 20'000; ++i) {
    pt.map(kPrivVBase + (i << kPageShift) * 7, zero);
  }
  EXPECT_EQ(pt.find(page), got);
  EXPECT_EQ(got->frame_paddr, 0u);
}

}  // namespace
}  // namespace msvm::scc
