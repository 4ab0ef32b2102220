// PageTable against std::map: random map, update and find over pages of
// both address windows (the private window at kPrivVBase and the SVM
// window at kSvmVBase), across several growths of the open-addressing
// table. Every mutation bumps the epoch exactly once; a miss changes
// nothing.
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
  const u64 windows[] = {kPrivVBase >> kPageShift, kSvmVBase >> kPageShift};
  // Pages 0 and 64 of each window share a TLB slot; the table must not
  // care. 6,000 candidate pages per window: the table grows from 16
  // slots to several thousand.
  auto random_vaddr = [&] {
    const u64 vpage = windows[rng.next_below(2)] + rng.next_below(6'000);
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
  // Every mapping survived every growth.
  for (const auto& [vpage, pte] : ref) {
    const Pte* got = pt.find(vpage << kPageShift);
    ASSERT_NE(got, nullptr) << "vpage " << vpage;
    EXPECT_TRUE(same_pte(*got, pte)) << "vpage " << vpage;
  }
  EXPECT_GT(ref.size(), 6'000u);
  EXPECT_GT(maps, 10'000);
  EXPECT_GT(updates, 1'000);
  EXPECT_GT(missed_updates, 1'000);
  EXPECT_GT(hits, 1'000);
  EXPECT_GT(misses, 1'000);
}

}  // namespace
}  // namespace msvm::scc
