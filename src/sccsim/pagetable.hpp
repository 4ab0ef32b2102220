// Per-core page tables.
//
// Each simulated core owns a private page table, mirroring MetalSVM where
// "the page tables are located in the private memory and, consequently,
// each core possesses its own version of the page tables" (Section 6.3).
// The SVM layer manipulates PTE permission bits (present / writable) and
// the MPBT memory-type bit to drive the consistency protocols.
//
// Host layout: an insert-only open-addressing table (power-of-two
// capacity, multiplicative hash, linear probing, at most 75% load). A
// mapping is never erased (SVM unmaps by clearing `present` through
// update()), so the table needs no tombstones. Every TLB miss walks it.
// Refuted, do not retry:
//   - a flat Pte vector per core and address window: laplace-lrc-48
//     host_s 2.51 -> 2.12 s, but laplace-strong-256's peak RSS rose from
//     36.0 to 45.9 MB, since every core pays for the highest page it
//     touches;
//   - an identity hash (vpage & mask) with linear probing: private and
//     SVM vpages collide slot for slot, and host_s rose from 2.3-2.4 s
//     to 3.3-3.5 s;
//   - the TLB walk on the inlined fast path with std::unordered_map
//     still behind it: no gain beyond the noise.
#pragma once

#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

#include "sccsim/config.hpp"
#include "sim/types.hpp"

namespace msvm::scc {

inline constexpr u64 kInvalidFrame = ~u64{0};

struct Pte {
  /// Simulated physical address of the frame base.
  u64 frame_paddr = kInvalidFrame;
  bool present = false;
  bool writable = false;
  /// MPBT memory type: L1-only write-through with the write-combine
  /// buffer; lines are tagged so CL1INVMB can invalidate them selectively.
  /// Clear, the page also uses the L2 cache (the read-only-region
  /// optimisation of Section 6.4 sets present=1, writable=0, mpbt=0).
  bool mpbt = false;
};

class PageTable {
 public:
  PageTable() : slots_(kInitialCapacity) {}

  u64 vpage_of(u64 vaddr) const { return vaddr >> kPageShift; }
  u64 page_offset(u64 vaddr) const { return vaddr & (kPageBytes - 1); }

  /// Epoch increments on every mutation; consumers (the core's host-side
  /// translation cache) use it to invalidate stale snapshots.
  u64 epoch() const { return epoch_; }

  /// Looks up the PTE for the page containing `vaddr` (nullptr if the
  /// page was never mapped). The pointer is valid until the next map().
  const Pte* find(u64 vaddr) const {
    const Slot* s = slot_of(vpage_of(vaddr));
    return s->vpage == kEmpty ? nullptr : &s->pte;
  }

  /// Installs or replaces the PTE for the page containing `vaddr`.
  void map(u64 vaddr, const Pte& pte) {
    const u64 vpage = vpage_of(vaddr);
    Slot* s = slot_of(vpage);
    if (s->vpage == kEmpty) {
      if (4 * (used_ + 1) > 3 * slots_.size()) {
        grow();
        s = slot_of(vpage);
      }
      s->vpage = vpage;
      ++used_;
    }
    s->pte = pte;
    ++epoch_;
  }

  /// Mutates an existing PTE in place via `fn`; returns false when the
  /// page has no entry.
  template <typename Fn>
  bool update(u64 vaddr, Fn&& fn) {
    Slot* s = slot_of(vpage_of(vaddr));
    if (s->vpage == kEmpty) return false;
    fn(s->pte);
    ++epoch_;
    return true;
  }

 private:
  // A vpage is at most 64 - kPageShift bits wide, so all-ones is free.
  static constexpr u64 kEmpty = ~u64{0};
  static constexpr std::size_t kInitialCapacity = 16;

  struct Slot {
    u64 vpage = kEmpty;
    Pte pte;
  };

  /// The slot holding `vpage`, or the empty slot where it would go.
  /// Fibonacci hashing: the product's top bits mix every vpage bit, so
  /// the private and SVM windows do not collide slot for slot.
  const Slot* slot_of(u64 vpage) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(
        (vpage * 0x9E3779B97F4A7C15ull) >> shift_);
    while (slots_[i].vpage != vpage && slots_[i].vpage != kEmpty) {
      i = (i + 1) & mask;
    }
    return &slots_[i];
  }
  Slot* slot_of(u64 vpage) {
    return const_cast<Slot*>(std::as_const(*this).slot_of(vpage));
  }

  void grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    --shift_;
    for (const Slot& s : old) {
      if (s.vpage != kEmpty) *slot_of(s.vpage) = s;
    }
  }

  u64 epoch_ = 0;
  std::vector<Slot> slots_;
  std::size_t used_ = 0;
  // 64 - log2(capacity): the hash keeps the product's top bits.
  int shift_ = 64 - std::countr_zero(kInitialCapacity);
};

}  // namespace msvm::scc
