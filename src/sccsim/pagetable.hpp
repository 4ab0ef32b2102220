// Per-core page tables.
//
// Each simulated core owns a private page table, mirroring MetalSVM where
// "the page tables are located in the private memory and, consequently,
// each core possesses its own version of the page tables" (Section 6.3).
// The SVM layer manipulates PTE permission bits (present / writable) and
// the MPBT memory-type bit to drive the consistency protocols.
//
// Host layout: a two-level radix table, as the P54C walks it. A small
// directory holds one leaf per 16 MiB of virtual space that has a
// mapping (a P54C page table spans 4 MiB; 16 MiB keeps Laplace's SVM
// window in one leaf), and a leaf is a zero-on-demand array of 4096 PTEs
// indexed by the low vpage bits. An all-zero entry was never mapped:
// map() sets the PTE's software `mapped` bit, since frame 0 is a valid
// frame (shared DRAM starts at paddr 0) and an unmapped read-only page of
// it has every other bit clear. Leaves are created on the first map()
// into their range and never move or go away (SVM unmaps by clearing
// `present` through update()). A lookup compares the leaf tag with the
// most recently used leaf's, which the table keeps beside that leaf's
// PTE array, and reads the one PTE: the same two host cache lines the
// hash probe touched, in fewer instructions. Only a change of leaf scans
// the directory. A leaf costs host memory only for the host pages its
// mapped entries occupy: perfbench's 1 MiB private window is one host
// page of PTEs.
//
// It replaces an insert-only open-addressing hash (Fibonacci hash, linear
// probing, at most 75% load) whose probe took ~8% of laplace-lrc-48's
// host time: 20.9M of that run's 52.1M measured-phase accesses miss the
// aliasing TLB and walk the table.
// Refuted, do not retry:
//   - a flat Pte std::vector per core and window (laplace-strong-256 peak
//     RSS 36.0 -> 45.9 MB). Its speed was the leaves' (laplace-lrc-48
//     host_s 2.51 -> 2.12 s); its memory went into zero-filling every
//     entry up to the highest page each core touched, which
//     zero-on-demand leaves do not pay;
//   - a "mapped" bitmap per leaf beside the PTEs, with the MRU leaf
//     reached through its directory entry: a walk reads four host cache
//     lines, and laplace-strong-256 lost 3 of 3 pairs to the hash
//     (host_s 2.36 -> 2.50 s).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "sccsim/config.hpp"
#include "sim/types.hpp"
#include "sim/zero_array.hpp"

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
  /// Software bit that PageTable::map() sets on the entry it stores: a
  /// table entry with it clear (all-zero bytes) was never mapped.
  bool mapped = false;
};

class PageTable {
 public:
  u64 vpage_of(u64 vaddr) const { return vaddr >> kPageShift; }
  u64 page_offset(u64 vaddr) const { return vaddr & (kPageBytes - 1); }

  /// Epoch increments on every mutation; consumers (the core's host-side
  /// translation cache) use it to invalidate stale snapshots.
  u64 epoch() const { return epoch_; }

  /// Looks up the PTE for the page containing `vaddr` (nullptr if the
  /// page was never mapped). The pointer stays valid for the table's
  /// lifetime.
  const Pte* find(u64 vaddr) const { return entry(vaddr); }

  /// Installs or replaces the PTE for the page containing `vaddr`.
  void map(u64 vaddr, const Pte& pte) {
    const u64 vpage = vpage_of(vaddr);
    Pte* leaf = leaf_of(vpage >> kLeafBits);
    if (leaf == nullptr) leaf = add_leaf(vpage >> kLeafBits);
    Pte& e = leaf[vpage & kLeafMask];
    e = pte;
    e.mapped = true;
    ++epoch_;
  }

  /// Mutates an existing PTE in place via `fn`; returns false when the
  /// page has no entry.
  template <typename Fn>
  bool update(u64 vaddr, Fn&& fn) {
    Pte* e = entry(vaddr);
    if (e == nullptr) return false;
    fn(*e);
    ++epoch_;
    return true;
  }

 private:
  static constexpr int kLeafBits = 12;
  static constexpr std::size_t kLeafEntries = std::size_t{1} << kLeafBits;
  static constexpr u64 kLeafMask = kLeafEntries - 1;
  // A tag is at most 64 - kPageShift - kLeafBits bits wide.
  static constexpr u64 kNoTag = ~u64{0};

  struct Leaf {
    explicit Leaf(u64 t) : tag(t) {}

    u64 tag;
    sim::ZeroArray<Pte> ptes{kLeafEntries};
  };

  Pte* entry(u64 vaddr) const {
    const u64 vpage = vpage_of(vaddr);
    Pte* leaf = leaf_of(vpage >> kLeafBits);
    if (leaf == nullptr) return nullptr;
    Pte& e = leaf[vpage & kLeafMask];
    return e.mapped ? &e : nullptr;
  }

  /// The PTE array of the leaf for `tag`, or nullptr; a hit becomes the
  /// MRU leaf.
  Pte* leaf_of(u64 tag) const {
    return tag == mru_tag_ ? mru_ptes_ : scan(tag);
  }

  // Out of line: a change of leaf is rare, and the walk is inlined into
  // the core's load/store fast path.
  [[gnu::noinline]] Pte* scan(u64 tag) const {
    for (const auto& leaf : dir_) {
      if (leaf->tag == tag) return make_mru(*leaf);
    }
    return nullptr;
  }

  Pte* add_leaf(u64 tag) {
    dir_.push_back(std::make_unique<Leaf>(tag));
    return make_mru(*dir_.back());
  }

  Pte* make_mru(Leaf& leaf) const {
    mru_tag_ = leaf.tag;
    mru_ptes_ = leaf.ptes.data();
    return mru_ptes_;
  }

  u64 epoch_ = 0;
  std::vector<std::unique_ptr<Leaf>> dir_;
  // Only the owning core walks its table, so the MRU shortcut needs no
  // synchronisation.
  mutable u64 mru_tag_ = kNoTag;
  mutable Pte* mru_ptes_ = nullptr;
};

}  // namespace msvm::scc
