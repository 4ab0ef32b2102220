// Per-core page tables.
//
// Each simulated core owns a private page table, mirroring MetalSVM where
// "the page tables are located in the private memory and, consequently,
// each core possesses its own version of the page tables" (Section 6.3).
// The SVM layer manipulates PTE permission bits (present / writable) and
// the MPBT memory-type bit to drive the consistency protocols.
#pragma once

#include <unordered_map>

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
  u64 vpage_of(u64 vaddr) const { return vaddr >> kPageShift; }
  u64 page_offset(u64 vaddr) const { return vaddr & (kPageBytes - 1); }

  /// Epoch increments on every mutation; consumers (the core's host-side
  /// translation cache) use it to invalidate stale snapshots.
  u64 epoch() const { return epoch_; }

  /// Looks up the PTE for the page containing `vaddr` (nullptr if the
  /// page was never mapped).
  const Pte* find(u64 vaddr) const {
    const auto it = entries_.find(vpage_of(vaddr));
    return it == entries_.end() ? nullptr : &it->second;
  }

  /// Installs or replaces the PTE for the page containing `vaddr`.
  void map(u64 vaddr, const Pte& pte) {
    entries_[vpage_of(vaddr)] = pte;
    ++epoch_;
  }

  /// Drops the mapping entirely.
  void unmap(u64 vaddr) {
    entries_.erase(vpage_of(vaddr));
    ++epoch_;
  }

  /// Mutates an existing PTE in place via `fn`; returns false when the
  /// page has no entry.
  template <typename Fn>
  bool update(u64 vaddr, Fn&& fn) {
    const auto it = entries_.find(vpage_of(vaddr));
    if (it == entries_.end()) return false;
    fn(it->second);
    ++epoch_;
    return true;
  }

  std::size_t size() const { return entries_.size(); }

 private:
  u64 epoch_ = 0;
  std::unordered_map<u64, Pte> entries_;
};

}  // namespace msvm::scc
