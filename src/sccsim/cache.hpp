// Functional set-associative cache with LRU replacement.
//
// "Functional" means every line carries a real 32-byte data copy. The SCC
// provides no coherence between cores, so a line can go stale the moment
// another core writes the backing memory — and because the data here is
// real, a missing flush or invalidate in the SVM protocol produces a wrong
// computation result, exactly as on hardware. Several tests rely on this
// (they break the protocol on purpose and assert the corruption appears).
//
// Policy notes (P54C as modelled in the paper):
//   - write-through: stores never dirty a line; they update a present line
//     and always propagate downstream.
//   - read-allocate only: a store to an absent line does NOT allocate
//     ("the P54C cores are not able to update the cache entries on a write
//     miss", Section 7.2.2).
//   - each line carries the MPBT tag bit; CL1INVMB invalidates exactly the
//     tagged lines (invalidate_mpbt()).
#pragma once

#include <cassert>
#include <cstring>

#include "sim/types.hpp"
#include "sim/zero_array.hpp"

namespace msvm::scc {

class Cache {
 public:
  Cache(u32 total_bytes, u32 assoc, u32 line_bytes)
      : line_bytes_(line_bytes),
        assoc_(assoc),
        num_sets_(total_bytes / line_bytes / assoc),
        lines_(static_cast<std::size_t>(num_sets_) * assoc),
        data_(static_cast<std::size_t>(num_sets_) * assoc * line_bytes) {
    assert(num_sets_ > 0 && (num_sets_ & (num_sets_ - 1)) == 0 &&
           "set count must be a power of two");
    assert((line_bytes & (line_bytes - 1)) == 0 &&
           "line size must be a power of two");
    while ((u32{1} << line_shift_) < line_bytes) ++line_shift_;
  }

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  u32 line_bytes() const { return line_bytes_; }
  u32 num_sets() const { return num_sets_; }
  u32 assoc() const { return assoc_; }

  u64 line_addr(u64 paddr) const { return paddr & ~u64{line_bytes_ - 1}; }

  /// True if the line containing `paddr` is present (no LRU update).
  bool probe(u64 paddr) const { return find(paddr) != nullptr; }

  /// Reads `size` bytes if present; returns false on miss. Hit updates
  /// LRU. The access must not straddle a line boundary.
  bool read(u64 paddr, void* out, u32 size) {
    const u8* bytes = hit_bytes(paddr);
    if (bytes == nullptr) return false;
    std::memcpy(out, bytes + offset_in_line(paddr), size);
    return true;
  }

  /// Write-through update: writes into the line if present (returns true),
  /// no allocation on miss.
  bool write(u64 paddr, const void* data, u32 size) {
    u8* bytes = hit_bytes(paddr);
    if (bytes == nullptr) return false;
    std::memcpy(bytes + offset_in_line(paddr), data, size);
    return true;
  }

  /// Hot-path hit probe: on a hit, bumps the LRU stamp and returns the
  /// line's byte storage (the caller indexes with the in-line offset and
  /// performs the copy itself); nullptr on a miss, with no state change.
  /// This is the single lookup the Core's inlined L1-hit fast path does.
  u8* hit_bytes(u64 paddr) {
    Line* line = find(paddr);
    if (line == nullptr) return nullptr;
    line->stamp = ++tick_;
    return line_data(line);
  }

  /// Allocates (fills) the line containing `paddr` with `line_data`
  /// (exactly line_bytes() bytes), evicting the set's LRU way. Clean
  /// write-through caches never need writeback on eviction.
  void fill(u64 paddr, const void* line_data, bool mpbt) {
    const u64 tag = line_addr(paddr);
    Line* victim = find(paddr);
    if (victim == nullptr) {
      const u32 set = set_index(paddr);
      victim = &lines_[static_cast<std::size_t>(set) * assoc_];
      for (u32 w = 1; w < assoc_; ++w) {
        Line& cand = lines_[static_cast<std::size_t>(set) * assoc_ + w];
        if (!victim->valid) break;
        if (!cand.valid || cand.stamp < victim->stamp) victim = &cand;
      }
    }
    victim->valid = true;
    victim->mpbt = mpbt;
    victim->tag = tag;
    victim->stamp = ++tick_;
    std::memcpy(this->line_data(victim), line_data, line_bytes_);
  }

  void invalidate_line(u64 paddr) {
    if (Line* line = find(paddr)) line->valid = false;
  }

  /// CL1INVMB: invalidate every line tagged as MPBT memory type.
  void invalidate_mpbt() {
    for (auto& line : lines_) {
      if (line.valid && line.mpbt) line.valid = false;
    }
  }

  void invalidate_all() {
    for (auto& line : lines_) {
      if (line.valid) line.valid = false;
    }
  }

  std::size_t valid_line_count() const {
    std::size_t n = 0;
    for (const auto& line : lines_) n += line.valid ? 1 : 0;
    return n;
  }

 private:
  // Line header. Its payload is the line's slice of the flat slab data_,
  // found from the header's index: the header is padded to 32 bytes, so
  // the index is the header's byte offset shifted right by 5 and the
  // payload offset is the index shifted left by line_shift_. All-zero
  // bytes are an invalid line, which is what a fresh ZeroArray holds.
  struct alignas(32) Line {
    u64 tag = 0;
    u64 stamp = 0;
    bool valid = false;
    bool mpbt = false;
  };
  static_assert(sizeof(Line) == 32, "payload derivation assumes a shift");

  u8* line_data(const Line* line) {
    const auto index = static_cast<std::size_t>(line - lines_.data());
    return data_.data() + (index << line_shift_);
  }
  const u8* line_data(const Line* line) const {
    return const_cast<Cache*>(this)->line_data(line);
  }

  u32 set_index(u64 paddr) const {
    return static_cast<u32>((paddr >> line_shift_) & (num_sets_ - 1));
  }

  u32 offset_in_line(u64 paddr) const {
    return static_cast<u32>(paddr & (line_bytes_ - 1));
  }

  const Line* find(u64 paddr) const {
    const u64 tag = line_addr(paddr);
    const u32 set = set_index(paddr);
    for (u32 w = 0; w < assoc_; ++w) {
      const Line& line = lines_[static_cast<std::size_t>(set) * assoc_ + w];
      if (line.valid && line.tag == tag) return &line;
    }
    return nullptr;
  }

  Line* find(u64 paddr) {
    return const_cast<Line*>(
        static_cast<const Cache*>(this)->find(paddr));
  }

  u32 line_bytes_;
  u32 line_shift_ = 0;  // log2(line_bytes_)
  u32 assoc_;
  u32 num_sets_;
  u64 tick_ = 0;
  sim::ZeroArray<Line> lines_;
  sim::ZeroArray<u8> data_;  // flat payload slab, line_bytes_ per line
};

}  // namespace msvm::scc
