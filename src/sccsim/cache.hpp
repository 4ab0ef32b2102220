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
//
// Layout: each line is one record, its header (tag, LRU stamp, flags)
// followed by its payload, so a hit reads one host cache line for the
// SCC's 32-byte lines. A set's ways are adjacent records.
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
        record_shift_(record_shift(line_bytes)),
        assoc_(assoc),
        num_sets_(total_bytes / line_bytes / assoc),
        records_(static_cast<std::size_t>(num_sets_) * assoc
                 << record_shift_) {
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
    return payload(line);
  }

  /// Allocates (fills) the line containing `paddr` with `line_data`
  /// (exactly line_bytes() bytes), evicting the set's LRU way. Clean
  /// write-through caches never need writeback on eviction.
  void fill(u64 paddr, const void* line_data, bool mpbt) {
    const u64 tag = line_addr(paddr);
    Line* victim = find(paddr);
    if (victim == nullptr) {
      const std::size_t first = first_way(paddr);
      victim = line(first);
      for (u32 w = 1; w < assoc_; ++w) {
        Line* cand = line(first + w);
        if (!victim->valid) break;
        if (!cand->valid || cand->stamp < victim->stamp) victim = cand;
      }
    }
    victim->valid = true;
    victim->mpbt = mpbt;
    victim->tag = tag;
    victim->stamp = ++tick_;
    std::memcpy(payload(victim), line_data, line_bytes_);
  }

  void invalidate_line(u64 paddr) {
    if (Line* line = find(paddr)) line->valid = false;
  }

  /// CL1INVMB: invalidate every line tagged as MPBT memory type.
  void invalidate_mpbt() {
    for (std::size_t i = 0; i < num_lines(); ++i) {
      Line* l = line(i);
      if (l->valid && l->mpbt) l->valid = false;
    }
  }

  void invalidate_all() {
    for (std::size_t i = 0; i < num_lines(); ++i) {
      Line* l = line(i);
      if (l->valid) l->valid = false;  // leaves untouched pages unwritten
    }
  }

  std::size_t valid_line_count() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < num_lines(); ++i) n += line(i)->valid ? 1 : 0;
    return n;
  }

 private:
  // A record's header; the line's payload follows it. All-zero bytes are
  // an invalid line, which is what a fresh ZeroArray holds.
  struct alignas(32) Line {
    u64 tag = 0;
    u64 stamp = 0;
    bool valid = false;
    bool mpbt = false;
  };

  /// log2 of the record stride: the header plus the payload, rounded up
  /// to a power of two (64 bytes for 32-byte lines).
  static u32 record_shift(u32 line_bytes) {
    u32 shift = 0;
    while ((std::size_t{1} << shift) < sizeof(Line) + line_bytes) ++shift;
    return shift;
  }

  std::size_t num_lines() const {
    return static_cast<std::size_t>(num_sets_) * assoc_;
  }
  Line* line(std::size_t i) {
    return reinterpret_cast<Line*>(records_.data() + (i << record_shift_));
  }
  const Line* line(std::size_t i) const {
    return const_cast<Cache*>(this)->line(i);
  }
  static u8* payload(Line* line) {
    return reinterpret_cast<u8*>(line) + sizeof(Line);
  }

  /// The index of the first way of `paddr`'s set.
  std::size_t first_way(u64 paddr) const {
    return static_cast<std::size_t>(set_index(paddr)) * assoc_;
  }

  u32 set_index(u64 paddr) const {
    return static_cast<u32>((paddr >> line_shift_) & (num_sets_ - 1));
  }

  u32 offset_in_line(u64 paddr) const {
    return static_cast<u32>(paddr & (line_bytes_ - 1));
  }

  const Line* find(u64 paddr) const {
    const u64 tag = line_addr(paddr);
    const std::size_t first = first_way(paddr);
    for (u32 w = 0; w < assoc_; ++w) {
      const Line* l = line(first + w);
      if (l->valid && l->tag == tag) return l;
    }
    return nullptr;
  }

  Line* find(u64 paddr) {
    return const_cast<Line*>(
        static_cast<const Cache*>(this)->find(paddr));
  }

  u32 line_bytes_;
  u32 line_shift_ = 0;  // log2(line_bytes_)
  u32 record_shift_;    // log2 of a record's bytes
  u32 assoc_;
  u32 num_sets_;
  u64 tick_ = 0;
  sim::ZeroArray<u8> records_;  // one record per line, set by set
};

}  // namespace msvm::scc
