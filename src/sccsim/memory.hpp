// Backing storage for every addressable resource on the simulated chip:
// off-die DRAM (shared + private), the per-core on-die MPBs, and the
// per-core Test-and-Set registers. This class is purely functional — all
// latency accounting happens in Core — but it is the single source of
// truth for data, which is what makes the simulated incoherence real:
// caches keep (possibly stale) copies, this is the memory they drift from.
// DRAM and MPB storage is zero-on-demand (sim::ZeroArray): it reads as
// zero until written and costs host memory only where a run writes.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "sccsim/addrmap.hpp"
#include "sccsim/config.hpp"
#include "sccsim/mesh.hpp"
#include "sim/types.hpp"
#include "sim/zero_array.hpp"

namespace msvm::scc {

class Memory {
 public:
  explicit Memory(const ChipConfig& cfg)
      : map_(cfg),
        shared_(cfg.shared_dram_bytes),
        private_(static_cast<std::size_t>(cfg.num_cores) *
                 cfg.private_dram_bytes),
        mpb_(static_cast<std::size_t>(cfg.num_cores) * map_.mpb_size()),
        // The Test-and-Set register file is a fixed hardware resource of
        // the full die(s), independent of how many cores run programs.
        tas_(static_cast<std::size_t>(map_.topology().max_cores()),
             kTasFree) {}

  const AddrMap& map() const { return map_; }

  /// Raw read of up to an arbitrary number of bytes. The range must lie
  /// within a single device region.
  void read(u64 paddr, void* out, u32 size) const {
    read(paddr, map_.decode(paddr), out, size);
  }

  void write(u64 paddr, const void* data, u32 size) {
    write(paddr, map_.decode(paddr), data, size);
  }

  /// Write only the bytes selected by `mask` (bit i covers byte i). Used
  /// by write-combine-buffer flushes so a partially-dirty line does not
  /// clobber bytes another core wrote meanwhile.
  void write_masked(u64 paddr, const void* data, u32 size, u64 mask) {
    write_masked(paddr, map_.decode(paddr), data, size, mask);
  }

  // The same three for a caller that has already decoded `paddr` (`t` is
  // map().decode(paddr)): a device transaction decodes once.
  void read(u64 paddr, const PhysTarget& t, void* out, u32 size) const {
    std::memcpy(out, locate(paddr, t, size), size);
  }

  void write(u64 paddr, const PhysTarget& t, const void* data, u32 size) {
    std::memcpy(locate(paddr, t, size), data, size);
  }

  void write_masked(u64 paddr, const PhysTarget& t, const void* data,
                    u32 size, u64 mask) {
    u8* dst = locate(paddr, t, size);
    const u8* src = static_cast<const u8*>(data);
    // A fully dirty line (the common WCB flush) is one copy.
    const u64 all = size >= 64 ? ~u64{0} : (u64{1} << size) - 1;
    if ((mask & all) == all) {
      std::memcpy(dst, src, size);
      return;
    }
    for (u32 i = 0; i < size; ++i) {
      if (mask & (u64{1} << i)) dst[i] = src[i];
    }
  }

  /// Atomic Test-and-Set register, SCC semantics: reading the register
  /// returns its previous value and sets it; writing clears it. Returns
  /// true if the lock was acquired (the register was free). A read that
  /// finds the register held fails whoever holds it, the reader
  /// included, and leaves it as it was.
  ///
  /// A set register records the core that set it: tas_holder() is the
  /// one record of who holds each TAS lock, for breaking a dead holder's
  /// lock (kernel::spin_wait) and for the hang report.
  bool tas_read_acquire(int reg, int core) {
    int& holder = tas_.at(static_cast<std::size_t>(reg));
    if (holder != kTasFree) return false;
    holder = core;
    return true;
  }

  void tas_write_release(int reg) {
    tas_.at(static_cast<std::size_t>(reg)) = kTasFree;
  }

  /// The core holding register `reg`, or -1 when it is free.
  int tas_holder(int reg) const {
    return tas_.at(static_cast<std::size_t>(reg));
  }

 private:
  const u8* locate(u64 paddr, const PhysTarget& t, u32 size) const {
    return const_cast<Memory*>(this)->locate(paddr, t, size);
  }

  u8* locate(u64 paddr, const PhysTarget& t, u32 size) {
    switch (t.kind) {
      case MemKind::kSharedDram:
        bounds_check(t.offset, size, shared_.size());
        return shared_.data() + t.offset;
      case MemKind::kPrivateDram:
        bounds_check(t.offset, size, private_.size());
        return private_.data() + t.offset;
      case MemKind::kMpb:
        bounds_check(static_cast<u64>(t.owner) * map_.mpb_size() + t.offset,
                     size, mpb_.size());
        return mpb_.data() + static_cast<u64>(t.owner) * map_.mpb_size() +
               t.offset;
      case MemKind::kTas:
      case MemKind::kInvalid:
        break;
    }
    std::fprintf(stderr,
                 "msvm::scc::Memory: invalid physical access at 0x%llx\n",
                 static_cast<unsigned long long>(paddr));
    std::abort();
  }

  static void bounds_check(u64 offset, u32 size, std::size_t limit) {
    if (offset + size > limit) {
      std::fprintf(stderr,
                   "msvm::scc::Memory: access beyond device bounds\n");
      std::abort();
    }
  }

  AddrMap map_;
  sim::ZeroArray<u8> shared_;
  sim::ZeroArray<u8> private_;
  sim::ZeroArray<u8> mpb_;
  static constexpr int kTasFree = -1;
  std::vector<int> tas_;  // holder per register, kTasFree when clear
};

}  // namespace msvm::scc
