// Simulated physical and virtual address maps.
//
// Physical space (simulator-defined, not the SCC's LUT-based map — the LUT
// indirection is a configuration mechanism we do not need to model; see
// DESIGN.md):
//   [kSharedBase,  +shared_dram_bytes)            shared off-die DRAM
//   [kPrivBase  + i*private_dram_bytes, ...)      core i's private DRAM
//   [kMpbBase   + i*mpb_size(), ...)              core i's on-die MPB
//   [kTasBase   + i*8, ...)                       core i's Test-and-Set reg
//
// Virtual space (per core, private page tables):
//   [kPrivVBase, +private_dram_bytes)   identity-style map of own private
//   [kSvmVBase, ...)                    SVM regions (allocated collectively)
#pragma once

#include <cassert>
#include <utility>

#include "sccsim/config.hpp"
#include "sccsim/mesh.hpp"
#include "sim/types.hpp"

namespace msvm::scc {

inline constexpr u64 kSharedBase = 0x0000'0000ull;
inline constexpr u64 kPrivBase = 0x1'0000'0000ull;
inline constexpr u64 kMpbBase = 0x2'0000'0000ull;
inline constexpr u64 kTasBase = 0x3'0000'0000ull;

inline constexpr u64 kPrivVBase = 0x0100'0000ull;
inline constexpr u64 kSvmVBase = 0x8'0000'0000ull;

enum class MemKind : u8 {
  kSharedDram,
  kPrivateDram,
  kMpb,
  kTas,
  kInvalid,
};

/// Result of decoding a simulated physical address.
struct PhysTarget {
  MemKind kind = MemKind::kInvalid;
  /// Owning resource: memory-controller id for DRAM, core id for MPB/TAS.
  int owner = -1;
  /// Offset within the owning device region.
  u64 offset = 0;
};

class AddrMap {
 public:
  explicit AddrMap(const ChipConfig& cfg)
      : cfg_(cfg),
        topo_(cfg.topology),
        mpb_bytes_(mpb_bytes_for(topo_.max_cores())) {}

  /// The runtime topology backing this map (and, via Chip::topology(),
  /// the whole chip: the map is constructed first and owns the instance).
  const Topology& topology() const { return topo_; }

  u64 shared_base() const { return kSharedBase; }
  u64 shared_size() const { return cfg_.shared_dram_bytes; }
  u64 private_base(int core) const {
    return kPrivBase + static_cast<u64>(core) * cfg_.private_dram_bytes;
  }
  u64 private_size() const { return cfg_.private_dram_bytes; }
  u64 mpb_base(int core) const {
    return kMpbBase + static_cast<u64>(core) * mpb_bytes_;
  }
  /// Per-core MPB bytes, derived from the die's core count.
  u32 mpb_size() const { return mpb_bytes_; }
  u64 tas_addr(int core) const {
    return kTasBase + static_cast<u64>(core) * 8;
  }

  /// Memory controller serving a shared-DRAM offset. The shared region is
  /// split into four equal quarters, one per MC, so that the first-touch
  /// allocator can place frames near a core.
  int mc_of_shared_offset(u64 offset) const {
    const int nmc = topo_.num_mem_controllers();
    const u64 quarter = cfg_.shared_dram_bytes / static_cast<u64>(nmc);
    const u64 mc = offset / quarter;
    return static_cast<int>(mc < static_cast<u64>(nmc)
                                ? mc
                                : static_cast<u64>(nmc) - 1);
  }

  /// Range of shared-DRAM offsets served by `mc`: [first, last).
  std::pair<u64, u64> shared_range_of_mc(int mc) const {
    const u64 quarter =
        cfg_.shared_dram_bytes / static_cast<u64>(topo_.num_mem_controllers());
    return {static_cast<u64>(mc) * quarter,
            static_cast<u64>(mc + 1) * quarter};
  }

  PhysTarget decode(u64 paddr) const {
    if (paddr < kSharedBase + cfg_.shared_dram_bytes) {
      const u64 off = paddr - kSharedBase;
      return {MemKind::kSharedDram, mc_of_shared_offset(off), off};
    }
    if (paddr >= kPrivBase &&
        paddr < kPrivBase + static_cast<u64>(cfg_.num_cores) *
                                cfg_.private_dram_bytes) {
      const u64 off = paddr - kPrivBase;
      const int core = static_cast<int>(off / cfg_.private_dram_bytes);
      return {MemKind::kPrivateDram, topo_.nearest_mc(core),
              off % cfg_.private_dram_bytes +
                  static_cast<u64>(core) * cfg_.private_dram_bytes};
    }
    if (paddr >= kMpbBase &&
        paddr <
            kMpbBase + static_cast<u64>(cfg_.num_cores) * mpb_bytes_) {
      const u64 off = paddr - kMpbBase;
      return {MemKind::kMpb, static_cast<int>(off / mpb_bytes_),
              off % mpb_bytes_};
    }
    // The TAS register file is a die resource: all max_cores() registers
    // exist even when fewer cores run programs (application locks use the
    // upper half of the file regardless of the member count).
    if (paddr >= kTasBase &&
        paddr < kTasBase + static_cast<u64>(topo_.max_cores()) * 8) {
      const u64 off = paddr - kTasBase;
      return {MemKind::kTas, static_cast<int>(off / 8), off % 8};
    }
    return {};
  }

  /// Core hosting the MPB that contains `paddr` (asserts on non-MPB).
  int mpb_owner(u64 paddr) const {
    const PhysTarget t = decode(paddr);
    assert(t.kind == MemKind::kMpb);
    return t.owner;
  }

 private:
  const ChipConfig& cfg_;
  Topology topo_;
  u32 mpb_bytes_;
};

}  // namespace msvm::scc
