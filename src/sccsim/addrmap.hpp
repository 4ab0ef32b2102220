// Simulated physical and virtual address maps.
//
// Physical space (simulator-defined, not the SCC's LUT-based map — the LUT
// indirection is a configuration mechanism we do not need to model; see
// DESIGN.md):
//   [kSharedBase,  +shared_dram_bytes)            shared off-die DRAM
//   [kPrivBase  + i*private_dram_bytes, ...)      core i's private DRAM
//   [kMpbBase   + i*mpb_size(), ...)              core i's on-die MPB
//                                                 (carved by MpbLayout)
//   [kTasBase   + i*8, ...)                       core i's Test-and-Set reg
//
// Virtual space (per core, private page tables):
//   [kPrivVBase, +private_dram_bytes)   identity-style map of own private
//   [kSvmVBase, ...)                    SVM regions (allocated collectively)
#pragma once

#include <algorithm>
#include <cassert>
#include <string>
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

inline constexpr u32 kSccMpbBytes = 8192;  // per core on the SCC die
inline constexpr u32 kMailBytes = 32;      // one cache line per mailbox

/// The one carve of a core's on-die MPB, shared by the mailbox system,
/// the SVM scratchpad and RCCE. Paper, Section 5: "For each communication
/// path between two cores a mailbox of one cache-line size is reserved at
/// each local MPB. Thus, the mailbox system takes 48 * 32 Bytes = 1.5
/// kByte of MPB space per core ... RCCE provides a memory allocation
/// scheme to manage the remaining 6.5 kByte". Section 6.3 additionally
/// parks the first-touch scratchpad in on-die memory; it is carved out of
/// the RCCE share. Offsets for a die of n = max_cores potential senders
/// (in brackets: the 48-core SCC):
///   [0, 32n)                    mail slots, one per sender   [0, 1536)
///   SVM scratchpad, 2 KiB                                 [1536, 3584)
///     barrier_arrive            arrive bytes, one per core      [1536]
///     barrier_release           release byte                    [1584]
///     (spare)                   12 bytes; the header rounds     [1585]
///                               up to a line
///     entries                   16-bit page entries             [1600]
///   RCCE share
///     rcce_comm                 4 KiB communication buffer      [3584]
///     rcce_sent                 sent flags, byte per source     [7680]
///     rcce_ack                  ack flags, byte per destination [7728]
///     rcce_arrive               barrier arrival bytes           [7776]
///     rcce_release              barrier release byte            [7824]
/// The MPB is the SCC's 8 KiB, or the carve rounded up to whole pages on
/// wider dies.
struct MpbLayout {
  static constexpr u32 kScratchpadBytes = 2048;
  static constexpr u32 kRcceCommBytes = 4096;

  explicit MpbLayout(int max_cores) {
    const u32 n = static_cast<u32>(max_cores);
    barrier_arrive = n * kMailBytes;
    barrier_release = barrier_arrive + n;
    // Spare bytes after the release byte: two sets of max(6, ceil(log2
    // n)) flags, once a dissemination barrier's. They stay reserved
    // because the header rounds up to a line: without them `entries`,
    // and with it every scratchpad entry, would move on the 1200-core
    // die that 1024 cores run on (1280 header bytes with them, 1216
    // without).
    u32 log2n = 0;
    while ((1u << log2n) < n) ++log2n;
    const u32 spare = 2 * std::max(log2n, 6u);
    const u32 header = n + 1 + spare;
    entries = barrier_arrive + (header + 63) / 64 * 64;
    rcce_comm = barrier_arrive + kScratchpadBytes;
    rcce_sent = rcce_comm + kRcceCommBytes;
    rcce_ack = rcce_sent + n;
    rcce_arrive = rcce_ack + n;
    rcce_release = rcce_arrive + n;
    mpb_bytes = std::max(kSccMpbBytes,
                         (rcce_release + 1 + kPageBytes - 1) / kPageBytes *
                             kPageBytes);
  }

  /// Offset of the mailbox written by `sender` within the receiver's MPB.
  u32 mail_slot(int sender) const {
    return static_cast<u32>(sender) * kMailBytes;
  }

  u32 barrier_arrive = 0;
  u32 barrier_release = 0;
  u32 entries = 0;  // up to rcce_comm
  u32 rcce_comm = 0;
  u32 rcce_sent = 0;
  u32 rcce_ack = 0;
  u32 rcce_arrive = 0;
  u32 rcce_release = 0;
  u32 mpb_bytes = 0;
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
      : cfg_(cfg), topo_(cfg.num_cores), layout_(topo_.max_cores()) {}

  /// The runtime topology backing this map (and, via Chip::topology(),
  /// the whole chip: the map is constructed first and owns the instance).
  const Topology& topology() const { return topo_; }
  /// The MPB carve of this die, identical in every core's MPB.
  const MpbLayout& layout() const { return layout_; }

  u64 private_base(int core) const {
    return kPrivBase + static_cast<u64>(core) * cfg_.private_dram_bytes;
  }
  u64 mpb_base(int core) const {
    return kMpbBase + static_cast<u64>(core) * mpb_size();
  }
  /// Per-core MPB bytes, derived from the die's core count.
  u32 mpb_size() const { return layout_.mpb_bytes; }
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
            kMpbBase + static_cast<u64>(cfg_.num_cores) * mpb_size()) {
      const u64 off = paddr - kMpbBase;
      return {MemKind::kMpb, static_cast<int>(off / mpb_size()),
              off % mpb_size()};
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
  MpbLayout layout_;
};

/// Validates a chip configuration; returns an empty string when the
/// config is runnable, otherwise a human-readable error.
inline std::string validate_config(const ChipConfig& cfg) {
  if (cfg.num_cores < 1) return "num_cores must be >= 1";
  if (cfg.num_cores > 1024) {
    return "num_cores " + std::to_string(cfg.num_cores) +
           " exceeds the supported maximum of 1024";
  }
  // The physical map gives each region a 4 GiB window.
  const u64 window = u64{1} << 32;
  if (cfg.shared_dram_bytes > window) {
    return "shared_dram_bytes exceeds the 4 GiB shared window";
  }
  if (static_cast<u64>(cfg.num_cores) * cfg.private_dram_bytes > window) {
    return "num_cores * private_dram_bytes exceeds the 4 GiB private "
           "window; shrink private_dram_bytes";
  }
  if (static_cast<u64>(cfg.num_cores) * AddrMap(cfg).mpb_size() > window) {
    return "num_cores * MPB bytes exceeds the 4 GiB MPB window";
  }
  return {};
}

}  // namespace msvm::scc
