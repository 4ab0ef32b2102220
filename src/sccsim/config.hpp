// Chip-level configuration for the simulated Intel SCC.
//
// The model follows the paper's test platform (Section 7): 48 P54C cores
// at 533 MHz, mesh and DDR3-800 memory at 800 MHz, 16 KiB L1, 256 KiB L2,
// 8 KiB on-die message-passing buffer (MPB) per core, 32-byte cache lines,
// four on-die memory controllers. Parameters of that one part are named
// constants below; ChipConfig keeps only the knobs some caller varies.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <string>

#include "sccsim/mesh.hpp"
#include "sim/faults.hpp"
#include "sim/types.hpp"

namespace msvm::scc {

// ---- clocks ----
inline constexpr u32 kMeshMhz = 800;
inline constexpr u32 kDramMhz = 800;
inline constexpr TimePs kMeshCyclePs = cycle_ps_from_mhz(kMeshMhz);
inline constexpr TimePs kDramCyclePs = cycle_ps_from_mhz(kDramMhz);

// ---- memory geometry ----
inline constexpr u32 kPageBytes = 4096;
inline constexpr u32 kPageShift = std::countr_zero(kPageBytes);  // log2
inline constexpr u32 kLineBytes = 32;  // P54C cache line

// ---- caches ----
inline constexpr u32 kL1Bytes = 16 * 1024;
inline constexpr u32 kL1Assoc = 2;
inline constexpr u32 kL2Bytes = 256 * 1024;
inline constexpr u32 kL2Assoc = 4;

// ---- core latencies, in *core* cycles unless stated ----
inline constexpr u32 kL1HitCycles = 1;
inline constexpr u32 kL2HitCycles = 18;  // SCC programmer's guide approximation
inline constexpr u32 kMpbBaseCycles = 15;  // on-die MPB access, excluding hops
// Loads stall for the full round trip (load-to-use): core-side share
// plus mesh plus the DRAM access itself. ~270 ns at the default
// frequencies, within the measured range for uncached DDR3-800 reads
// on the SCC (the EAS quotes 46 DRAM cycles for the array access alone;
// bank/page management and clock-domain crossings add the rest).
inline constexpr u32 kDramCoreCycles = 60;  // core-side share of a DRAM *read*
// DRAM-side share, in *DRAM* cycles.
inline constexpr u32 kDramMemCycles = 110;
// Stores are posted: the core hands the write to the mesh interface and
// continues; the charged cost is the issue occupancy, not the round
// trip. (Sustained store streams are additionally throttled by the
// optional memory-controller contention model.)
inline constexpr u32 kDramStoreCoreCycles = 20;
inline constexpr u32 kDramStoreMemCycles = 16;
// Per hop, per direction, in *mesh* cycles.
inline constexpr u32 kMeshHopCycles = 4;
inline constexpr u32 kTasBaseCycles = 15;  // Test-and-Set register access
inline constexpr u32 kGicBaseCycles = 25;  // system-FPGA register access
inline constexpr u32 kCl1invmbCycles = 8;  // tag sweep of MPBT-typed L1 lines
// Store absorbed by the combine buffer.
inline constexpr u32 kWcbMergeCycles = 1;
// Write-through update of a present line.
inline constexpr u32 kStoreHitCycles = 1;
// Interrupt entry: vector + kernel prologue.
inline constexpr u32 kIrqEntryCycles = 400;
inline constexpr u32 kIrqExitCycles = 200;
// P54C data TLB: 64 entries (Core::kTlbEntries), direct-mapped on the
// page number; a miss walks the two-level page table (two memory
// references, mostly cache-resident on the real part).
inline constexpr u32 kTlbMissCycles = 28;

// ---- interrupt / scheduling model ----
// Interrupt-delivery granularity.
inline constexpr u32 kBoundaryCheckCycles = 128;
// GIC-to-core wire/propagation delay.
inline constexpr u64 kIpiWirePs = 100 * 1000;

// ---- optional memory-controller contention model ----
// Controller occupancy per transaction, in *mesh* cycles: random DDR3
// reads with bank management keep the controller busy for ~60 ns, not
// the streaming-burst figure.
inline constexpr u32 kMcServiceMeshCycles = 48;

// ---- on-die message-passing buffer ----
inline constexpr u32 kSccMpbBytes = 8192;  // per core on the SCC die

struct ChipConfig {
  // ---- topology ----
  /// Cores actually running programs; must not exceed the die(s) in
  /// `topology` (48 on the default SCC mesh, more on multi-chip grids).
  int num_cores = 48;
  /// Geometry of the simulated die(s). Default: the exact SCC 6x4 mesh.
  TopologySpec topology;
  u32 core_mhz = 533;   // paper's benchmark configuration

  // ---- memory sizes (the per-core MPB is derived: mpb_bytes_for) ----
  u64 shared_dram_bytes = 64ull << 20;   // shared off-die region
  u64 private_dram_bytes = 8ull << 20;   // per-core private region

  // ---- interrupt / scheduling model ----
  u64 timer_period_us = 1000;      // periodic timer tick per core

  // ---- optional memory-controller contention (queueing) model ----
  bool mc_contention = false;  // occupancy: kMcServiceMeshCycles

  // ---- chaos layer (default: no faults, no watchdog; bit-identical) ----
  sim::FaultPlan faults;

  // ---- derived helpers ----
  TimePs core_cycle_ps() const { return cycle_ps_from_mhz(core_mhz); }
};

/// Per-core MPB bytes of a `max_cores`-core die. The die needs the
/// mail-slot region (one 32-byte slot per sender), the SVM scratchpad
/// (2 KiB, holding the barrier flag block plus page entries), the RCCE
/// comm buffer (4 KiB) and the RCCE flag/barrier bytes (3 per core + 1);
/// this mirrors mbox::Layout, kept here so the chip model needs no
/// mailbox-layer include. That fits the SCC's 8 KiB up to 48 cores;
/// wider dies get the need rounded up to whole pages.
inline u32 mpb_bytes_for(int max_cores) {
  const u64 n = static_cast<u64>(max_cores);
  const u64 need = n * 32 + 2048 + 4096 + 3 * n + 1;
  return static_cast<u32>(
      std::max<u64>(kSccMpbBytes, (need + 4095) / 4096 * 4096));
}

/// Validates a chip configuration; returns an empty string when the
/// config is runnable, otherwise a human-readable error. Replaces the
/// old `assert(num_cores <= 48)` hard caps: release builds get a clear
/// message instead of UB.
inline std::string validate_config(const ChipConfig& cfg) {
  const Topology topo(cfg.topology);
  const auto err = [](std::string msg) { return msg; };
  if (cfg.num_cores < 1) return err("num_cores must be >= 1");
  if (cfg.num_cores > 1024) {
    return err("num_cores " + std::to_string(cfg.num_cores) +
               " exceeds the supported maximum of 1024");
  }
  if (cfg.num_cores > topo.max_cores()) {
    return err("num_cores " + std::to_string(cfg.num_cores) +
               " exceeds the configured topology's " +
               std::to_string(topo.max_cores()) +
               " cores; use configure_cores() or enlarge the chip grid");
  }
  // The physical map gives each region a 4 GiB window (see addrmap.hpp).
  const u64 window = u64{1} << 32;
  if (cfg.shared_dram_bytes > window) {
    return err("shared_dram_bytes exceeds the 4 GiB shared window");
  }
  if (static_cast<u64>(cfg.num_cores) * cfg.private_dram_bytes > window) {
    return err("num_cores * private_dram_bytes exceeds the 4 GiB private "
               "window; shrink private_dram_bytes");
  }
  if (static_cast<u64>(cfg.num_cores) * mpb_bytes_for(topo.max_cores()) >
      window) {
    return err("num_cores * MPB bytes exceeds the 4 GiB MPB window");
  }
  return {};
}

/// One-stop scaling knob: sizes the topology (growing a near-square grid
/// of SCC dies once past 48 cores), sets `num_cores`, and shrinks the
/// per-core private region when the full count would overflow its 4 GiB
/// physical window. At `cores` <= 48 this leaves every default
/// untouched, so default runs stay byte-identical.
inline void configure_cores(ChipConfig& cfg, int cores) {
  cfg.topology = TopologySpec::for_cores(cores);
  cfg.num_cores = cores;
  const u64 max_priv = (u64{1} << 32) / static_cast<u64>(cores);
  if (cfg.private_dram_bytes > max_priv) {
    cfg.private_dram_bytes = max_priv / kPageBytes * kPageBytes;
  }
}

}  // namespace msvm::scc
