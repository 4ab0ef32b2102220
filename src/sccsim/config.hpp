// Chip-level configuration for the simulated Intel SCC.
//
// The model follows the paper's test platform (Section 7): 48 P54C cores
// at 533 MHz, mesh and DDR3-800 memory at 800 MHz, 16 KiB L1, 256 KiB L2,
// 8 KiB on-die message-passing buffer (MPB) per core, 32-byte cache lines,
// four on-die memory controllers. Parameters of that one part are named
// constants below; ChipConfig keeps only the knobs some caller varies.
#pragma once

#include <bit>

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
// references, mostly cache-resident on the real part). The walk is
// charged alike on the inlined fast path and in Core::translate(): both
// go through Core::tlb_probe/tlb_fill.
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

struct ChipConfig {
  /// Cores running programs; the only input that shapes the die. Up to
  /// 48 is the exact SCC mesh, more grows a grid of SCC dies (Topology).
  int num_cores = 48;
  u32 core_mhz = 533;   // paper's benchmark configuration

  // ---- memory sizes (the per-core MPB is derived: AddrMap::layout) ----
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

/// Sets `num_cores`. Kept because perfbench calls it.
inline void configure_cores(ChipConfig& cfg, int cores) {
  cfg.num_cores = cores;
}

}  // namespace msvm::scc
