// Chip-level configuration for the simulated Intel SCC.
//
// Defaults follow the paper's test platform (Section 7): 48 P54C cores at
// 533 MHz, mesh and DDR3-800 memory at 800 MHz, 16 KiB L1, 256 KiB L2,
// 8 KiB on-die message-passing buffer (MPB) per core, 32-byte cache lines,
// four on-die memory controllers.
#pragma once

#include <cstddef>
#include <string>

#include "sccsim/mesh.hpp"
#include "sim/faults.hpp"
#include "sim/types.hpp"

namespace msvm::scc {

struct ChipConfig {
  // ---- topology ----
  /// Cores actually running programs; must not exceed the die(s) in
  /// `topology` (48 on the default SCC mesh, more on multi-chip grids).
  int num_cores = 48;
  /// Geometry of the simulated die(s). Default: the exact SCC 6x4 mesh.
  TopologySpec topology;
  u32 core_mhz = 533;   // paper's benchmark configuration
  u32 mesh_mhz = 800;
  u32 dram_mhz = 800;

  // ---- memory sizes ----
  u64 shared_dram_bytes = 64ull << 20;   // shared off-die region
  u64 private_dram_bytes = 8ull << 20;   // per-core private region
  u32 page_bytes = 4096;
  u32 line_bytes = 32;                   // P54C cache line
  u32 mpb_bytes = 8192;                  // on-die MPB per core

  // ---- caches ----
  u32 l1_bytes = 16 * 1024;
  u32 l1_assoc = 2;
  u32 l2_bytes = 256 * 1024;
  u32 l2_assoc = 4;

  // ---- core latencies, in *core* cycles unless stated ----
  u32 l1_hit_cycles = 1;
  u32 l2_hit_cycles = 18;          // SCC programmer's guide approximation
  u32 mpb_base_cycles = 15;        // on-die MPB access, excluding hops
  // Loads stall for the full round trip (load-to-use): core-side share
  // plus mesh plus the DRAM access itself. ~270 ns at the default
  // frequencies, within the measured range for uncached DDR3-800 reads
  // on the SCC (the EAS quotes 46 DRAM cycles for the array access alone;
  // bank/page management and clock-domain crossings add the rest).
  u32 dram_core_cycles = 60;       // core-side share of a DRAM *read*
  u32 dram_mem_cycles = 110;       // DRAM-side share, in *DRAM* cycles
  // Stores are posted: the core hands the write to the mesh interface and
  // continues; the charged cost is the issue occupancy, not the round
  // trip. (Sustained store streams are additionally throttled by the
  // optional memory-controller contention model.)
  u32 dram_store_core_cycles = 20;
  u32 dram_store_mem_cycles = 16;
  u32 mesh_hop_cycles = 4;         // per hop, per direction, *mesh* cycles
  u32 tas_base_cycles = 15;        // Test-and-Set register access
  u32 gic_base_cycles = 25;        // system-FPGA register access
  u32 cl1invmb_cycles = 8;         // tag sweep of MPBT-typed L1 lines
  u32 wcb_merge_cycles = 1;        // store absorbed by the combine buffer
  u32 store_hit_cycles = 1;        // write-through update of a present line
  u32 irq_entry_cycles = 400;      // interrupt entry: vector + kernel prologue
  u32 irq_exit_cycles = 200;
  // P54C data TLB: 64 entries; a miss walks the two-level page table
  // (two memory references, mostly cache-resident on the real part).
  u32 tlb_entries = 64;            // direct-mapped on the page number
  u32 tlb_miss_cycles = 28;

  // ---- interrupt / scheduling model ----
  u64 timer_period_us = 1000;      // periodic timer tick per core
  u32 boundary_check_cycles = 128; // interrupt-delivery granularity
  u64 ipi_wire_ps = 100 * 1000;    // GIC-to-core wire/propagation delay

  // ---- optional memory-controller contention (queueing) model ----
  bool mc_contention = false;
  u32 mc_service_mesh_cycles = 8;  // bus occupancy per 32-byte transaction

  // ---- chaos layer (default: no faults, no watchdog; bit-identical) ----
  sim::FaultPlan faults;

  // ---- derived helpers ----
  TimePs core_cycle_ps() const { return cycle_ps_from_mhz(core_mhz); }
  TimePs mesh_cycle_ps() const { return cycle_ps_from_mhz(mesh_mhz); }
  TimePs dram_cycle_ps() const { return cycle_ps_from_mhz(dram_mhz); }

  u64 num_shared_pages() const { return shared_dram_bytes / page_bytes; }
};

/// Minimum per-core MPB bytes a `max_cores`-core die needs: the mail-slot
/// region (one 32-byte slot per sender), the SVM scratchpad (2 KiB,
/// holding the barrier flag block plus page entries), the RCCE comm
/// buffer (4 KiB) and the RCCE flag/barrier bytes (3 per core + 1).
/// Mirrors mbox::Layout; kept here so config validation needs no
/// mailbox-layer include.
inline u64 min_mpb_bytes(int max_cores) {
  const u64 n = static_cast<u64>(max_cores);
  return n * 32 + 2048 + 4096 + 3 * n + 1;
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
  if (cfg.line_bytes == 0 || cfg.line_bytes > 64) {
    return err("line_bytes must be in [1, 64]");
  }
  if (cfg.page_bytes == 0 || cfg.page_bytes % 4096 != 0) {
    return err("page_bytes must be a non-zero multiple of 4096");
  }
  if (cfg.mpb_bytes < min_mpb_bytes(topo.max_cores())) {
    return err("mpb_bytes " + std::to_string(cfg.mpb_bytes) +
               " too small for a " + std::to_string(topo.max_cores()) +
               "-core die (need " +
               std::to_string(min_mpb_bytes(topo.max_cores())) +
               "); use configure_cores()");
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
  if (static_cast<u64>(cfg.num_cores) * cfg.mpb_bytes > window) {
    return err("num_cores * mpb_bytes exceeds the 4 GiB MPB window");
  }
  return {};
}

/// One-stop scaling knob: sizes the topology (growing a near-square grid
/// of SCC dies once past 48 cores), sets `num_cores`, enlarges the
/// per-core MPB when the die needs more than the SCC's 8 KiB, and shrinks
/// the per-core private region when the full count would overflow its
/// 4 GiB physical window. At `cores` <= 48 this leaves every default
/// untouched, so default runs stay byte-identical.
inline void configure_cores(ChipConfig& cfg, int cores) {
  cfg.topology = TopologySpec::for_cores(cores);
  cfg.num_cores = cores;
  const Topology topo(cfg.topology);
  const u64 need = min_mpb_bytes(topo.max_cores());
  const u64 rounded = (need + 4095) / 4096 * 4096;
  if (rounded > cfg.mpb_bytes) cfg.mpb_bytes = static_cast<u32>(rounded);
  const u64 max_priv = (u64{1} << 32) / static_cast<u64>(cores);
  if (cfg.private_dram_bytes > max_priv) {
    cfg.private_dram_bytes = max_priv / cfg.page_bytes * cfg.page_bytes;
  }
}

}  // namespace msvm::scc
