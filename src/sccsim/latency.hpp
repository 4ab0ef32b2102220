// Latency model for the simulated SCC. All functions return picoseconds
// and compose the three clock domains (core, mesh, DRAM).
//
// The constants (in config.hpp) approximate the figures published in the
// SCC External Architecture Specification and Programmer's Guide: an L2
// hit costs ~18 core cycles; an MPB access costs ~15 core cycles plus
// 4 mesh cycles per hop in each direction; a DDR3 read costs 60 core
// cycles plus the mesh round trip plus 110 DRAM cycles. Absolute fidelity
// is not the goal — the reproduction targets the *shape* of the paper's
// curves — but the relative ordering (L1 << L2 << MPB < DRAM, with a
// per-hop mesh gradient) is what produces those shapes.
#pragma once

#include "sccsim/config.hpp"
#include "sccsim/mesh.hpp"
#include "sim/types.hpp"

namespace msvm::scc {

class LatencyModel {
 public:
  explicit LatencyModel(const ChipConfig& cfg)
      : core_cycle_ps_(cfg.core_cycle_ps()) {}

  TimePs core_cycles(u64 n) const { return n * core_cycle_ps_; }
  TimePs mesh_cycles(u64 n) const { return n * kMeshCyclePs; }
  TimePs dram_cycles(u64 n) const { return n * kDramCyclePs; }

  TimePs l1_hit() const { return core_cycles(kL1HitCycles); }
  TimePs l2_hit() const { return core_cycles(kL2HitCycles); }
  TimePs store_hit() const { return core_cycles(kStoreHitCycles); }
  TimePs wcb_merge() const { return core_cycles(kWcbMergeCycles); }
  TimePs cl1invmb() const { return core_cycles(kCl1invmbCycles); }

  /// Round trip over the mesh for `hops` hops (request + response).
  TimePs mesh_round_trip(int hops) const {
    return mesh_cycles(2ull * static_cast<u64>(hops) * kMeshHopCycles);
  }

  /// One-way trip over the mesh for `hops` hops (posted writes).
  TimePs mesh_one_way(int hops) const {
    return mesh_cycles(static_cast<u64>(hops) * kMeshHopCycles);
  }

  /// MPB *read* on the tile `hops` hops away (0 = own tile): full round
  /// trip, the load stalls for the data.
  TimePs mpb_access(int hops) const {
    return core_cycles(kMpbBaseCycles) + mesh_round_trip(hops);
  }

  /// MPB *write*: posted, one-way.
  TimePs mpb_write(int hops) const {
    return core_cycles(kMpbBaseCycles) + mesh_one_way(hops);
  }

  /// One DDR3 *read* transaction (<= 32 bytes) through the MC `hops`
  /// away: full load-to-use round trip.
  TimePs dram_access(int hops) const {
    return core_cycles(kDramCoreCycles) + mesh_round_trip(hops) +
           dram_cycles(kDramMemCycles);
  }

  /// One DDR3 *write* transaction: posted, the core pays issue occupancy
  /// plus the one-way trip only.
  TimePs dram_write(int hops) const {
    return core_cycles(kDramStoreCoreCycles) + mesh_one_way(hops) +
           dram_cycles(kDramStoreMemCycles);
  }

  /// Test-and-Set register access on the tile `hops` hops away.
  TimePs tas_access(int hops) const {
    return core_cycles(kTasBaseCycles) + mesh_round_trip(hops);
  }

  /// Register access to the system FPGA (Global Interrupt Controller).
  TimePs gic_access(int hops) const {
    return core_cycles(kGicBaseCycles) + mesh_round_trip(hops);
  }

  TimePs irq_entry() const { return core_cycles(kIrqEntryCycles); }
  TimePs irq_exit() const { return core_cycles(kIrqExitCycles); }

  /// Service (occupancy) time a memory controller is busy per transaction;
  /// used by the optional contention model.
  TimePs mc_service() const {
    return mesh_cycles(kMcServiceMeshCycles);
  }

 private:
  TimePs core_cycle_ps_;  // cached: the config's helper divides
};

}  // namespace msvm::scc
