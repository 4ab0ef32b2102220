// On-die mesh topology, derived from the core count.
//
// The default instance is the Intel SCC: 6x4 tiles, two cores per tile,
// four memory controllers attached at the mesh edges (tiles (0,0), (5,0),
// (0,2), (5,2)), and the system interface FPGA (hosting the Global
// Interrupt Controller) at router (3,0). Routing is dimension-ordered
// (X then Y), so the latency-relevant quantity is the Manhattan distance.
//
// To scale past one die, identical chips tile into a chips_x x chips_y
// super-mesh: tile coordinates are global, but tile/core *numbering* is
// chip-major (cores 0..47 fill chip 0, 48..95 chip 1, ...), so each chip
// keeps a contiguous core range next to its own four memory controllers
// (ids also chip-major). Crossing a chip boundary costs
// kInterchipHopCost extra hops per boundary in each dimension
// (modelling an off-die link as a slower mesh segment). With one chip the
// math reduces exactly to the classic SCC mesh.
#pragma once

#include <cassert>
#include <cstdlib>
#include <vector>

#include "sim/types.hpp"

namespace msvm::scc {

struct TileCoord {
  int x = 0;
  int y = 0;
  bool operator==(const TileCoord&) const = default;
};

// Fixed geometry of one SCC die; only the chip grid varies with the core
// count.
inline constexpr int kTileCols = 6;  // tiles per chip, X
inline constexpr int kTileRows = 4;  // tiles per chip, Y
inline constexpr int kCoresPerTile = 2;
inline constexpr int kInterchipHopCost = 4;  // extra hops per boundary

/// Runtime topology: geometry queries plus precomputed per-core tables on
/// the hot paths (nearest MC, hops to each MC, hops to the system IF).
/// Construction is cheap enough to do once per Chip.
class Topology {
 public:
  /// Smallest near-square grid of SCC dies (X grows first) that provides
  /// at least `cores` cores; `cores` <= 48 is the single SCC die.
  explicit Topology(int cores) {
    constexpr int per_chip = kTileCols * kTileRows * kCoresPerTile;
    const int chips = cores <= per_chip ? 1 : (cores + per_chip - 1) / per_chip;
    while (chips_x_ * chips_x_ < chips) ++chips_x_;
    chips_y_ = (chips + chips_x_ - 1) / chips_x_;
    const int max = max_cores();
    const int mcs = num_mem_controllers();
    coord_of_core_.reserve(static_cast<std::size_t>(max));
    nearest_mc_.reserve(static_cast<std::size_t>(max));
    hops_sysif_.reserve(static_cast<std::size_t>(max));
    hops_mc_.reserve(static_cast<std::size_t>(max) *
                     static_cast<std::size_t>(mcs));
    for (int c = 0; c < max; ++c) {
      const TileCoord at = coord_of_tile(c / kCoresPerTile);
      coord_of_core_.push_back(at);
      int best = 0;
      int best_hops = hops(at, mem_controller_coord(0));
      hops_mc_.push_back(best_hops);
      for (int mc = 1; mc < mcs; ++mc) {
        const int h = hops(at, mem_controller_coord(mc));
        hops_mc_.push_back(h);
        if (h < best_hops) {  // ties break to the lower MC id
          best = mc;
          best_hops = h;
        }
      }
      nearest_mc_.push_back(best);
      hops_sysif_.push_back(hops(at, system_interface_coord()));
    }
  }

  // ---- geometry ----

  /// Total mesh columns/rows across the whole chip grid.
  int cols() const { return kTileCols * chips_x_; }
  int rows() const { return kTileRows * chips_y_; }
  int tiles() const { return cols() * rows(); }
  int cores_per_tile() const { return kCoresPerTile; }
  /// Cores the die(s) provide; ChipConfig::num_cores may use fewer.
  int max_cores() const { return tiles() * cores_per_tile(); }
  int num_chips() const { return chips_x_ * chips_y_; }
  /// Four DDR3 controllers per chip, ids chip-major.
  int num_mem_controllers() const { return 4 * num_chips(); }

  /// Tile hosting a given core; core c lives on tile c/cores_per_tile,
  /// as on the SCC.
  int tile_of_core(int core) const {
    assert(core >= 0 && core < max_cores());
    return core / kCoresPerTile;
  }

  /// Tile numbering is chip-major: each chip's tiles are numbered locally
  /// row-major, chips in row-major grid order. One chip degenerates to a
  /// plain row-major mesh.
  TileCoord coord_of_tile(int tile) const {
    assert(tile >= 0 && tile < tiles());
    const int per_chip = kTileCols * kTileRows;
    const int chip = tile / per_chip;
    const int local = tile % per_chip;
    return TileCoord{(chip % chips_x_) * kTileCols + local % kTileCols,
                     (chip / chips_x_) * kTileRows + local / kTileCols};
  }

  TileCoord coord_of_core(int core) const {
    return coord_of_core_[static_cast<std::size_t>(core)];
  }

  /// Chip hosting a tile coordinate (chip-grid coordinates).
  TileCoord chip_of_coord(TileCoord at) const {
    return TileCoord{at.x / kTileCols, at.y / kTileRows};
  }

  /// XY-routed distance: Manhattan hops plus the inter-chip penalty per
  /// chip boundary crossed in each dimension.
  int hops(TileCoord a, TileCoord b) const {
    int h = std::abs(a.x - b.x) + std::abs(a.y - b.y);
    if (num_chips() > 1) {
      const TileCoord ca = chip_of_coord(a);
      const TileCoord cb = chip_of_coord(b);
      h += kInterchipHopCost *
           (std::abs(ca.x - cb.x) + std::abs(ca.y - cb.y));
    }
    return h;
  }

  int hops_between_cores(int a, int b) const {
    return hops(coord_of_core(a), coord_of_core(b));
  }

  /// Tile at which memory controller `mc` attaches. Each chip carries
  /// four, at its local corners/edge midheight exactly like the SCC:
  /// local (0,0), (cols-1,0), (0,rows/2), (cols-1,rows/2).
  TileCoord mem_controller_coord(int mc) const {
    assert(mc >= 0 && mc < num_mem_controllers());
    const int chip = mc / 4;
    const int local = mc % 4;
    const int base_x = (chip % chips_x_) * kTileCols;
    const int base_y = (chip / chips_x_) * kTileRows;
    const int lx = (local == 0 || local == 2) ? 0 : kTileCols - 1;
    const int ly = local < 2 ? 0 : kTileRows / 2;
    return TileCoord{base_x + lx, base_y + ly};
  }

  /// Router where the system interface (FPGA / GIC) attaches: the SCC
  /// position (3,0) on chip 0 of the grid.
  TileCoord system_interface_coord() const {
    return TileCoord{kTileCols / 2, 0};
  }

  /// Memory controller closest to a core (ties broken by lower MC id);
  /// used for affinity-on-first-touch frame placement and for the
  /// private-region placement of each core. O(1), precomputed.
  int nearest_mc(int core) const {
    return nearest_mc_[static_cast<std::size_t>(core)];
  }

  int hops_core_to_mc(int core, int mc) const {
    return hops_mc_[static_cast<std::size_t>(core) *
                        static_cast<std::size_t>(num_mem_controllers()) +
                    static_cast<std::size_t>(mc)];
  }

  int hops_core_to_system_if(int core) const {
    return hops_sysif_[static_cast<std::size_t>(core)];
  }

  /// The process-wide default-SCC instance, for contexts with no Chip at
  /// hand (tests, examples). Chips own their instance.
  static const Topology& scc_default() {
    static const Topology topo(48);
    return topo;
  }

 private:
  int chips_x_ = 1;  // chips in the super-mesh, X
  int chips_y_ = 1;  // chips in the super-mesh, Y
  std::vector<TileCoord> coord_of_core_;
  std::vector<int> nearest_mc_;
  std::vector<int> hops_sysif_;
  std::vector<int> hops_mc_;  // max_cores x num_mem_controllers
};

}  // namespace msvm::scc
