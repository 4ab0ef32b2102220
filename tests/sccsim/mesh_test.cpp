// Topology tests: core/tile mapping, hop distances, memory-controller and
// system-interface placement — on the default SCC die, on non-SCC single
// chips, and on multi-chip super-meshes.
#include "sccsim/mesh.hpp"

#include <gtest/gtest.h>

#include "sccsim/addrmap.hpp"
#include "sccsim/config.hpp"

namespace msvm::scc {
namespace {

const Topology& scc() { return Topology::scc_default(); }

TEST(Topology, DefaultIsTheSccDie) {
  EXPECT_EQ(scc().cols(), 6);
  EXPECT_EQ(scc().rows(), 4);
  EXPECT_EQ(scc().cores_per_tile(), 2);
  EXPECT_EQ(scc().max_cores(), 48);
  EXPECT_EQ(scc().num_chips(), 1);
  EXPECT_EQ(scc().num_mem_controllers(), 4);
}

TEST(Topology, CoreToTileMapping) {
  EXPECT_EQ(scc().tile_of_core(0), 0);
  EXPECT_EQ(scc().tile_of_core(1), 0);
  EXPECT_EQ(scc().tile_of_core(2), 1);
  EXPECT_EQ(scc().tile_of_core(47), 23);
}

TEST(Topology, TileCoordinates) {
  EXPECT_EQ(scc().coord_of_tile(0), (TileCoord{0, 0}));
  EXPECT_EQ(scc().coord_of_tile(5), (TileCoord{5, 0}));
  EXPECT_EQ(scc().coord_of_tile(6), (TileCoord{0, 1}));
  EXPECT_EQ(scc().coord_of_tile(23), (TileCoord{5, 3}));
}

TEST(Topology, HopsAreManhattanDistance) {
  EXPECT_EQ(scc().hops({0, 0}, {0, 0}), 0);
  EXPECT_EQ(scc().hops({0, 0}, {5, 3}), 8);
  EXPECT_EQ(scc().hops({2, 1}, {4, 3}), 4);
  EXPECT_EQ(scc().hops({4, 3}, {2, 1}), 4);  // symmetric
}

TEST(Topology, SameTileCoresAreZeroHops) {
  EXPECT_EQ(scc().hops_between_cores(0, 1), 0);
  EXPECT_EQ(scc().hops_between_cores(46, 47), 0);
}

TEST(Topology, PaperPingPongPairDistance) {
  // The paper's Figure 7 benchmark uses cores 0 and 30 "with a distance
  // of 5 hops". Core 0 -> tile 0 = (0,0); core 30 -> tile 15 = (3,2);
  // Manhattan distance = 5. Our topology must reproduce that exactly.
  EXPECT_EQ(scc().hops_between_cores(0, 30), 5);
}

TEST(Topology, MaxDistanceOnChip) {
  // Opposite mesh corners: (0,0) to (5,3) = 8 hops.
  EXPECT_EQ(scc().hops_between_cores(0, 47), 8);
}

TEST(Topology, NearestMcIsStable) {
  for (int core = 0; core < scc().max_cores(); ++core) {
    const int mc = scc().nearest_mc(core);
    ASSERT_GE(mc, 0);
    ASSERT_LT(mc, scc().num_mem_controllers());
    // No other MC may be strictly closer.
    const int h = scc().hops_core_to_mc(core, mc);
    for (int other = 0; other < scc().num_mem_controllers(); ++other) {
      EXPECT_LE(h, scc().hops_core_to_mc(core, other));
    }
  }
}

TEST(Topology, CornersMapToTheirOwnMc) {
  EXPECT_EQ(scc().nearest_mc(0), 0);    // tile (0,0)
  EXPECT_EQ(scc().nearest_mc(10), 1);   // core 10 -> tile 5 = (5,0)
  EXPECT_EQ(scc().nearest_mc(24), 2);   // core 24 -> tile 12 = (0,2)
  EXPECT_EQ(scc().nearest_mc(34), 3);   // core 34 -> tile 17 = (5,2)
}

// ---- non-SCC single-chip shapes -------------------------------------------

TEST(Topology, NonSccShapeGeometry) {
  TopologySpec spec;
  spec.tile_cols = 8;
  spec.tile_rows = 8;
  spec.cores_per_tile = 4;
  const Topology t(spec);
  EXPECT_EQ(t.max_cores(), 256);
  EXPECT_EQ(t.num_mem_controllers(), 4);
  EXPECT_EQ(t.tile_of_core(0), 0);
  EXPECT_EQ(t.tile_of_core(3), 0);
  EXPECT_EQ(t.tile_of_core(4), 1);
  EXPECT_EQ(t.tile_of_core(255), 63);
  EXPECT_EQ(t.coord_of_tile(63), (TileCoord{7, 7}));
  // Opposite corners of an 8x8 mesh.
  EXPECT_EQ(t.hops_between_cores(0, 255), 14);
  // MCs at local (0,0), (7,0), (0,4), (7,4).
  EXPECT_EQ(t.mem_controller_coord(0), (TileCoord{0, 0}));
  EXPECT_EQ(t.mem_controller_coord(1), (TileCoord{7, 0}));
  EXPECT_EQ(t.mem_controller_coord(2), (TileCoord{0, 4}));
  EXPECT_EQ(t.mem_controller_coord(3), (TileCoord{7, 4}));
}

// ---- multi-chip super-meshes ----------------------------------------------

TEST(Topology, TwoChipGridGeometry) {
  TopologySpec spec;  // two SCC dies side by side
  spec.chips_x = 2;
  const Topology t(spec);
  EXPECT_EQ(t.cols(), 12);
  EXPECT_EQ(t.rows(), 4);
  EXPECT_EQ(t.max_cores(), 96);
  EXPECT_EQ(t.num_chips(), 2);
  EXPECT_EQ(t.num_mem_controllers(), 8);
  // Core 48 is the first core of the second chip's first tile — which in
  // the row-major global mesh is tile (6,0).
  EXPECT_EQ(t.coord_of_core(48), (TileCoord{6, 0}));
  // Chip 1's MC 0 attaches at its local (0,0) = global (6,0).
  EXPECT_EQ(t.mem_controller_coord(4), (TileCoord{6, 0}));
  EXPECT_EQ(t.mem_controller_coord(5), (TileCoord{11, 0}));
  // A core on chip 1 prefers its own chip's controllers.
  const int mc48 = t.nearest_mc(48);
  EXPECT_GE(mc48, 4);
  EXPECT_LT(mc48, 8);
}

TEST(Topology, InterchipHopPenalty) {
  TopologySpec spec;
  spec.chips_x = 2;
  spec.interchip_hop_cost = 4;
  const Topology t(spec);
  // Tiles (5,0) and (6,0) are mesh neighbours but sit on different
  // chips: 1 Manhattan hop + the 4-hop boundary penalty.
  EXPECT_EQ(t.hops({5, 0}, {6, 0}), 5);
  // Same pair with the penalty disabled degenerates to plain Manhattan.
  spec.interchip_hop_cost = 0;
  const Topology flat(spec);
  EXPECT_EQ(flat.hops({5, 0}, {6, 0}), 1);
  // Intra-chip distances never pay the penalty.
  EXPECT_EQ(t.hops({0, 0}, {5, 3}), 8);
}

TEST(Topology, ForCoresGrowsNearSquareGrids) {
  EXPECT_EQ(TopologySpec::for_cores(48), TopologySpec{});
  const TopologySpec two = TopologySpec::for_cores(96);
  EXPECT_EQ(two.chips_x * two.chips_y, 2);
  const TopologySpec big = TopologySpec::for_cores(1024);
  EXPECT_GE(big.chips_x * big.chips_y * 48, 1024);
  const Topology t(big);
  EXPECT_GE(t.max_cores(), 1024);
  // Near-square: neither dimension more than twice the other.
  EXPECT_LE(big.chips_y, 2 * big.chips_x);
  EXPECT_LE(big.chips_x, 2 * big.chips_y);
}

TEST(Topology, ValidateConfigCatchesBadCounts) {
  ChipConfig cfg;
  EXPECT_EQ(validate_config(cfg), "");
  cfg.num_cores = 96;  // exceeds the default single die
  EXPECT_NE(validate_config(cfg), "");
  configure_cores(cfg, 96);
  EXPECT_EQ(validate_config(cfg), "");
  configure_cores(cfg, 1024);
  EXPECT_EQ(validate_config(cfg), "");
  cfg.num_cores = 2000;
  EXPECT_NE(validate_config(cfg), "");
}

TEST(Topology, ConfigureCoresKeepsSccDefaultsBelow48) {
  ChipConfig cfg;
  const ChipConfig before = cfg;
  configure_cores(cfg, 48);
  EXPECT_EQ(cfg.num_cores, before.num_cores);
  EXPECT_EQ(cfg.topology, before.topology);
  EXPECT_EQ(AddrMap(cfg).mpb_size(), 8192u);
}

// ---- AddrMap over the runtime topology ------------------------------------

TEST(AddrMap, DecodeSharedDram) {
  ChipConfig cfg;
  AddrMap map(cfg);
  const PhysTarget t = map.decode(kSharedBase + 100);
  EXPECT_EQ(t.kind, MemKind::kSharedDram);
  EXPECT_EQ(t.owner, 0);
  EXPECT_EQ(t.offset, 100u);
}

TEST(AddrMap, SharedDramQuartersMapToFourMcs) {
  ChipConfig cfg;
  AddrMap map(cfg);
  const u64 quarter = cfg.shared_dram_bytes / 4;
  for (int q = 0; q < 4; ++q) {
    EXPECT_EQ(map.decode(kSharedBase + q * quarter).owner, q);
    EXPECT_EQ(map.decode(kSharedBase + (q + 1) * quarter - 1).owner, q);
  }
}

TEST(AddrMap, DecodePrivateDram) {
  ChipConfig cfg;
  AddrMap map(cfg);
  const u64 base7 = map.private_base(7);
  const PhysTarget t = map.decode(base7 + 42);
  EXPECT_EQ(t.kind, MemKind::kPrivateDram);
  EXPECT_EQ(t.owner, Topology::scc_default().nearest_mc(7));
  EXPECT_EQ(t.offset, 7 * cfg.private_dram_bytes + 42);
}

TEST(AddrMap, DecodeMpb) {
  ChipConfig cfg;
  AddrMap map(cfg);
  const PhysTarget t = map.decode(map.mpb_base(30) + 17);
  EXPECT_EQ(t.kind, MemKind::kMpb);
  EXPECT_EQ(t.owner, 30);
  EXPECT_EQ(t.offset, 17u);
  EXPECT_EQ(map.mpb_owner(map.mpb_base(30) + 17), 30);
}

TEST(AddrMap, DecodeInvalid) {
  ChipConfig cfg;
  AddrMap map(cfg);
  EXPECT_EQ(map.decode(0xdead'0000'0000ull).kind, MemKind::kInvalid);
}

TEST(AddrMap, SharedRangeOfMcRoundTrips) {
  ChipConfig cfg;
  AddrMap map(cfg);
  const int nmc = map.topology().num_mem_controllers();
  for (int mc = 0; mc < nmc; ++mc) {
    const auto [lo, hi] = map.shared_range_of_mc(mc);
    EXPECT_LT(lo, hi);
    EXPECT_EQ(map.mc_of_shared_offset(lo), mc);
    EXPECT_EQ(map.mc_of_shared_offset(hi - 1), mc);
  }
}

TEST(AddrMap, MultiChipSharedDramStripesOverAllMcs) {
  ChipConfig cfg;
  configure_cores(cfg, 192);  // 4 chips, 16 MCs
  AddrMap map(cfg);
  const int nmc = map.topology().num_mem_controllers();
  EXPECT_EQ(nmc, 16);
  for (int mc = 0; mc < nmc; ++mc) {
    const auto [lo, hi] = map.shared_range_of_mc(mc);
    EXPECT_LT(lo, hi);
    EXPECT_EQ(map.mc_of_shared_offset(lo), mc);
  }
  // The TAS file covers the whole die set.
  const PhysTarget t = map.decode(map.tas_addr(191));
  EXPECT_EQ(t.kind, MemKind::kTas);
  EXPECT_EQ(t.owner, 191);
}

}  // namespace
}  // namespace msvm::scc
