// Topology tests: core/tile mapping, hop distances, memory-controller and
// system-interface placement — on the default SCC die and on multi-chip
// super-meshes — plus the address map and its MPB carve.
#include "sccsim/mesh.hpp"

#include <gtest/gtest.h>

#include <utility>

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

// ---- multi-chip super-meshes ----------------------------------------------

TEST(Topology, TwoChipGridGeometry) {
  const Topology t(96);  // two SCC dies side by side
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
  const Topology t(96);
  // Tiles (5,0) and (6,0) are mesh neighbours but sit on different
  // chips: 1 Manhattan hop + the 4-hop boundary penalty.
  EXPECT_EQ(t.hops({5, 0}, {6, 0}), 5);
  // Intra-chip distances never pay the penalty.
  EXPECT_EQ(t.hops({0, 0}, {5, 3}), 8);
}

TEST(Topology, ForCoresGrowsNearSquareGrids) {
  const Topology one(48);
  EXPECT_EQ(one.num_chips(), 1);
  EXPECT_EQ(one.cols(), scc().cols());
  EXPECT_EQ(one.rows(), scc().rows());
  EXPECT_EQ(Topology(96).num_chips(), 2);
  const Topology big(1024);
  EXPECT_GE(big.num_chips() * 48, 1024);
  EXPECT_GE(big.max_cores(), 1024);
  // Near-square: neither dimension more than twice the other.
  const int chips_x = big.cols() / scc().cols();
  const int chips_y = big.rows() / scc().rows();
  EXPECT_LE(chips_y, 2 * chips_x);
  EXPECT_LE(chips_x, 2 * chips_y);
}

TEST(Topology, ValidateConfigCatchesBadCounts) {
  ChipConfig cfg;
  EXPECT_EQ(validate_config(cfg), "");
  cfg.num_cores = 0;
  EXPECT_NE(validate_config(cfg), "");
  cfg.num_cores = 96;
  EXPECT_EQ(validate_config(cfg), "");
  cfg.num_cores = 1024;  // 1024 x 8 MiB overflows the private window
  EXPECT_NE(validate_config(cfg), "");
  cfg.private_dram_bytes = 4 << 20;
  EXPECT_EQ(validate_config(cfg), "");
  cfg.num_cores = 2000;
  EXPECT_NE(validate_config(cfg), "");
}

TEST(Topology, ConfigureCoresKeepsSccDefaultsBelow48) {
  for (const int cores : {1, 8, 48}) {
    ChipConfig cfg;
    cfg.num_cores = cores;
    const AddrMap map(cfg);
    EXPECT_EQ(map.topology().max_cores(), 48);
    EXPECT_EQ(map.topology().num_chips(), 1);
    EXPECT_EQ(map.mpb_size(), 8192u);
  }
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
  cfg.num_cores = 192;  // 4 chips, 16 MCs
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

// ---- the one MPB carve -----------------------------------------------------

TEST(AddrMap, MpbCarveAt48CoresKeepsTheSccOffsets) {
  ChipConfig cfg;
  const AddrMap map(cfg);
  const MpbLayout& l = map.layout();
  EXPECT_EQ(l.mail_slot(0), 0u);
  EXPECT_EQ(l.mail_slot(47) + kMailBytes, 1536u);
  EXPECT_EQ(l.barrier_arrive, 1536u);
  EXPECT_EQ(l.barrier_release, 1584u);
  EXPECT_EQ(l.entries, 1600u);
  EXPECT_EQ(l.rcce_comm, 3584u);
  EXPECT_EQ(l.rcce_sent, 7680u);
  EXPECT_EQ(l.rcce_ack, 7728u);
  EXPECT_EQ(l.rcce_arrive, 7776u);
  EXPECT_EQ(l.rcce_release, 7824u);
  EXPECT_EQ(map.mpb_size(), 8192u);
}

TEST(AddrMap, WideDieCarveIsOrderedDisjointAndFits) {
  for (const int cores : {96, 256, 1024}) {
    SCOPED_TRACE(cores);
    ChipConfig cfg;
    cfg.num_cores = cores;
    const AddrMap map(cfg);
    const MpbLayout& l = map.layout();
    const u32 n = static_cast<u32>(map.topology().max_cores());
    // Each region as [begin, end), in carve order.
    const std::pair<u32, u32> regions[] = {
        {l.mail_slot(0), l.mail_slot(static_cast<int>(n) - 1) + kMailBytes},
        {l.barrier_arrive, l.barrier_arrive + n},
        {l.barrier_release, l.barrier_release + 1},
        {l.entries, l.rcce_comm},
        {l.rcce_comm, l.rcce_comm + MpbLayout::kRcceCommBytes},
        {l.rcce_sent, l.rcce_sent + n},
        {l.rcce_ack, l.rcce_ack + n},
        {l.rcce_arrive, l.rcce_arrive + n},
        {l.rcce_release, l.rcce_release + 1},
    };
    u32 end = 0;
    for (const auto& [begin, stop] : regions) {
      EXPECT_LE(end, begin);
      EXPECT_LT(begin, stop);
      end = stop;
    }
    EXPECT_LE(end, map.mpb_size());
  }
}

TEST(AddrMap, ScratchpadEntriesStayPutOnTheWidestDie) {
  // 1024 cores run on a die of 1200 potential cores. Its scratchpad
  // header keeps the spare bytes after the release byte and rounds to
  // 1280 bytes; without them it would round to 1216 and move every
  // scratchpad entry.
  ChipConfig cfg;
  cfg.num_cores = 1024;
  const AddrMap map(cfg);
  EXPECT_EQ(map.topology().max_cores(), 1200);
  const MpbLayout& l = map.layout();
  EXPECT_EQ(l.entries - l.barrier_arrive, 1280u);
}

}  // namespace
}  // namespace msvm::scc
