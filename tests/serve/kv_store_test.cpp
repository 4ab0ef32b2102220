// KvStore unit and cluster tests: the shard map (perfect hash, home
// affinity, page-aligned slices), the self-verifying value scheme, the
// op surface (get/put/scan under the shard TAS locks), and determinism
// of the Zipf sampler and the open-loop generator the serving benches
// are seeded from.
#include "serve/kv_store.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cluster/cluster.hpp"
#include "serve/workload_gen.hpp"
#include "serve/zipf.hpp"

namespace msvm::serve {
namespace {

cluster::ClusterConfig small_config() {
  cluster::ClusterConfig cfg;
  cfg.chip.num_cores = 8;
  cfg.chip.shared_dram_bytes = 16 << 20;
  cfg.chip.private_dram_bytes = 1 << 20;
  return cfg;
}

TEST(KvStoreScheme, ValueWordsDependOnEveryInput) {
  const u64 w = KvStore::value_word(1, 2, 3, 4);
  EXPECT_NE(w, KvStore::value_word(9, 2, 3, 4));  // seed
  EXPECT_NE(w, KvStore::value_word(1, 9, 3, 4));  // key
  EXPECT_NE(w, KvStore::value_word(1, 2, 9, 4));  // version
  EXPECT_NE(w, KvStore::value_word(1, 2, 3, 9));  // word index
}

TEST(KvStoreScheme, FoldMatchesManualChain) {
  const u64 seed = 7, key = 123, version = 5;
  const u32 words = 6;
  u64 fold = 0;
  for (u32 i = 0; i < words; ++i) {
    const u64 w = KvStore::value_word(seed, key, version, i);
    fold = (fold << 7 | fold >> 57) ^ w;
  }
  EXPECT_EQ(fold, KvStore::value_fold(seed, key, version, words));
  // A different version folds differently (the property the end-to-end
  // reply check stands on).
  EXPECT_NE(fold, KvStore::value_fold(seed, key, version + 1, words));
}

TEST(KvStoreCluster, ShardMapCoversAllRanksAndKeys) {
  cluster::Cluster cl(small_config());
  cl.run([&](cluster::Node& n) {
    KvConfig cfg;
    cfg.num_keys = 1000;
    KvStore store(n.svm(), cfg, n.size());
    if (n.rank() != 0) return;  // assertions once; alloc is collective
    EXPECT_EQ(store.num_shards(), 8u);
    // Every key maps to exactly one shard/slot, and each shard's keys
    // are dense under key = slot * shards + shard.
    std::set<int> homes;
    for (u64 key = 0; key < cfg.num_keys; ++key) {
      const u32 s = store.shard_of(key);
      EXPECT_LT(s, store.num_shards());
      homes.insert(store.home_rank(s));
    }
    EXPECT_EQ(homes.size(), 8u);  // every member homes some traffic
    // Page-aligned slices: no page shared by two shards.
    const u64 page = scc::kPageBytes;
    EXPECT_EQ(store.shard_bytes() % page, 0u);
  });
}

TEST(KvStoreCluster, HomeInitThenLocalOpsVerify) {
  cluster::Cluster cl(small_config());
  cl.run([&](cluster::Node& n) {
    KvConfig cfg;
    cfg.num_keys = 256;
    KvStore store(n.svm(), cfg, n.size());
    for (u32 s = 0; s < store.num_shards(); ++s) {
      if (store.home_rank(s) == n.rank()) store.init_shard(s);
    }
    n.svm().barrier();
    // Each home exercises its own shard: fresh entries verify at
    // version 1, a put bumps to 2, a get re-verifies, and a scan walks
    // the shard with every entry checking out.
    const u64 key = static_cast<u64>(n.rank());  // shard = rank % 8
    ASSERT_EQ(store.home_rank(store.shard_of(key)), n.rank());
    KvStore::OpResult g = store.get(key);
    EXPECT_TRUE(g.ok);
    EXPECT_EQ(g.version, 1u);
    EXPECT_EQ(g.fold, KvStore::value_fold(cfg.seed, key, 1,
                                          cfg.value_words));
    KvStore::OpResult p = store.put(key);
    EXPECT_TRUE(p.ok);
    EXPECT_EQ(p.version, 2u);
    g = store.get(key);
    EXPECT_TRUE(g.ok);
    EXPECT_EQ(g.version, 2u);
    EXPECT_EQ(g.fold, KvStore::value_fold(cfg.seed, key, 2,
                                          cfg.value_words));
    const KvStore::OpResult sc = store.scan(key, 16);
    EXPECT_TRUE(sc.ok);
    EXPECT_EQ(sc.count, 16u);
  });
}

TEST(ZipfSampler, DeterministicAndSkewed) {
  const ZipfSampler zipf(1024, 0.99);
  sim::Rng a(7), b(7);
  u64 low_ranks = 0;
  for (int i = 0; i < 2000; ++i) {
    const u64 ra = zipf.sample(a);
    ASSERT_EQ(ra, zipf.sample(b));  // same seed, same stream
    ASSERT_LT(ra, 1024u);
    if (ra < 16) ++low_ranks;
  }
  // theta=0.99 concentrates mass on the first ranks (~38% on the top
  // 16 of 1024); uniform would put ~1.5% there.
  EXPECT_GT(low_ranks, 2000u / 5);
}

TEST(OpenLoopGen, SameSeedSameStreamDifferentRankDifferentStream) {
  GenConfig cfg;
  cfg.rate_rps = 200'000;
  cfg.load_ps = 1 * kPsPerMs;
  cfg.scan_fraction = 0.1;
  const ZipfSampler zipf(cfg.num_keys, cfg.zipf_theta);
  OpenLoopGen g1(cfg, zipf, 42, 3);
  OpenLoopGen g2(cfg, zipf, 42, 3);
  OpenLoopGen g3(cfg, zipf, 42, 4);
  bool diverged = false;
  TimePs prev = 0;
  int n = 0;
  while (g1.has_next()) {
    ASSERT_TRUE(g2.has_next());
    const Request a = g1.take();
    const Request b = g2.take();
    EXPECT_EQ(a.arrival, b.arrival);
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(static_cast<int>(a.op), static_cast<int>(b.op));
    EXPECT_GE(a.arrival, prev);  // arrivals are monotone
    EXPECT_LT(a.arrival, cfg.load_ps);
    prev = a.arrival;
    if (g3.has_next()) {
      const Request c = g3.take();
      if (c.arrival != a.arrival || c.key != a.key) diverged = true;
    }
    ++n;
  }
  EXPECT_FALSE(g2.has_next());
  EXPECT_GT(n, 50);        // ~200 arrivals expected in the window
  EXPECT_TRUE(diverged);   // rank splits the stream
}

TEST(OpenLoopGen, PhaseScheduleModulatesTheRate) {
  GenConfig cfg;
  cfg.rate_rps = 500'000;
  cfg.load_ps = 2 * kPsPerMs;
  cfg.phase_ps = 1 * kPsPerMs;
  cfg.phase_mults = {0.25, 2.0};
  const ZipfSampler zipf(cfg.num_keys, cfg.zipf_theta);
  OpenLoopGen gen(cfg, zipf, 1, 0);
  EXPECT_EQ(gen.rate_mult_at(0), 0.25);
  EXPECT_EQ(gen.rate_mult_at(1 * kPsPerMs), 2.0);
  u64 quiet = 0, burst = 0;
  while (gen.has_next()) {
    (gen.take().arrival < 1 * kPsPerMs ? quiet : burst)++;
  }
  // The burst phase offers 8x the quiet phase's rate.
  EXPECT_GT(burst, quiet * 4);
}

}  // namespace
}  // namespace msvm::serve
