#include "workloads/kill_mosaic.hpp"

#include <cassert>

#include "svm/shadow_directory.hpp"

namespace msvm::workloads {

u64 kill_mosaic_slot_value(u64 seed, int rank, u32 page) {
  // splitmix64-style finalizer over a distinct (seed, rank, page) key:
  // any slot landing in the wrong place reads as a mismatch, never as a
  // coincidental duplicate.
  u64 x = seed ^ (static_cast<u64>(rank) << 32) ^ (page + 1);
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

KillMosaicResult run_kill_mosaic(const KillMosaicParams& p,
                                 svm::Model model, int num_cores) {
  // Constructed before the Cluster so the chip's bus (which holds a raw
  // pointer once attached) is torn down first.
  svm::ShadowDirectory::Config scfg;
  // LRC maps every writer RW by design; only the epoch and dead-silence
  // invariants apply there.
  scfg.single_writer = model != svm::Model::kLazyRelease;
  svm::ShadowDirectory shadow(scfg);

  cluster::ClusterConfig cfg;
  cfg.chip.num_cores = num_cores;  // grows the grid past 48
  cfg.chip.shared_dram_bytes = 32 << 20;
  cfg.chip.private_dram_bytes = 1 << 20;
  cfg.svm.model = model;
  cfg.svm.read_replication = p.read_replication;
  cfg.use_ipi = p.use_ipi;
  cfg.chip.faults = p.faults;
  cluster::Cluster cl(cfg);

  const u64 page_bytes = scc::kPageBytes;
  assert(static_cast<u64>(num_cores) * 8 <= page_bytes &&
         "one 8-byte slot per rank must fit in a page");

  if (p.audit) {
    // The dead-set needs the kCoreKill injection records (kCatChaos);
    // the poison-finality invariant and the integrity tallies need the
    // seal/corrupt/scrub events (kCatIntegrity).
    cl.chip().bus().enable(obs::kCatChaos | obs::kCatIntegrity);
    cl.chip().bus().attach(&shadow);
  }

  KillMosaicResult result;
  std::vector<u8> verified(static_cast<std::size_t>(num_cores), 0);

  cl.run([&](cluster::Node& n) {
    svm::Svm& svm = n.svm();
    scc::Core& core = n.core();
    const int rank = n.rank();
    const u64 base = svm.alloc(static_cast<u64>(p.pages) * page_bytes);
    const u64 slot_off = static_cast<u64>(rank) * 8;

    // Phase 1: write our slot into every page, staggered by rank so the
    // pages bounce between concurrent owners instead of convoying.
    for (u32 i = 0; i < p.pages; ++i) {
      const u32 page = (i + static_cast<u32>(rank)) % p.pages;
      svm.write<u64>(base + page * page_bytes + slot_off,
                     kill_mosaic_slot_value(p.seed, rank, page));
      core.compute_cycles(64);
    }

    // Phase 2: re-read and verify our own slots. No barrier in between —
    // the expected values depend on nobody else, and a dead member must
    // not be able to wedge the survivors at a rendezvous.
    u64 bad = 0;
    for (u32 i = 0; i < p.pages; ++i) {
      const u32 page = (i + static_cast<u32>(rank)) % p.pages;
      const u64 got = svm.read<u64>(base + page * page_bytes + slot_off);
      if (got != kill_mosaic_slot_value(p.seed, rank, page)) ++bad;
      core.compute_cycles(16);
    }
    result.slot_mismatches += bad;
    if (bad == 0) verified[static_cast<std::size_t>(rank)] = 1;
  });

  for (const u8 ok : verified) result.ranks_verified += ok;
  result.failures = cl.failures();
  result.ranks_lost = static_cast<int>(result.failures.size());
  for (const int c : cl.members()) {
    if (cl.chip().core_dead(c)) continue;
    const svm::SvmStats& s = cl.node(c).svm().stats();
    result.recoveries += s.recoveries;
    result.pages_lost += s.pages_lost;
    result.pages_rehomed += s.pages_rehomed;
    result.pages_refetched += s.pages_refetched;
    result.locks_broken += cl.node(c).core().counters().tas_locks_broken;
  }
  // Corruption ledger: injected counts from the chip-wide fault oracle,
  // detection counts summed over every booted member — dead cores
  // included, since a flip detected (and counted) before a fail-stop
  // must still reconcile against the injection side.
  const sim::FaultStats& fs = cl.chip().faults().stats();
  result.mail_flips = fs.mail_flips;
  result.page_flips = fs.page_flips;
  result.meta_flips = fs.meta_flips;
  for (const int c : cl.members()) {
    const svm::SvmStats& s = cl.node(c).svm().stats();
    result.pages_sealed += s.pages_sealed;
    result.seal_verifies += s.seal_verifies;
    result.pages_poisoned += s.pages_poisoned;
    result.meta_corrections += s.meta_corrections;
    result.mail_corrupt_drops += cl.node(c).mbox().stats().corrupt_drops;
  }
  for (const auto& f : result.failures) {
    if (f.what.find("integrity") != std::string::npos) {
      ++result.ranks_corrupt;
    }
  }
  if (p.audit) {
    result.audit_events = shadow.events_audited();
    result.audit_violations = shadow.violation_count();
    result.audit_report = shadow.report();
  }
  result.makespan = cl.makespan();
  return result;
}

}  // namespace msvm::workloads
