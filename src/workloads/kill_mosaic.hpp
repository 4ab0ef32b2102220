// Slot mosaic: the fail-stop kill workload. Every rank writes the
// 8-byte slot at offset rank*8 of every participating page (a value
// derived from (rank, page, seed)), then re-reads its OWN slots and
// verifies them. Slots are single-writer, so the expected value of
// every slot a survivor checks is independent of every other core —
// killing 1..3 cores mid-run can never make a survivor's check
// ambiguous. There are deliberately no barriers: a dead member must
// not be able to wedge the survivors at a rendezvous.
//
// Under the Strong model every write migrates whole-page ownership, so
// the mosaic keeps pages bouncing between cores — exactly the protocol
// traffic a mid-flight kill needs to land in. Under LRC each slot write
// is a disjoint-byte write-through store, so survivors' own slots are
// locally coherent without locks.
//
// Outcomes per rank: verified (all own slots correct), lost (a typed
// SvmDataLossError, recorded by the Cluster), or mismatched (wrong
// data — a contract violation the campaign fails on).
#pragma once

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "sim/faults.hpp"
#include "sim/types.hpp"
#include "svm/svm.hpp"

namespace msvm::workloads {

struct KillMosaicParams {
  u32 pages = 16;  // participating pages (<= 512: slots are 8 bytes)
  u64 seed = 42;
  bool read_replication = false;
  bool use_ipi = true;
  /// Attach the ShadowDirectory coherence auditor to the run's bus
  /// (enables the chaos event category so kills reach the dead-set).
  bool audit = false;
  sim::FaultPlan faults;
};

struct KillMosaicResult {
  int ranks_verified = 0;  // survivors whose own slots all checked out
  int ranks_lost = 0;      // typed data-loss aborts (Cluster::failures)
  u64 slot_mismatches = 0;  // wrong values read — contract violation
  std::vector<cluster::Cluster::MemberFailure> failures;

  // Recovery tallies summed over the surviving members.
  u64 recoveries = 0;
  u64 pages_lost = 0;
  u64 pages_rehomed = 0;
  u64 pages_refetched = 0;
  u64 locks_broken = 0;

  // Corruption ledger (armed plans only). Injected counts come from the
  // chip-wide FaultStats; detection counts are summed over every booted
  // member (dead cores included — their tallies froze at death, but the
  // flips they detected before dying must still reconcile):
  //   mail_flips == mail_corrupt_drops            (every flip dropped)
  //   pages_poisoned <= page_flips                (poisoned on detection)
  //   meta_corrections <= meta_flips               (corrected on reload)
  u64 mail_flips = 0;
  u64 page_flips = 0;
  u64 meta_flips = 0;
  u64 mail_corrupt_drops = 0;
  u64 pages_sealed = 0;
  u64 seal_verifies = 0;
  u64 pages_poisoned = 0;
  u64 meta_corrections = 0;
  int ranks_corrupt = 0;  // typed SvmIntegrityError aborts (subset of lost)

  // Auditor verdict (audit == true only).
  u64 audit_events = 0;
  u64 audit_violations = 0;
  std::string audit_report;

  TimePs makespan = 0;
};

/// Runs the mosaic; propagates sim::HangError (the caller's taxonomy
/// decides what a clean hang means for the run).
KillMosaicResult run_kill_mosaic(const KillMosaicParams& p,
                                 svm::Model model, int num_cores);

/// The expected slot value: what rank `rank` writes into page `page`.
u64 kill_mosaic_slot_value(u64 seed, int rank, u32 page);

}  // namespace msvm::workloads
