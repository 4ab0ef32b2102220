// Corruption campaign: the end-to-end data-integrity gate. Seeded
// slot-mosaic runs across {strong, strong+rr, lrc} x {48, 96 cores}
// under a matrix of bit-flip plans (MPB mail lines, DRAM page frames at
// ownership handoffs, SVM metadata words) and assert the detect-or-die
// contract:
//
//   * zero silent wrong — no survivor ever reads a flipped value as
//     data (slot mismatches fail the campaign outright);
//   * zero hangs — corruption is a data fault, not a liveness fault:
//     dropped mails retransmit, poisoned pages throw typed errors;
//   * every flip accounted for — the injection ledger reconciles
//     against the detection counters:
//       mail_flips == mail_corrupt_drops                      (exact)
//       seal_repairs+seal_refetches+pages_poisoned <= page_flips
//       meta_corrections <= meta_flips
//     (page/meta flips are inequalities: a flipped frame nobody touches
//     again, or a flipped word never reloaded, stays latent — but can
//     never be *read* without detection);
//   * auditor clean — the ShadowDirectory replays the run and asserts
//     poison finality on top of the usual coherence invariants.
//
//   ./corruption_campaign --plans=126 --seed=42
//   ./corruption_campaign --faults='flippage=0.5,retry=2ms,watchdog=500ms'
#include <cstdio>
#include <iterator>
#include <string>

#include "bench/bench_common.hpp"
#include "sim/faults.hpp"
#include "workloads/kill_mosaic.hpp"

namespace {

using namespace msvm;

enum class Outcome { kCorrect, kTypedLoss, kCleanHang, kWrong };

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kCorrect: return "correct";
    case Outcome::kTypedLoss: return "typed-loss";
    case Outcome::kCleanHang: return "clean-hang";
    case Outcome::kWrong: return "WRONG";
  }
  return "?";
}

struct Combo {
  int cores;
  svm::Model model;
  bool read_replication;
  const char* name;
};

/// {strong, strong+rr, lrc} x {48, 96 cores}; 96 cores spans two chips.
constexpr Combo kCombos[] = {
    {48, svm::Model::kStrong, false, "strong"},
    {48, svm::Model::kStrong, true, "strong+rr"},
    {48, svm::Model::kLazyRelease, false, "lrc"},
    {96, svm::Model::kStrong, false, "strong"},
    {96, svm::Model::kStrong, true, "strong+rr"},
    {96, svm::Model::kLazyRelease, false, "lrc"},
};

/// One corruption plan: each flip clause drawn from {off, rare, common,
/// heavy}, redrawn until at least one is armed. Page-flip rates run much
/// hotter than the others: they are drawn once per ownership handoff,
/// not once per mail or metadata store. Every third plan also arms the
/// background scrubber. The recovery envelope keeps corruption a data
/// fault, never a liveness fault: CRC-dropped mails retransmit quickly,
/// and an armed watchdog types any hang that slips through.
sim::FaultPlan corruption_plan(sim::Rng& rng, u64 plan_seed, u64 index) {
  static constexpr double kMailRates[] = {0.0, 0.005, 0.02, 0.05};
  static constexpr double kPageRates[] = {0.0, 0.05, 0.2, 0.5};
  static constexpr double kMetaRates[] = {0.0, 0.01, 0.05, 0.1};
  sim::FaultPlan plan;
  plan.seed = plan_seed;
  do {
    plan.flipmail = kMailRates[rng.next_below(4)];
    plan.flippage = kPageRates[rng.next_below(4)];
    plan.flipmeta = kMetaRates[rng.next_below(4)];
  } while (plan.flipmail == 0 && plan.flippage == 0 && plan.flipmeta == 0);
  if (index % 3 == 2) plan.scrub_ps = 200 * kPsPerUs;
  plan.watchdog_ps = 500 * kPsPerMs;
  plan.sweep_period = 2;
  plan.degrade_after = 6;
  plan.retry_ps = 2 * kPsPerMs;
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  const u64 seed = bench::arg_seed(argc, argv);
  const u64 num_plans = bench::arg_u64(argc, argv, "plans", 126);
  const std::string fixed_spec = bench::arg_str(argc, argv, "faults");
  const bool noaudit = bench::arg_flag(argc, argv, "noaudit");

  bench::print_header(
      "corruption campaign: bit flips in mail, frames and metadata",
      "contract: detect-or-die — flips repaired, dropped or typed, "
      "never read");

  bench::JsonReport json("corruption", argc, argv);
  json.config("plans", num_plans);
  if (!fixed_spec.empty()) json.config("faults", fixed_spec);

  sim::Rng rng = bench::seeded_rng(seed);
  u64 correct = 0;
  u64 typed_loss = 0;
  u64 clean_hangs = 0;
  u64 wrong = 0;
  u64 audit_violations = 0;
  u64 ledger_violations = 0;
  // Campaign-wide injection/detection ledger.
  u64 mail_flips = 0;
  u64 mail_drops = 0;
  u64 page_flips = 0;
  u64 repairs = 0;
  u64 refetches = 0;
  u64 poisoned = 0;
  u64 meta_flips = 0;
  u64 meta_corrections = 0;
  u64 verified_ranks = 0;

  for (u64 i = 0; i < num_plans; ++i) {
    const Combo& combo = kCombos[i % std::size(kCombos)];
    workloads::KillMosaicParams p;
    p.pages = 16;
    p.seed = seed * 1000 + i;
    p.read_replication = combo.read_replication;
    p.use_ipi = (i % 2) == 0;
    p.audit = !noaudit;
    p.faults = fixed_spec.empty()
                   ? corruption_plan(rng, p.seed, i)
                   : bench::arg_faults(argc, argv);
    const std::string spec = p.faults.to_spec();

    std::printf("run %3llu/%llu: %3d cores %-9s %s\n",
                static_cast<unsigned long long>(i + 1),
                static_cast<unsigned long long>(num_plans), combo.cores,
                combo.name, spec.c_str());

    Outcome o = Outcome::kCorrect;
    workloads::KillMosaicResult r;
    try {
      r = workloads::run_kill_mosaic(p, combo.model, combo.cores);
      if (r.slot_mismatches > 0) {
        std::fprintf(stderr, "  SILENT WRONG: %llu slot mismatch(es)\n",
                     static_cast<unsigned long long>(r.slot_mismatches));
        o = Outcome::kWrong;
      } else if (r.ranks_lost > 0) {
        o = Outcome::kTypedLoss;
      }
      if (p.audit && r.audit_violations > 0) {
        std::fprintf(stderr, "  AUDIT: %s", r.audit_report.c_str());
        audit_violations += r.audit_violations;
        o = Outcome::kWrong;
      }
      // Ledger reconciliation: no injected flip may vanish unaccounted.
      const u64 page_accounted =
          r.seal_repairs + r.seal_refetches + r.pages_poisoned;
      const bool ledger_ok = r.mail_flips == r.mail_corrupt_drops &&
                             page_accounted <= r.page_flips &&
                             r.meta_corrections <= r.meta_flips;
      if (!ledger_ok) {
        std::fprintf(
            stderr,
            "  LEDGER: mail %llu/%llu drops, page %llu flips / %llu "
            "accounted, meta %llu flips / %llu corrections\n",
            static_cast<unsigned long long>(r.mail_flips),
            static_cast<unsigned long long>(r.mail_corrupt_drops),
            static_cast<unsigned long long>(r.page_flips),
            static_cast<unsigned long long>(page_accounted),
            static_cast<unsigned long long>(r.meta_flips),
            static_cast<unsigned long long>(r.meta_corrections));
        ++ledger_violations;
        o = Outcome::kWrong;
      }
      mail_flips += r.mail_flips;
      mail_drops += r.mail_corrupt_drops;
      page_flips += r.page_flips;
      repairs += r.seal_repairs;
      refetches += r.seal_refetches;
      poisoned += r.pages_poisoned;
      meta_flips += r.meta_flips;
      meta_corrections += r.meta_corrections;
      verified_ranks += static_cast<u64>(r.ranks_verified);
    } catch (const sim::HangError& e) {
      // Corruption must never wedge the system: even a *clean* hang
      // fails this campaign (unlike the kill campaign, where a death at
      // the wrong instant can legitimately strand a waiter).
      std::fprintf(stderr, "  HANG: %s\n%s", e.what(),
                   e.report().c_str());
      o = Outcome::kCleanHang;
    }

    std::printf(
        "  -> %-10s verified=%d lost=%d(corrupt=%d) "
        "flips[mail=%llu page=%llu meta=%llu] "
        "drops=%llu sealed=%llu repaired=%llu refetched=%llu "
        "poisoned=%llu ecc=%llu%s\n",
        outcome_name(o), r.ranks_verified, r.ranks_lost, r.ranks_corrupt,
        static_cast<unsigned long long>(r.mail_flips),
        static_cast<unsigned long long>(r.page_flips),
        static_cast<unsigned long long>(r.meta_flips),
        static_cast<unsigned long long>(r.mail_corrupt_drops),
        static_cast<unsigned long long>(r.pages_sealed),
        static_cast<unsigned long long>(r.seal_repairs),
        static_cast<unsigned long long>(r.seal_refetches),
        static_cast<unsigned long long>(r.pages_poisoned),
        static_cast<unsigned long long>(r.meta_corrections),
        p.audit ? (r.audit_violations == 0 ? " audit=clean"
                                           : " audit=VIOLATED")
                : "");
    switch (o) {
      case Outcome::kCorrect: ++correct; break;
      case Outcome::kTypedLoss: ++typed_loss; break;
      case Outcome::kCleanHang: ++clean_hangs; break;
      case Outcome::kWrong: ++wrong; break;
    }
  }

  const u64 total = correct + typed_loss + clean_hangs + wrong;
  bench::print_row_sep();
  std::printf(
      "corruption campaign: %llu run(s): %llu correct, %llu typed loss, "
      "%llu hang(s), %llu WRONG; ledger: %llu mail flips (%llu dropped), "
      "%llu page flips (%llu repaired, %llu refetched, %llu poisoned), "
      "%llu meta flips (%llu corrected)\n",
      static_cast<unsigned long long>(total),
      static_cast<unsigned long long>(correct),
      static_cast<unsigned long long>(typed_loss),
      static_cast<unsigned long long>(clean_hangs),
      static_cast<unsigned long long>(wrong),
      static_cast<unsigned long long>(mail_flips),
      static_cast<unsigned long long>(mail_drops),
      static_cast<unsigned long long>(page_flips),
      static_cast<unsigned long long>(repairs),
      static_cast<unsigned long long>(refetches),
      static_cast<unsigned long long>(poisoned),
      static_cast<unsigned long long>(meta_flips),
      static_cast<unsigned long long>(meta_corrections));
  json.sample("correct", static_cast<double>(correct));
  json.sample("typed_loss", static_cast<double>(typed_loss));
  json.sample("hangs", static_cast<double>(clean_hangs));
  json.sample("wrong", static_cast<double>(wrong));
  json.sample("verified_ranks", static_cast<double>(verified_ranks));
  json.sample("mail_flips", static_cast<double>(mail_flips));
  json.sample("mail_drops", static_cast<double>(mail_drops));
  json.sample("page_flips", static_cast<double>(page_flips));
  json.sample("page_repairs", static_cast<double>(repairs));
  json.sample("page_refetches", static_cast<double>(refetches));
  json.sample("pages_poisoned", static_cast<double>(poisoned));
  json.sample("meta_flips", static_cast<double>(meta_flips));
  json.sample("meta_corrections", static_cast<double>(meta_corrections));
  if (!noaudit) {
    json.sample("audit_violations", static_cast<double>(audit_violations));
  }
  json.sample("ledger_violations", static_cast<double>(ledger_violations));

  if (wrong != 0 || clean_hangs != 0) {
    std::fprintf(stderr,
                 "corruption campaign FAILED: %llu wrong, %llu hang(s)\n",
                 static_cast<unsigned long long>(wrong),
                 static_cast<unsigned long long>(clean_hangs));
    return 1;
  }
  std::printf("corruption campaign passed: every flip was dropped, "
              "repaired, corrected or typed — none was read%s\n",
              noaudit ? "" : " (auditor clean)");
  return 0;
}
