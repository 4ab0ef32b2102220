// Robustness campaigns: seeded fault plans over the shared-memory and
// serving workloads, every run judged on one outcome lattice — correct,
// typed loss, clean hang (a typed HangError carrying a structured hang
// report), or wrong. A wrong run always fails the campaign; whether a
// clean hang does is the campaign's hang policy.
//
//   chaos    Laplace, matmul and histogram on 4 cores, each plan in both
//            mailbox modes, under drawn IPI/mail/stall injection rates.
//            Clean hangs are allowed.
//   kill     The slot mosaic on {48, 96, 256} cores x {strong, strong+rr,
//            lrc}, killing 1..3 cores at drawn virtual times under the
//            heartbeat lease: survivors verify, deaths end in typed loss
//            or a clean hang.
//   flip     The mosaic on {48, 96} cores under drawn bit-flip rates in
//            mail, page frames and SVM metadata (detect-or-die). Every
//            flip must reconcile against the detection ledger:
//              mail_flips == mail_corrupt_drops                  (exact)
//              pages_poisoned <= page_flips
//              meta_corrections <= meta_flips
//            (a flipped frame or word nobody reloads stays latent, but
//            can never be *read* undetected). A hang fails the campaign.
//   kv-kill  The KV serving tier on {48, 96} cores x the three models,
//            killing 1..3 homes under live traffic: typed shed/timeout
//            losses, zero wrong replies, and a hang fails the campaign.
//
// The mosaic campaigns (kill, flip) always run the ShadowDirectory
// coherence auditor; any violation makes the run wrong.
//
//   ./campaign --campaign=kill --plans=126
//   ./campaign --campaign=flip --faults='flippage=0.5,watchdog=500ms'
//
// --plans sets the plan count (defaults: chaos 20, kill 20, flip 126,
// kv-kill 6), --seed the plan stream, --cores overrides the core count
// of every combo, --faults replaces every drawn plan with one fixed
// spec, and --report prints the hang report of every allowed clean hang
// (a hang that breaks the contract is always reported, on stderr).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>

#include "bench/bench_common.hpp"
#include "serve/kv_serving.hpp"
#include "sim/faults.hpp"
#include "workloads/histogram.hpp"
#include "workloads/kill_mosaic.hpp"
#include "workloads/laplace.hpp"
#include "workloads/matmul.hpp"

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

/// One cell of a campaign's matrix.
struct Combo {
  int cores;
  svm::Model model;
  bool read_replication;
  const char* name;
};

constexpr Combo kChaosCombos[] = {
    {4, svm::Model::kStrong, false, "laplace"},
    {4, svm::Model::kStrong, false, "matmul"},
    {4, svm::Model::kLazyRelease, false, "histogram"},
};

/// {48, 96, 256} cores x {strong, strong+rr, lrc}.
constexpr Combo kKillCombos[] = {
    {48, svm::Model::kStrong, false, "strong"},
    {48, svm::Model::kStrong, true, "strong+rr"},
    {48, svm::Model::kLazyRelease, false, "lrc"},
    {96, svm::Model::kStrong, false, "strong"},
    {96, svm::Model::kStrong, true, "strong+rr"},
    {96, svm::Model::kLazyRelease, false, "lrc"},
    {256, svm::Model::kStrong, false, "strong"},
    {256, svm::Model::kStrong, true, "strong+rr"},
    {256, svm::Model::kLazyRelease, false, "lrc"},
};

/// {48, 96} cores x {strong, strong+rr, lrc}; 96 cores spans two chips.
constexpr Combo kFlipCombos[] = {
    {48, svm::Model::kStrong, false, "strong"},
    {48, svm::Model::kStrong, true, "strong+rr"},
    {48, svm::Model::kLazyRelease, false, "lrc"},
    {96, svm::Model::kStrong, false, "strong"},
    {96, svm::Model::kStrong, true, "strong+rr"},
    {96, svm::Model::kLazyRelease, false, "lrc"},
};

/// The same cells model-major: the core count alternates every run.
constexpr Combo kKvCombos[] = {
    {48, svm::Model::kStrong, false, "strong"},
    {96, svm::Model::kStrong, false, "strong"},
    {48, svm::Model::kStrong, true, "strong+rr"},
    {96, svm::Model::kStrong, true, "strong+rr"},
    {48, svm::Model::kLazyRelease, false, "lrc"},
    {96, svm::Model::kLazyRelease, false, "lrc"},
};

/// 1..3 distinct victims among `cores` (never more than there are),
/// each killed at lo_ns plus a draw below span_ns, under the heartbeat
/// lease that detects them. The times stay ns-aligned so plan.to_spec()
/// round-trips through parse().
void draw_victims(sim::Rng& rng, sim::FaultPlan& plan, int cores, u64 lo_ns,
                  u64 span_ns) {
  const u64 nkills =
      std::min<u64>(1 + rng.next_below(3), static_cast<u64>(cores));
  for (u64 k = 0; k < nkills; ++k) {
    sim::KillSpec spec;
    do {
      spec.core = static_cast<int>(rng.next_below(static_cast<u64>(cores)));
    } while (std::any_of(plan.kills.begin(), plan.kills.end(),
                         [&](const sim::KillSpec& prev) {
                           return prev.core == spec.core;
                         }));
    spec.at_ps = static_cast<TimePs>(lo_ns + rng.next_below(span_ns)) *
                 kPsPerNs;
    plan.kills.push_back(spec);
  }
  plan.lease_ps = 500 * kPsPerUs;
}

/// Each injection knob from {off, rare, common, heavy}.
sim::FaultPlan chaos_plan(sim::Rng& rng, u64 /*index*/, int /*cores*/) {
  static constexpr double kProbs[] = {0.0, 0.02, 0.1, 0.3};
  auto draw = [&rng] { return kProbs[rng.next_below(4)]; };
  sim::FaultPlan plan;
  plan.ipi_drop = draw();
  plan.ipi_delay = draw();
  plan.mail_delay = draw();
  plan.mail_dup = draw();
  plan.stall = draw();
  plan.spurious = draw();
  return plan;
}

/// Deaths between 200 us and 5 ms, while the mosaic's pages migrate.
sim::FaultPlan kill_plan(sim::Rng& rng, u64 /*index*/, int cores) {
  sim::FaultPlan plan;
  draw_victims(rng, plan, cores, 200'000, 4'800'000);
  return plan;
}

/// Each flip clause from {off, rare, common, heavy}, redrawn until at
/// least one is armed. Page-flip rates run much hotter than the others:
/// they are drawn once per ownership handoff, not once per mail or
/// metadata store. Every third plan also arms the background scrubber.
sim::FaultPlan flip_plan(sim::Rng& rng, u64 index, int /*cores*/) {
  static constexpr double kMailRates[] = {0.0, 0.005, 0.02, 0.05};
  static constexpr double kPageRates[] = {0.0, 0.05, 0.2, 0.5};
  static constexpr double kMetaRates[] = {0.0, 0.01, 0.05, 0.1};
  sim::FaultPlan plan;
  do {
    plan.flipmail = kMailRates[rng.next_below(4)];
    plan.flippage = kPageRates[rng.next_below(4)];
    plan.flipmeta = kMetaRates[rng.next_below(4)];
  } while (plan.flipmail == 0 && plan.flippage == 0 && plan.flipmeta == 0);
  if (index % 3 == 2) plan.scrub = true;
  return plan;
}

constexpr TimePs kKvLoadPs = 1 * kPsPerMs;

/// Deaths within 10%..90% of the load window, past the start epoch, so
/// they land under live traffic.
sim::FaultPlan kv_plan(sim::Rng& rng, u64 /*index*/, int cores) {
  const u64 epoch_ns = serve::KvServingParams{}.start_epoch_ps / kPsPerNs;
  const u64 load_ns = kKvLoadPs / kPsPerNs;
  sim::FaultPlan plan;
  draw_victims(rng, plan, cores, epoch_ns + load_ns / 10, load_ns * 8 / 10);
  return plan;
}

/// One run: a combo, its core count and mailbox mode, and the plan.
struct Run {
  const Combo& combo;
  int cores;
  bool use_ipi;
  u64 seed;  // the plan seed; it seeds the workload too
  const sim::FaultPlan& plan;
};

/// Campaign-wide sums behind the extra JSON series.
using Ledger = std::map<std::string, u64>;

struct Verdict {
  Outcome outcome;
  std::string detail;
};

/// "name=value" pairs, space-separated: a run's detail column.
template <typename Value, typename... Rest>
std::string fields(const char* name, Value value, Rest... rest) {
  std::string out = std::string(name) + "=" + std::to_string(value);
  if constexpr (sizeof...(rest) > 0) out += " " + fields(rest...);
  return out;
}

using ull = unsigned long long;

bool close_enough(double got, double want) {
  const double scale = std::max(1.0, std::fabs(want));
  return std::fabs(got - want) <= 1e-9 * scale;
}

Verdict chaos_run(const Run& run, Ledger& /*ledger*/) {
  const std::string_view workload = run.combo.name;
  bool ok = false;
  if (workload == "laplace") {
    workloads::LaplaceParams p;
    p.ny = 32;
    p.nx = 64;
    p.iterations = 3;
    p.faults = run.plan;
    ok = close_enough(workloads::run_laplace_svm(p, run.combo.model,
                                                 run.cores, run.use_ipi)
                          .checksum,
                      workloads::laplace_reference_checksum(p));
  } else if (workload == "matmul") {
    workloads::MatmulParams p;
    p.n = 20;
    p.use_ipi = run.use_ipi;
    p.faults = run.plan;
    ok = close_enough(
        workloads::run_matmul(p, run.combo.model, run.cores).checksum,
        workloads::matmul_reference_checksum(p));
  } else {
    workloads::HistogramParams p;
    p.bins = 64;
    p.samples_per_core = 512;
    p.use_ipi = run.use_ipi;
    p.faults = run.plan;
    ok = workloads::run_histogram(p, run.combo.model, run.cores).bins ==
         workloads::histogram_reference(p, run.cores);
  }
  return {ok ? Outcome::kCorrect : Outcome::kWrong, ""};
}

workloads::KillMosaicResult run_mosaic(const Run& run) {
  workloads::KillMosaicParams p;
  p.seed = run.seed;
  p.read_replication = run.combo.read_replication;
  p.use_ipi = run.use_ipi;
  p.audit = true;
  p.faults = run.plan;
  return workloads::run_kill_mosaic(p, run.combo.model, run.cores);
}

/// Wrong on a slot mismatch or an auditor violation; typed loss when a
/// rank died with a typed error.
Outcome mosaic_outcome(const workloads::KillMosaicResult& r,
                       Ledger& ledger) {
  Outcome o = r.ranks_lost > 0 ? Outcome::kTypedLoss : Outcome::kCorrect;
  if (r.slot_mismatches > 0) {
    std::fprintf(stderr, "  WRONG: %llu slot mismatch(es)\n",
                 static_cast<ull>(r.slot_mismatches));
    o = Outcome::kWrong;
  }
  if (r.audit_violations > 0) {
    std::fprintf(stderr, "  AUDIT: %s", r.audit_report.c_str());
    o = Outcome::kWrong;
  }
  ledger["audit_violations"] += r.audit_violations;
  return o;
}

/// When ranks were lost: how many distinct pages the typed losses came
/// from, and the first loss as core/page. Empty on a run with no loss.
std::string loss_fields(const workloads::KillMosaicResult& r) {
  if (r.failures.empty()) return "";
  std::set<u64> pages;
  for (const auto& f : r.failures) pages.insert(f.page);
  const auto& first = r.failures.front();
  return " " + fields("loss_pages", pages.size()) + " first_loss=core" +
         std::to_string(first.core_id) + "/page" +
         std::to_string(first.page);
}

Verdict kill_run(const Run& run, Ledger& ledger) {
  const workloads::KillMosaicResult r = run_mosaic(run);
  ledger["recoveries"] += r.recoveries;
  ledger["locks_broken"] += r.locks_broken;
  return {mosaic_outcome(r, ledger),
          fields("verified", r.ranks_verified, "lost", r.ranks_lost,
                 "recoveries", r.recoveries, "rehomed", r.pages_rehomed,
                 "refetched", r.pages_refetched, "poisoned", r.pages_lost,
                 "locks_broken", r.locks_broken) +
              loss_fields(r)};
}

Verdict flip_run(const Run& run, Ledger& ledger) {
  const workloads::KillMosaicResult r = run_mosaic(run);
  Outcome o = mosaic_outcome(r, ledger);
  if (r.mail_flips != r.mail_corrupt_drops ||
      r.pages_poisoned > r.page_flips || r.meta_corrections > r.meta_flips) {
    std::fprintf(stderr,
                 "  LEDGER: mail %llu/%llu drops, page %llu flips / %llu "
                 "poisoned, meta %llu flips / %llu corrections\n",
                 static_cast<ull>(r.mail_flips),
                 static_cast<ull>(r.mail_corrupt_drops),
                 static_cast<ull>(r.page_flips),
                 static_cast<ull>(r.pages_poisoned),
                 static_cast<ull>(r.meta_flips),
                 static_cast<ull>(r.meta_corrections));
    ++ledger["ledger_violations"];
    o = Outcome::kWrong;
  }
  ledger["verified_ranks"] += static_cast<u64>(r.ranks_verified);
  ledger["mail_flips"] += r.mail_flips;
  ledger["mail_drops"] += r.mail_corrupt_drops;
  ledger["page_flips"] += r.page_flips;
  ledger["pages_poisoned"] += r.pages_poisoned;
  ledger["meta_flips"] += r.meta_flips;
  ledger["meta_corrections"] += r.meta_corrections;
  return {o, fields("verified", r.ranks_verified, "lost", r.ranks_lost,
                    "corrupt", r.ranks_corrupt, "mail_flips", r.mail_flips,
                    "page_flips", r.page_flips, "meta_flips", r.meta_flips,
                    "drops", r.mail_corrupt_drops, "sealed", r.pages_sealed,
                    "poisoned", r.pages_poisoned, "ecc", r.meta_corrections) +
                 loss_fields(r)};
}

/// Every reply is verified against the self-verifying value scheme, so
/// corruption anywhere in the stack is a wrong reply, never served.
Verdict kv_run(const Run& run, Ledger& ledger) {
  serve::KvServingParams p;
  p.seed = run.seed;
  p.store.seed = run.seed;
  p.gen.scan_fraction = 0.02;
  p.gen.read_fraction = 0.9;
  p.gen.rate_rps = 20'000.0;
  p.gen.load_ps = kKvLoadPs;
  p.drain_ps = 1 * kPsPerMs;
  p.read_replication = run.combo.read_replication;
  p.use_ipi = run.use_ipi;
  p.faults = run.plan;
  const serve::KvServingResult r =
      serve::run_kv_serving(p, run.combo.model, run.cores);
  ledger["completed"] += r.completed;
  ledger["shed"] += r.dead_shed + r.timeouts;
  Outcome o = Outcome::kCorrect;
  if (r.wrong > 0) {
    std::fprintf(stderr, "  WRONG: %llu bad response(s)\n",
                 static_cast<ull>(r.wrong));
    o = Outcome::kWrong;
  } else if (r.ranks_lost > 0 || !r.failures.empty() ||
             r.dead_shed + r.timeouts > 0 || r.unfinished > 0) {
    // Requests still unanswered at the end of the drain were lost, not
    // served: a stalled run is a typed loss, never a correct one.
    o = Outcome::kTypedLoss;
  }
  return {o, fields("completed", r.completed, "wrong", r.wrong, "shed",
                    r.dead_shed, "timeouts", r.timeouts, "unfinished",
                    r.unfinished, "retransmits", r.retransmits, "lost_ranks",
                    r.ranks_lost, "recoveries", r.recoveries)};
}

struct Campaign {
  const char* name;  // the --campaign value
  const char* json;  // writes BENCH_<json>.json
  const char* title;
  const char* contract;
  u64 default_plans;
  std::span<const Combo> combos;
  /// Chaos runs every plan on every combo in both mailbox modes; the
  /// others run plan i on combo i % size, in IPI mode when i is even.
  bool every_combo;
  sim::FaultPlan (*draw)(sim::Rng& rng, u64 index, int cores);
  Verdict (*run)(const Run& run, Ledger& ledger);
  bool hangs_allowed;
  const char* typed_loss_series;  // nullptr: no run ends in typed loss
  const char* hang_series;
  std::span<const char* const> extra_series;
};

constexpr const char* kKillSeries[] = {"recoveries", "locks_broken",
                                       "audit_violations"};
constexpr const char* kFlipSeries[] = {
    "verified_ranks",   "mail_flips",      "mail_drops",
    "page_flips",       "pages_poisoned",  "meta_flips",
    "meta_corrections", "audit_violations", "ledger_violations"};
constexpr const char* kKvSeries[] = {"completed", "shed"};

constexpr Campaign kCampaigns[] = {
    {"chaos", "chaos_campaign",
     "chaos campaign: workloads under deterministic fault injection",
     "contract: correct data or a typed, reported failure", 20,
     kChaosCombos, true, chaos_plan, chaos_run, true, nullptr,
     "clean_hangs", {}},
    {"kill", "chaos_campaign_kill",
     "kill campaign: fail-stop deaths under recovery",
     "contract: surviving cores correct, losses typed, hangs clean", 20,
     kKillCombos, false, kill_plan, kill_run, true, "data_loss",
     "clean_hangs", kKillSeries},
    {"flip", "corruption",
     "corruption campaign: bit flips in mail, frames and metadata",
     "contract: detect-or-die — flips dropped or typed, never read",
     126, kFlipCombos, false, flip_plan, flip_run, false, "typed_loss",
     "hangs", kFlipSeries},
    {"kv-kill", "kv_kill",
     "kv kill campaign: fail-stop homes under live traffic",
     "contract: degraded goodput, typed losses, ZERO wrong responses, no "
     "hangs",
     6, kKvCombos, false, kv_plan, kv_run, false, "typed_loss",
     "clean_hangs", kKvSeries},
};

/// A HangError with a structured report is a clean hang; one with an
/// empty report is a silent wedge, and that is wrong.
Verdict guarded(const Campaign& c, const Run& run, Ledger& ledger,
                bool print_reports) {
  try {
    return c.run(run, ledger);
  } catch (const sim::HangError& e) {
    if (e.report().empty()) {
      std::fprintf(stderr, "  HangError with empty report\n");
      return {Outcome::kWrong, ""};
    }
    if (!c.hangs_allowed) {
      std::fprintf(stderr, "  HANG: %s\n%s", e.what(), e.report().c_str());
    } else if (print_reports) {
      std::printf("  --- %s: %s ---\n%s", run.combo.name, e.what(),
                  e.report().c_str());
    }
    return {Outcome::kCleanHang, ""};
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string which = bench::arg_str(argc, argv, "campaign");
  const Campaign* c = nullptr;
  for (const Campaign& candidate : kCampaigns) {
    if (which == candidate.name) c = &candidate;
  }
  if (c == nullptr) {
    std::fprintf(stderr,
                 "usage error: --campaign=%s: expected chaos, kill, flip "
                 "or kv-kill\n",
                 which.c_str());
    return 2;
  }
  const u64 seed = bench::arg_seed(argc, argv);
  const u64 num_plans = bench::arg_u64(argc, argv, "plans", c->default_plans);
  const int fixed_cores = bench::arg_cores(argc, argv, 0);
  const std::string fixed_spec = bench::arg_str(argc, argv, "faults");
  const bool print_reports = bench::arg_flag(argc, argv, "report");
  std::optional<sim::FaultPlan> fixed_plan;
  if (!fixed_spec.empty()) fixed_plan = bench::arg_faults(argc, argv);

  bench::print_header(c->title, c->contract);
  bench::obs_setup(argc, argv);
  bench::JsonReport json(c->json, seed);
  json.config("plans", num_plans);
  if (fixed_cores > 0) json.config("cores", static_cast<u64>(fixed_cores));
  if (fixed_plan) json.config("faults", fixed_spec);

  sim::Rng rng = bench::seeded_rng(seed);
  std::array<u64, 4> tally{};
  Ledger ledger;
  for (const char* series : c->extra_series) ledger[series] = 0;
  static constexpr bool kModes[] = {true, false};  // IPI, then poll

  for (u64 i = 0; i < num_plans; ++i) {
    const u64 plan_seed = seed * 1000 + i;
    const std::span<const Combo> combos =
        c->every_combo ? c->combos
                       : c->combos.subspan(i % c->combos.size(), 1);
    const std::span<const bool> modes =
        c->every_combo ? std::span(kModes)
                       : std::span(kModes).subspan(i % 2, 1);
    sim::FaultPlan plan;
    if (fixed_plan) {
      plan = *fixed_plan;
    } else {
      plan = c->draw(rng, i,
                     fixed_cores > 0 ? fixed_cores : combos[0].cores);
      plan.seed = plan_seed;
      plan.watchdog_ps = 500 * kPsPerMs;  // a hang must end typed
    }
    const std::string spec = plan.to_spec();
    std::printf("plan %3llu/%llu: %s\n", static_cast<ull>(i + 1),
                static_cast<ull>(num_plans),
                spec.empty() ? "(no faults)" : spec.c_str());
    for (const Combo& combo : combos) {
      for (const bool use_ipi : modes) {
        const Run run{combo, fixed_cores > 0 ? fixed_cores : combo.cores,
                      use_ipi, plan_seed, plan};
        const Verdict v = guarded(*c, run, ledger, print_reports);
        std::printf("  %3d cores %-9s %-4s -> %-10s %s\n", run.cores,
                    combo.name, use_ipi ? "ipi" : "poll",
                    outcome_name(v.outcome), v.detail.c_str());
        ++tally[static_cast<std::size_t>(v.outcome)];
      }
    }
  }

  const auto count = [&tally](Outcome o) {
    return tally[static_cast<std::size_t>(o)];
  };
  bench::print_row_sep();
  std::printf("%s campaign: %llu run(s): %llu correct, %llu typed loss, "
              "%llu clean hang(s), %llu WRONG",
              c->name,
              static_cast<ull>(tally[0] + tally[1] + tally[2] + tally[3]),
              static_cast<ull>(count(Outcome::kCorrect)),
              static_cast<ull>(count(Outcome::kTypedLoss)),
              static_cast<ull>(count(Outcome::kCleanHang)),
              static_cast<ull>(count(Outcome::kWrong)));
  for (const auto& [series, value] : ledger) {
    std::printf("; %s %llu", series.c_str(), static_cast<ull>(value));
  }
  std::printf("\n");

  json.sample("correct", static_cast<double>(count(Outcome::kCorrect)));
  json.sample("wrong", static_cast<double>(count(Outcome::kWrong)));
  json.sample(c->hang_series,
              static_cast<double>(count(Outcome::kCleanHang)));
  if (c->typed_loss_series != nullptr) {
    json.sample(c->typed_loss_series,
                static_cast<double>(count(Outcome::kTypedLoss)));
  }
  for (const auto& [series, value] : ledger) {
    json.sample(series, static_cast<double>(value));
  }

  const u64 broken = count(Outcome::kWrong) +
                     (c->hangs_allowed ? 0 : count(Outcome::kCleanHang));
  if (broken != 0) {
    std::fprintf(stderr, "%s campaign FAILED: %llu run(s) broke the "
                 "contract\n",
                 c->name, static_cast<ull>(broken));
    return 1;
  }
  std::printf("%s campaign passed: %s\n", c->name,
              c->hangs_allowed ? "every run correct, typed or a clean hang"
                               : "every run correct or typed, no hangs");
  return 0;
}
