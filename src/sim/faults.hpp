// Seeded, deterministic fault injection and the virtual-time watchdog.
//
// A FaultPlan is a small parsed record of *what* to break and *how* to
// notice it: probabilities for dropping/delaying IPIs, delaying/duplicating
// mailbox flag visibility, stalling cores, and spurious wakeups, plus the
// watchdog limit, the failure-detection lease and the integrity layer.
// Everything is default-off: a default-constructed plan injects nothing,
// arms no recovery envelope and no watchdog, so the simulation is
// bit-identical to a build without this subsystem.
//
// A plan that injects anything, detects failures or checks integrity
// arms the one recovery envelope (FaultPlan::recovery_armed): the IPI
// mailbox sweeps every slot on every 2nd timer tick, and protocol waits
// retransmit from a 2 ms base. It has no knobs of its own.
//
// The FaultInjector owns the plan plus one private xoshiro256** stream
// *per clause*, each seeded by a splitmix finalizer over (plan.seed,
// clause index). Because the simulator is single-threaded and
// deterministic, the sequence of injector queries is itself
// deterministic, so a (seed, plan) pair replays the exact same fault
// schedule every run — and because the streams are independent, adding
// a clause to a plan never perturbs the draws of the clauses already
// there.
//
// Spec grammar (CLI `--faults=` / env `MSVM_FAULTS`), comma- or
// whitespace-separated `key=value` tokens:
//
//   seed=N            RNG seed for the fault stream (default 1)
//   ipi_drop=P        drop each raised IPI with probability P
//   ipi_delay=P       delay each IPI by uniform(0,200us] with prob. P
//   mail_delay=P      hide a set mailbox flag for one check with prob. P
//   mail_dup=P        deliver a received mail twice with probability P
//   stall=P           stall a core uniform(0,50us] at a tick boundary
//   spurious=P        wake a halted core early with probability P
//   flipmail=P        flip one random bit in a delivered mail line with
//                     probability P
//   flippage=P        flip one random bit in a page frame at an
//                     ownership handoff with probability P
//   flipmeta=P        flip one random bit in an SVM meta word (owner /
//                     scratchpad / directory) at a store with prob. P
//   integrity=0|1     force the checksum/verify machinery on even with
//                     no flip clause armed (flips imply integrity)
//   scrub=0|1         background scrubber: walk idle sealed pages on
//                     every timer tick (implies integrity)
//   watchdog=DUR      per-core hang limit (0 = disabled)
//   kill=CORE@TIME    fail-stop core CORE permanently at virtual TIME
//                     (repeatable; the kill fires at the first tick
//                     boundary at or after TIME)
//   lease=DUR         heartbeat lease: a core silent for more than DUR
//                     is presumed dead (0 = no failure detection)
//
// DUR is an integer or decimal with a mandatory ns/us/ms/s suffix,
// e.g. `watchdog=500ms,ipi_drop=0.2,ipi_delay=0.1`. A kill-enabled
// plan reads `kill=3@10ms,lease=2ms,watchdog=500ms`.
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/bus.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/types.hpp"

namespace msvm::sim {

/// Thrown by FaultPlan::parse on a malformed spec string.
class FaultSpecError : public std::runtime_error {
 public:
  explicit FaultSpecError(const std::string& what)
      : std::runtime_error(what) {}
};

/// One scheduled fail-stop death: core `core` halts forever at the first
/// tick boundary at or after virtual time `at_ps`.
struct KillSpec {
  int core = 0;
  TimePs at_ps = 0;

  friend bool operator==(const KillSpec& a, const KillSpec& b) {
    return a.core == b.core && a.at_ps == b.at_ps;
  }
};

struct FaultPlan {
  u64 seed = 1;

  // Injection probabilities (all default 0: no faults).
  double ipi_drop = 0.0;
  double ipi_delay = 0.0;   // extra wire delay uniform(0, kIpiDelayMaxPs]
  double mail_delay = 0.0;
  double mail_dup = 0.0;
  double stall = 0.0;       // tick-boundary stall uniform(0, kStallMaxPs]
  double spurious = 0.0;

  // Corruption injection (the SDC fault domain; all default 0).
  double flipmail = 0.0;
  double flippage = 0.0;
  double flipmeta = 0.0;

  // Scheduled fail-stop deaths (default none). Kills are deterministic —
  // no RNG draw — so adding one perturbs nothing else in the schedule.
  std::vector<KillSpec> kills;

  // Detection / hardening knobs (all default off).
  TimePs watchdog_ps = 0;   // per-core hang limit; 0 disables the watchdog
  TimePs lease_ps = 0;      // heartbeat lease; 0 = no failure detection
  bool integrity = false;   // force checksums on without any flip clause
  bool scrub = false;       // background scrubber on every timer tick

  /// Upper bounds of the injected IPI delay and core stall.
  static constexpr TimePs kIpiDelayMaxPs = 200 * kPsPerUs;
  static constexpr TimePs kStallMaxPs = 50 * kPsPerUs;

  /// True when any injection is armed (probabilities, flips, or
  /// scheduled kills). Detection knobs (watchdog, lease, integrity,
  /// scrub) do not count: an armed watchdog with no faults must stay
  /// bit-identical.
  bool any_faults() const {
    return ipi_drop > 0 || ipi_delay > 0 || mail_delay > 0 || mail_dup > 0 ||
           stall > 0 || spurious > 0 || flipmail > 0 || flippage > 0 ||
           flipmeta > 0 || !kills.empty();
  }

  /// True when the integrity layer (mail CRCs, page seals, meta guards)
  /// must be armed: explicitly requested, needed by a scrubber, or
  /// implied by any flip clause — injected corruption without detection
  /// would be exactly the silent-wrong outcome the layer exists to kill.
  bool integrity_armed() const {
    return integrity || scrub || flipmail > 0 || flippage > 0 ||
           flipmeta > 0;
  }

  /// True when the plan runs the recovery envelope: the IPI mailbox's
  /// poll sweep every 2nd timer tick and the 2 ms retransmission base.
  /// Any injection, failure detection or integrity check arms it; a
  /// watchdog alone does not, so a watchdog-only run stays bit-identical
  /// to a plan-free one.
  bool recovery_armed() const {
    return any_faults() || lease_ps > 0 || integrity_armed();
  }

  /// Parses the spec grammar above. Throws FaultSpecError with the
  /// offending token on any malformed input. An empty spec is the
  /// default plan.
  static FaultPlan parse(const std::string& spec);

  /// parse() of the MSVM_FAULTS environment variable (default plan when
  /// unset or empty).
  static FaultPlan from_env();

  /// Canonical spec string for this plan (parse(to_spec()) round-trips).
  /// Empty for the default plan.
  std::string to_spec() const;
};

/// Host-side tally of what was actually injected during a run. The
/// three flip counters double as the corruption *ledger*: the campaign
/// gate reconciles them against the detection-side counters (corrupt
/// mail drops, seal mismatches, meta corrections) so no injected flip
/// can vanish unaccounted.
struct FaultStats {
  u64 ipis_dropped = 0;
  u64 ipis_delayed = 0;
  TimePs ipi_delay_ps = 0;
  u64 flags_delayed = 0;
  u64 mails_duplicated = 0;
  u64 stalls = 0;
  TimePs stall_ps = 0;
  u64 spurious_wakes = 0;
  u64 mail_flips = 0;
  u64 page_flips = 0;
  u64 meta_flips = 0;
};

/// Stable clause identities for the per-clause RNG sub-streams. The
/// numeric values are part of the determinism contract (they feed the
/// sub-seed derivation), so append only — never renumber.
enum class FaultClause : u32 {
  kIpiDrop = 0,
  kIpiDelay = 1,
  kMailDelay = 2,
  kMailDup = 3,
  kStall = 4,
  kSpurious = 5,
  kFlipMail = 6,
  kFlipPage = 7,
  kFlipMeta = 8,
  kCount = 9,
};

/// Derives the sub-seed for one clause's RNG stream: a splitmix64-style
/// finalizer over (seed, clause), so neighbouring clause indices land in
/// unrelated regions of seed space.
constexpr u64 fault_clause_seed(u64 seed, FaultClause clause) {
  u64 x = seed ^ (0x9e3779b97f4a7c15ull * (static_cast<u64>(clause) + 1));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The per-chip fault oracle. Hook points (gic raise, mailbox flag
/// check, core tick boundary, halt) call the query methods below; each
/// consumes RNG draws only when the corresponding probability is
/// non-zero, so a fault-free plan makes every query a branch on a
/// constant and perturbs nothing.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan)
      : plan_(plan), enabled_(plan.any_faults()) {
    for (u32 i = 0; i < static_cast<u32>(FaultClause::kCount); ++i) {
      streams_[i].reseed(
          fault_clause_seed(plan.seed, static_cast<FaultClause>(i)));
    }
  }

  const FaultPlan& plan() const { return plan_; }
  FaultStats& stats() { return stats_; }
  const FaultStats& stats() const { return stats_; }

  /// Cheap global gate: false for a fault-free plan, letting hook sites
  /// skip all queries with one predictable branch.
  bool enabled() const { return enabled_; }

  /// Should this raised IPI be dropped on the wire?
  bool drop_ipi() {
    Rng& rng = stream(FaultClause::kIpiDrop);
    if (plan_.ipi_drop <= 0 || !rng.next_bool(plan_.ipi_drop)) return false;
    ++stats_.ipis_dropped;
    return true;
  }

  /// Extra wire delay for this IPI (0 = deliver normally).
  TimePs ipi_extra_delay_ps() {
    Rng& rng = stream(FaultClause::kIpiDelay);
    if (plan_.ipi_delay <= 0 || !rng.next_bool(plan_.ipi_delay)) return 0;
    const TimePs d = 1 + static_cast<TimePs>(rng.next_below(
                             static_cast<u64>(FaultPlan::kIpiDelayMaxPs)));
    ++stats_.ipis_delayed;
    stats_.ipi_delay_ps += d;
    return d;
  }

  /// Should this set mailbox flag be reported as clear for one check?
  bool delay_flag() {
    Rng& rng = stream(FaultClause::kMailDelay);
    if (plan_.mail_delay <= 0 || !rng.next_bool(plan_.mail_delay)) {
      return false;
    }
    ++stats_.flags_delayed;
    return true;
  }

  /// Should this received mail be dispatched twice?
  bool duplicate_mail() {
    Rng& rng = stream(FaultClause::kMailDup);
    if (plan_.mail_dup <= 0 || !rng.next_bool(plan_.mail_dup)) return false;
    ++stats_.mails_duplicated;
    return true;
  }

  /// Bounded virtual-time stall to impose at a tick boundary (0 = none).
  TimePs stall_ps() {
    Rng& rng = stream(FaultClause::kStall);
    if (plan_.stall <= 0 || !rng.next_bool(plan_.stall)) return 0;
    const TimePs d = 1 + static_cast<TimePs>(rng.next_below(
                             static_cast<u64>(FaultPlan::kStallMaxPs)));
    ++stats_.stalls;
    stats_.stall_ps += d;
    return d;
  }

  /// Early-wake offset for a halted core: 0 = sleep normally, else wake
  /// uniform(0,max_gap) early. `max_gap` is the time until the real wake
  /// event, so the spurious wake never sleeps *longer* than intended.
  TimePs spurious_wake_ps(TimePs max_gap) {
    Rng& rng = stream(FaultClause::kSpurious);
    if (plan_.spurious <= 0 || max_gap <= 0 ||
        !rng.next_bool(plan_.spurious)) {
      return 0;
    }
    ++stats_.spurious_wakes;
    return 1 + static_cast<TimePs>(
                   rng.next_below(static_cast<u64>(max_gap)));
  }

  /// Bit to flip in a delivered mail line, or -1 to deliver intact.
  /// `nbits` is the flippable span (the payload + CRC bytes — never the
  /// flag byte, which is flow control, not data).
  int mail_flip_bit(u32 nbits) {
    if (plan_.flipmail <= 0 || nbits == 0) return -1;
    Rng& rng = stream(FaultClause::kFlipMail);
    if (!rng.next_bool(plan_.flipmail)) return -1;
    ++stats_.mail_flips;
    return static_cast<int>(rng.next_below(nbits));
  }

  /// Bit to flip in a page frame at an ownership handoff, or -1 to
  /// hand the frame over intact. `nbits` = page_bytes * 8.
  i64 page_flip_bit(u64 nbits) {
    if (plan_.flippage <= 0 || nbits == 0) return -1;
    Rng& rng = stream(FaultClause::kFlipPage);
    if (!rng.next_bool(plan_.flippage)) return -1;
    ++stats_.page_flips;
    return static_cast<i64>(rng.next_below(nbits));
  }

  /// Bit to flip in an SVM meta word being stored, or -1 to store it
  /// intact. `nbits` is the width of the stored word (16 or 64).
  int meta_flip_bit(u32 nbits) {
    if (plan_.flipmeta <= 0 || nbits == 0) return -1;
    Rng& rng = stream(FaultClause::kFlipMeta);
    if (!rng.next_bool(plan_.flipmeta)) return -1;
    ++stats_.meta_flips;
    return static_cast<int>(rng.next_below(nbits));
  }

 private:
  Rng& stream(FaultClause clause) {
    return streams_[static_cast<u32>(clause)];
  }

  FaultPlan plan_;
  Rng streams_[static_cast<u32>(FaultClause::kCount)];
  bool enabled_;
  FaultStats stats_;
};

/// Thrown by Chip::run when the watchdog trips: carries the structured
/// hang report so the failure is a typed error, never a silent hang or a
/// bare deadlock abort.
class HangError : public std::runtime_error {
 public:
  HangError(const std::string& what, std::string report)
      : std::runtime_error(what), report_(std::move(report)) {}
  const std::string& report() const { return report_; }

 private:
  std::string report_;
};

/// Per-core virtual-time watchdog. Wait loops call check() with the
/// virtual time the wait started; when now-since exceeds the limit the
/// watchdog builds a structured hang report (blocked actors + their
/// wait sites, then every registered provider's section — SVM owner
/// words, trace rings, mailbox stats), asks the scheduler to stop, and
/// returns true. The tripping actor must then park itself (block());
/// teardown unwinds everyone, and Chip::run rethrows as HangError.
///
/// All checks are host-side only: an armed watchdog that never trips
/// costs zero simulated time and changes no outputs.
class Watchdog {
 public:
  Watchdog(Scheduler& sched, TimePs limit_ps)
      : sched_(sched), limit_(limit_ps) {}

  bool enabled() const { return limit_ > 0; }
  TimePs limit_ps() const { return limit_; }

  /// Routes the trip event onto the chip's observability bus (the chip
  /// binds its own bus at construction).
  void bind_bus(obs::EventBus* bus) { bus_ = bus; }

  /// Registers a diagnostics section appended to the hang report (e.g.
  /// the SVM runtime dumps owner vectors and its protocol trace ring).
  void add_provider(std::function<void(std::string&)> fn) {
    providers_.push_back(std::move(fn));
  }

  /// Returns true when the wait that began at `since` has exceeded the
  /// hang limit; records the report and requests a scheduler stop.
  /// `site`/`core_id` name the wait that noticed the hang first.
  bool check(TimePs now, TimePs since, const char* site, int core_id);

  bool tripped() const { return tripped_; }
  const std::string& report() const { return report_; }

 private:
  Scheduler& sched_;
  TimePs limit_;
  obs::EventBus* bus_ = nullptr;
  bool tripped_ = false;
  std::string report_;
  std::vector<std::function<void(std::string&)>> providers_;
};

}  // namespace msvm::sim
