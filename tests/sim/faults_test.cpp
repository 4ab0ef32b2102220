// Unit tests for the chaos layer's spec parsing, injector determinism,
// and the virtual-time watchdog (driven through a bare scheduler).
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/faults.hpp"
#include "sim/scheduler.hpp"

namespace msvm::sim {
namespace {

TEST(FaultPlanParse, EmptySpecIsDefaultPlan) {
  const FaultPlan p = FaultPlan::parse("");
  EXPECT_FALSE(p.any_faults());
  EXPECT_EQ(p.watchdog_ps, 0u);
  EXPECT_FALSE(p.recovery_armed());
  EXPECT_TRUE(p.to_spec().empty());
}

TEST(FaultPlanParse, FullSpecRoundTripsThroughToSpec) {
  const char* spec =
      "seed=9,ipi_drop=0.25,ipi_delay=0.1,mail_delay=0.05,mail_dup=0.02,"
      "stall=0.3,spurious=0.01,watchdog=500ms";
  const FaultPlan p = FaultPlan::parse(spec);
  EXPECT_EQ(p.seed, 9u);
  EXPECT_DOUBLE_EQ(p.ipi_drop, 0.25);
  EXPECT_DOUBLE_EQ(p.ipi_delay, 0.1);
  EXPECT_DOUBLE_EQ(p.mail_delay, 0.05);
  EXPECT_DOUBLE_EQ(p.mail_dup, 0.02);
  EXPECT_DOUBLE_EQ(p.stall, 0.3);
  EXPECT_DOUBLE_EQ(p.spurious, 0.01);
  EXPECT_EQ(p.watchdog_ps, 500 * kPsPerMs);
  EXPECT_TRUE(p.any_faults());

  // to_spec() must parse back to the identical plan, in the same words.
  const FaultPlan q = FaultPlan::parse(p.to_spec());
  EXPECT_EQ(p.to_spec(), spec);
  EXPECT_EQ(q.to_spec(), p.to_spec());
  EXPECT_EQ(q.seed, p.seed);
  EXPECT_EQ(q.watchdog_ps, p.watchdog_ps);
  EXPECT_DOUBLE_EQ(q.ipi_drop, p.ipi_drop);
}

TEST(FaultPlanParse, WhitespaceSeparatorsWork) {
  const FaultPlan p = FaultPlan::parse("ipi_drop=0.1 watchdog=10ms");
  EXPECT_DOUBLE_EQ(p.ipi_drop, 0.1);
  EXPECT_EQ(p.watchdog_ps, 10 * kPsPerMs);
}

TEST(FaultPlanParse, MalformedSpecsThrowTypedErrors) {
  EXPECT_THROW(FaultPlan::parse("bogus_key=1"), FaultSpecError);
  EXPECT_THROW(FaultPlan::parse("ipi_drop"), FaultSpecError);
  EXPECT_THROW(FaultPlan::parse("ipi_drop=1.5"), FaultSpecError);
  EXPECT_THROW(FaultPlan::parse("ipi_drop=-0.1"), FaultSpecError);
  EXPECT_THROW(FaultPlan::parse("watchdog=500"), FaultSpecError);  // no unit
  EXPECT_THROW(FaultPlan::parse("watchdog=abcms"), FaultSpecError);
  EXPECT_THROW(FaultPlan::parse("stall=0.5:0ms"), FaultSpecError);
}

TEST(FaultPlanParse, KillAndLeaseClausesRoundTrip) {
  const FaultPlan p = FaultPlan::parse(
      "kill=3@10ms,kill=17@1234567ns,lease=2ms,watchdog=500ms");
  ASSERT_EQ(p.kills.size(), 2u);
  EXPECT_EQ(p.kills[0].core, 3);
  EXPECT_EQ(p.kills[0].at_ps, 10 * kPsPerMs);
  EXPECT_EQ(p.kills[1].core, 17);
  EXPECT_EQ(p.kills[1].at_ps, 1234567 * kPsPerNs);
  EXPECT_EQ(p.lease_ps, 2 * kPsPerMs);
  EXPECT_TRUE(p.any_faults());  // scheduled kills are faults

  const FaultPlan q = FaultPlan::parse(p.to_spec());
  EXPECT_EQ(q.to_spec(), p.to_spec());
  EXPECT_EQ(q.kills, p.kills);
  EXPECT_EQ(q.lease_ps, p.lease_ps);
}

TEST(FaultPlanParse, LeaseAloneIsNotAFault) {
  const FaultPlan p = FaultPlan::parse("lease=1ms");
  EXPECT_FALSE(p.any_faults());  // detection is a recovery knob
}

// Table-driven rejection: every malformed spec must throw a typed
// FaultSpecError whose message names the offending token — never parse
// to a silently-wrong plan.
TEST(FaultPlanParse, MalformedSpecsRejectedWithOffendingToken) {
  struct BadSpec {
    const char* spec;
    const char* why;
    const char* in_msg;  // substring the error message must carry
  };
  static constexpr BadSpec kBad[] = {
      {"bogus_key=1", "unknown key", "bogus_key"},
      {"=1ms", "empty key", "unknown key"},
      {"kill", "key without value", "key=value"},
      {"kill=3", "kill missing @TIME", "CORE@TIME"},
      {"kill=@5ms", "kill missing core", "kill=@5ms"},
      {"kill=x@5ms", "kill non-numeric core", "kill=x@5ms"},
      {"kill=-1@5ms", "kill negative core", "kill=-1@5ms"},
      {"kill=3@", "kill empty time", "kill=3@"},
      {"kill=3@5", "kill time without unit", "suffix"},
      {"kill=3@0ms", "kill time must be positive", "positive"},
      {"kill=3@5parsecs", "kill bogus unit", "suffix"},
      {"kill=200000@5ms", "implausible core id", "implausible"},
      {"kill=3@999999999s", "kill time past the virtual clock", "too large"},
      {"lease=", "lease empty duration", "lease="},
      {"lease=5", "lease without unit", "suffix"},
      {"lease=abcms", "lease non-numeric", "lease=abcms"},
      {"lease=0x10ms", "lease hex spelling", "lease=0x10ms"},
      {"lease=-2ms", "lease negative", "lease=-2ms"},
      {"seed=", "seed empty", "seed="},
      {"seed=12x", "seed trailing garbage", "seed=12x"},
      {"watchdog=nan", "watchdog NaN", "watchdog=nan"},
      {"kill=3@1ms,lease=oops", "second token malformed", "lease=oops"},
  };
  for (const BadSpec& b : kBad) {
    try {
      FaultPlan::parse(b.spec);
      FAIL() << "expected FaultSpecError for '" << b.spec << "' (" << b.why
             << ")";
    } catch (const FaultSpecError& e) {
      // The message must point at the offending token so a user can find
      // the typo in a long spec string.
      EXPECT_NE(std::string(e.what()).find(b.in_msg), std::string::npos)
          << "spec '" << b.spec << "' (" << b.why << "): " << e.what();
    }
  }
}

TEST(FaultPlanParse, RecoveryKnobsAloneAreNotFaults) {
  const FaultPlan p =
      FaultPlan::parse("watchdog=100ms,lease=1ms,integrity=1,scrub=1");
  EXPECT_FALSE(p.any_faults());
}

// The recovery envelope (poll sweep, fast retransmission) is armed by
// any injection, a kill, failure detection or integrity checking, and by
// nothing else: a watchdog-only plan must stay bit-identical to no plan.
TEST(FaultPlanParse, RecoveryArmedTruthTable) {
  struct Row {
    const char* spec;
    bool armed;
  };
  static constexpr Row kRows[] = {
      {"", false},
      {"watchdog=500ms", false},
      {"seed=7,watchdog=50ms", false},
      {"integrity=0", false},
      {"ipi_drop=0.1", true},
      {"ipi_delay=0.1", true},
      {"mail_delay=0.1", true},
      {"mail_dup=0.1", true},
      {"stall=0.1", true},
      {"spurious=0.1", true},
      {"flipmail=0.1", true},
      {"flippage=0.1", true},
      {"flipmeta=0.1", true},
      {"kill=3@1ms", true},
      {"lease=500us", true},
      {"integrity=1", true},
      {"scrub=1", true},
  };
  for (const Row& r : kRows) {
    EXPECT_EQ(FaultPlan::parse(r.spec).recovery_armed(), r.armed)
        << "'" << r.spec << "'";
  }
}

// The recovery envelope, the flipmail target, the delay/stall bounds
// and the scrub cadence are constants, not knobs: spelling one as a
// knob must fail loudly, never parse to a plan that silently ignores it.
TEST(FaultPlanParse, ConstantsSpelledAsKnobsAreRejectedByToken) {
  static constexpr const char* kNotKnobs[] = {
      "sweep=2",        "degrade=6",           "retry=2ms",
      "flipmail=0.1@7", "stall=0.5:10us",      "ipi_delay=0.1:200us",
      "scrub=200us",
  };
  for (const char* spec : kNotKnobs) {
    try {
      FaultPlan::parse(std::string("watchdog=500ms,") + spec);
      FAIL() << "expected FaultSpecError for '" << spec << "'";
    } catch (const FaultSpecError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + spec + "'"),
                std::string::npos)
          << "spec '" << spec << "': " << e.what();
    }
  }
}

TEST(FaultPlanParse, FlipClausesRoundTripThroughToSpec) {
  const FaultPlan p = FaultPlan::parse(
      "seed=5,flipmail=0.02,flippage=0.2,flipmeta=0.01,scrub=1,"
      "watchdog=500ms");
  EXPECT_DOUBLE_EQ(p.flipmail, 0.02);
  EXPECT_DOUBLE_EQ(p.flippage, 0.2);
  EXPECT_DOUBLE_EQ(p.flipmeta, 0.01);
  EXPECT_TRUE(p.scrub);
  EXPECT_TRUE(p.any_faults());
  EXPECT_TRUE(p.integrity_armed());

  const FaultPlan q = FaultPlan::parse(p.to_spec());
  EXPECT_EQ(q.to_spec(), p.to_spec());
  EXPECT_DOUBLE_EQ(q.flipmail, p.flipmail);
  EXPECT_DOUBLE_EQ(q.flippage, p.flippage);
  EXPECT_DOUBLE_EQ(q.flipmeta, p.flipmeta);
  EXPECT_EQ(q.scrub, p.scrub);
}

TEST(FaultPlanParse, IntegrityKnobsAloneAreNotFaults) {
  // Checksums without injection: byte-identical data, just guarded — so
  // any_faults (the injection gate) stays false while integrity_armed
  // (the detection gate) turns on.
  for (const char* spec : {"integrity=1", "scrub=1"}) {
    const FaultPlan p = FaultPlan::parse(spec);
    EXPECT_FALSE(p.any_faults()) << spec;
    EXPECT_TRUE(p.integrity_armed()) << spec;
  }
  // Every flip clause implies the detection layer: injecting corruption
  // nobody checks for would be the silent-wrong outcome itself.
  for (const char* spec : {"flipmail=0.1", "flippage=0.1", "flipmeta=0.1"}) {
    const FaultPlan p = FaultPlan::parse(spec);
    EXPECT_TRUE(p.any_faults()) << spec;
    EXPECT_TRUE(p.integrity_armed()) << spec;
  }
  EXPECT_FALSE(FaultPlan::parse("integrity=0").integrity_armed());
  EXPECT_FALSE(FaultPlan::parse("scrub=0").integrity_armed());
}

TEST(FaultPlanParse, MalformedFlipClausesRejectedWithOffendingToken) {
  struct BadSpec {
    const char* spec;
    const char* why;
    const char* in_msg;
  };
  static constexpr BadSpec kBad[] = {
      {"flipmail=", "flipmail empty probability", "flipmail="},
      {"flipmail=1.5", "flipmail probability above 1", "outside [0,1]"},
      {"flipmail=-0.1", "flipmail negative probability", "outside [0,1]"},
      {"flipmail=nan", "flipmail NaN", "outside [0,1]"},
      {"flipmail=0.1@", "flipmail trailing @", "flipmail=0.1@"},
      {"flippage=2", "flippage probability above 1", "outside [0,1]"},
      {"flippage=0.1@3", "flippage takes no core filter", "outside [0,1]"},
      {"flipmeta=oops", "flipmeta non-numeric", "flipmeta=oops"},
      {"integrity=yes", "integrity non-boolean", "expected 0 or 1"},
      {"integrity=2", "integrity out of range", "expected 0 or 1"},
      {"scrub=2", "scrub out of range", "expected 0 or 1"},
      {"scrub=-1ms", "scrub duration", "scrub=-1ms"},
  };
  for (const BadSpec& b : kBad) {
    try {
      FaultPlan::parse(b.spec);
      FAIL() << "expected FaultSpecError for '" << b.spec << "' (" << b.why
             << ")";
    } catch (const FaultSpecError& e) {
      EXPECT_NE(std::string(e.what()).find(b.in_msg), std::string::npos)
          << "spec '" << b.spec << "' (" << b.why << "): " << e.what();
    }
  }
}

TEST(FaultInjector, DisabledPlanNeverInjects) {
  FaultInjector inj{FaultPlan{}};
  EXPECT_FALSE(inj.enabled());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(inj.drop_ipi());
    EXPECT_EQ(inj.ipi_extra_delay_ps(), 0u);
    EXPECT_FALSE(inj.delay_flag());
    EXPECT_FALSE(inj.duplicate_mail());
    EXPECT_EQ(inj.stall_ps(), 0u);
    EXPECT_EQ(inj.spurious_wake_ps(kPsPerMs), 0u);
    EXPECT_EQ(inj.mail_flip_bit(248), -1);
    EXPECT_EQ(inj.page_flip_bit(4096 * 8), -1);
    EXPECT_EQ(inj.meta_flip_bit(16), -1);
  }
  EXPECT_EQ(inj.stats().ipis_dropped, 0u);
  EXPECT_EQ(inj.stats().stalls, 0u);
}

TEST(FaultInjector, SameSeedReplaysTheSameFaultSchedule) {
  const FaultPlan plan = FaultPlan::parse(
      "seed=77,ipi_drop=0.3,mail_delay=0.2,stall=0.1");
  FaultInjector a{plan};
  FaultInjector b{plan};
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.drop_ipi(), b.drop_ipi());
    EXPECT_EQ(a.delay_flag(), b.delay_flag());
    EXPECT_EQ(a.stall_ps(), b.stall_ps());
  }
  EXPECT_EQ(a.stats().ipis_dropped, b.stats().ipis_dropped);
  EXPECT_GT(a.stats().ipis_dropped, 0u);
  EXPECT_GT(a.stats().flags_delayed, 0u);
  EXPECT_GT(a.stats().stalls, 0u);
}

TEST(FaultInjector, DelaysAndStallsStayWithinTheirFixedBounds) {
  // ipi_delay= and stall= take a probability only; the drawn length is
  // uniform over (0, bound] with the bound a constant of the plan.
  FaultInjector inj{FaultPlan::parse("seed=5,ipi_delay=0.5,stall=0.5")};
  TimePs max_delay = 0;
  TimePs max_stall = 0;
  for (int i = 0; i < 4000; ++i) {
    max_delay = std::max(max_delay, inj.ipi_extra_delay_ps());
    max_stall = std::max(max_stall, inj.stall_ps());
  }
  EXPECT_LE(max_delay, FaultPlan::kIpiDelayMaxPs);
  EXPECT_LE(max_stall, FaultPlan::kStallMaxPs);
  // The draws reach the top decile of each range, so the bound is the
  // one in use rather than a smaller one.
  EXPECT_GT(max_delay, FaultPlan::kIpiDelayMaxPs * 9 / 10);
  EXPECT_GT(max_stall, FaultPlan::kStallMaxPs * 9 / 10);
}

TEST(FaultInjector, SameSeedReplaysTheSameFlipSchedule) {
  const FaultPlan plan = FaultPlan::parse(
      "seed=11,flipmail=0.3,flippage=0.2,flipmeta=0.25");
  FaultInjector a{plan};
  FaultInjector b{plan};
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.mail_flip_bit(248), b.mail_flip_bit(248));
    EXPECT_EQ(a.page_flip_bit(4096 * 8), b.page_flip_bit(4096 * 8));
    EXPECT_EQ(a.meta_flip_bit(16), b.meta_flip_bit(16));
  }
  EXPECT_EQ(a.stats().mail_flips, b.stats().mail_flips);
  EXPECT_GT(a.stats().mail_flips, 0u);
  EXPECT_GT(a.stats().page_flips, 0u);
  EXPECT_GT(a.stats().meta_flips, 0u);
}

TEST(FaultInjector, ClauseSubStreamsAreIndependent) {
  // The determinism contract behind per-clause sub-seeds: arming an
  // extra clause must not perturb the draws of the clauses already in
  // the plan, even when the queries interleave.
  FaultInjector just_mail{FaultPlan::parse("seed=3,flipmail=0.2")};
  FaultInjector mail_and_more{FaultPlan::parse(
      "seed=3,flipmail=0.2,flippage=0.5,flipmeta=0.5,ipi_drop=0.4")};
  for (int i = 0; i < 2000; ++i) {
    const int expect = just_mail.mail_flip_bit(248);
    mail_and_more.page_flip_bit(4096 * 8);
    mail_and_more.drop_ipi();
    EXPECT_EQ(mail_and_more.mail_flip_bit(248), expect) << i;
    mail_and_more.meta_flip_bit(64);
  }
  EXPECT_EQ(mail_and_more.stats().mail_flips, just_mail.stats().mail_flips);
}

TEST(FaultInjector, ClauseSeedsAreDistinct) {
  // The sub-seed finalizer must spread neighbouring clause indices apart;
  // a collision would correlate two clauses' schedules.
  for (u32 i = 0; i < static_cast<u32>(FaultClause::kCount); ++i) {
    for (u32 j = i + 1; j < static_cast<u32>(FaultClause::kCount); ++j) {
      EXPECT_NE(fault_clause_seed(42, static_cast<FaultClause>(i)),
                fault_clause_seed(42, static_cast<FaultClause>(j)));
    }
  }
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultInjector a{FaultPlan::parse("seed=1,ipi_drop=0.5")};
  FaultInjector b{FaultPlan::parse("seed=2,ipi_drop=0.5")};
  for (int i = 0; i < 500; ++i) {
    a.drop_ipi();
    b.drop_ipi();
  }
  EXPECT_NE(a.stats().ipis_dropped, b.stats().ipis_dropped);
}

TEST(Watchdog, DisabledWatchdogNeverTrips) {
  Scheduler sched;
  Watchdog wd(sched, 0);
  EXPECT_FALSE(wd.enabled());
  EXPECT_FALSE(wd.check(kPsPerSec, 0, "test.site", 0));
  EXPECT_FALSE(wd.tripped());
}

TEST(Watchdog, TripsPastTheLimitAndRequestsStop) {
  Scheduler sched;
  Watchdog wd(sched, 10 * kPsPerMs);
  ASSERT_TRUE(wd.enabled());
  // Within the limit: no trip.
  EXPECT_FALSE(wd.check(5 * kPsPerMs, 0, "test.site", 2));
  EXPECT_FALSE(sched.stop_requested());
  // Past the limit: trips, records a report, asks the scheduler to stop.
  bool provider_ran = false;
  wd.add_provider([&provider_ran](std::string& out) {
    provider_ran = true;
    out += "provider-section\n";
  });
  EXPECT_TRUE(wd.check(11 * kPsPerMs, 0, "test.site", 2));
  EXPECT_TRUE(wd.tripped());
  EXPECT_TRUE(sched.stop_requested());
  EXPECT_TRUE(provider_ran);
  EXPECT_NE(wd.report().find("test.site"), std::string::npos);
  EXPECT_NE(wd.report().find("provider-section"), std::string::npos);
  // Once tripped, every later check reports tripped immediately so the
  // caller parks instead of spinning on.
  EXPECT_TRUE(wd.check(11 * kPsPerMs + 1, 11 * kPsPerMs, "other", 0));
}

TEST(Watchdog, HangReportNamesBlockedActorsAndSites) {
  Scheduler sched;
  Watchdog wd(sched, kPsPerMs);
  sched.spawn("stuck-actor", [&sched] {
    BlockScope scope(sched.current(), "test.wait", 42, 7);
    sched.block();  // parked forever; cancelled at teardown
  });
  // Drive the actor to its block() by running until the stop request.
  // (block() leaves no timeout, so run() would throw DeadlockError; the
  // watchdog check below runs host-side before that.)
  EXPECT_TRUE(wd.check(2 * kPsPerMs, 0, "main.site", 0));
  const std::string& r = wd.report();
  EXPECT_NE(r.find("stuck-actor"), std::string::npos);
  sched.cancel_all();
}

TEST(Scheduler, DeadlockAbortEnumeratesBlockedActorsAndSites) {
  Scheduler sched;
  sched.spawn("blocked-a", [&sched] {
    BlockScope scope(sched.current(), "site.alpha", 1, 2);
    sched.block();
  });
  sched.spawn("blocked-b", [&sched] {
    BlockScope scope(sched.current(), "site.beta", 3, 4);
    sched.block();
  });
  try {
    sched.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("blocked-a"), std::string::npos);
    EXPECT_NE(msg.find("site.alpha(1,2)"), std::string::npos);
    EXPECT_NE(msg.find("blocked-b"), std::string::npos);
    EXPECT_NE(msg.find("site.beta(3,4)"), std::string::npos);
  }
  sched.cancel_all();
}

TEST(BlockScope, NestedSitesReportInnermostFirst) {
  Scheduler sched;
  std::string described;
  sched.spawn("nester", [&] {
    BlockScope outer(sched.current(), "outer.op", 1, 0);
    BlockScope inner(sched.current(), "inner.wait", 2, 0);
    described = sched.current()->describe_sites();
  });
  sched.run();
  EXPECT_EQ(described, "inner.wait(2,0) <- outer.op(1,0)");
}

}  // namespace
}  // namespace msvm::sim
