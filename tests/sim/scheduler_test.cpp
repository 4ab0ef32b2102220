// Unit tests for the discrete-event scheduler: ordering, determinism,
// block/wake semantics, timeouts and deadlock detection.
#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace msvm::sim {
namespace {

TEST(Scheduler, SingleActorRunsToCompletion) {
  Scheduler s;
  int ran = 0;
  s.spawn("a", [&] { ran = 1; });
  s.run();
  EXPECT_EQ(ran, 1);
}

TEST(Scheduler, EarliestClockRunsFirst) {
  Scheduler s;
  std::vector<std::string> order;
  s.spawn("late", [&] { order.push_back("late"); }, /*start=*/100);
  s.spawn("early", [&] { order.push_back("early"); }, /*start=*/10);
  s.spawn("mid", [&] { order.push_back("mid"); }, /*start=*/50);
  s.run();
  EXPECT_EQ(order, (std::vector<std::string>{"early", "mid", "late"}));
}

TEST(Scheduler, TieBrokenByActorId) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.spawn("a" + std::to_string(i), [&, i] { order.push_back(i); }, 42);
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, YieldInterleavesByVirtualTime) {
  // Actor A advances 10 ps per step, B advances 25 ps per step. After each
  // step they yield; the merged event order must follow virtual time.
  Scheduler s;
  std::vector<std::pair<char, TimePs>> trace;
  s.spawn("A", [&] {
    Actor* self = s.current();
    for (int i = 0; i < 4; ++i) {
      self->advance(10);
      trace.emplace_back('A', self->clock());
      s.yield();
    }
  });
  s.spawn("B", [&] {
    Actor* self = s.current();
    for (int i = 0; i < 2; ++i) {
      self->advance(25);
      trace.emplace_back('B', self->clock());
      s.yield();
    }
  });
  s.run();
  // Each resume picks the actor with the smallest clock, and a resumed
  // actor commits one whole step before yielding; skew is therefore
  // bounded by a single step. Trace: A runs first (tie at t=0, lower id),
  // commits A@10 and yields; B (still at 0) commits B@25; then A@20, A@30;
  // B@50 runs before A's last step because A had reached 30 > 25.
  std::vector<std::pair<char, TimePs>> expect = {
      {'A', 10}, {'B', 25}, {'A', 20}, {'A', 30}, {'B', 50}, {'A', 40}};
  EXPECT_EQ(trace, expect);
  // Per-actor times are strictly monotone regardless of interleaving.
  TimePs last_a = 0;
  TimePs last_b = 0;
  for (const auto& [who, t] : trace) {
    TimePs& last = who == 'A' ? last_a : last_b;
    EXPECT_GT(t, last);
    last = t;
  }
}

TEST(Scheduler, MaybeYieldSkipsSwitchWhenAlreadyEarliest) {
  Scheduler s;
  bool switched = true;
  s.spawn("solo", [&] {
    s.current()->advance(5);
    switched = s.maybe_yield();
  });
  s.run();
  EXPECT_FALSE(switched);  // no other actor could be earlier
}

TEST(Scheduler, MaybeYieldSwitchesWhenSomeoneEarlier) {
  Scheduler s;
  std::vector<char> order;
  s.spawn("ahead", [&] {
    s.current()->advance(100);
    EXPECT_TRUE(s.maybe_yield());  // "behind" is at t=0
    order.push_back('a');
  });
  s.spawn("behind", [&] { order.push_back('b'); });
  s.run();
  EXPECT_EQ(order, (std::vector<char>{'b', 'a'}));
}

TEST(Scheduler, BlockAndWakeTransfersTimestamp) {
  Scheduler s;
  TimePs resumed_at = 0;
  WakeReason reason{};
  Actor* sleeper = nullptr;
  sleeper = &s.spawn("sleeper", [&] {
    reason = s.block();
    resumed_at = s.current()->clock();
  });
  s.spawn("waker", [&] {
    s.current()->advance(500);
    s.wake(*sleeper, s.current()->clock());
  });
  s.run();
  EXPECT_EQ(reason, WakeReason::kWoken);
  EXPECT_EQ(resumed_at, 500u);  // clock pulled forward to the wake time
}

TEST(Scheduler, WakeNeverMovesClockBackwards) {
  Scheduler s;
  TimePs resumed_at = 0;
  Actor* sleeper = nullptr;
  sleeper = &s.spawn("sleeper", [&] {
    s.current()->advance(1000);
    s.block();
    resumed_at = s.current()->clock();
  });
  s.spawn("waker", [&] {
    // Waker is behind the sleeper; the wake must not rewind the sleeper.
    s.current()->advance(10);
    s.wake(*sleeper, s.current()->clock());
  });
  s.run();
  EXPECT_EQ(resumed_at, 1000u);
}

TEST(Scheduler, BlockUntilTimesOut) {
  Scheduler s;
  WakeReason reason{};
  TimePs at = 0;
  s.spawn("sleeper", [&] {
    reason = s.block_until(777);
    at = s.current()->clock();
  });
  s.run();
  EXPECT_EQ(reason, WakeReason::kTimeout);
  EXPECT_EQ(at, 777u);
}

TEST(Scheduler, BlockUntilWokenBeforeDeadline) {
  Scheduler s;
  WakeReason reason{};
  TimePs at = 0;
  Actor* sleeper = nullptr;
  sleeper = &s.spawn("sleeper", [&] {
    reason = s.block_until(1'000'000);
    at = s.current()->clock();
  });
  s.spawn("waker", [&] {
    s.current()->advance(300);
    s.wake(*sleeper, s.current()->clock());
  });
  s.run();
  EXPECT_EQ(reason, WakeReason::kWoken);
  EXPECT_EQ(at, 300u);
  // The stale timeout entry must not resurrect the actor; run() returning
  // with all actors finished proves it was discarded.
}

TEST(Scheduler, WakeOnScheduledActorIsNoOp) {
  Scheduler s;
  int runs = 0;
  Actor* a = nullptr;
  a = &s.spawn("a", [&] {
    ++runs;
    s.yield();
    ++runs;
  });
  s.spawn("b", [&] {
    s.current()->advance(1);
    s.wake(*a, 0);  // a is scheduled, not blocked
  });
  s.run();
  EXPECT_EQ(runs, 2);
}

TEST(Scheduler, DeadlockDetected) {
  Scheduler s;
  s.spawn("a", [&] { s.block(); });
  s.spawn("b", [&] { s.block(); });
  EXPECT_THROW(s.run(), DeadlockError);
}

TEST(Scheduler, PingPongBetweenTwoActors) {
  // The canonical lost-wakeup-safe pattern every higher layer (mailbox,
  // SVM ownership transfer) uses: set a flag, then wake; the waiter
  // re-checks the flag around block().
  Scheduler s;
  int volleys = 0;
  bool ball_at_a = false;
  bool ball_at_b = false;
  Actor* a = nullptr;
  Actor* b = nullptr;
  a = &s.spawn("a", [&] {
    for (int i = 0; i < 10; ++i) {
      s.current()->advance(10);
      ball_at_b = true;
      s.wake(*b, s.current()->clock());
      while (!ball_at_a) s.block();
      ball_at_a = false;
    }
  });
  b = &s.spawn("b", [&] {
    for (int i = 0; i < 10; ++i) {
      while (!ball_at_b) s.block();
      ball_at_b = false;
      s.current()->advance(10);
      ++volleys;
      ball_at_a = true;
      s.wake(*a, s.current()->clock());
    }
  });
  s.run();
  EXPECT_EQ(volleys, 10);
}

TEST(Scheduler, DeterministicAcrossRuns) {
  auto run_once = [] {
    Scheduler s;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
      s.spawn("w" + std::to_string(i), [&, i] {
        for (int k = 0; k < 5; ++k) {
          s.current()->advance((i * 37 + k * 11) % 23 + 1);
          order.push_back(i * 100 + k);
          s.yield();
        }
      });
    }
    s.run();
    return order;
  };
  const auto first = run_once();
  for (int rep = 0; rep < 3; ++rep) EXPECT_EQ(run_once(), first);
}

TEST(Scheduler, SpawnFromInsideActor) {
  Scheduler s;
  std::vector<std::string> order;
  s.spawn("parent", [&] {
    order.push_back("parent");
    s.current()->advance(10);
    s.spawn("child", [&] { order.push_back("child"); },
            s.current()->clock());
    s.yield();
    order.push_back("parent2");
  });
  s.run();
  // Tie at t=10 is broken by actor id, so the parent resumes before the
  // child runs.
  EXPECT_EQ(order,
            (std::vector<std::string>{"parent", "parent2", "child"}));
}

TEST(Scheduler, WakeStormKeepsHeapBounded) {
  // Regression test for the stale-entry pathology: the old scheduler
  // queued a fresh generation-stamped heap entry on every wake() and
  // left the superseded one behind as a tombstone, so a wake storm on
  // blocked-with-timeout actors grew the heap without bound until the
  // pops caught up. The indexed heap re-keys in place: at any instant
  // there is at most one entry per actor, so the heap can never exceed
  // the actor count no matter how many wakes land.
  Scheduler s;
  constexpr int kSleepers = 32;
  constexpr u64 kRounds = 200;
  std::vector<Actor*> sleepers;
  u64 woken = 0;
  for (int i = 0; i < kSleepers; ++i) {
    sleepers.push_back(&s.spawn("sleeper" + std::to_string(i), [&] {
      while (s.current()->clock() < 1'000'000) {
        if (s.block_until(s.current()->clock() + 10'000) ==
            WakeReason::kWoken) {
          ++woken;
        }
      }
    }));
  }
  std::size_t max_heap = 0;
  s.spawn("storm", [&] {
    u32 lcg = 0xdecafu;
    for (u64 r = 0; r < kRounds; ++r) {
      // A burst of wakes, many re-keying the same still-blocked actors
      // repeatedly — exactly the churn that used to pile up tombstones.
      for (int k = 0; k < kSleepers * 4; ++k) {
        lcg = lcg * 1664525u + 1013904223u;
        Actor& target = *sleepers[lcg % kSleepers];
        s.wake(target, s.current()->clock() + 1 + lcg % 97);
        max_heap = std::max(max_heap, s.heap_size());
      }
      s.current()->advance(4'000);
      s.yield();
    }
  });
  s.run();
  EXPECT_GT(woken, 0u);
  // +1 for the storm actor itself. The old implementation peaked at
  // thousands of entries under this load.
  EXPECT_LE(max_heap, static_cast<std::size_t>(kSleepers) + 1);
}

}  // namespace
}  // namespace msvm::sim
