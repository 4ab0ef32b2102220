// Discrete-event scheduler for simulated cores.
//
// Every simulated core runs as an Actor: a fiber with a private virtual
// clock (picoseconds). The scheduler always resumes the schedulable actor
// with the smallest clock (ties broken by actor id), which makes the whole
// simulation deterministic and keeps inter-core virtual-time skew bounded
// by the cores' yield quantum.
//
// Actors advance their own clocks while running (plain function calls, no
// events) and interact with the scheduler only at synchronisation points:
//   yield()        - reinsert at own clock, let earlier actors run
//   maybe_yield()  - fast path: switch only if someone is strictly earlier
//   block()        - suspend until another actor calls wake()
//   block_until(t) - suspend with a timeout at virtual time t
//   wake(a, t)     - make a blocked actor schedulable at time >= t
//
// Event-core layout: the ready/timeout queue is an *indexed* binary heap —
// a flat vector of (time, id, actor) entries plus a heap-position index
// stored in each Actor. Entries are moved in place (sift up/down) when an
// actor is re-keyed by wake(), so the heap holds at most one entry per
// live actor at all times: no stale-generation tombstones, no pop-time
// skip loops, and maybe_yield() is an O(1) read of the root entry and of
// the timing wheel's earliest (below), both always live and exact. Actor
// switches transfer fiber-to-fiber directly (one context switch), only
// falling back to the main run() loop when no entry is queued or a stop
// is requested; yield() by an actor that is still the earliest runnable
// is a plain return with no queue traffic at all.
//
// One order, always: every actor of a run shares this single exact
// (time, id) order, whatever the core count. Shared functional state
// (TAS registers, MPB flags, DRAM owner/directory words) is read and
// written at access time, so only a global (time, id) order keeps the
// simulated answer a function of the modelled machine and the seed alone.
// DESIGN.md §12 explains why the heap is not sharded.
//
// Poll hooks (set_poll_hook): an actor that is spin-waiting on a word may
// install a hook that the scheduler calls when it pops the actor's entry.
// The hook can step a provably failed poll itself (charge its cost, re-key
// the entry at the next poll instant) and so spare the two fiber switches
// a resume would cost. See DESIGN.md §11, "Failed polls run in the
// scheduler".
//
// The timing wheel: a hook re-key lands at the next poll instant, a full
// backoff gap ahead, or at the end of a split poll's tick, so in a lock
// convoy the binary heap paid a deep, badly predicted sift_down twice per
// failed poll. A re-key within the wheel's horizon (kWheelBuckets buckets
// of 2^kWheelShift ps), and a spin wait's own sleep, is *parked* off the
// heap in the bucket of its time instead: a short sorted insert to park,
// O(1) to pop. A yielding actor is not queued at all: it competes for
// the next pop at its (clock, id). The run order is the (time, id) order
// over heap, wheel and yielder together, so every pop, every hook's view
// of the other entries and every dispatch is exactly what one heap gives.
// The wheel's floor is the latest pop time so far; no entry is parked
// before it, so every wheel entry lies within one horizon of the floor
// and a bucket never holds two laps. Pops are in time order except after
// a timeout queued before its caller's clock (a halt that finds its timer
// tick overdue, under fault injection): that entry goes to the heap and
// pops behind the floor. backward_pops() and late_timeouts() count both,
// so tests can pin that neither happens without faults.
#pragma once

#include <array>
#include <cassert>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/fnref.hpp"
#include "sim/types.hpp"

namespace msvm::sim {

class Scheduler;

/// Why a blocked actor resumed.
enum class WakeReason : u8 { kWoken, kTimeout };

/// One entry of an actor's wait-site stack: a static label plus two
/// free-form operands (e.g. a mail type and a page index). Pushed by the
/// wait loops of the layers above (mailbox recv/send, TAS spins, SVM
/// protocol waits) so a deadlock abort or a watchdog hang report can say
/// *what* each blocked core is waiting for, not just that it is blocked.
struct BlockSite {
  const char* what = nullptr;
  u64 a = 0;
  u64 b = 0;
};

/// A poll hook's verdict on the entry the scheduler handed it.
struct PollStep {
  /// kTimeNever: resume the fiber. Otherwise the entry is re-keyed at
  /// this time and the fiber stays suspended.
  TimePs at = kTimeNever;
  /// Re-key as the actor's own timeout (wake() may still pull it in), or
  /// as a plain yield (wake() ignores it, as it ignores any scheduled
  /// actor).
  bool timeout = false;
};

/// Steps a waiting actor's popped entry without resuming its fiber.
/// `at` is the entry's time; `timed_out` is true when the entry is the
/// actor's own block_until timeout (false: a wake() or a yield queued
/// it); `others` is the earliest time of any other queued entry, heap or
/// timing wheel (kTimeNever when there is none).
using PollHook = FnRef<PollStep(TimePs at, bool timed_out, TimePs others)>;

/// A schedulable fiber with a virtual clock.
class alignas(64) Actor {
 public:
  // kKilled models a fail-stop death: the fiber is parked mid-stack
  // forever (its frames are unwound at teardown by cancel_all), it holds
  // no heap entry, and wake() ignores it. From the run loop's point of
  // view a killed actor counts as finished.
  enum class State : u8 { kScheduled, kRunning, kBlocked, kFinished, kKilled };

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  TimePs clock() const { return clock_; }
  State state() const { return state_; }
  bool finished() const { return state_ == State::kFinished; }

  /// Advances this actor's clock. Only meaningful while running.
  void advance(TimePs dt) { clock_ += dt; }

  /// Forces the clock forward to at least `t` (never backwards).
  void advance_to(TimePs t) {
    if (t > clock_) clock_ = t;
  }

  // ---- wait-site annotation (host-side diagnostics, zero simulated
  // cost; prefer the RAII BlockScope over calling these directly) ----

  static constexpr std::size_t kMaxBlockSites = 4;

  /// Pushes a wait-site entry; returns false (and records nothing) when
  /// the stack is full — nested sites beyond the cap are simply elided.
  bool push_site(const BlockSite& site) {
    if (site_depth_ >= kMaxBlockSites) return false;
    sites_[site_depth_++] = site;
    return true;
  }
  void pop_site() {
    assert(site_depth_ > 0);
    --site_depth_;
  }

  /// "inner <- outer" description of the current wait-site stack, or ""
  /// when no site is annotated.
  std::string describe_sites() const;

  /// Installs (or, with an empty hook, removes) the poll hook the
  /// scheduler consults when it pops this actor's entry. Non-owning: the
  /// callable must outlive its installation.
  void set_poll_hook(PollHook hook) { poll_hook_ = hook; }

 private:
  friend class Scheduler;

  /// Sentinel heap position for an actor with no heap entry.
  static constexpr std::size_t kNotInHeap = ~std::size_t{0};

  Actor(int id, std::string name, std::function<void()> body,
        std::size_t stack_bytes);

  // What a pop, a park or a poll hook's step touches comes first, in one
  // cache line (the class is cache-line aligned).
  TimePs clock_ = 0;
  std::size_t heap_pos_ = kNotInHeap;  // index into the scheduler's heap
  // The entry when it is parked on the timing wheel instead (Scheduler).
  TimePs wheel_time_ = 0;
  Actor* wheel_prev_ = nullptr;  // bucket list, sorted by (time, id)
  Actor* wheel_next_ = nullptr;
  PollHook poll_hook_;
  int id_;
  State state_ = State::kScheduled;
  bool in_wheel_ = false;
  WakeReason wake_reason_ = WakeReason::kWoken;

  std::string name_;
  std::unique_ptr<Fiber> fiber_;
  std::array<BlockSite, kMaxBlockSites> sites_{};
  std::size_t site_depth_ = 0;
};

/// Thrown by Scheduler::run() when every live actor is blocked and no
/// timeout is pending: the simulated system has deadlocked.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown inside an actor at its suspension point when the scheduler is
/// torn down with the actor still live (e.g. after a DeadlockError). The
/// actor body wrapper catches it, so actor stacks unwind and run their
/// destructors instead of leaking.
class CancelledError {};

class Scheduler {
 public:
  Scheduler() = default;
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Creates an actor that starts at virtual time `start`. Must be called
  /// before run() or from inside a running actor.
  Actor& spawn(std::string name, std::function<void()> body,
               TimePs start = 0,
               std::size_t stack_bytes = Fiber::kDefaultStackBytes);

  /// Always 1: there is one heap. Kept because perfbench reads it.
  int num_lanes() const { return 1; }
  /// The dispatch count (`i` must be 0). Kept because perfbench reads it.
  u64 lane_dispatched(int i) const {
    assert(i == 0);
    (void)i;
    return dispatched_;
  }
  /// Polls charged without resuming the fiber: the entries a poll hook
  /// re-keyed instead of handing them back. A stepped poll counts once,
  /// or twice when it re-keys at a mid-tick yield and again after its
  /// read (kernel::spin_wait). Not part of the dispatch count.
  u64 elided_polls() const { return elided_polls_; }

  /// Pops, dispatched or stepped by a poll hook, earlier than an earlier
  /// pop; and block_until calls with a deadline before the caller's
  /// clock. The second causes the first. Exposed so tests can pin that
  /// both stay 0 without fault injection.
  u64 backward_pops() const { return backward_pops_; }
  u64 late_timeouts() const { return late_timeouts_; }

  /// Runs until every actor has finished. Throws DeadlockError if all
  /// remaining actors are blocked without timeouts.
  void run();

  /// The actor currently executing (nullptr from the main context).
  Actor* current() { return current_; }

  // ---- Called from inside a running actor ----

  /// Unconditionally reinsert self and let the scheduler pick the earliest
  /// actor (possibly self again). When the caller is still the earliest
  /// runnable actor this is a plain return: no heap traffic, no switch.
  void yield() {
    Actor* self = current_;
    assert(self != nullptr && "yield() outside an actor");
    if (!stop_requested_) {
      const Actor* first = earliest();
      if (first == nullptr) return;  // nobody else could run before us
      const TimePs t = entry_time(*first);
      if (t > self->clock_ || (t == self->clock_ && first->id_ > self->id_)) {
        return;  // re-queueing self would pop self right back
      }
    }
    yield_switch(self);
  }

  /// Cheap check used on the memory-access hot path: yields only when some
  /// other schedulable actor has a strictly smaller clock. Returns true if
  /// a switch happened.
  bool maybe_yield() {
    Actor* self = current_;
    assert(self != nullptr);
    if ((heap_.empty() || heap_[0].time >= self->clock_) &&
        (wheel_min_ == nullptr || wheel_min_->wheel_time_ >= self->clock_)) {
      return false;
    }
    yield_switch(self);
    return true;
  }

  /// Fail-stop death of the *current* actor: marks it kKilled, counts it
  /// as finished, and switches away without requeueing it. The fiber
  /// stays parked mid-stack (simulating a core that stops dead between
  /// two instructions) until cancel_all unwinds it at teardown. Never
  /// returns control to the caller except by CancelledError.
  void kill_self();

  /// Suspends the current actor until wake(). Returns the reason.
  WakeReason block();

  /// Suspends until wake() or until virtual time `deadline`.
  WakeReason block_until(TimePs deadline);

  /// Makes `target` schedulable at virtual time >= `at`. No-op when the
  /// target is already scheduled or finished. Any actor (or the main
  /// context) may call this.
  void wake(Actor& target, TimePs at);

  /// Asks the run loop to return to the main context at the next actor
  /// switch instead of resuming further actors. Used by the watchdog:
  /// the tripping actor records its report, calls request_stop(), then
  /// parks itself with block(); teardown unwinds everyone via
  /// CancelledError. Safe to call from any actor or the main context.
  void request_stop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }

  /// Unwinds every suspended actor by resuming it with CancelledError
  /// (see dispatch_from). Must be called from the main context. The
  /// destructor calls this; Chip::run also calls it right before
  /// throwing a hang error, while the objects the parked stack frames
  /// reference are still alive. Idempotent.
  void cancel_all();

  /// One line per unfinished actor: name, clock, state, and wait sites.
  /// Used by the deadlock abort and by watchdog hang reports.
  std::string describe_blocked_actors() const;

  Actor& actor(std::size_t i) { return *actors_.at(i); }

  /// Live entry count, heap and wheel. At most one entry per
  /// unfinished actor by construction — exposed so tests can pin that
  /// bound.
  std::size_t heap_size() const { return heap_.size() + wheel_size_; }

 private:
  /// One indexed-heap entry. The tie-break id is stored inline so the
  /// comparison never chases the Actor.
  struct HeapEntry {
    TimePs time;
    int id;
    Actor* actor;
  };

  static bool entry_less(const HeapEntry& a, const HeapEntry& b) {
    return key_less(a.time, a.id, b.time, b.id);
  }
  static bool key_less(TimePs at, int aid, TimePs bt, int bid) {
    return at != bt ? at < bt : aid < bid;
  }

  // The timing wheel: 1024 buckets of 65.536 ns, a 67.1 us horizon. The
  // 4096-cycle cap of a TAS backoff (7.7 us at 533 MHz) and the 50 us cap
  // of the MPB barrier waits both fit.
  static constexpr int kWheelShift = 16;
  static constexpr std::size_t kWheelBuckets = 1024;
  static constexpr std::size_t kWheelWords = kWheelBuckets / 64;

  // ---- indexed-heap primitives (maintain Actor::heap_pos_) ----
  void heap_place(std::size_t i, const HeapEntry& e) {
    heap_[i] = e;
    e.actor->heap_pos_ = i;
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void heap_push(Actor& a, TimePs at);
  void heap_remove_at(std::size_t i);
  void heap_move(Actor& a, TimePs at);  // re-key the existing entry

  // ---- timing wheel (maintain Actor::in_wheel_ and wheel_min_) ----
  /// Parks `a`'s entry at `at` on the wheel; false (nothing changed)
  /// when `at` lies beyond the horizon.
  bool wheel_insert(Actor& a, TimePs at);
  void wheel_unlink(Actor& a);
  /// Points wheel_min_ at the earliest wheel entry: the head of the
  /// first non-empty bucket from the floor's on.
  void wheel_find_min();

  /// The actor owning the earliest queued entry, or nullptr.
  Actor* earliest() const {
    if (wheel_min_ == nullptr) {
      return heap_.empty() ? nullptr : heap_[0].actor;
    }
    if (heap_.empty() ||
        key_less(wheel_min_->wheel_time_, wheel_min_->id_, heap_[0].time,
                 heap_[0].id)) {
      return wheel_min_;
    }
    return heap_[0].actor;
  }
  TimePs entry_time(const Actor& a) const {
    return a.in_wheel_ ? a.wheel_time_ : heap_[a.heap_pos_].time;
  }

  /// Pops the earliest live entry and prepares its actor to run (wake
  /// reason, clock, state). An entry whose actor has a poll hook goes to
  /// the hook first and stays queued when the hook re-keys it. Returns
  /// nullptr when nothing is queued. `pending`, when set, is a yielding
  /// actor that competes at (clock, id) as if it were queued; when
  /// another entry wins, take_next queues it (in the heap root's slot
  /// when the root won) before returning the winner.
  Actor* take_next(Actor* pending = nullptr);

  /// Suspension point: picks the next actor and transfers to it directly,
  /// or falls back to the main context when the heap is empty or a stop
  /// was requested. Rethrows CancelledError on teardown resumes.
  void dispatch_from(Actor* self);

  /// Out-of-line slow path of yield()/maybe_yield(): requeue self, switch.
  void yield_switch(Actor* self);

  std::vector<std::unique_ptr<Actor>> actors_;
  std::vector<HeapEntry> heap_;
  std::array<Actor*, kWheelBuckets> wheel_{};
  std::array<u64, kWheelWords> wheel_bits_{};  // non-empty buckets
  Actor* wheel_min_ = nullptr;
  std::size_t wheel_size_ = 0;
  u64 dispatched_ = 0;
  u64 elided_polls_ = 0;
  TimePs wheel_floor_ = 0;  // the latest pop time so far
  u64 backward_pops_ = 0;
  u64 late_timeouts_ = 0;
  Actor* current_ = nullptr;
  std::size_t finished_count_ = 0;
  bool running_ = false;
  bool cancelling_ = false;
  bool stop_requested_ = false;
};

/// RAII wait-site annotation for the current actor. Tolerates a null
/// actor (main-context callers) and a full site stack, so wait loops can
/// annotate unconditionally.
class BlockScope {
 public:
  BlockScope(Actor* actor, const char* what, u64 a = 0, u64 b = 0)
      : actor_(actor) {
    if (actor_ != nullptr) pushed_ = actor_->push_site({what, a, b});
  }
  ~BlockScope() {
    if (pushed_) actor_->pop_site();
  }
  BlockScope(const BlockScope&) = delete;
  BlockScope& operator=(const BlockScope&) = delete;

 private:
  Actor* actor_;
  bool pushed_ = false;
};

}  // namespace msvm::sim
