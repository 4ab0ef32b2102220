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
// skip loops, and someone_earlier()/maybe_yield() are an O(1) read of the
// root entry, which is always live and exact. Actor switches transfer
// fiber-to-fiber directly (one context switch), only falling back to the
// main run() loop when the heap empties or a stop is requested; yield()
// by an actor that is still the earliest runnable is a plain return with
// no heap traffic at all.
//
// One heap, always: every actor of a run shares this single exact heap,
// whatever the core count. Shared functional state (TAS registers, MPB
// flags, DRAM owner/directory words) is read and written at access time,
// so only a global (time, id) order keeps the simulated answer a function
// of the modelled machine and the seed alone. DESIGN.md §12 explains why
// the heap is not sharded.
//
// Poll hooks (set_poll_hook): an actor that is spin-waiting on a word may
// install a hook that the scheduler calls when it pops the actor's entry.
// The hook can step a provably failed poll itself (charge its cost, re-key
// the entry at the next poll instant) and so spare the two fiber switches
// a resume would cost. See DESIGN.md §11, "Failed polls run in the
// scheduler".
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
enum class WakeReason { kWoken, kTimeout };

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
/// it); `others` is the earliest time of any other queued entry
/// (kTimeNever when there is none).
using PollHook = FnRef<PollStep(TimePs at, bool timed_out, TimePs others)>;

/// A schedulable fiber with a virtual clock.
class Actor {
 public:
  // kKilled models a fail-stop death: the fiber is parked mid-stack
  // forever (its frames are unwound at teardown by cancel_all), it holds
  // no heap entry, and wake() ignores it. From the run loop's point of
  // view a killed actor counts as finished.
  enum class State { kScheduled, kRunning, kBlocked, kFinished, kKilled };

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

  /// Sentinel heap position for an actor with no queue entry.
  static constexpr std::size_t kNotInHeap = ~std::size_t{0};

  Actor(Scheduler& sched, int id, std::string name,
        std::function<void()> body, std::size_t stack_bytes);

  Scheduler& sched_;
  int id_;
  std::string name_;
  TimePs clock_ = 0;
  State state_ = State::kScheduled;
  std::size_t heap_pos_ = kNotInHeap;  // index into the scheduler's heap
  WakeReason wake_reason_ = WakeReason::kWoken;
  std::unique_ptr<Fiber> fiber_;
  PollHook poll_hook_;
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
  /// Entries a poll hook re-keyed instead of resuming the fiber. Not
  /// part of the dispatch count.
  u64 elided_polls() const { return elided_polls_; }

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
      if (heap_.empty()) return;  // nobody else could run before us
      const HeapEntry& top = heap_[0];
      if (top.time > self->clock_ ||
          (top.time == self->clock_ && top.id > self->id_)) {
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
    if (heap_.empty() || heap_[0].time >= self->clock_) return false;
    yield_switch(self);
    return true;
  }

  /// True when another schedulable actor has a strictly earlier clock than
  /// time `t`. Exact: the heap root is always a live entry.
  bool someone_earlier(TimePs t) const {
    return !heap_.empty() && heap_[0].time < t;
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

  std::size_t num_actors() const { return actors_.size(); }
  Actor& actor(std::size_t i) { return *actors_.at(i); }

  /// Live entry count. At most one entry per unfinished actor by
  /// construction — exposed so tests can pin that bound.
  std::size_t heap_size() const { return heap_.size(); }

 private:
  /// One indexed-heap entry. The tie-break id is stored inline so the
  /// comparison never chases the Actor.
  struct HeapEntry {
    TimePs time;
    int id;
    Actor* actor;
  };

  static bool entry_less(const HeapEntry& a, const HeapEntry& b) {
    return a.time != b.time ? a.time < b.time : a.id < b.id;
  }

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

  /// Pops the earliest live entry and prepares its actor to run (wake
  /// reason, clock, state). An entry whose actor has a poll hook goes to
  /// the hook first and stays queued when the hook re-keys it. Returns
  /// nullptr when the heap is empty.
  Actor* take_next();

  /// Suspension point: picks the next actor and transfers to it directly,
  /// or falls back to the main context when the heap is empty or a stop
  /// was requested. Rethrows CancelledError on teardown resumes.
  void dispatch_from(Actor* self);

  /// Out-of-line slow path of yield()/maybe_yield(): requeue self, switch.
  void yield_switch(Actor* self);

  std::vector<std::unique_ptr<Actor>> actors_;
  std::vector<HeapEntry> heap_;
  u64 dispatched_ = 0;
  u64 elided_polls_ = 0;
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
