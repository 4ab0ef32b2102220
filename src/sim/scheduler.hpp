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
// skip loops, and maybe_yield() is an O(1) read of the root entry, which
// is always live and exact. A yielding actor is not queued at all: it
// competes for the next pop at its (clock, id). Actor
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
// Parked spin waits (park): a spin wait whose poll failed may leave the
// event order. Its polls fail, invisibly, until someone writes its word,
// so the parked actor holds one entry only, at the first poll its fiber
// must run (a timer tick or a watchdog trip), and its other polls are
// *virtual*: word_ready() and wake() rebuild where the waiter stands in
// closed form and queue it at its first read ordered after the writer.
// The virtual polls still sit in the run order the plain loop makes:
// they decide where a core that checks at a boundary yields, and when a
// polling core's tick splits. Those decisions matter only on exact
// picosecond ties, so the scheduler keeps a short history of the run's
// competitions (pops and boundary checks) while any wait is parked, and
// answers "was any entry earlier than X pending at position K" from that
// history and the trains (DESIGN.md §11, "Spinning cores leave the event
// order"). Nothing is parked and nothing is recorded when no wait parks.
//
// Pops are in time order except after a timeout queued before its
// caller's clock (a halt that finds its timer tick overdue, under fault
// injection). backward_pops() and late_timeouts() count both, so tests
// can pin that neither happens without faults; the history relies on it.
#pragma once

#include <array>
#include <cassert>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/fnref.hpp"
#include "sim/poll_train.hpp"
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

/// Where a parked spin wait resumes (Scheduler::park).
struct ParkResume {
  u64 polls = 0;      // virtual polls that failed before the resume
  bool read = false;  // poll `polls` has woken and ticked; its read is
                      // next (a TAS word woken at a split tick's read)
};

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

 private:
  friend class Scheduler;
  struct Watch;

  /// Sentinel heap position for an actor with no heap entry.
  static constexpr std::size_t kNotInHeap = ~std::size_t{0};

  Actor(int id, std::string name, std::function<void()> body,
        std::size_t stack_bytes);

  TimePs clock_ = 0;
  std::size_t heap_pos_ = kNotInHeap;  // index into the scheduler's heap
  Watch* watch_ = nullptr;             // set while parked (Scheduler::park)
  int id_;
  State state_ = State::kScheduled;
  WakeReason wake_reason_ = WakeReason::kWoken;
  ParkResume park_resume_;

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
  /// Failed polls of parked spin waits, charged in closed form at the
  /// resume instead of run (see park()).
  u64 parked_polls() const { return parked_polls_; }

  /// Pops earlier than an earlier pop, and block_until calls with a
  /// deadline before the caller's clock. The second causes the first.
  /// Exposed so tests can pin that both stay 0 without fault injection.
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
      if (heap_.empty() || key_less({self->clock_, self->id_},
                                    {heap_[0].time, heap_[0].id})) {
        compete(self->clock_, self->id_, kPop);
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
    if (!heap_.empty() && heap_[0].time < self->clock_) {
      yield_switch(self);
      return true;
    }
    if (!watches_.empty() && !heap_.empty() &&
        heap_[0].time == self->clock_ && heap_[0].id < self->id_ &&
        virtual_pending(position(), self->clock_)) {
      yield_switch(self);  // a parked poll is earlier: the tie is lost
      return true;
    }
    compete(self->clock_, self->id_, kCheck);
    return false;
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
  /// context) may call this. A parked target is woken where the plain
  /// poll loop would be: asleep between two polls, or (ignored) queued
  /// for the rest of a split poll.
  void wake(Actor& target, TimePs at);

  // ---- Parked spin waits ----

  /// Parks the running actor on `train`, the polls of a spin wait that
  /// just failed one and went to sleep. Its polls before `limit` are
  /// virtual: the actor holds one entry, at poll `limit`, and resumes
  /// there (a timeout) unless word_ready() or wake() pulls it earlier.
  /// `limit_quiet` says that poll `limit` delivers no interrupt. Returns
  /// how far the plain loop got. `charge` gets the same, to charge
  /// `polls` failed polls and, with `read`, the wake-up and tick of the
  /// next one; it runs also when teardown unwinds a wait that a stop
  /// (request_stop) caught parked. Requires 0 < limit and train.valid().
  ParkResume park(const PollTrain& train, u64 limit, bool limit_quiet,
                  FnRef<void(const ParkResume&)> charge);

  /// A write by the running actor made the word `waiters` are parked on
  /// ready. With `tas` the word is a test-and-set register: a poll reads
  /// it at the end of its tick (after a split, at the split's entry), and
  /// the first reader takes it, so only the waiters that may read first
  /// are queued. Otherwise (an MPB byte) each waiter reads at its next
  /// poll's pop and is queued there. Waiters no longer parked are skipped.
  void word_ready(std::span<Actor* const> waiters, bool tas);

  /// Asks the run loop to return to the main context at the next actor
  /// switch instead of resuming further actors. Used by the watchdog:
  /// the tripping actor records its report, calls request_stop(), then
  /// parks itself with block(); teardown unwinds everyone via
  /// CancelledError. Safe to call from any actor or the main context.
  /// Every parked wait stops where the plain loop stands at the caller's
  /// position: its clock is set there, and its charge runs at teardown.
  void request_stop();
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

  /// Live heap entries. At most one per unfinished actor by construction
  /// — exposed so tests can pin that bound.
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
    return key_less({a.time, a.id}, {b.time, b.id});
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

  /// Pops the earliest entry and prepares its actor to run (wake reason,
  /// clock, state). Returns nullptr when nothing is queued. `pending`,
  /// when set, is a yielding actor that competes at (clock, id) as if it
  /// were queued; when the heap root wins, take_next queues it in the
  /// root's slot before returning the winner.
  Actor* take_next(Actor* pending = nullptr);

  /// Suspension point: picks the next actor and transfers to it directly,
  /// or falls back to the main context when the heap is empty or a stop
  /// was requested. Rethrows CancelledError on teardown resumes.
  void dispatch_from(Actor* self);

  /// Out-of-line slow path of yield()/maybe_yield(): requeue self, switch.
  void yield_switch(Actor* self);

  // ---- the run order of parked waits (scheduler_park.cpp) ----

  /// A competition: a pop at (t, id), or a boundary check at t by actor
  /// id that kept running. A check's place in the plain loop's order is
  /// (t, id) when some parked poll was earlier, so that the plain loop
  /// would have yielded there, and (t, kKeepRunning) otherwise.
  enum RecordKind : u8 { kPop, kCheck };
  struct Record {
    TimePs t = 0;
    int id = 0;
    RecordKind kind = kPop;
    mutable i8 yielded = -1;  // kCheck: unknown (-1), no (0), yes (1)
  };
  static constexpr u64 kNoSeq = ~u64{0};
  /// A position in the plain loop's order: (t, id), or the position of
  /// history record `seq`, whose id is worked out only on a time tie.
  struct Pos {
    TimePs t = 0;
    int id = 0;
    u64 seq = kNoSeq;
  };

  void compete(TimePs t, int id, RecordKind kind) {
    last_ = {t, id, kind, -1};
    if (!watches_.empty()) record();
  }
  void record();
  const Record& rec(u64 seq) const;

  /// The position of history record `seq` in the plain loop's order.
  OrderKey record_key(u64 seq) const;
  int id_of(const Pos& p) const {
    return p.seq == kNoSeq ? p.id : record_key(p.seq).id;
  }
  bool pos_less(const Pos& a, const Pos& b) const {
    return a.t != b.t ? a.t < b.t : id_of(a) < id_of(b);
  }
  Pos record_pos(u64 seq) const { return {rec(seq).t, 0, seq}; }
  /// The running actor's position: its last competition.
  Pos position() const { return record_pos(seq_ - 1); }

  static constexpr int kLastId = std::numeric_limits<int>::max();
  /// True when `k` lies after history record `seq`, taken at time `t`.
  bool after(const Pos& k, u64 seq, TimePs t) const;
  /// The polls of `w` that popped before `k` (at most its limit).
  u64 polls_before(const Actor::Watch& w, const Pos& k) const;

  /// Was an entry earlier than `x` pending at position `k` in the plain
  /// loop: a real one (from the history), or a virtual poll of a parked
  /// wait other than `skip`?
  bool real_pending(const Pos& k, TimePs x) const;
  bool virtual_pending(const Pos& k, TimePs x,
                       const Actor::Watch* skip = nullptr) const;
  /// Did poll j of `w` split, i.e. was an entry earlier than the end of
  /// its tick pending when it popped? Only asked for a crossing poll.
  bool split(const Actor::Watch& w, u64 j) const;

  /// Where `w` stands at `k` in the plain loop: `polls` done, and with
  /// `read` a split poll's entry still pending after `k`.
  ParkResume standing(const Actor::Watch& w, const Pos& k) const;
  /// Ends `a`'s parking: the actor is live from its next pop on, with
  /// `resume` as the fiber's starting point.
  void unpark(Actor& a, const ParkResume& resume);
  /// Drops retired watches the history no longer reaches.
  void prune();

  std::vector<std::unique_ptr<Actor>> actors_;
  std::vector<HeapEntry> heap_;
  u64 dispatched_ = 0;
  u64 parked_polls_ = 0;
  TimePs pop_floor_ = 0;  // the latest pop time so far
  u64 backward_pops_ = 0;
  u64 late_timeouts_ = 0;
  Actor* current_ = nullptr;
  std::size_t finished_count_ = 0;
  bool running_ = false;
  bool cancelling_ = false;
  bool stop_requested_ = false;

  // The parked waits (active and retired), and the history of
  // competitions kept while there are any.
  Record last_;
  std::vector<std::unique_ptr<Actor::Watch>> watches_;
  std::size_t active_watches_ = 0;
  std::size_t prune_at_ = 64;  // prune() scans once watches_ is this long
  TimePs lookback_ = 0;        // how far back prune() keeps retired ones
  TimePs pruned_until_ = 0;    // just past the last retirement dropped
  std::vector<Record> history_;  // a ring of kHistory records
  u64 seq_ = 0;        // records ever kept; the next one's seq
  u64 first_seq_ = 0;  // the oldest record still in the ring
  u64 since_seq_ = 0;  // the first record since the history (re)started
  static constexpr std::size_t kHistory = std::size_t{1} << 15;
};

/// A parked spin wait (Scheduler::park): the train of its polls, which
/// of them are virtual, and where in the history it parked and stopped.
struct Actor::Watch {
  Actor* actor = nullptr;
  PollTrain train;
  u64 limit = 0;             // the first poll its fiber runs: its entry
  bool limit_quiet = false;  // poll `limit` delivers no interrupt
  u64 start_seq = 0;  // the actor's last competition before it parked
  TimePs start_t = 0;
  u64 end_seq = ~u64{0};  // the waker's position, once woken early
  TimePs end_t = 0;
  TimePs done_t = kTimeNever;  // when it stopped (retired), for pruning
  mutable u64 memo_poll = ~u64{0};  // split(): the last poll asked
  mutable bool memo_split = false;
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
