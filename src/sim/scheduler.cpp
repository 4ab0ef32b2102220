#include "sim/scheduler.hpp"

#include <algorithm>
#include <sstream>

#include "sim/log.hpp"

namespace msvm::sim {

Actor::Actor(int id, std::string name, std::function<void()> body,
             std::size_t stack_bytes)
    : id_(id), name_(std::move(name)) {
  fiber_ = std::make_unique<Fiber>(
      [this, body = std::move(body)] {
        try {
          body();
        } catch (const CancelledError&) {
          // Scheduler teardown: unwind quietly so stack objects destruct.
        }
        state_ = State::kFinished;
      },
      stack_bytes);
}

std::string Actor::describe_sites() const {
  std::ostringstream oss;
  // Innermost site first: it names the immediate wait, the outer entries
  // give the enclosing operation (e.g. "mbox.recv <- svm.wait_match").
  for (std::size_t i = site_depth_; i-- > 0;) {
    const BlockSite& s = sites_[i];
    oss << s.what << "(" << s.a << "," << s.b << ")";
    if (i != 0) oss << " <- ";
  }
  return oss.str();
}

Scheduler::~Scheduler() { cancel_all(); }

void Scheduler::cancel_all() {
  // Cooperatively cancel any actor that is still suspended mid-execution
  // (normal completion leaves none). Each resume makes dispatch_from()
  // throw CancelledError inside the actor, unwinding its stack.
  // A never-started fiber has no stack objects and may simply be
  // destroyed; running its body at teardown would be wrong.
  //
  // Besides the destructor, Chip::run calls this right before throwing a
  // hang/deadlock error: the unwind must happen while the objects the
  // parked frames reference (kernels, mailboxes, SVM runtimes) are still
  // alive, which is no longer true once destruction reaches ~Scheduler.
  cancelling_ = true;
  for (auto& a : actors_) {
    if (a->state_ != Actor::State::kFinished && a->fiber_ != nullptr &&
        a->fiber_->started() && !a->fiber_->finished()) {
      // A killed actor already counted itself finished in kill_self();
      // unwinding it here must not count it twice.
      const bool was_killed = a->state_ == Actor::State::kKilled;
      current_ = a.get();
      a->fiber_->resume();
      current_ = nullptr;
      if (a->fiber_->finished()) {
        a->state_ = Actor::State::kFinished;
        if (!was_killed) ++finished_count_;
      }
    }
    // The unwound actor may still own a queue entry (it was scheduled, or
    // blocked with a timeout); drop it so the queue holds live actors only.
    if (a->state_ == Actor::State::kFinished &&
        a->heap_pos_ != Actor::kNotInHeap) {
      heap_remove_at(a->heap_pos_);
    }
  }
  cancelling_ = false;
}

Actor& Scheduler::spawn(std::string name, std::function<void()> body,
                        TimePs start, std::size_t stack_bytes) {
  const int id = static_cast<int>(actors_.size());
  actors_.push_back(std::unique_ptr<Actor>(
      new Actor(id, std::move(name), std::move(body), stack_bytes)));
  Actor& a = *actors_.back();
  a.clock_ = start;
  a.state_ = Actor::State::kScheduled;
  heap_push(a, start);
  return a;
}

// ---- indexed binary heap ----

void Scheduler::sift_up(std::size_t i) {
  const HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!entry_less(e, heap_[parent])) break;
    heap_place(i, heap_[parent]);
    i = parent;
  }
  heap_place(i, e);
}

void Scheduler::sift_down(std::size_t i) {
  const HeapEntry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && entry_less(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!entry_less(heap_[child], e)) break;
    heap_place(i, heap_[child]);
    i = child;
  }
  heap_place(i, e);
}

void Scheduler::heap_push(Actor& a, TimePs at) {
  assert(a.heap_pos_ == Actor::kNotInHeap);
  heap_.push_back(HeapEntry{at, a.id_, &a});
  a.heap_pos_ = heap_.size() - 1;
  sift_up(a.heap_pos_);
}

void Scheduler::heap_remove_at(std::size_t i) {
  assert(i < heap_.size());
  heap_[i].actor->heap_pos_ = Actor::kNotInHeap;
  const std::size_t last = heap_.size() - 1;
  if (i != last) {
    const HeapEntry moved = heap_[last];
    heap_.pop_back();
    heap_place(i, moved);
    if (i > 0 && entry_less(heap_[i], heap_[(i - 1) / 2])) {
      sift_up(i);
    } else {
      sift_down(i);
    }
  } else {
    heap_.pop_back();
  }
}

void Scheduler::heap_move(Actor& a, TimePs at) {
  const std::size_t i = a.heap_pos_;
  assert(i < heap_.size() && heap_[i].actor == &a);
  const TimePs old = heap_[i].time;
  heap_[i].time = at;
  if (at < old) {
    sift_up(i);
  } else if (at > old) {
    sift_down(i);
  }
}

// ---- run loop and suspension points ----

Actor* Scheduler::take_next(Actor* pending) {
  // Finished actors never hold entries during a run (they finish while
  // running, i.e. dequeued); the skip only matters for a queue inspected
  // after cancel_all tore actors down mid-flight.
  for (;;) {
    // The earliest entry: the heap root, or `pending`'s unqueued one at
    // its clock.
    Actor* root = heap_.empty() ? nullptr : heap_[0].actor;
    if (pending != nullptr &&
        (root == nullptr || key_less({pending->clock_, pending->id_},
                                     {heap_[0].time, heap_[0].id}))) {
      root = pending;
    }
    if (root == nullptr) return nullptr;
    const bool queued = root != pending;
    const TimePs at = queued ? heap_[0].time : root->clock_;
    if (at < pop_floor_) {
      ++backward_pops_;  // a timeout queued before its caller's clock
    } else {
      pop_floor_ = at;
    }
    if (queued) {
      if (pending != nullptr) {
        // The yielder lost to the heap root: it takes the root's slot,
        // one sift instead of a pop and a push.
        root->heap_pos_ = Actor::kNotInHeap;
        heap_place(0, HeapEntry{pending->clock_, pending->id_, pending});
        sift_down(0);
        pending = nullptr;
      } else {
        heap_remove_at(0);
      }
    }
    Actor* next = root;
    if (next->state_ == Actor::State::kFinished ||
        next->state_ == Actor::State::kKilled) {
      continue;
    }
    // A popped entry for a blocked actor is a timeout firing.
    next->wake_reason_ = next->state_ == Actor::State::kBlocked
                             ? WakeReason::kTimeout
                             : WakeReason::kWoken;
    next->advance_to(at);
    next->state_ = Actor::State::kRunning;
    ++dispatched_;
    compete(at, next->id_, kPop);
    return next;
  }
}

std::string Scheduler::describe_blocked_actors() const {
  std::ostringstream oss;
  for (const auto& a : actors_) {
    if (a->state_ == Actor::State::kFinished) continue;
    oss << "  " << a->name() << " @" << a->clock() << "ps";
    if (a->state_ == Actor::State::kKilled) {
      oss << " KILLED (fail-stop)\n";
      continue;
    }
    const std::string sites = a->describe_sites();
    oss << (sites.empty() ? " (no wait site recorded)" : " waiting at " + sites);
    oss << "\n";
  }
  return oss.str();
}

void Scheduler::kill_self() {
  Actor* self = current_;
  assert(self != nullptr && "kill_self() outside an actor");
  assert(self->heap_pos_ == Actor::kNotInHeap &&
         "running actor unexpectedly holds an entry");
  self->state_ = Actor::State::kKilled;
  ++finished_count_;  // the run loop treats the dead core as done
  dispatch_from(self);
  // Only reachable when cancel_all resumes the parked fiber — and then
  // dispatch_from throws CancelledError, so this point is never reached
  // with a live simulation.
}

void Scheduler::run() {
  assert(current_ == nullptr && "run() is not reentrant");
  running_ = true;
  while (finished_count_ < actors_.size() && !stop_requested_) {
    Actor* next = take_next();
    if (next == nullptr) {
      std::ostringstream oss;
      oss << "simulated deadlock: all live actors blocked, no timeout "
             "pending\n"
          << describe_blocked_actors();
      running_ = false;
      throw DeadlockError(oss.str());
    }

    current_ = next;
    next->fiber_->resume();
    // Direct fiber-to-fiber transfers mean the actor that returned control
    // to us is the *last* one that ran, not necessarily the one resumed.
    Actor* last = current_;
    current_ = nullptr;
    if (last->fiber_->finished()) {
      last->state_ = Actor::State::kFinished;
      ++finished_count_;
    }
  }
  running_ = false;
}

void Scheduler::dispatch_from(Actor* self) {
  if (!stop_requested_) {
    Actor* next = take_next();
    if (next == self) {
      // Popped our own entry (sole runnable, or own block_until timeout
      // fired first): continue without a context switch.
      return;
    }
    if (next != nullptr) {
      current_ = next;
      Fiber::transfer(*self->fiber_, *next->fiber_);
      if (cancelling_) throw CancelledError{};
      return;
    }
    // Heap empty with self suspended: fall back to main, whose run loop
    // reports the deadlock.
  }
  Fiber::yield_to_main();
  if (cancelling_) throw CancelledError{};
}

void Scheduler::yield_switch(Actor* self) {
  self->state_ = Actor::State::kScheduled;
  if (!stop_requested_) {
    // Self competes for the pop without a queue entry: when it is still
    // next it never touches the heap.
    Actor* next = take_next(self);
    if (next == self) return;
    current_ = next;
    Fiber::transfer(*self->fiber_, *next->fiber_);
    if (cancelling_) throw CancelledError{};
    return;
  }
  heap_push(*self, self->clock_);
  dispatch_from(self);
}

WakeReason Scheduler::block() {
  Actor* self = current_;
  assert(self != nullptr && "block() outside an actor");
  self->state_ = Actor::State::kBlocked;
  dispatch_from(self);
  return self->wake_reason_;
}

WakeReason Scheduler::block_until(TimePs deadline) {
  Actor* self = current_;
  assert(self != nullptr && "block_until() outside an actor");
  if (deadline < self->clock_) ++late_timeouts_;
  self->state_ = Actor::State::kBlocked;
  heap_push(*self, deadline);
  dispatch_from(self);
  return self->wake_reason_;
}

void Scheduler::wake(Actor& target, TimePs at) {
  if (target.state_ != Actor::State::kBlocked) return;
  TimePs slept = target.clock_;
  if (target.watch_ != nullptr) {
    // Where the plain loop stands at the waker's position.
    Actor::Watch& w = *target.watch_;
    const ParkResume r = standing(w, position());
    if (r.read) {
      // Queued for the rest of a split poll: wake() skips a scheduled
      // actor, and the next poll delivers the pending interrupt.
      if (r.polls + 1 <= w.limit) {
        w.limit = r.polls + 1;
        w.limit_quiet = false;
        heap_move(target, w.train.at(w.limit));
      }
      return;
    }
    slept = w.train.slept_after(r.polls);
    w.end_seq = seq_ - 1;
    w.end_t = last_.t;
    unpark(target, r);
  }
  target.state_ = Actor::State::kScheduled;
  const TimePs t = at > slept ? at : slept;
  if (target.heap_pos_ != Actor::kNotInHeap) {
    heap_move(target, t);  // re-key the pending timeout entry in place
  } else {
    heap_push(target, t);
  }
}

}  // namespace msvm::sim
