#include "sim/scheduler.hpp"

#include <sstream>

#include "sim/log.hpp"

namespace msvm::sim {

Actor::Actor(Scheduler& sched, int id, std::string name,
             std::function<void()> body, std::size_t stack_bytes)
    : sched_(sched), id_(id), name_(std::move(name)) {
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
    // blocked with a timeout); drop it so the heap holds live actors only.
    if (a->state_ == Actor::State::kFinished &&
        a->heap_pos_ != Actor::kNotInHeap) {
      heap_remove_at(lane_of(*a), a->heap_pos_);
    }
  }
  cancelling_ = false;
}

void Scheduler::configure_lanes(int n, TimePs lookahead) {
  assert(actors_.empty() && "configure_lanes() after spawn");
  assert(n >= 1 && lookahead >= 1);
  lanes_.assign(static_cast<std::size_t>(n), Lane{});
  lookahead_ = lookahead;
  cur_lane_ = 0;
  // With one lane the window never closes and the scheduler degenerates
  // to the classic exact global heap.
  window_end_ = n == 1 ? kTimeNever : 0;
}

Actor& Scheduler::spawn(std::string name, std::function<void()> body,
                        TimePs start, std::size_t stack_bytes, int lane) {
  assert(lane >= 0 && lane < num_lanes());
  const int id = static_cast<int>(actors_.size());
  actors_.push_back(std::unique_ptr<Actor>(
      new Actor(*this, id, std::move(name), std::move(body), stack_bytes)));
  Actor& a = *actors_.back();
  a.clock_ = start;
  a.state_ = Actor::State::kScheduled;
  a.lane_ = lane;
  heap_push(a, start);
  return a;
}

// ---- indexed binary heap ----

void Scheduler::sift_up(Lane& ln, std::size_t i) {
  const HeapEntry e = ln.heap[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!entry_less(e, ln.heap[parent])) break;
    heap_place(ln, i, ln.heap[parent]);
    i = parent;
  }
  heap_place(ln, i, e);
}

void Scheduler::sift_down(Lane& ln, std::size_t i) {
  const HeapEntry e = ln.heap[i];
  const std::size_t n = ln.heap.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && entry_less(ln.heap[child + 1], ln.heap[child])) {
      ++child;
    }
    if (!entry_less(ln.heap[child], e)) break;
    heap_place(ln, i, ln.heap[child]);
    i = child;
  }
  heap_place(ln, i, e);
}

void Scheduler::heap_push(Actor& a, TimePs at) {
  assert(a.heap_pos_ == Actor::kNotInHeap);
  Lane& ln = lane_of(a);
  ln.heap.push_back(HeapEntry{at, a.id_, &a});
  a.heap_pos_ = ln.heap.size() - 1;
  sift_up(ln, a.heap_pos_);
}

void Scheduler::heap_remove_at(Lane& ln, std::size_t i) {
  assert(i < ln.heap.size());
  ln.heap[i].actor->heap_pos_ = Actor::kNotInHeap;
  const std::size_t last = ln.heap.size() - 1;
  if (i != last) {
    const HeapEntry moved = ln.heap[last];
    ln.heap.pop_back();
    heap_place(ln, i, moved);
    if (i > 0 && entry_less(ln.heap[i], ln.heap[(i - 1) / 2])) {
      sift_up(ln, i);
    } else {
      sift_down(ln, i);
    }
  } else {
    ln.heap.pop_back();
  }
}

void Scheduler::heap_move(Actor& a, TimePs at) {
  Lane& ln = lane_of(a);
  const std::size_t i = a.heap_pos_;
  assert(i < ln.heap.size() && ln.heap[i].actor == &a);
  const TimePs old = ln.heap[i].time;
  ln.heap[i].time = at;
  if (at < old) {
    sift_up(ln, i);
  } else if (at > old) {
    sift_down(ln, i);
  }
}

// ---- run loop and suspension points ----

Actor* Scheduler::take_next() {
  // Finished actors never hold heap entries during a run (they finish
  // while running, i.e. dequeued); the skip only matters for a heap
  // inspected after cancel_all tore actors down mid-flight.
  //
  // With lanes configured, each lane drains its events strictly below
  // window_end_ before the cursor moves to the next lane; when every
  // lane is dry the window advances (see advance_window). Single-lane
  // schedulers keep window_end_ == kTimeNever, so the loop below is
  // exactly the classic global-heap pop.
  //
  // A poll hook sees its actor's entry while it is still the root, so a
  // re-key is one sift_down. Multi-lane schedulers never consult hooks.
  const bool hooks = lanes_.size() == 1;
  for (;;) {
    Lane& ln = lanes_[cur_lane_];
    while (!ln.heap.empty() && ln.heap[0].time < window_end_) {
      Actor* root = ln.heap[0].actor;
      if (hooks && root->poll_hook_) {
        TimePs others = kTimeNever;
        if (ln.heap.size() > 1) others = ln.heap[1].time;
        if (ln.heap.size() > 2 && ln.heap[2].time < others) {
          others = ln.heap[2].time;
        }
        const PollStep step =
            root->poll_hook_(ln.heap[0].time,
                             root->state_ == Actor::State::kBlocked, others);
        if (step.at != kTimeNever) {
          root->state_ = step.timeout ? Actor::State::kBlocked
                                      : Actor::State::kScheduled;
          ln.heap[0].time = step.at;
          sift_down(ln, 0);
          ++elided_polls_;
          continue;
        }
      }
      const HeapEntry top = ln.heap[0];
      heap_remove_at(ln, 0);
      Actor* next = top.actor;
      if (next->state_ == Actor::State::kFinished ||
          next->state_ == Actor::State::kKilled) {
        continue;
      }
      // A popped entry for a blocked actor is a timeout firing.
      next->wake_reason_ = next->state_ == Actor::State::kBlocked
                               ? WakeReason::kTimeout
                               : WakeReason::kWoken;
      next->advance_to(top.time);
      next->state_ = Actor::State::kRunning;
      ++ln.dispatched;
      return next;
    }
    if (!advance_window()) return nullptr;
  }
}

bool Scheduler::advance_window() {
  const std::size_t nl = lanes_.size();
  // Single lane: the window is infinite, so a drained heap means there
  // are no events at all.
  if (nl == 1) return false;
  // Visit the remaining lanes of the current window in fixed order —
  // the deterministic merge barrier.
  while (++cur_lane_ < nl) {
    Lane& ln = lanes_[cur_lane_];
    if (!ln.heap.empty() && ln.heap[0].time < window_end_) return true;
  }
  // All lanes dry below window_end_: open the next window at the global
  // minimum. Lookahead is the minimum cross-lane latency (one mesh hop),
  // so no lane can schedule work for another below t_min + lookahead_.
  TimePs t_min = kTimeNever;
  for (const Lane& ln : lanes_) {
    if (!ln.heap.empty() && ln.heap[0].time < t_min) t_min = ln.heap[0].time;
  }
  if (t_min == kTimeNever) {
    // Keep the cursor in range: the run loop probes take_next() again
    // after a blocked actor falls back to main (deadlock detection).
    cur_lane_ = 0;
    return false;
  }
  window_end_ = t_min + lookahead_;
  cur_lane_ = 0;
  ++windows_;
  return true;
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

std::string Scheduler::describe_lanes() const {
  if (lanes_.size() <= 1) return "";
  std::ostringstream oss;
  oss << "  event lanes: " << lanes_.size() << ", windows opened: "
      << windows_ << "\n";
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    oss << "  lane " << i << ": " << lanes_[i].dispatched
        << " events dispatched, " << lanes_[i].heap.size()
        << " queued\n";
  }
  return oss.str();
}

void Scheduler::kill_self() {
  Actor* self = current_;
  assert(self != nullptr && "kill_self() outside an actor");
  assert(self->heap_pos_ == Actor::kNotInHeap &&
         "running actor unexpectedly holds a heap entry");
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
  self->state_ = Actor::State::kBlocked;
  heap_push(*self, deadline);  // timeout entry
  dispatch_from(self);
  return self->wake_reason_;
}

void Scheduler::wake(Actor& target, TimePs at) {
  if (target.state_ != Actor::State::kBlocked) return;
  target.state_ = Actor::State::kScheduled;
  const TimePs t = at > target.clock_ ? at : target.clock_;
  if (target.heap_pos_ != Actor::kNotInHeap) {
    heap_move(target, t);  // re-key the pending timeout entry in place
  } else {
    heap_push(target, t);
  }
}

}  // namespace msvm::sim
