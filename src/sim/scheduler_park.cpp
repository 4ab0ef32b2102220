// Parked spin waits: the scheduler half of kernel::spin_wait's wake on
// write. See scheduler.hpp and DESIGN.md §11, "Spinning cores leave the
// event order".
//
// The plain poll loop is the reference. In it a parked wait's polls are
// entries like any other, and two of its decisions read every entry:
// a core at a boundary yields when some entry is strictly earlier than
// its clock, and a polling core's tick splits (its read, for a TAS word,
// moves to the tick's end) the same way. A parked wait's polls are not
// entries here, so where the answer could differ, on exact time ties,
// the scheduler works it out: the real entries pending at a past
// position are the first competition recorded after it (no entry is
// created earlier than its creator's position), and the virtual ones
// follow from the trains.
#include <stdexcept>
#include <string>

#include "sim/scheduler.hpp"

namespace msvm::sim {

ParkResume Scheduler::park(const PollTrain& train, u64 limit,
                           bool limit_quiet,
                           FnRef<void(const ParkResume&)> charge) {
  Actor* self = current_;
  assert(self != nullptr && self->watch_ == nullptr);
  assert(train.valid() && limit > 0);
  if (watches_.empty()) {
    // Start the history at the parking actor's last competition. Nothing
    // was parked before it, so a check there kept its place.
    if (history_.empty()) history_.resize(kHistory);
    since_seq_ = first_seq_ = seq_;
    last_.yielded = 0;
    record();
  } else {
    prune();
  }
  watches_.push_back(std::make_unique<Actor::Watch>());
  Actor::Watch& w = *watches_.back();
  w.actor = self;
  w.train = train;
  w.limit = limit;
  w.limit_quiet = limit_quiet;
  w.start_seq = seq_ - 1;
  w.start_t = last_.t;
  if (64 * train.cost() > lookback_) lookback_ = 64 * train.cost();
  self->watch_ = &w;
  ++active_watches_;
  self->state_ = Actor::State::kBlocked;
  heap_push(*self, train.at(limit));
  try {
    dispatch_from(self);
  } catch (const CancelledError&) {
    // Teardown. A stop left the wait where the plain loop stood.
    if (self->watch_ == nullptr) {
      charge(self->park_resume_);
    } else {
      unpark(*self, {});
    }
    throw;
  }
  if (self->watch_ != nullptr) unpark(*self, {self->watch_->limit, false});
  parked_polls_ += self->park_resume_.polls;
  charge(self->park_resume_);
  return self->park_resume_;
}

void Scheduler::request_stop() {
  stop_requested_ = true;
  if (current_ == nullptr || active_watches_ == 0) return;
  const Pos k = position();
  std::vector<std::pair<Actor*, ParkResume>> stopped;
  for (const auto& w : watches_) {
    if (w->actor->watch_ == w.get()) {
      stopped.emplace_back(w->actor, standing(*w, k));
    }
  }
  for (auto& [a, r] : stopped) {
    const PollTrain& t = a->watch_->train;
    a->clock_ = r.read ? t.at(r.polls) + t.cost() : t.slept_after(r.polls);
    a->watch_->end_seq = seq_ - 1;
    a->watch_->end_t = last_.t;
    unpark(*a, r);
  }
}

void Scheduler::unpark(Actor& a, const ParkResume& resume) {
  Actor::Watch& w = *a.watch_;
  w.done_t = last_.t;
  a.watch_ = nullptr;
  a.park_resume_ = resume;
  if (--active_watches_ == 0) {
    // No wait is parked: nothing can ask about the past any more.
    watches_.clear();
    prune_at_ = 64;
    pruned_until_ = 0;
    first_seq_ = seq_;
  }
}

void Scheduler::prune() {
  if (watches_.size() < prune_at_) return;
  // A question about the past reaches back a few poll ticks (a split
  // asks about the tick before it, which may ask about one before that).
  const TimePs horizon = last_.t > lookback_ ? last_.t - lookback_ : 0;
  std::erase_if(watches_, [&](const std::unique_ptr<Actor::Watch>& w) {
    if (w->done_t >= horizon) return false;
    if (w->done_t >= pruned_until_) pruned_until_ = w->done_t + 1;
    return true;
  });
  prune_at_ = 2 * watches_.size() + 64;
}

void Scheduler::record() {
  history_[seq_ % kHistory] = last_;
  ++seq_;
  if (seq_ - first_seq_ > kHistory) first_seq_ = seq_ - kHistory;
}

const Scheduler::Record& Scheduler::rec(u64 seq) const {
  if (seq < first_seq_ || seq >= seq_) {
    throw std::logic_error(
        "sim::Scheduler: a parked spin wait asked about a position older "
        "than the competition history keeps");
  }
  return history_[seq % kHistory];
}

OrderKey Scheduler::record_key(u64 seq) const {
  const Record& r = rec(seq);
  if (r.kind == kPop) return {r.t, r.id};
  if (r.yielded < 0) {
    r.yielded = virtual_pending(record_pos(seq - 1), r.t) ? 1 : 0;
  }
  return {r.t, r.yielded != 0 ? r.id : kKeepRunning};
}

bool Scheduler::real_pending(const Pos& k, TimePs x) const {
  // The first record after k: binary search on time (records are in
  // time order), then step over the ones tied with k that precede it.
  u64 lo = first_seq_;
  u64 hi = seq_;
  while (lo < hi) {
    const u64 mid = lo + (hi - lo) / 2;
    if (history_[mid % kHistory].t < k.t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == first_seq_ && first_seq_ != since_seq_) {
    rec(first_seq_ - 1);  // throws: the records before k are gone
  }
  for (u64 s = lo; s < seq_; ++s) {
    const Record& r = history_[s % kHistory];
    if (r.t > k.t || pos_less(k, record_pos(s))) return r.t < x;
  }
  assert(false && "a parked wait asked about a position not yet past");
  return false;
}

bool Scheduler::virtual_pending(const Pos& k, TimePs x,
                                const Actor::Watch* skip) const {
  if (k.t < pruned_until_) {
    throw std::logic_error(
        "sim::Scheduler: a parked spin wait asked about t=" +
        std::to_string(k.t) + " ps, before the parked waits it keeps (" +
        std::to_string(pruned_until_) + " ps; now " +
        std::to_string(last_.t) + " ps)");
  }
  for (const auto& wp : watches_) {
    const Actor::Watch& w = *wp;
    // Retired before k: every poll it skipped lies before k.
    if (&w == skip || w.done_t < k.t) continue;
    // Parked at k: after its start, before an early wake.
    if (!after(k, w.start_seq, w.start_t)) continue;
    if (w.end_seq != kNoSeq &&
        (k.t != w.end_t ? k.t > w.end_t
                        : !pos_less(k, record_pos(w.end_seq)))) {
      continue;
    }
    const PollTrain& t = w.train;
    const int id = w.actor->id_;
    const u64 n = polls_before(w, k);
    if (n > 0 && t.crosses(n - 1)) {
      const TimePs end = t.at(n - 1) + t.cost();
      if (pos_less(k, {end, id})) {  // the poll's split entry may pend
        if (end >= x) continue;      // and whatever pends is not earlier
        if (split(w, n - 1)) return true;
      }
    }
    if (n < w.limit && t.at(n) < x) return true;
  }
  return false;
}

bool Scheduler::after(const Pos& k, u64 seq, TimePs t) const {
  // k lies after record seq; the record is needed only on a time tie.
  return k.t != t ? k.t > t : pos_less(record_pos(seq), k);
}

u64 Scheduler::polls_before(const Actor::Watch& w, const Pos& k) const {
  const PollTrain& t = w.train;
  const int id = w.actor->id_;
  u64 n = t.count_before({k.t, kKeepRunning}, id);
  if (n != t.count_before({k.t, kLastId}, id)) {
    n = t.count_before({k.t, id_of(k)}, id);  // a poll tied with k
  }
  return n < w.limit ? n : w.limit;
}

bool Scheduler::split(const Actor::Watch& w, u64 j) const {
  if (w.memo_poll == j) return w.memo_split;
  const Pos k{w.train.at(j), w.actor->id_};
  const TimePs x = k.t + w.train.cost();
  const bool s = real_pending(k, x) || virtual_pending(k, x, &w);
  w.memo_poll = j;
  w.memo_split = s;
  return s;
}

ParkResume Scheduler::standing(const Actor::Watch& w, const Pos& k) const {
  const PollTrain& t = w.train;
  const int id = w.actor->id_;
  const u64 n = polls_before(w, k);
  if (n > 0 && t.crosses(n - 1) &&
      pos_less(k, {t.at(n - 1) + t.cost(), id}) && split(w, n - 1)) {
    return {n - 1, true};
  }
  return {n, false};
}

void Scheduler::word_ready(std::span<Actor* const> waiters, bool tas) {
  if (active_watches_ == 0) return;  // the waiters were all queued already
  const Pos k = position();
  if (!tas) {
    // An MPB byte is read at the poll's pop: the next poll reads it.
    for (Actor* a : waiters) {
      if (a->watch_ == nullptr) continue;
      Actor::Watch& w = *a->watch_;
      const u64 next = polls_before(w, k);
      if (next < w.limit) {
        w.limit = next;
        w.limit_quiet = true;
        heap_move(*a, w.train.at(next));
      }
    }
    return;
  }
  // A TAS register: the first read after k takes it, and every read
  // after that fails again. A waiter's next read is at its pending split
  // entry, or at its next poll's pop or, if that poll splits (unknown
  // yet), at its tick's end. Queue every waiter that may read no later
  // than the latest its earliest reader can.
  struct Next {
    Actor* a;
    ParkResume r;
    OrderKey lo;
    OrderKey hi;
  };
  std::vector<Next> next;
  OrderKey first{kTimeNever, kLastId};
  for (Actor* a : waiters) {
    if (a->watch_ == nullptr) continue;
    const Actor::Watch& w = *a->watch_;
    const PollTrain& t = w.train;
    const ParkResume r = standing(w, k);
    Next n{a, r, {t.at(r.polls), a->id_}, {}};
    if (r.read) {
      n.lo.t += t.cost();
      n.hi = n.lo;
    } else if (r.polls == w.limit && !w.limit_quiet) {
      n.hi = {kTimeNever, a->id_};  // an interrupt may come first
    } else {
      n.hi = {n.lo.t + (t.crosses(r.polls) ? t.cost() : 0), a->id_};
    }
    if (key_less(n.hi, first)) first = n.hi;
    next.push_back(n);
  }
  for (const Next& n : next) {
    if (key_less(first, n.lo)) continue;  // reads after someone took it
    Actor::Watch& w = *n.a->watch_;
    if (n.r.read) {
      w.end_seq = seq_ - 1;
      w.end_t = last_.t;
      heap_move(*n.a, n.lo.t);
      n.a->state_ = Actor::State::kScheduled;  // as a split poll's entry
      unpark(*n.a, n.r);
    } else if (n.r.polls < w.limit) {
      w.limit = n.r.polls;
      w.limit_quiet = true;
      heap_move(*n.a, n.lo.t);
    }
  }
}

}  // namespace msvm::sim
