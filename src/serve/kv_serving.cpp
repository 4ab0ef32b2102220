#include "serve/kv_serving.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "mailbox/mailbox.hpp"
#include "sccsim/chip.hpp"

namespace msvm::serve {

namespace {

/// Modelled client-loop bookkeeping cost per productive iteration.
constexpr u64 kLoopCycles = 32;
/// Re-poll gap while a send target's slot is full or acks are pending.
constexpr TimePs kBusyRetryPs = 2 * kPsPerUs;
/// Poll-mode idle granularity (an IPI-less receiver must scan slots).
constexpr TimePs kPollGapPs = 20 * kPsPerUs;
constexpr TimePs kMinIdlePs = 200 * kPsPerNs;

/// One in-flight client request.
struct Slot {
  bool active = false;
  Request req;
  u64 reqid = 0;
  int dest = -1;
  TimePs deadline = 0;
  u32 tries = 0;
};

/// A reply whose first try_send found the requester's slot full.
struct PendingAck {
  int dest;
  mbox::Mail mail;
  TimePs deadline;
};

/// Host-side per-rank tallies, merged into the result after the run.
struct CoreTally {
  u64 issued = 0, completed = 0, in_window = 0, wrong = 0, timeouts = 0;
  u64 dead_shed = 0;
  u64 unfinished = 0, retransmits = 0, stale_acks = 0;
  u64 gets = 0, puts = 0, scans = 0;
  u64 served_ops = 0, local_ops = 0, acks_dropped = 0;
  int late_start = 0;
  obs::LatencyHisto histo;
};

}  // namespace

KvServingResult run_kv_serving(const KvServingParams& p, svm::Model model,
                               int num_cores) {
  cluster::ClusterConfig cfg;
  cfg.chip.num_cores = num_cores;
  cfg.chip.shared_dram_bytes = 32 << 20;
  cfg.chip.private_dram_bytes = 1 << 20;
  cfg.svm.model = model;
  cfg.svm.read_replication = p.read_replication;
  cfg.use_ipi = p.use_ipi;
  cfg.chip.faults = p.faults;
  // The serving tier is the one place a lease is consulted as a *detector*
  // (shed-on-presumed-dead at issue time), not merely as a grace period on
  // a ground-truth death. A sound detector needs heartbeats refreshed well
  // inside the lease, and heartbeats ride the kernel timer tick — so when
  // lease detection is armed, shorten the tick to a quarter of the lease.
  if (p.faults.lease_ps > 0) {
    const u64 tick_us =
        std::max<u64>(1, p.faults.lease_ps / (4 * kPsPerUs));
    cfg.chip.timer_period_us =
        std::min<u64>(cfg.chip.timer_period_us, tick_us);
  }
  cluster::Cluster cl(cfg);
  const std::vector<int>& members = cl.members();

  // The popularity table is identical for every rank; build it once.
  const ZipfSampler zipf(p.gen.num_keys, p.gen.zipf_theta);
  std::vector<CoreTally> tally(static_cast<std::size_t>(num_cores));

  cl.run([&](cluster::Node& n) {
    svm::Svm& svm = n.svm();
    scc::Core& core = n.core();
    mbox::MailboxSystem& mb = n.mbox();
    scc::Chip& chip = core.chip();
    const int rank = n.rank();
    CoreTally& t = tally[static_cast<std::size_t>(rank)];

    KvStore store(svm, p.store, n.size());
    // Home-side init, first touch placing each shard near its home. No
    // barrier afterwards: a home serves only after its own init, and
    // requests that arrive early just wait in the software inbox.
    for (u32 s = 0; s < store.num_shards(); ++s) {
      if (store.home_rank(s) == rank) store.init_shard(s);
    }

    // Time-rendezvous at the start epoch: everyone's stream clock is the
    // same virtual instant, so a request's home is in (or about to
    // enter) its serve loop when the request lands. No barrier — a core
    // that died during init simply never shows up, and nobody waits.
    // While asleep a core takes no timer ticks, so with lease detection
    // armed it must wake often enough to keep heartbeating or its peers
    // will shed traffic to a perfectly healthy core.
    const TimePs max_nap = chip.lease_enabled()
                               ? p.faults.lease_ps / 4
                               : std::numeric_limits<TimePs>::max();
    while (core.now() < p.start_epoch_ps) {
      if (!mb.use_ipi()) mb.poll_all();
      TimePs left = p.start_epoch_ps - core.now();
      if (!mb.use_ipi()) left = std::min(left, kPollGapPs);
      core.relax(std::min(left, max_nap));
    }
    // The relax wake lands a hair past the epoch (interrupt delivery
    // granularity); only a core whose *init* overran the epoch is late.
    if (core.now() > p.start_epoch_ps + 50 * kPsPerUs) ++t.late_start;

    OpenLoopGen gen(p.gen, zipf, p.seed, rank);
    const TimePs t0 = p.start_epoch_ps;
    const TimePs t_end = t0 + p.gen.load_ps + p.drain_ps;

    std::deque<Request> backlog;
    std::vector<Slot> slots(p.max_outstanding);
    std::deque<PendingAck> pending_acks;
    // Request ids are 64-bit (rank << 32 | monotonic from 1) because a
    // serving run issues far more requests than a 16-bit protocol
    // sequence could distinguish. An id is spent only by a successful
    // send, so a retry after a full slot goes out under the same id.
    u64 next_reqid = 1;
    const u64 rank_tag = static_cast<u64>(rank) << 32;

    auto is_req = [](const mbox::Mail& m) {
      return m.type == kMailKvReq;
    };
    auto is_ack = [](const mbox::Mail& m) {
      return m.type == kMailKvAck;
    };

    auto exec = [&](KvOp op, u64 key, u32 scan_len) -> KvStore::OpResult {
      switch (op) {
        case KvOp::kGet: return store.get(key);
        case KvOp::kPut: return store.put(key);
        case KvOp::kScan: return store.scan(key, std::max(1u, scan_len));
      }
      return {};
    };

    auto count_op = [&](KvOp op) {
      if (op == KvOp::kGet) ++t.gets;
      else if (op == KvOp::kPut) ++t.puts;
      else ++t.scans;
    };

    /// Client-side end-to-end check of a reply against the
    /// self-verifying value scheme.
    auto reply_ok = [&](const Request& req, const mbox::Mail& ack) {
      if (ack.arg16 != kKvStatusOk) return false;
      if (req.op == KvOp::kScan) return true;  // server-verified fold
      return ack.p2 == KvStore::value_fold(p.store.seed, req.key, ack.p1,
                                           p.store.value_words);
    };

    auto serve_one = [&](const mbox::Mail& m) {
      const auto op = static_cast<KvOp>(m.arg16 & 3);
      const u32 scan_len = m.arg16 >> 2;
      const KvStore::OpResult r = exec(op, m.p0, scan_len);
      ++t.served_ops;
      mbox::Mail ack;
      ack.type = kMailKvAck;
      ack.arg16 = r.ok ? kKvStatusOk : kKvStatusCorrupt;
      ack.p0 = m.p1;  // reqid
      ack.p1 = op == KvOp::kScan ? r.count : r.version;
      ack.p2 = r.fold;
      if (!mb.try_send(m.sender, ack)) {
        pending_acks.push_back(
            {m.sender, ack, core.now() + p.timeout_ps});
      }
    };

    auto complete = [&](const mbox::Mail& ack) {
      for (Slot& s : slots) {
        if (!s.active || s.reqid != ack.p0) continue;
        ++t.completed;
        if (core.now() <= t0 + p.gen.load_ps) ++t.in_window;
        if (!reply_ok(s.req, ack)) ++t.wrong;
        t.histo.record(core.now() - (t0 + s.req.arrival));
        s.active = false;
        return;
      }
      ++t.stale_acks;  // late ack of a retired request (dup/retry)
    };

    auto run_local = [&](const Request& r) {
      const KvStore::OpResult res = exec(r.op, r.key, r.scan_len);
      ++t.local_ops;
      ++t.issued;
      count_op(r.op);
      ++t.completed;
      if (core.now() <= t0 + p.gen.load_ps) ++t.in_window;
      const bool ok =
          res.ok && (r.op == KvOp::kScan ||
                     res.fold == KvStore::value_fold(p.store.seed, r.key,
                                                     res.version,
                                                     p.store.value_words));
      if (!ok) ++t.wrong;
      t.histo.record(core.now() - (t0 + r.arrival));
    };

    // Issues the oldest queued arrival if a slot is free and the
    // transport accepts it; returns whether anything moved.
    auto try_issue = [&]() -> bool {
      if (backlog.empty()) return false;
      Slot* free_slot = nullptr;
      for (Slot& s : slots) {
        if (!s.active) {
          free_slot = &s;
          break;
        }
      }
      if (free_slot == nullptr) return false;
      const Request r = backlog.front();
      const int dest = members[static_cast<std::size_t>(
          store.home_rank(store.shard_of(r.key)))];
      if (dest == core.id()) {
        backlog.pop_front();
        run_local(r);
        return true;
      }
      if (chip.peer_presumed_dead(dest, core.now())) {
        backlog.pop_front();
        ++t.dead_shed;  // typed loss: the shard's home is gone
        return true;
      }
      // No age-based shedding: open loop means an arrival that queued
      // behind the outstanding limit is *measured* (its waiting time is
      // latency), never quietly dropped. Stuck destinations are handled
      // above (presumed dead) and by the per-slot timeout machinery;
      // anything still queued at the end of the run counts unfinished.
      mbox::Mail m;
      m.type = kMailKvReq;
      m.arg16 = static_cast<u16>(static_cast<u16>(r.op) |
                                 (u32{r.scan_len} << 2));
      m.p0 = r.key;
      m.p1 = rank_tag | next_reqid;
      if (!mb.try_send(dest, m)) return false;  // slot full; retry later
      backlog.pop_front();
      free_slot->active = true;
      free_slot->req = r;
      free_slot->reqid = m.p1;
      free_slot->dest = dest;
      free_slot->deadline = core.now() + p.timeout_ps;
      free_slot->tries = 1;
      ++next_reqid;
      ++t.issued;
      count_op(r.op);
      return true;
    };

    auto check_timeouts = [&]() {
      for (Slot& s : slots) {
        if (!s.active || core.now() < s.deadline) continue;
        if (s.tries <= p.retries &&
            !chip.peer_presumed_dead(s.dest, core.now())) {
          mbox::Mail m;
          m.type = kMailKvReq;
          m.arg16 = static_cast<u16>(static_cast<u16>(s.req.op) |
                                     (u32{s.req.scan_len} << 2));
          m.p0 = s.req.key;
          m.p1 = s.reqid;  // same id: a late first reply still matches
          if (mb.try_send(s.dest, m)) {
            ++s.tries;
            ++t.retransmits;
            s.deadline = core.now() + p.timeout_ps;
          } else {
            // Channel to the home is full — traffic is moving, just not
            // our turn. Nudge the deadline and try the retransmit again
            // shortly instead of declaring the request lost.
            s.deadline = core.now() + kBusyRetryPs;
          }
          continue;
        }
        ++t.timeouts;
        s.active = false;
      }
    };

    auto flush_acks = [&]() {
      for (std::size_t i = 0; i < pending_acks.size();) {
        PendingAck& a = pending_acks[i];
        if (chip.peer_presumed_dead(a.dest, core.now()) ||
            core.now() >= a.deadline) {
          ++t.acks_dropped;
          pending_acks.erase(pending_acks.begin() +
                             static_cast<std::ptrdiff_t>(i));
          continue;
        }
        if (mb.try_send(a.dest, a.mail)) {
          pending_acks.erase(pending_acks.begin() +
                             static_cast<std::ptrdiff_t>(i));
          continue;
        }
        ++i;
      }
    };

    while (core.now() < t_end) {
      bool progress = false;
      while (std::optional<mbox::Mail> m = mb.try_take(is_req)) {
        serve_one(*m);
        progress = true;
      }
      while (std::optional<mbox::Mail> m = mb.try_take(is_ack)) {
        complete(*m);
        progress = true;
      }
      flush_acks();
      check_timeouts();
      while (gen.has_next() && t0 + gen.next_arrival() <= core.now()) {
        backlog.push_back(gen.take());
      }
      while (try_issue()) progress = true;
      if (progress) {
        core.compute_cycles(kLoopCycles);
        continue;
      }
      // Idle until the next interesting instant: the next arrival, the
      // earliest in-flight deadline, or the end of the run — cut short
      // by any incoming IPI (a request to serve, a reply to take).
      TimePs wake = t_end;
      if (gen.has_next()) {
        wake = std::min(wake, t0 + gen.next_arrival());
      }
      for (const Slot& s : slots) {
        if (s.active) wake = std::min(wake, s.deadline);
      }
      if (!backlog.empty() || !pending_acks.empty()) {
        wake = std::min(wake, core.now() + kBusyRetryPs);
      }
      TimePs gap =
          wake > core.now() ? wake - core.now() : kMinIdlePs;
      if (!mb.use_ipi()) {
        mb.poll_all();  // nobody will interrupt us: scan the slots
        gap = std::min(gap, kPollGapPs);
      }
      core.relax(std::min(gap, max_nap));
    }

    for (Slot& s : slots) {
      if (s.active) ++t.unfinished;
    }
    t.unfinished += backlog.size();
    for (const PendingAck& a : pending_acks) {
      (void)a;
      ++t.acks_dropped;
    }
  });

  KvServingResult result;
  for (const CoreTally& t : tally) {
    result.issued += t.issued;
    result.completed += t.completed;
    result.completed_in_window += t.in_window;
    result.wrong += t.wrong;
    result.timeouts += t.timeouts;
    result.dead_shed += t.dead_shed;
    result.unfinished += t.unfinished;
    result.retransmits += t.retransmits;
    result.stale_acks += t.stale_acks;
    result.gets += t.gets;
    result.puts += t.puts;
    result.scans += t.scans;
    result.served_ops += t.served_ops;
    result.local_ops += t.local_ops;
    result.acks_dropped += t.acks_dropped;
    result.late_starts += t.late_start;
    result.latency.merge(t.histo);
  }
  // Goodput counts only completions inside the load window: at
  // saturation the backlog keeps completing through the drain window,
  // and counting those would report the *offered* rate, not capacity.
  result.goodput_rps =
      static_cast<double>(result.completed_in_window) /
      (static_cast<double>(p.gen.load_ps) /
       static_cast<double>(kPsPerSec));
  result.failures = cl.failures();
  for (const int c : cl.members()) {
    if (cl.chip().core_dead(c)) {
      ++result.ranks_lost;
      continue;
    }
    const svm::SvmStats& s = cl.node(c).svm().stats();
    result.recoveries += s.recoveries;
    result.pages_lost += s.pages_lost;
  }
  result.makespan = cl.makespan();
  return result;
}

}  // namespace msvm::serve
