#include "sccsim/chip.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "obs/chrome_trace.hpp"
#include "obs/heatmap.hpp"
#include "obs/metrics.hpp"
#include "sim/log.hpp"

namespace msvm::scc {

namespace {

/// Validated pass-through used in the member initializer list, so a bad
/// config is rejected before any member sized off it is constructed.
ChipConfig checked(ChipConfig cfg) {
  const std::string err = validate_config(cfg);
  if (!err.empty()) {
    throw std::invalid_argument("msvm::scc::ChipConfig: " + err);
  }
  return cfg;
}

}  // namespace

Chip::Chip(ChipConfig cfg)
    : cfg_(checked(std::move(cfg))),
      memory_(cfg_),
      latency_(cfg_),
      gic_(cfg_.num_cores),
      faults_(cfg_.faults),
      watchdog_(sched_, cfg_.faults.watchdog_ps),
      bus_(cfg_.num_cores),
      mc_busy_until_(
          static_cast<std::size_t>(topology().num_mem_controllers()), 0),
      tas_watch_(static_cast<std::size_t>(topology().max_cores())),
      tas_watched_(static_cast<std::size_t>(cfg_.num_cores), -1) {
  // Apply the process-wide observability configuration (filled by the
  // bench --trace/--metrics flags; default all-off and side-effect-free).
  const obs::RuntimeConfig& ocfg = obs::runtime_config();
  if (ocfg.categories != 0) bus_.enable(ocfg.categories);
  if (ocfg.collect) {
    obs::global_collector().begin_session(cfg_.num_cores);
    bus_.attach(&obs::global_collector());
  }
  if (ocfg.heatmap) bus_.attach(&obs::global_heatmap());
  watchdog_.bind_bus(&bus_);
  if (watchdog_.enabled()) {
    watchdog_.add_provider(
        [this](std::string& out) { append_held_tas(out); });
  }
  // Size the fail-stop bookkeeping only when the plan schedules kills
  // (every accessor stays a branch on an empty vector otherwise).
  if (!cfg_.faults.kills.empty()) {
    kill_at_.assign(static_cast<std::size_t>(cfg_.num_cores), kTimeNever);
    for (const sim::KillSpec& k : cfg_.faults.kills) {
      if (k.core < 0 || k.core >= cfg_.num_cores) {
        throw std::invalid_argument(
            "msvm::scc::ChipConfig: kill targets core " +
            std::to_string(k.core) + " but the chip runs " +
            std::to_string(cfg_.num_cores) + " cores");
      }
      auto& at = kill_at_[static_cast<std::size_t>(k.core)];
      if (k.at_ps < at) at = k.at_ps;
    }
    dead_.assign(static_cast<std::size_t>(cfg_.num_cores), 0);
    dead_wcb_valid_.assign(static_cast<std::size_t>(cfg_.num_cores), 0);
    dead_wcb_line_.assign(static_cast<std::size_t>(cfg_.num_cores), 0);
  }
  if (cfg_.faults.lease_ps > 0) {
    heartbeat_.assign(static_cast<std::size_t>(cfg_.num_cores), 0);
  }
  cores_.reserve(static_cast<std::size_t>(cfg_.num_cores));
  for (int i = 0; i < cfg_.num_cores; ++i) {
    cores_.push_back(std::make_unique<Core>(*this, i));
  }
  // IPIs must pull a halted core out of its sleep: route GIC raises to the
  // scheduler wake of the target actor, delayed by the wire latency.
  gic_.wake_fn = [this](int target, TimePs at) {
    sim::Actor* actor = core(target).actor();
    if (actor == nullptr) return;
    sched_.wake(*actor, at + kIpiWirePs);
    // A parked TAS waiter queued to take a free register now runs its
    // handler first: another parked waiter may read the register first.
    const int reg = tas_watched_[static_cast<std::size_t>(target)];
    if (reg >= 0 && memory_.tas_holder(reg) < 0) {
      sched_.word_ready(tas_watch_[static_cast<std::size_t>(reg)],
                        /*tas=*/true);
    }
  };
}

Chip::~Chip() {
  if (!obs::runtime_config().metrics) return;
  // Fold this chip's lifetime counters into the process-wide registry
  // (the --metrics flag dumps it into BENCH_*.json at exit).
  obs::MetricsRegistry& m = obs::global_metrics();
  obs::fold_fields(m, "core", total_counters(), kCoreCounterFields);
  m.observe("chip.makespan_ps", makespan_);
}

void Chip::spawn_program(int core_id, std::function<void(Core&)> fn) {
  Core& c = core(core_id);
  assert(c.actor() == nullptr && "core already has a program");
  sim::Actor& actor = sched_.spawn(
      "core" + std::to_string(core_id),
      [this, core_id, fn = std::move(fn)] {
        Core& self = core(core_id);
        fn(self);
        if (self.now() > makespan_) makespan_ = self.now();
      });
  c.bind_actor(&actor);
}

void Chip::run() {
  try {
    sched_.run();
  } catch (const sim::DeadlockError& e) {
    // Unwind the blocked fibers NOW, while the caller's kernels,
    // mailboxes and SVM runtimes — which the parked stack frames
    // reference — are all still alive. Leaving the unwind to
    // ~Scheduler would run those frames' destructors against
    // already-destroyed objects (the chip typically outlives them in
    // declaration order).
    sched_.cancel_all();
    if (!watchdog_.enabled()) throw;
    // With the watchdog armed every failure is typed: even a hard
    // deadlock (all actors blocked before any wait-loop check fired)
    // surfaces as a HangError carrying the actor enumeration.
    throw sim::HangError("simulated hang (deadlock with watchdog armed)",
                         std::string(e.what()) + "\n");
  }
  if (dead_count_ > 0 && !watchdog_.tripped()) {
    // Killed fibers are parked mid-stack; unwind them now, from the main
    // context, while the kernels/mailboxes/SVM runtimes their frames
    // reference are still alive. Leaving this to ~Scheduler would
    // destruct those frames after the caller's objects are gone.
    sched_.cancel_all();
  }
  if (watchdog_.tripped()) {
    // The tripping actor recorded the report, requested a stop, and
    // parked itself; the scheduler returned early. Unwind every parked
    // fiber while the objects their frames reference are still alive
    // (see above), then surface the report here, from the main context,
    // where the exception can safely propagate.
    sched_.cancel_all();
    throw sim::HangError("simulated hang detected by watchdog",
                         watchdog_.report());
  }
}

void Chip::fail_stop(Core& c) {
  const int id = c.id();
  if (core_dead(id)) return;
  dead_[static_cast<std::size_t>(id)] = 1;
  ++dead_count_;
  if (c.wcb().valid()) {
    dead_wcb_valid_[static_cast<std::size_t>(id)] = 1;
    dead_wcb_line_[static_cast<std::size_t>(id)] = c.wcb().line_addr();
  }
  MSVM_LOG_INFO("chaos: core %d fail-stopped at %.3fms (wcb %s)", id,
                ps_to_ms(c.now()), c.wcb().valid() ? "dirty" : "clean");
  c.publish(obs::EventKind::kFaultInject,
            static_cast<u64>(obs::InjectKind::kCoreKill));
  sched_.kill_self();
}

void Chip::append_held_tas(std::string& out) const {
  for (int reg = 0; reg < topology().max_cores(); ++reg) {
    const int holder = memory_.tas_holder(reg);
    if (holder < 0) continue;
    out += "tas reg " + std::to_string(reg) + ": held by core " +
           std::to_string(holder) + (core_dead(holder) ? " (dead)" : "") +
           "\n";
  }
}

void Chip::watch(Core& core, const WatchedWord& w) {
  if (w.kind == WatchedWord::Kind::kTas) {
    tas_watch_.at(static_cast<std::size_t>(w.reg)).push_back(core.actor());
    tas_watched_[static_cast<std::size_t>(core.id())] = w.reg;
  } else {
    // Kept sorted by byte, so a store finds its watchers by search.
    const auto at = std::lower_bound(
        mpb_watch_.begin(), mpb_watch_.end(), w.paddr,
        [](const MpbWatch& m, u64 paddr) { return m.word.paddr < paddr; });
    mpb_watch_.insert(at, {&core, w});
  }
}

void Chip::unwatch(Core& core, const WatchedWord& w) {
  if (w.kind == WatchedWord::Kind::kTas) {
    std::vector<sim::Actor*>& list =
        tas_watch_[static_cast<std::size_t>(w.reg)];
    std::erase(list, core.actor());
    tas_watched_[static_cast<std::size_t>(core.id())] = -1;
  } else {
    auto it = std::lower_bound(
        mpb_watch_.begin(), mpb_watch_.end(), w.paddr,
        [](const MpbWatch& m, u64 paddr) { return m.word.paddr < paddr; });
    while (it->core != &core) ++it;
    mpb_watch_.erase(it);
  }
}

void Chip::release_tas(int reg) {
  memory_.tas_write_release(reg);
  const std::vector<sim::Actor*>& list =
      tas_watch_[static_cast<std::size_t>(reg)];
  if (!list.empty()) sched_.word_ready(list, /*tas=*/true);
}

void Chip::wake_mpb_watchers(u64 paddr, u32 size) {
  auto it = std::lower_bound(
      mpb_watch_.begin(), mpb_watch_.end(), paddr,
      [](const MpbWatch& m, u64 p) { return m.word.paddr < p; });
  for (; it != mpb_watch_.end() && it->word.paddr < paddr + size; ++it) {
    const MpbWatch& m = *it;
    if (m.core->word_ready(m.word)) {
      sim::Actor* actor = m.core->actor();
      sched_.word_ready(std::span<sim::Actor* const>(&actor, 1),
                        /*tas=*/false);
    }
  }
}

TimePs Chip::mc_queue_delay(int mc, TimePs t) {
  if (!cfg_.mc_contention) return 0;
  auto& busy = mc_busy_until_[static_cast<std::size_t>(mc)];
  const TimePs start = busy > t ? busy : t;
  busy = start + latency_.mc_service();
  return start - t;
}

CoreCounters Chip::total_counters() const {
  CoreCounters total;
  for (const auto& c : cores_) total += c->counters();
  return total;
}

}  // namespace msvm::scc
