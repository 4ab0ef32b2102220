#include "sccsim/chip.hpp"

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
          static_cast<std::size_t>(topology().num_mem_controllers()), 0) {
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
    tas_owner_.assign(
        static_cast<std::size_t>(topology().max_cores()), -1);
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
    if (actor != nullptr) {
      sched_.wake(*actor, at + cfg_.ipi_wire_ps);
    }
  };
}

Chip::~Chip() {
  if (!obs::runtime_config().metrics) return;
  // Fold this chip's lifetime counters into the process-wide registry
  // (the --metrics flag dumps it into BENCH_*.json at exit).
  obs::MetricsRegistry& m = obs::global_metrics();
  obs::fold_fields(m, "core", total_counters(), kCoreCounterFields);
  m.observe("chip.makespan_ms",
            static_cast<double>(makespan_) / 1e9);
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
  if (bus_.enabled(obs::kCatChaos)) {
    bus_.publish(obs::Event{
        static_cast<obs::u64>(c.now()),
        static_cast<obs::u64>(obs::InjectKind::kCoreKill), 0, 0,
        obs::EventKind::kFaultInject, id});
  }
  sched_.kill_self();
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
