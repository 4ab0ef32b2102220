// The simulated SCC chip: cores, memory, mesh latency model, GIC, TAS
// registers, the discrete-event scheduler, and the optional memory-
// controller contention model. One Chip instance is one simulation.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/bus.hpp"
#include "sccsim/addrmap.hpp"
#include "sccsim/config.hpp"
#include "sccsim/core.hpp"
#include "sccsim/counters.hpp"
#include "sccsim/gic.hpp"
#include "sccsim/latency.hpp"
#include "sccsim/memory.hpp"
#include "sccsim/mesh.hpp"
#include "sim/faults.hpp"
#include "sim/scheduler.hpp"

namespace msvm::scc {

class Chip {
 public:
  explicit Chip(ChipConfig cfg);
  ~Chip();

  Chip(const Chip&) = delete;
  Chip& operator=(const Chip&) = delete;

  const ChipConfig& config() const { return cfg_; }
  const AddrMap& map() const { return memory_.map(); }
  /// Runtime mesh topology (owned by the address map, built first).
  const Topology& topology() const { return memory_.map().topology(); }
  Memory& memory() { return memory_; }
  const LatencyModel& latency() const { return latency_; }
  Gic& gic() { return gic_; }
  sim::Scheduler& scheduler() { return sched_; }
  sim::FaultInjector& faults() { return faults_; }
  sim::Watchdog& watchdog() { return watchdog_; }

  /// This chip's observability event bus (see obs/bus.hpp). Configured
  /// from obs::runtime_config() at construction; with observability off
  /// it only keeps the always-on per-core protocol rings.
  obs::EventBus& bus() { return bus_; }
  const obs::EventBus& bus() const { return bus_; }

  int num_cores() const { return cfg_.num_cores; }
  Core& core(int i) { return *cores_.at(static_cast<std::size_t>(i)); }

  /// Registers the SPMD program to run on `core_id`. Must be called for
  /// every participating core before run().
  void spawn_program(int core_id, std::function<void(Core&)> fn);

  /// Runs the simulation until every spawned program finishes. Throws
  /// sim::HangError (carrying the structured hang report) when the
  /// watchdog trips; with the watchdog armed, a scheduler deadlock is
  /// converted into a HangError too, so chaos runs always fail typed.
  void run();

  /// Extra queueing delay at memory controller `mc` for a transaction
  /// issued at time `t` (zero unless mc_contention is enabled).
  TimePs mc_queue_delay(int mc, TimePs t);

  // ---- watched words: the parked spin waits (kernel::spin_wait) ----

  /// Registers `core`'s spin wait, about to park, on `w`; unwatch()
  /// takes it off again once it runs.
  void watch(Core& core, const WatchedWord& w);
  void unwatch(Core& core, const WatchedWord& w);

  /// Releases Test-and-Set register `reg` (a write by the running core)
  /// and queues the parked waiters that may read it first.
  void release_tas(int reg);

  /// A store by the running core reached MPB bytes [paddr, paddr+size):
  /// queues each parked waiter whose byte now holds what it waits for.
  void mpb_written(u64 paddr, u32 size) {
    if (!mpb_watch_.empty()) wake_mpb_watchers(paddr, size);
  }

  /// Sum of all cores' counters.
  CoreCounters total_counters() const;

  /// Latest virtual completion time across all spawned programs.
  TimePs makespan() const { return makespan_; }

  // ---- fail-stop failure model (host-side bookkeeping; all vectors stay
  // empty — and every query a constant branch — unless the fault plan
  // schedules kills or arms the heartbeat lease) ----

  /// True when the fault plan schedules at least one core kill. A core
  /// may then die inside any access, so no spin wait parks
  /// (Core::can_park).
  bool tracking_deaths() const { return !kill_at_.empty(); }

  /// Virtual time core `i` is scheduled to fail-stop (kTimeNever: never).
  TimePs kill_time(int i) const {
    return kill_at_.empty() ? kTimeNever
                            : kill_at_[static_cast<std::size_t>(i)];
  }

  /// True once core `i` has fail-stopped.
  bool core_dead(int i) const {
    return !dead_.empty() && dead_[static_cast<std::size_t>(i)] != 0;
  }
  int dead_count() const { return dead_count_; }

  /// The physical line address core `i`'s write-combine buffer held when
  /// it died (valid flag separate: paddr 0 is a legal line). With a
  /// write-through L1 this is the *only* store a dead core can have
  /// failed to make globally visible.
  bool dead_wcb_valid(int i) const {
    return !dead_wcb_valid_.empty() &&
           dead_wcb_valid_[static_cast<std::size_t>(i)] != 0;
  }
  u64 dead_wcb_line(int i) const {
    return dead_wcb_line_[static_cast<std::size_t>(i)];
  }

  /// Fail-stops the calling core mid-instruction-stream: captures its
  /// unflushed WCB line, marks it dead, publishes the kill event, and
  /// parks its fiber forever via Scheduler::kill_self(). Never returns.
  void fail_stop(Core& c);

  // Heartbeat lease failure detection (kernel timer handlers feed it).
  bool lease_enabled() const { return cfg_.faults.lease_ps > 0; }
  void record_heartbeat(int core, TimePs now) {
    if (!heartbeat_.empty()) {
      heartbeat_[static_cast<std::size_t>(core)] = now;
    }
  }
  /// The shared failure-detection predicate: true when `peer` has not
  /// heartbeated for longer than the lease. False whenever the lease is
  /// disabled — detection is an opt-in recovery knob, never ambient.
  bool peer_presumed_dead(int peer, TimePs now) const {
    if (heartbeat_.empty()) return false;
    return now - heartbeat_[static_cast<std::size_t>(peer)] >
           cfg_.faults.lease_ps;
  }

 private:
  /// The hang report's TAS section: one line per held register, naming
  /// its holder and whether that core is dead.
  void append_held_tas(std::string& out) const;

  void wake_mpb_watchers(u64 paddr, u32 size);

  struct MpbWatch {
    Core* core;
    WatchedWord word;
  };

  ChipConfig cfg_;
  Memory memory_;
  LatencyModel latency_;
  Gic gic_;
  sim::Scheduler sched_;
  sim::FaultInjector faults_;
  sim::Watchdog watchdog_;
  obs::EventBus bus_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<TimePs> mc_busy_until_;
  TimePs makespan_ = 0;

  // Parked spin waits: by TAS register, and the MPB bytes watched
  // (sorted by byte).
  std::vector<std::vector<sim::Actor*>> tas_watch_;
  std::vector<int> tas_watched_;  // by core: its register, or -1
  std::vector<MpbWatch> mpb_watch_;

  // Fail-stop bookkeeping (sized in the ctor only when the plan asks).
  std::vector<TimePs> kill_at_;     // per-core scheduled death time
  std::vector<u8> dead_;            // 1 = core has fail-stopped
  std::vector<u8> dead_wcb_valid_;  // 1 = line below was dirty at death
  std::vector<u64> dead_wcb_line_;  // unflushed WCB line paddr at death
  std::vector<TimePs> heartbeat_;   // last heartbeat per core (lease mode)
  int dead_count_ = 0;
};

}  // namespace msvm::scc
