// The event bus: bounded per-core ring buffers plus a fan-out to
// attached sinks (trace collector, heatmap, ...). One EventBus per chip.
//
// Cost model, because the zero-overhead-off guarantee depends on it:
//   * publish() is host-side only — it never touches a core's virtual
//     clock, so enabling any amount of observability cannot perturb the
//     simulation.
//   * protocol-category events are always recorded into the publishing
//     core's ring (they replaced the old per-core proto::TraceRing and
//     feed hang reports / the svm-trace section even with obs off).
//   * every other category is gated by a runtime mask. publish() is the
//     one gate: an always-inline test of category_of(kind) against the
//     mask, with ring and sink delivery out of line. A call site passes
//     a constant kind, so the category folds and a disabled event costs
//     one predictable branch; no call site states its category itself.
//     publish() takes the fields as scalars and deliver() builds the
//     Event, so nothing is stored before the branch decides.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/events.hpp"

namespace msvm::obs {

/// Anything that wants the live event stream implements this.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const Event& e) = 0;
};

/// Fixed-capacity ring of the most recent events on one track. Same
/// keep-the-newest semantics as the protocol layer's former TraceRing.
class EventRing {
 public:
  explicit EventRing(std::size_t capacity = 256) : events_(capacity) {}

  void record(const Event& e) {
    if (events_.empty()) return;
    events_[static_cast<std::size_t>(next_ % events_.size())] = e;
    ++next_;
  }

  void clear() { next_ = 0; }

  /// Total events ever recorded (>= size(); the excess was overwritten).
  u64 recorded() const { return next_; }
  std::size_t size() const {
    return next_ < events_.size() ? static_cast<std::size_t>(next_)
                                  : events_.size();
  }

  /// Oldest-to-newest snapshot of the surviving events.
  std::vector<Event> snapshot() const;

 private:
  std::vector<Event> events_;
  u64 next_ = 0;
};

class EventBus {
 public:
  explicit EventBus(int num_cores)
      : rings_(static_cast<std::size_t>(num_cores) + 1) {}

  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  int num_cores() const { return static_cast<int>(rings_.size()) - 1; }

  /// ORs extra categories into the runtime mask (kCatProto is always set).
  void enable(u32 categories) { mask_ |= categories; }

  /// Is any of `categories` being published? Not a publish gate (that
  /// is publish() itself); for callers whose own behaviour depends on
  /// whether an event stream is watched.
  bool enabled(u32 categories) const { return (mask_ & categories) != 0; }

  /// Subscribes `sink` to every event that passes the mask.
  void attach(EventSink* sink) { sinks_.push_back(sink); }

  /// The one publish gate: events whose category is masked off stop
  /// here, before any ring or sink sees them. `core` -1 (or any id out
  /// of range) publishes on the chip-level track.
  [[gnu::always_inline]] inline void publish(EventKind kind, i32 core,
                                             u64 t_ps, u64 a = 0,
                                             u64 b = 0, u64 c = 0) {
    if ((mask_ & category_of(kind)) != 0) deliver(kind, core, t_ps, a, b, c);
  }

  /// Per-core ring; index num_cores() (or any core id out of range,
  /// including -1) is the chip-level ring.
  const EventRing& ring(int core) const {
    return const_cast<EventBus*>(this)->ring_of(core);
  }

 private:
  /// Builds the event, records it in its core's ring if it is a
  /// protocol event, and fans it out to every sink.
  void deliver(EventKind kind, i32 core, u64 t_ps, u64 a, u64 b, u64 c);

  EventRing& ring_of(int core) {
    const std::size_t chip = rings_.size() - 1;
    const std::size_t i =
        core >= 0 && core < static_cast<int>(chip)
            ? static_cast<std::size_t>(core)
            : chip;
    return rings_[i];
  }

  std::vector<EventRing> rings_;  // [0, N) per core, [N] chip-level
  std::vector<EventSink*> sinks_;
  u32 mask_ = kCatProto;
};

// ---------------------------------------------------------------------------
// Process-wide observability configuration. Benches (via bench_common's
// obs_setup) fill it from --trace/--metrics/--heatmap flags before any
// chip exists; every Chip constructor then applies it to its own bus.
// Default-constructed (all off) it changes nothing.

struct RuntimeConfig {
  u32 categories = 0;        // extra categories every new chip enables
  bool collect = false;      // attach the global TraceCollector
  bool heatmap = false;      // attach the global PageHeatmap
  bool metrics = false;      // fold run counters into global_metrics()
  std::string trace_path;    // Chrome-trace JSON output ("" = off)
  std::string heatmap_path;  // heatmap JSON output ("" = off)
};

RuntimeConfig& runtime_config();

}  // namespace msvm::obs
