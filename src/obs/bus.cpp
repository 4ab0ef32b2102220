#include "obs/bus.hpp"

namespace msvm::obs {

std::vector<Event> EventRing::snapshot() const {
  std::vector<Event> out;
  const std::size_t n = size();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const u64 idx = (next_ - n + i) % events_.size();
    out.push_back(events_[static_cast<std::size_t>(idx)]);
  }
  return out;
}

void EventBus::deliver(EventKind kind, i32 core, u64 t_ps, u64 a, u64 b,
                       u64 c) {
  const Event e{t_ps, a, b, c, kind, core};
  if (category_of(kind) == kCatProto) ring_of(core).record(e);
  for (EventSink* sink : sinks_) sink->on_event(e);
}

RuntimeConfig& runtime_config() {
  static RuntimeConfig cfg;
  return cfg;
}

}  // namespace msvm::obs
