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

void EventBus::deliver(const Event& e) {
  if (category_of(e.kind) == kCatProto) ring_of(e.core).record(e);
  for (EventSink* sink : sinks_) sink->on_event(e);
}

RuntimeConfig& runtime_config() {
  static RuntimeConfig cfg;
  return cfg;
}

}  // namespace msvm::obs
