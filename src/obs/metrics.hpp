// The metrics registry: named typed counters and histograms, enumerable
// by the cluster report and dumped into BENCH_*.json.
//
// This replaces the ad-hoc plumbing where every stats struct
// (CoreCounters, SvmStats, MailboxStats) needed hand-written aggregation
// in the report and hand-picked fields in each bench: the structs now
// describe themselves through field tables, and fold_* pours any of them
// into the registry under a dotted prefix ("core.loads", "svm.barriers",
// "mailbox.sent"). Host-side only; nothing here touches virtual time.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "obs/events.hpp"
#include "obs/latency_histo.hpp"

namespace msvm::obs {

class MetricsRegistry {
 public:
  /// Accumulates `delta` into the named counter (creating it at 0).
  void add(const std::string& name, u64 delta) {
    counters_[name] += delta;
  }
  void set(const std::string& name, u64 value) { counters_[name] = value; }
  u64 counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  /// Records one sample into the named histogram.
  void observe(const std::string& name, u64 sample) {
    histograms_[name].record(sample);
  }

  bool empty() const { return counters_.empty() && histograms_.empty(); }
  void clear() {
    counters_.clear();
    histograms_.clear();
  }

  /// Sorted (name, value) view of every counter.
  const std::map<std::string, u64>& counters() const { return counters_; }

  /// Sorted (name, histogram) view of every observed name.
  const std::map<std::string, LatencyHisto>& histograms() const {
    return histograms_;
  }

  /// JSON object `{"name": value, ..., "hist": {count,...}}` with every
  /// entry on its own line prefixed by `indent`.
  std::string to_json(const std::string& indent) const;

 private:
  std::map<std::string, u64> counters_;
  std::map<std::string, LatencyHisto> histograms_;
};

/// The process-wide registry the --metrics flag folds run totals into.
MetricsRegistry& global_metrics();

/// Pours a self-describing stats struct (any struct with a field table
/// of {name, pointer-to-member}) into `m` under `prefix` + ".".
template <typename Struct, typename Field, std::size_t N>
void fold_fields(MetricsRegistry& m, const std::string& prefix,
                 const Struct& s, const Field (&fields)[N]) {
  for (const Field& f : fields) {
    m.add(prefix + "." + f.name, static_cast<u64>(s.*(f.member)));
  }
}

}  // namespace msvm::obs
