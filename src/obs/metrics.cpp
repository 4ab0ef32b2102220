#include "obs/metrics.hpp"

#include <cstdio>

namespace msvm::obs {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string MetricsRegistry::to_json(const std::string& indent) const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    out += first ? "\n" : ",\n";
    out += indent + "\"" + name + "\": " + std::to_string(value);
    first = false;
  }
  for (const auto& [name, h] : histograms_) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"count\": %llu, \"min\": %llu, \"max\": %llu, "
                  "\"mean\": %s, \"p50\": %llu, \"p95\": %llu, "
                  "\"p99\": %llu, \"p999\": %llu}",
                  static_cast<unsigned long long>(h.count()),
                  static_cast<unsigned long long>(h.min()),
                  static_cast<unsigned long long>(h.max()),
                  fmt_double(h.mean()).c_str(),
                  static_cast<unsigned long long>(h.p50()),
                  static_cast<unsigned long long>(h.p95()),
                  static_cast<unsigned long long>(h.p99()),
                  static_cast<unsigned long long>(h.p999()));
    out += first ? "\n" : ",\n";
    out += indent + "\"" + name + "\": " + buf;
    first = false;
  }
  if (first) {
    out += "}";
  } else {
    out += "\n";
    if (indent.size() > 2) out += indent.substr(0, indent.size() - 2);
    out += "}";
  }
  return out;
}

MetricsRegistry& global_metrics() {
  static MetricsRegistry m;
  return m;
}

}  // namespace msvm::obs
