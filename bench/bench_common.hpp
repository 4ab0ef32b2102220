// Shared console-table helpers for the paper-reproduction benchmark
// harnesses. Each bench binary regenerates one table or figure of the
// paper (see DESIGN.md section 5) and prints paper values next to the
// simulated measurements so EXPERIMENTS.md can be filled from the output.
//
// Alongside the human-readable table every bench can emit a
// machine-readable BENCH_<name>.json (via JsonReport) so the perf
// trajectory is diffable across commits.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <system_error>
#include <vector>

#include "obs/bus.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/heatmap.hpp"
#include "obs/metrics.hpp"
#include "sccsim/mesh.hpp"
#include "sim/faults.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace msvm::bench {

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n=============================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("=============================================================\n");
}

inline void print_row_sep() {
  std::printf("-------------------------------------------------------------\n");
}

/// The claim a bench reproduces, stated once as inequalities over its own
/// numbers. Each violated inequality prints a "violated:" line; verdict()
/// prints the one verdict line and returns the exit code, 1 when any
/// inequality failed, so a run that contradicts its claim fails.
class Claim {
 public:
  explicit Claim(std::string statement) : statement_(std::move(statement)) {}

  /// Records one inequality; `fmt` states it with its numbers.
  __attribute__((format(printf, 3, 4))) void require(bool holds,
                                                    const char* fmt, ...) {
    ++checks_;
    if (holds) return;
    ++violations_;
    char what[256];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(what, sizeof(what), fmt, args);
    va_end(args);
    std::printf("violated: %s\n", what);
  }

  int verdict() const {
    if (violations_ == 0) {
      std::printf("verdict: holds (%d checks): %s\n", checks_,
                  statement_.c_str());
      return 0;
    }
    std::printf("verdict: VIOLATED (%d of %d checks): %s\n", violations_,
                checks_, statement_.c_str());
    return 1;
  }

 private:
  std::string statement_;
  int checks_ = 0;
  int violations_ = 0;
};

/// Parses "--iters=N"-style overrides from argv. A value that is not a
/// whole decimal number in u64 range ("abc", "-1", "12x") is a usage
/// error: the bench says so and exits with code 2.
inline u64 arg_u64(int argc, char** argv, const std::string& key,
                   u64 fallback) {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) != 0) continue;
    const char* first = arg.c_str() + prefix.size();
    const char* last = arg.c_str() + arg.size();
    u64 value = 0;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (first == last || ec != std::errc{} || end != last) {
      std::fprintf(stderr,
                   "usage error: %s%s: expected a whole number >= 0\n",
                   prefix.c_str(), first);
      std::exit(2);
    }
    return value;
  }
  return fallback;
}

inline bool arg_flag(int argc, char** argv, const std::string& key) {
  const std::string flag = "--" + key;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// The workload-generator seed for this run ("--seed=N"). The default
/// matches the historical fixed seed the randomised workloads used, so a
/// run without the flag reproduces earlier outputs bit for bit. Every
/// bench records the value in its BENCH_*.json (JsonReport does it at
/// construction) so a stored result can always be re-derived.
inline u64 arg_seed(int argc, char** argv, u64 fallback = 42) {
  return arg_u64(argc, argv, "seed", fallback);
}

/// The per-run workload generator, threaded from --seed: deterministic
/// across platforms (xoshiro256**), reproducible from the JSON record.
inline sim::Rng seeded_rng(u64 seed) { return sim::Rng(seed); }

/// The core-count override for scale sweeps ("--cores=N"), or `fallback`
/// when the flag is absent. Every value given is validated against the
/// supported range here, so every bench rejects a bad count (0 included)
/// with a clear message instead of tripping config validation later.
inline int arg_cores(int argc, char** argv, int fallback = 48) {
  const bool given = std::any_of(argv + 1, argv + argc, [](const char* a) {
    return std::string(a).rfind("--cores=", 0) == 0;
  });
  if (!given) return fallback;
  const u64 cores = arg_u64(argc, argv, "cores", 0);
  if (cores < 1 || cores > 1024) {
    std::fprintf(stderr, "--cores=%llu outside the supported [1, 1024]\n",
                 static_cast<unsigned long long>(cores));
    std::exit(2);
  }
  return static_cast<int>(cores);
}

/// Parses "--key=string" overrides from argv.
inline std::string arg_str(int argc, char** argv, const std::string& key,
                           const std::string& fallback = "") {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return fallback;
}

/// The chaos-layer fault plan for this run: "--faults=SPEC" wins, then
/// the MSVM_FAULTS environment variable, then no faults. Exits with a
/// usage message on a malformed spec rather than silently running clean.
inline sim::FaultPlan arg_faults(int argc, char** argv) {
  const std::string spec = arg_str(argc, argv, "faults");
  try {
    if (!spec.empty()) return sim::FaultPlan::parse(spec);
    return sim::FaultPlan::from_env();
  } catch (const sim::FaultSpecError& e) {
    std::fprintf(stderr, "bad fault spec: %s\n", e.what());
    std::exit(2);
  }
}

/// The uniform observability flag block every bench gains for free:
///
///   --trace=FILE     Chrome-trace/Perfetto JSON timeline of the run
///   --trace-mem      also record per-transaction memory events (firehose)
///   --metrics        fold run counters into the metrics registry; the
///                    registry is appended to BENCH_*.json and printable
///                    via the cluster report
///   --heatmap=FILE   per-page SVM heatmap JSON
///
/// Fills obs::runtime_config() (which every Chip constructor applies to
/// its bus) and registers atexit writers for the file outputs, so a
/// bench only needs one obs_setup() call — or the JsonReport(name, argc,
/// argv) constructor, which makes it. With none of the flags given this
/// is a no-op and the run is byte-identical to a build without it.
inline void obs_setup(int argc, char** argv) {
  // Construct the global sinks BEFORE registering any atexit writer:
  // exit handlers and static destructors share one LIFO stack, so a
  // sink first constructed later (by the first Chip) would be destroyed
  // before a writer registered here could read it.
  (void)obs::global_collector();
  (void)obs::global_heatmap();
  (void)obs::global_metrics();
  obs::RuntimeConfig& cfg = obs::runtime_config();
  const std::string trace_path = arg_str(argc, argv, "trace");
  if (!trace_path.empty()) {
    cfg.trace_path = trace_path;
    cfg.collect = true;
    cfg.categories |= obs::kCatTrace;
    if (arg_flag(argc, argv, "trace-mem")) cfg.categories |= obs::kCatMem;
    static bool trace_writer_registered = false;
    if (!trace_writer_registered) {
      trace_writer_registered = true;
      std::atexit([] {
        obs::write_chrome_trace(obs::global_collector(),
                                obs::runtime_config().trace_path.c_str());
      });
    }
  }
  const std::string heatmap_path = arg_str(argc, argv, "heatmap");
  if (!heatmap_path.empty()) {
    cfg.heatmap_path = heatmap_path;
    cfg.heatmap = true;
    static bool heatmap_writer_registered = false;
    if (!heatmap_writer_registered) {
      heatmap_writer_registered = true;
      std::atexit([] {
        obs::write_heatmap_json(obs::global_heatmap(),
                                obs::runtime_config().heatmap_path.c_str());
      });
    }
  }
  if (arg_flag(argc, argv, "metrics")) cfg.metrics = true;
}

/// Machine-readable companion to the console tables: collects config
/// key/values and named sample series, then writes BENCH_<name>.json
/// into the working directory with count/median/p95 per series. The
/// samples are whatever unit the bench measures (ms, round-trips, ...);
/// the unit is part of the series name (e.g. "strong_ms").
class JsonReport {
 public:
  /// Every report carries the run's workload seed (see arg_seed) so any
  /// stored BENCH_*.json names the exact inputs that produced it.
  explicit JsonReport(std::string name, u64 seed = 42)
      : name_(std::move(name)) {
    config("seed", seed);
  }

  /// Preferred form: records the --seed, wires up the uniform
  /// observability flag block (--trace/--metrics/--heatmap), and stamps
  /// the default 48-core SCC topology into the header — every
  /// fixed-topology bench runs that die. Benches that take --cores
  /// (scaling, degraded_throughput) use the seed constructor and record
  /// their own topology block.
  JsonReport(std::string name, int argc, char** argv)
      : JsonReport(std::move(name), arg_seed(argc, argv)) {
    obs_setup(argc, argv);
    topology(48);
  }
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;
  ~JsonReport() { write(); }

  void config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, "\"" + value + "\"");
  }
  void config(const std::string& key, u64 value) {
    config_.emplace_back(key, std::to_string(value));
  }
  void config(const std::string& key, double value) {
    config_.emplace_back(key, fmt_double(value));
  }

  /// Records the chip geometry (mesh columns/rows, cores per tile, chip
  /// count, core count) so every stored BENCH_*.json names the die(s) it
  /// ran on and baselines are self-describing.
  void topology(int cores) {
    const scc::Topology topo(cores);
    config("cores", static_cast<u64>(cores));
    config("mesh_cols", static_cast<u64>(topo.cols()));
    config("mesh_rows", static_cast<u64>(topo.rows()));
    config("cores_per_tile", static_cast<u64>(topo.cores_per_tile()));
    config("chips", static_cast<u64>(topo.num_chips()));
  }

  void sample(const std::string& series, double value) {
    series_[series].push_back(value);
  }

  /// Writes BENCH_<name>.json; idempotent (the destructor calls it too,
  /// so a bench may flush early and keep sampling — last write wins).
  void write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;  // CWD not writable: drop the companion
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"config\": {",
                 name_.c_str());
    for (std::size_t i = 0; i < config_.size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\": %s", i ? "," : "",
                   config_[i].first.c_str(), config_[i].second.c_str());
    }
    std::fprintf(f, "%s},\n  \"series\": {", config_.empty() ? "" : "\n  ");
    bool first_series = true;
    for (const auto& [series, raw] : series_) {
      std::vector<double> v = raw;
      std::sort(v.begin(), v.end());
      std::fprintf(f, "%s\n    \"%s\": {\"count\": %zu, \"median\": %s, "
                      "\"p95\": %s}",
                   first_series ? "" : ",", series.c_str(), v.size(),
                   fmt_double(percentile(v, 0.50)).c_str(),
                   fmt_double(percentile(v, 0.95)).c_str());
      first_series = false;
    }
    std::fprintf(f, "%s}", series_.empty() ? "" : "\n  ");
    // Only under --metrics (and only when something was folded): without
    // the flag the emitted bytes are identical to the historical format.
    if (obs::runtime_config().metrics && !obs::global_metrics().empty()) {
      std::fprintf(f, ",\n  \"metrics\": %s",
                   obs::global_metrics().to_json("    ").c_str());
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
  }

 private:
  static std::string fmt_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

  /// Nearest-rank percentile of an already-sorted sample vector.
  static double percentile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::map<std::string, std::vector<double>> series_;
};

}  // namespace msvm::bench
