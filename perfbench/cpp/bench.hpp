// Shared machinery of the perf benchmark: run options, the in-memory span
// tracer, the tail-checked statistics and the result report. Header-only and
// free of DUST includes so bench_test.cpp can test it on its own.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span dump path (traced runs only; may be empty)
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Share of the host's CPU time taken by other guests (the "steal" column of
/// /proc/stat) since construction: on a shared host it explains runs that
/// read slow for reasons outside the program. 0 where the kernel reports none.
class StealMeter {
 public:
  StealMeter() : start_(read()) {}
  [[nodiscard]] double share() const {
    const Sample now = read();
    const double total = now.total - start_.total;
    return total > 0.0 ? (now.steal - start_.steal) / total : 0.0;
  }

 private:
  struct Sample {
    double steal = 0.0;
    double total = 0.0;
  };
  static Sample read() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;  // aggregate line: user nice system idle iowait irq softirq steal
    Sample s;
    double field = 0.0;
    for (int i = 0; i < 8 && in >> field; ++i) {
      s.total += field;
      if (i == 7) s.steal = field;
    }
    return s;
  }
  Sample start_;
};

// ---------------------------------------------------------------------------
// Statistics

inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Samples that lie strictly above the q-quantile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return static_cast<std::size_t>(std::floor((1.0 - q) * static_cast<double>(n) + 1e-9));
}

/// Minimum tail a reported percentile needs: a p90 is only reported when at
/// least this many samples lie beyond it.
inline constexpr std::size_t kMinTail = 10;

/// Linear-interpolated q-quantile (q in [0, 1]) that refuses to report a
/// percentile with fewer than kMinTail samples beyond it — the run was too
/// short to say anything about that tail.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  if (q > 0.5 && samples_beyond(values.size(), q) < kMinTail)
    throw std::runtime_error(
        "p" + std::to_string(static_cast<int>(std::lround(q * 100))) + " of " +
        std::to_string(values.size()) + " samples has fewer than " +
        std::to_string(kMinTail) + " samples beyond it");
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// ---------------------------------------------------------------------------
// Tracing: one span per call into a layer, kept in memory, written at exit.

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the span list, -1 = root
};

struct SpanTotals {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  ///< duration minus the time child spans cover
};

/// Per-name totals; a span's self time is its duration minus its children's
/// durations (children never overlap: one thread, nested calls).
inline std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans) {
  auto ms = [](const Span& s) { return static_cast<double>(s.end_ns - s.start_ns) / 1e6; };
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += ms(s);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    ++t.count;
    t.total_ms += ms(spans[i]);
    t.self_ms += ms(spans[i]) - child_ms[i];
  }
  return out;
}

class Tracer {
 public:
  /// Spans are recorded only while active; a workload toggles this per
  /// cycle or tick so one traced run also measures its own overhead.
  void set_active(bool active) noexcept { active_ = active; }

  std::int32_t open(const char* name) {
    if (!active_) return -1;
    spans_.push_back(Span{name, now_ns(), 0, top_});
    top_ = static_cast<std::int32_t>(spans_.size() - 1);
    return top_;
  }
  void close(std::int32_t index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    top_ = spans_[static_cast<std::size_t>(index)].parent;
  }
  /// Record a finished child of the innermost open span from timestamps
  /// taken elsewhere (a layer that times itself inside a call the benchmark
  /// cannot split).
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
    if (!active_) return;
    spans_.push_back(Span{name, start_ns, end_ns, top_});
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// One tab-separated line per span: id, parent id (-1 = root), name,
  /// start and end in ns since the first span.
  void write(const std::string& path) const {
    if (path.empty() || spans_.empty()) return;
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write trace " + path);
    const std::int64_t origin = spans_.front().start_ns;
    os << "id\tparent\tname\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << i << '\t' << s.parent << '\t' << s.name << '\t' << s.start_ns - origin << '\t'
         << s.end_ns - origin << '\n';
    }
  }

 private:
  bool active_ = false;
  std::int32_t top_ = -1;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

// ---------------------------------------------------------------------------
// Result digest (FNV-1a, 64 bit) — placement runs of one seed compare bit
// for bit through it.

class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::string hex() const {
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << hash_;
    return os.str();
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

// ---------------------------------------------------------------------------
// Report: every metric by name and unit, the operation tallies, and the
// correctness verdict. The last stdout line is the one JSON result object.

inline std::string json_number(double value) {
  if (!std::isfinite(value)) throw std::runtime_error("non-finite metric value");
  std::ostringstream os;
  os << std::setprecision(17) << value;
  return os.str();
}

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) throw std::runtime_error("metric " + name + " is not finite");
    metrics_.push_back({name, value, unit});
  }
  /// Diagnostic values printed on an INFO line, never in the result.
  void info(const std::string& key, const std::string& value) {
    info_.emplace_back(key, value);
  }
  void info(const std::string& key, double value) { info(key, json_number(value)); }

  /// Failed correctness checks mark the whole run incorrect.
  void check(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  void attempt(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] bool correct() const noexcept { return failures_.empty(); }

  void print(std::ostream& os) const {
    for (const std::string& f : failures_) os << "CHECK FAILED: " << f << "\n";
    os << "INFO {";
    for (std::size_t i = 0; i < info_.size(); ++i)
      os << (i ? ", " : "") << quoted(info_[i].first) << ": " << info_[i].second;
    os << "}\n";
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      os << (i ? ", " : "") << quoted(metrics_[i].name) << ": {\"value\": "
         << json_number(metrics_[i].value) << ", \"unit\": "
         << quoted(metrics_[i].unit) << "}";
    os << "}}" << std::endl;
  }

  static std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Ratio with a guarded base: 0 when nothing was attempted.
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// The metric sets. Every workload reports every metric of a set, so that
// runs of different workloads read alike; a layer a workload does not drive
// reads 0.

/// End-to-end metrics (--trace 0). A step is one iteration of a workload's
/// timed loop (a placement cycle, a sim-minute, a 1 ms tick); a latency
/// sample is one unit of work a user waits for (a cycle, a block).
struct EndToEnd {
  std::vector<double> setup_s;     ///< one per set-up
  std::vector<double> latency_ms;  ///< one per unit of work
  double cpu_s = 0.0;              ///< process CPU over the timed steps
  std::size_t steps = 0;

  void report(Report& out) const {
    out.metric("setup_s", median(setup_s), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("latency_ms_p50", percentile(latency_ms, 0.50), "ms");
    out.metric("latency_ms_p90", percentile(latency_ms, 0.90), "ms");
    out.metric("cpu_ms_per_step", 1e3 * ratio(cpu_s, static_cast<double>(steps)), "ms");
  }
};

/// Spans a workload may record, and the per-layer metric that carries each
/// one's self time as a share of the traced steps' wall time. The root span
/// of every step is "bench.step"; its self time is the part no layer covers.
inline const std::vector<std::pair<std::string, std::string>> kLayerSpans = {
    {"bench.step", "bench.unaccounted_pct"},
    {"net.begin_cycle", "net.begin_cycle_pct"},
    {"core.build_placement_problem", "core.build_pct"},
    {"core.run_placement_cycle", "core.dispatch_pct"},
    {"solver.solve", "solver.solve_pct"},
    {"sim.run_until", "sim.run_until_pct"},
    {"telemetry.append", "telemetry.append_pct"},
    {"dataplane.pump", "dataplane.pump_pct"},
    {"wire.leaf_poll", "wire.leaf_poll_pct"},
    {"wire.hub_poll", "wire.hub_poll_pct"},
};

/// Per-layer counters (--trace 1), with units. Counts are per step unless
/// README.md says otherwise.
inline const std::vector<std::pair<std::string, std::string>> kLayerCounters = {
    {"net.cache_hit_ratio", "ratio"},        {"net.rows_recomputed", "count"},
    {"net.cache_invalidations", "count"},    {"core.busy_nodes", "count"},
    {"core.candidate_nodes", "count"},       {"core.offloads_created", "count"},
    {"core.redirects", "count"},             {"core.releases", "count"},
    {"core.keepalive_failures", "count"},    {"core.relief_miss_ratio", "ratio"},
    {"solver.pivots", "count"},              {"solver.warm_ratio", "ratio"},
    {"solver.dirty_resolve_ratio", "ratio"}, {"sim.msgs_sent", "count"},
    {"sim.msgs_delivered", "count"},         {"sim.events", "count"},
    {"dataplane.blocks_per_frame", "count"}, {"dataplane.bytes_per_frame", "bytes"},
    {"dataplane.compression_ratio", "ratio"}, {"dataplane.samples_thinned", "count"},
    {"dataplane.batches_dropped", "count"},  {"dataplane.verify_failures", "count"},
    {"dataplane.undeclared_gap_batches", "count"}, {"wire.queue_fill_max", "ratio"},
};

/// Per-layer metrics of a traced run, in which every other step is traced.
class Layers {
 public:
  Layers() {
    for (const auto& [name, unit] : kLayerCounters) counters_[name] = 0.0;
  }

  void set(const std::string& name, double value) {
    const auto it = counters_.find(name);
    if (it == counters_.end()) throw std::logic_error("unknown layer counter " + name);
    it->second = value;
  }

  /// `step_ms[1]` are the traced steps' wall times, `step_ms[0]` the
  /// untraced ones; the spans come from the traced steps only.
  void report(Report& out, const std::vector<Span>& spans,
              const std::vector<double> (&step_ms)[2]) const {
    const std::map<std::string, SpanTotals> totals = span_totals(spans);
    for (const auto& [name, t] : totals)
      if (std::none_of(kLayerSpans.begin(), kLayerSpans.end(),
                       [&](const auto& s) { return s.first == name; }))
        throw std::logic_error("span " + name + " has no layer metric");
    const auto step = totals.find("bench.step");
    if (step == totals.end()) throw std::runtime_error("no traced steps");
    const double base_ms = step->second.total_ms;
    out.metric("bench.step_ms", base_ms / static_cast<double>(step->second.count), "ms");
    out.metric("bench.trace_overhead_pct",
               100.0 * (median(step_ms[1]) / median(step_ms[0]) - 1.0), "%");
    for (const auto& [span, metric] : kLayerSpans) {
      const auto it = totals.find(span);
      out.metric(metric, it == totals.end() ? 0.0 : 100.0 * it->second.self_ms / base_ms, "%");
    }
    for (const auto& [name, unit] : kLayerCounters) out.metric(name, counters_.at(name), unit);
  }

 private:
  std::map<std::string, double> counters_;
};

}  // namespace perfbench
