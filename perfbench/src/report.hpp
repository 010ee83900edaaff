// Measurement helpers of the repository benchmark: latency percentiles,
// in-memory span tracing with per-layer self time, the failed-op ledger,
// and the named-metric report printed as the run's last line.
//
// Nothing here touches the ifet library: the benchmark records spans
// around its own calls into the library's public functions, so the
// library itself stays uninstrumented.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// --- Percentiles -----------------------------------------------------------

/// Nearest-rank percentile: the smallest sample with at least q*n samples
/// at or below it. `q` in (0, 1]; 0 for an empty sample set.
double percentile(std::vector<double> samples, double q);

/// Samples strictly above the nearest-rank `q` percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// The reporting rule: a percentile is reported only when at least ten
/// samples lie beyond it.
bool percentile_supported(std::size_t n, double q);

double median(std::vector<double> samples);

// --- Tracing ---------------------------------------------------------------

/// One recorded interval. `parent` is the id of the span that caused it
/// (-1 for an op's root span); spans of one op share `op`.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int id = -1;
  int parent = -1;
  std::int64_t op = -1;
  std::uint32_t tid = 0;

  double duration_us() const { return end_us - start_us; }
};

/// Layer of a span name: the text before its first '.'.
std::string span_layer(std::string_view name);

/// A span's duration minus the part of its interval its children cover
/// (children's union, clipped to the span), in microseconds, keyed by
/// span id.
std::map<int, double> self_times_us(const std::vector<Span>& spans);

/// Self time summed per layer (span_layer of each span's name).
std::map<std::string, double> layer_self_us(const std::vector<Span>& spans);

/// In-memory span recorder. Disabled tracers record nothing and read no
/// clock. Thread-safe: serving clients record from command-pool threads.
class Tracer {
 public:
  explicit Tracer(bool enabled = false);

  bool enabled() const { return enabled_; }

  /// Microseconds since the tracer was created.
  double now_us() const;

  /// Reserve a span id (so children can name their parent before the
  /// parent has ended).
  int next_id();

  void record(Span span);

  std::vector<Span> spans() const;

  /// Chrome trace-event JSON ("X" complete events), viewable in Perfetto
  /// or chrome://tracing. Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  int next_id_ = 0;
  std::vector<Span> spans_;
};

/// RAII span: records [construction, destruction) when the tracer is
/// enabled; a no-op otherwise.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, int parent, std::int64_t op);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  std::string name_;
  int id_ = -1;
  int parent_ = -1;
  std::int64_t op_ = -1;
  double start_us_ = 0.0;
};

// --- Failure accounting ----------------------------------------------------

/// Counts ops attempted and the ops that failed: errors, refusals and
/// results that later fail validation. An op marked failed more than once
/// counts once.
class OpLedger {
 public:
  /// Register one attempted op; returns its id.
  std::int64_t attempt();
  void mark_failed(std::int64_t op, const std::string& reason);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const {
    return static_cast<std::int64_t>(failed_.size());
  }
  double failed_frac() const;
  /// First few failure reasons, for the printed report.
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  std::int64_t attempted_ = 0;
  std::set<std::int64_t> failed_;
  std::vector<std::string> reasons_;
};

// --- Metrics ---------------------------------------------------------------

/// Metric names: a letter or digit first, then at most 64 characters of
/// letters, digits, '_', '.' and '-' in all.
bool valid_metric_name(std::string_view name);
/// Units: 1 to 16 characters of letters, digits, '_', '/', '%', '.', '-'.
bool valid_metric_unit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered set of named metrics. add() rejects invalid or repeated names
/// and non-finite values by throwing std::invalid_argument.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// The result object the benchmark prints as its last line.
std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed, const MetricSet& metrics);

/// Shortest text that reads back to exactly `value`.
std::string format_number(double value);

// --- Process resources -----------------------------------------------------

/// User + system CPU seconds of the whole process so far.
double process_cpu_seconds();
/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();
/// Bytes the allocator has handed out and not yet taken back, in MiB: the
/// live heap, whose growth across a call is the memory that call keeps.
double heap_in_use_mb();

}  // namespace perfbench
