#include "report.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

namespace perfbench {

// --- Percentiles -----------------------------------------------------------

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t k = nearest_rank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (k - 1), samples.end());
  return samples[k - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - nearest_rank(n, q);
}

bool percentile_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= 10;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

// --- Tracing ---------------------------------------------------------------

std::string span_layer(std::string_view name) {
  return std::string(name.substr(0, name.find('.')));
}

std::map<int, double> self_times_us(const std::vector<Span>& spans) {
  std::map<int, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::map<int, double> self;
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double lo = 0.0, hi = 0.0;
      bool open = false;
      for (auto [a, b] : intervals) {
        a = std::max(a, s.start_us);
        b = std::min(b, s.end_us);
        if (b <= a) continue;
        if (open && a <= hi) {
          hi = std::max(hi, b);
          continue;
        }
        if (open) covered += hi - lo;
        lo = a;
        hi = b;
        open = true;
      }
      if (open) covered += hi - lo;
    }
    self[s.id] = std::max(0.0, s.duration_us() - covered);
  }
  return self;
}

std::map<std::string, double> layer_self_us(const std::vector<Span>& spans) {
  const std::map<int, double> self = self_times_us(spans);
  std::map<std::string, double> out;
  for (const Span& s : spans) out[span_layer(s.name)] += self.at(s.id);
  return out;
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

namespace {

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> spans = this->spans();
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << json_escape(s.name)
        << "\",\"cat\":\"" << json_escape(span_layer(s.name))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << format_number(s.start_us)
        << ",\"dur\":" << format_number(s.duration_us())
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Scope::Scope(Tracer& tracer, std::string name, int parent, std::int64_t op)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  name_ = std::move(name);
  id_ = tracer_.next_id();
  parent_ = parent;
  op_ = op;
  start_us_ = tracer_.now_us();
}

Scope::~Scope() {
  if (!tracer_.enabled()) return;
  Span span;
  span.name = std::move(name_);
  span.start_us = start_us_;
  span.end_us = tracer_.now_us();
  span.id = id_;
  span.parent = parent_;
  span.op = op_;
  span.tid = static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
  tracer_.record(std::move(span));
}

// --- Failure accounting ----------------------------------------------------

std::int64_t OpLedger::attempt() { return attempted_++; }

void OpLedger::mark_failed(std::int64_t op, const std::string& reason) {
  if (failed_.insert(op).second && reasons_.size() < 8) {
    reasons_.push_back("op " + std::to_string(op) + ": " + reason);
  }
}

double OpLedger::failed_frac() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed()) /
                               static_cast<double>(attempted_);
}

// --- Metrics ---------------------------------------------------------------

namespace {

bool is_alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !is_alnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool valid_metric_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name: '" + name + "'");
  }
  if (!valid_metric_unit(unit)) {
    throw std::invalid_argument("invalid unit for " + name + ": '" + unit +
                                "'");
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite value for " + name);
  }
  for (const Metric& m : items_) {
    if (m.name == name) {
      throw std::invalid_argument("repeated metric name: " + name);
    }
  }
  items_.push_back({name, value, unit});
}

std::string format_number(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed, const MetricSet& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.items()) {
    out << (first ? "" : ", ") << "\"" << m.name
        << "\": {\"value\": " << format_number(m.value) << ", \"unit\": \""
        << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

// --- Process resources -----------------------------------------------------

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double heap_in_use_mb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

}  // namespace perfbench
