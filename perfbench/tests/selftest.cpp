// Self-tests of the benchmark's own helpers: the percentile reporting
// rule, span self time, metric-name validation and failed-op accounting.
// Prints one line per failed check and exits nonzero if any failed.
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "report.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "selftest FAILED: " << what << "\n";
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  check(near(percentile(v, 0.5), 50.0), "p50 of 1..100 is 50");
  check(near(percentile(v, 0.9), 90.0), "p90 of 1..100 is 90");
  check(near(percentile({7.0}, 0.9), 7.0), "p90 of one sample");
  check(percentile({}, 0.5) == 0.0, "empty sample set reads 0");
  check(samples_beyond(100, 0.9) == 10, "10 samples beyond p90 of 100");
  check(percentile_supported(100, 0.9), "p90 needs 100 samples");
  check(!percentile_supported(99, 0.9), "p90 of 99 samples is refused");
  check(percentile_supported(20, 0.5), "p50 needs 20 samples");
  check(!percentile_supported(19, 0.5), "p50 of 19 samples is refused");
  check(percentile_supported(1000, 0.99), "p99 needs 1000 samples");
  check(!percentile_supported(999, 0.99), "p99 of 999 samples is refused");
  check(near(median({3.0, 1.0, 2.0, 4.0}), 2.5), "even-count median");
}

Span span(int id, int parent, double start, double end,
          const std::string& name) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_us = start;
  s.end_us = end;
  s.name = name;
  return s;
}

void span_self_time() {
  // Root [0,100) with children [10,30), [20,50) (overlapping) and
  // [90,120) (clipped at the root's end); a grandchild [12,18).
  const std::vector<Span> spans = {
      span(0, -1, 0, 100, "bench.op"),
      span(1, 0, 10, 30, "render.frame"),
      span(2, 0, 20, 50, "stream.fetch"),
      span(3, 0, 90, 120, "render.frame"),
      span(4, 1, 12, 18, "iatf.evaluate"),
  };
  const auto self = self_times_us(spans);
  check(near(self.at(0), 100 - 40 - 10), "root self excludes child union");
  check(near(self.at(1), 20 - 6), "child self excludes grandchild");
  check(near(self.at(2), 30), "leaf self is its duration");
  const auto layers = layer_self_us(spans);
  check(near(layers.at("render"), 14 + 30), "render layer sums spans");
  check(near(layers.at("bench"), 50), "unattributed remainder");
  double total = 0.0;
  for (const auto& [name, us] : layers) total += us;
  // Overlapping siblings [20,30) and the overhang [100,120) count in
  // each span's own self time.
  check(near(total, 130), "self times sum per span");
  check(span_layer("tracking.grow") == "tracking", "layer prefix");
  check(span_layer("bench") == "bench", "layer of a dotless name");

  Tracer off(false);
  { Scope s(off, "render.frame", -1, 0); }
  check(off.spans().empty(), "disabled tracer records nothing");
  Tracer on(true);
  {
    Scope root(on, "bench.op", -1, 7);
    Scope child(on, "render.frame", root.id(), 7);
  }
  const auto recorded = on.spans();
  check(recorded.size() == 2, "enabled tracer records both spans");
  check(recorded.size() == 2 && recorded[0].parent == recorded[1].id &&
            recorded[0].op == 7,
        "child names its parent and op");
}

void metric_names() {
  check(valid_metric_name("op_ms_p50"), "plain name");
  check(valid_metric_name("render.frame_ms"), "dotted name");
  check(valid_metric_name("1e6-rate"), "digit first");
  check(!valid_metric_name(""), "empty name");
  check(!valid_metric_name("_hidden"), "underscore first");
  check(!valid_metric_name("has space"), "space");
  check(!valid_metric_name("a/b"), "slash in a name");
  check(valid_metric_name(std::string(64, 'a')), "64 characters");
  check(!valid_metric_name(std::string(65, 'a')), "65 characters");
  check(valid_metric_unit("1/s") && valid_metric_unit("%") &&
            valid_metric_unit("MiB"),
        "units");
  check(!valid_metric_unit("") && !valid_metric_unit("per second") &&
            !valid_metric_unit(std::string(17, 's')),
        "bad units");
  MetricSet set;
  set.add("ops_per_s", 1.5, "1/s");
  const auto throws = [&set](const std::string& name, double value) {
    try {
      set.add(name, value, "ms");
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  };
  check(throws("ops_per_s", 1.0), "repeated name rejected");
  check(throws("bad name", 1.0), "invalid name rejected");
  check(throws("nan_value", std::nan("")), "non-finite value rejected");
  check(result_json(true, 3, 0, set) ==
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"ops_per_s\": {\"value\": 1.5, \"unit\": "
            "\"1/s\"}}}",
        "result line shape");
  check(format_number(0.1) == "0.1" && format_number(12.0) == "12",
        "shortest round-trip numbers");
}

void failed_accounting() {
  OpLedger ledger;
  check(ledger.failed_frac() == 0.0, "no ops, no failures");
  const auto a = ledger.attempt();
  const auto b = ledger.attempt();
  ledger.attempt();
  ledger.attempt();
  ledger.mark_failed(a, "error");
  ledger.mark_failed(a, "and mis-validated later");
  ledger.mark_failed(b, "refused");
  check(ledger.attempted() == 4, "four attempted");
  check(ledger.failed() == 2, "an op failed twice counts once");
  check(near(ledger.failed_frac(), 0.5), "failed_frac = failed / attempted");
  check(ledger.reasons().size() == 2, "one reason per failed op");
}

}  // namespace

int main() {
  percentile_rule();
  span_self_time();
  metric_names();
  failed_accounting();
  if (failures == 0) std::cout << "perfbench selftest: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
