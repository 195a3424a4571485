// Tests of the benchmark's own statistics and tracing (bench.hpp).
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

bool throws(double (*fn)(std::vector<double>, double), std::vector<double> v, double q) {
  try {
    fn(std::move(v), q);
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_tail_rule() {
  using perfbench::percentile;
  using perfbench::samples_beyond;
  expect(samples_beyond(100, 0.90) == 10, "100 samples leave 10 beyond p90");
  expect(samples_beyond(99, 0.90) == 9, "99 samples leave 9 beyond p90");
  expect(samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  expect(!throws(percentile, iota(100), 0.90), "p90 of 100 samples is reported");
  expect(throws(percentile, iota(99), 0.90), "p90 of 99 samples is refused");
  expect(throws(percentile, iota(999), 0.99), "p99 of 999 samples is refused");
  expect(!throws(percentile, iota(3), 0.50), "the median needs no tail");
  expect(throws(percentile, {}, 0.50), "no samples, no percentile");
}

void test_percentile_values() {
  using perfbench::percentile;
  // Linear interpolation between order statistics (rank q * (n - 1)).
  expect(near(percentile(iota(100), 0.90), 90.1), "p90 of 1..100 is 90.1");
  expect(near(percentile(iota(100), 0.50), 50.5), "p50 of 1..100 is 50.5");
  std::vector<double> shuffled = iota(101);
  std::reverse(shuffled.begin(), shuffled.end());
  expect(near(percentile(shuffled, 0.50), 51.0), "input order does not matter");
  expect(near(perfbench::median({3.0, 1.0, 2.0}), 2.0), "odd median");
  expect(near(perfbench::median({4.0, 1.0, 2.0, 3.0}), 2.5), "even median");
}

void test_self_time() {
  // root [0, 10] ms with children a [1, 4] and b [5, 9]; b has child c [6, 7].
  const std::vector<perfbench::Span> spans = {{"root", 0, 10'000'000, -1},
                                              {"a", 1'000'000, 4'000'000, 0},
                                              {"b", 5'000'000, 9'000'000, 0},
                                              {"c", 6'000'000, 7'000'000, 2},
                                              {"a", 20'000'000, 21'000'000, -1}};
  const auto totals = perfbench::span_totals(spans);
  expect(near(totals.at("root").self_ms, 3.0), "root self = 10 - 3 - 4");
  expect(near(totals.at("b").self_ms, 3.0), "b self = 4 - 1");
  expect(near(totals.at("a").self_ms, 4.0) && totals.at("a").count == 2, "a sums its spans");
  expect(near(totals.at("c").total_ms, 1.0), "c total");

  // The tracer links each span to the innermost open one.
  perfbench::Tracer tracer;
  tracer.set_active(true);
  const std::int32_t root = tracer.open("root");
  tracer.add("leaf", 1, 2);
  const std::int32_t inner = tracer.open("inner");
  tracer.add("deep", 3, 4);
  tracer.close(inner);
  tracer.close(root);
  tracer.add("after", 5, 6);
  const std::vector<perfbench::Span>& traced = tracer.spans();
  expect(traced.size() == 5 && traced[1].parent == root && traced[3].parent == inner &&
             traced[4].parent == -1,
         "parents follow nesting");

  perfbench::Tracer idle;
  { perfbench::Scope span(idle, "ignored"); }
  expect(idle.spans().empty(), "an inactive tracer records nothing");
}

void test_report() {
  perfbench::Report report;
  report.metric("latency_ms", 1.25, "ms");
  report.attempt(10, 1);
  std::ostringstream out;
  report.print(out);
  const std::string text = out.str();
  const std::string last = text.substr(text.rfind('{', text.find("\"correct\"")));
  expect(last == "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": "
                 "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}\n",
         "result line: " + last);
  report.check(false, "broken");
  expect(!report.correct(), "a failed check marks the run incorrect");
}

/// The result line of a report.
std::string result_line(const perfbench::Report& report) {
  std::ostringstream out;
  report.print(out);
  const std::string text = out.str();
  return text.substr(text.rfind('{', text.find("\"correct\"")));
}

/// Metrics on a result line.
std::size_t metric_count(const std::string& line) {
  std::size_t count = 0;
  for (std::size_t at = line.find("{\"value\""); at != std::string::npos;
       at = line.find("{\"value\"", at + 1))
    ++count;
  return count;
}

void test_metric_sets() {
  // Every workload prints the same end-to-end set...
  perfbench::EndToEnd e2e;
  e2e.setup_s = {2.0, 1.0, 3.0};
  e2e.latency_ms = iota(100);
  e2e.cpu_s = 0.5;
  e2e.steps = 250;
  perfbench::Report end_to_end;
  e2e.report(end_to_end);
  const std::string e2e_line = result_line(end_to_end);
  expect(metric_count(e2e_line) == 5, "five end-to-end metrics");
  expect(e2e_line.find("\"setup_s\": {\"value\": 2,") != std::string::npos, "median set-up");
  expect(e2e_line.find("\"cpu_ms_per_step\": {\"value\": 2,") != std::string::npos,
         "0.5 CPU-s over 250 steps");

  // ...and the same per-layer set, whichever spans it recorded: two traced
  // steps of 10 ms, 4 ms of solver self time in all, 16 ms unaccounted.
  const std::vector<perfbench::Span> spans = {{"bench.step", 0, 10'000'000, -1},
                                              {"solver.solve", 1'000'000, 4'000'000, 0},
                                              {"bench.step", 20'000'000, 30'000'000, -1},
                                              {"solver.solve", 21'000'000, 22'000'000, 2}};
  const std::vector<double> step_ms[2] = {{8.0, 8.0, 8.0}, {10.0, 10.0}};
  perfbench::Layers layers;
  layers.set("solver.pivots", 3.0);
  perfbench::Report per_layer;
  layers.report(per_layer, spans, step_ms);
  const std::string text = result_line(per_layer);
  expect(metric_count(text) ==
             2 + perfbench::kLayerSpans.size() + perfbench::kLayerCounters.size(),
         "every layer metric is printed");
  auto has = [&](const std::string& s) { return text.find(s) != std::string::npos; };
  expect(has("\"bench.step_ms\": {\"value\": 10,"), "mean traced step");
  expect(has("\"bench.trace_overhead_pct\": {\"value\": 25,"), "10 ms traced vs 8 ms untraced");
  expect(has("\"solver.solve_pct\": {\"value\": 20,"), "4 of 20 ms in the solver");
  expect(has("\"bench.unaccounted_pct\": {\"value\": 80,"), "16 of 20 ms unaccounted");
  expect(has("\"wire.hub_poll_pct\": {\"value\": 0,"), "an undriven layer reads 0");
  expect(has("\"solver.pivots\": {\"value\": 3,"), "a set counter");

  bool threw = false;
  try {
    layers.set("no.such_counter", 1.0);
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "an unknown counter is refused");
  threw = false;
  try {
    perfbench::Report ignored;
    layers.report(ignored, {{"stray.span", 0, 1, -1}, {"bench.step", 0, 2, -1}}, step_ms);
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "a span without a layer metric is refused");
}

}  // namespace

int main() {
  test_tail_rule();
  test_percentile_values();
  test_self_time();
  test_report();
  test_metric_sets();
  if (failures == 0) std::cout << "perfbench_tests: all passed\n";
  return failures == 0 ? 0 : 1;
}
