// Self-tests for the benchmark's own statistics: the tail-percentile rule,
// open-loop accounting, failure counting, span self time, and the choice
// of reference-kernel samples that scale a time.
#include <cmath>
#include <iostream>
#include <string>

#include "calibrate.h"
#include "stats.h"
#include "trace.h"

namespace asrbench {

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_quantiles() {
  check(near(median({3, 1, 2}), 2), "median of odd sample");
  check(near(median({4, 1, 2, 3}), 2.5), "median interpolates between the middle pair");
  check(near(quantile(ramp(101), 0.99), 100), "p99 of 1..101");
  check(median({}) == 0, "median of empty sample is 0");
}

void test_tail_rule() {
  check(supported_tail(ramp(1000)).percentile == 99, "1000 samples support p99");
  check(supported_tail(ramp(999)).percentile == 95, "999 samples fall back to p95");
  check(supported_tail(ramp(100000)).percentile == 99, "p99 is the highest percentile reported");
  check(supported_tail(ramp(20)).percentile == 50, "20 samples support only the median");
  check(supported_tail(ramp(19)).percentile == 0, "19 samples support no percentile");
  const TailPick pick = supported_tail(ramp(1000));
  check(pick.samples == 1000 && near(pick.value, quantile(ramp(1000), 0.99)),
        "tail pick states its value and sample count");
}

/// A FIFO server with a fixed service time and one stalled request:
/// open-loop latency, timed from each request's due time, must carry the
/// stall into every request queued behind it.
void test_open_loop_stall() {
  constexpr std::int64_t kMs = 1'000'000;
  std::vector<RequestRecord> records;
  std::int64_t free_at = 0;
  for (int i = 0; i < 100; ++i) {
    RequestRecord r;
    r.due_ns = i * kMs;
    r.sent_ns = r.due_ns;
    const std::int64_t service = (i == 10) ? 20 * kMs : kMs / 10;
    const std::int64_t begin = std::max(r.due_ns, free_at);
    r.done_ns = begin + service;
    free_at = r.done_ns;
    r.ok = true;
    records.push_back(r);
  }
  const OpenLoopSummary s = summarize(records);
  check(s.failed == 0 && s.attempted == 100, "stall run: no failures");
  check(near(s.latency_us[9], 100), "before the stall: latency is the service time");
  check(s.latency_us[11] >= 19'000, "request after the stall waits out the stall");
  bool monotone = true;
  for (int i = 11; i < 29; ++i) monotone = monotone && s.latency_us[i] > s.latency_us[i + 1];
  check(monotone, "queued requests drain one service time at a time");
  check(near(s.latency_us[40], 100), "after the backlog drains: back to the service time");
  check(quantile(s.latency_us, 0.99) > 1000, "the stall shows in p99");
  const WindowedLatency w = windowed_latency(records, 5);
  check(w.windows == 5 && w.samples_per_window == 20, "five windows of twenty requests");
  check(near(w.p50_us, 100) && w.tail_percentile == 50,
        "windowed median: one stalled window does not move it");
}

void test_failure_counting() {
  std::vector<RequestRecord> records(200);
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].due_ns = static_cast<std::int64_t>(i) * 1000;
    records[i].sent_ns = records[i].due_ns + 5000;
    records[i].done_ns = records[i].due_ns + 10'000;
    records[i].ok = true;
  }
  records[3].done_ns = -1;  // unanswered
  records[7].ok = false;    // answered, wrong
  records[9].sent_ns = -1;  // never sent, never answered
  records[9].done_ns = -1;
  const OpenLoopSummary s = summarize(records);
  check(s.attempted == 200, "every scheduled request is an attempt");
  check(s.failed == 3 && s.unanswered == 2, "unanswered and wrong replies both fail");
  check(std::isinf(s.latency_us[3]) && std::isinf(s.latency_us[7]),
        "a failed request misses every latency limit");
  check(s.lag_us.size() == 199 && near(s.lag_us[0], 5), "lateness counts sent requests only");
  check(std::isinf(quantile(s.latency_us, 0.999)), "failures reach the tail");
  check(near(median(s.latency_us), 10), "median unaffected by 1.5% failures");
}

void test_self_time() {
  const std::vector<Span> spans = {
      {1, 0, 0, "pass", 0, 100},
      {2, 1, 0, "a.x", 10, 30},
      {3, 1, 0, "b.y", 20, 50},   // overlaps a.x: union [10, 50]
      {4, 1, 0, "c.z", 60, 70},
      {5, 1, 0, "d.w", 90, 120},  // runs past its parent: clipped to [90, 100]
      {6, 4, 0, "e.v", 62, 66},   // grandchild: counts against c.z only
  };
  const auto self = self_time_ms(spans);
  check(near(self.at("pass"), 40e-6), "parent self time = duration - union of children");
  check(near(self.at("c.z"), 6e-6), "child self time excludes its own child");
  check(near(self.at("e.v"), 4e-6), "leaf self time = duration");
  double total = 0;
  for (const auto& [name, ms] : self) total += ms;
  // 100 (the root) + 10 (a.x and b.y overlap) + 20 (d.w past its parent).
  check(near(total, 130e-6), "self times add up to the root plus overlap and overhang");
}

void test_reference_scale() {
  const std::vector<std::int64_t> at = {10, 20, 30, 40};
  using Range = std::pair<std::size_t, std::size_t>;
  check(samples_around(at, 21, 29) == Range{1, 3}, "a time between samples uses its two neighbours");
  check(samples_around(at, 15, 35) == Range{0, 4},
        "a time spanning samples uses them and one on either side");
  check(samples_around(at, 1, 5) == Range{0, 1}, "a time before every sample uses the first");
  check(samples_around(at, 50, 60) == Range{3, 4}, "a time after every sample uses the last");
  check(near(reference_scale(15, {15}), 1), "kernel at the reference time: scale 1");
  check(near(reference_scale(15, {30, 30, 100}), 0.5),
        "kernel twice as slow: times are halved (median sample)");
}

}  // namespace

int selftest() {
  test_quantiles();
  test_tail_rule();
  test_open_loop_stall();
  test_failure_counting();
  test_self_time();
  test_reference_scale();
  std::cout << (failures == 0 ? "selftest passed\n" : "selftest FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace asrbench
