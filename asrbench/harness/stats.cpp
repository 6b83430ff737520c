#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace asrbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0 || values[lo] == values[hi]) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

TailPick supported_tail(const std::vector<double>& values) {
  constexpr std::size_t kMinBeyond = 10;
  static constexpr std::size_t kPercentiles[] = {99, 95, 90, 75, 50};
  for (const std::size_t p : kPercentiles) {
    if (values.size() * (100 - p) / 100 >= kMinBeyond) {
      return {static_cast<double>(p), quantile(values, static_cast<double>(p) / 100),
              values.size()};
    }
  }
  return {0, 0, values.size()};
}

OpenLoopSummary summarize(const std::vector<RequestRecord>& records) {
  OpenLoopSummary out;
  out.latency_us.reserve(records.size());
  for (const RequestRecord& r : records) {
    ++out.attempted;
    if (r.sent_ns >= 0) out.lag_us.push_back(static_cast<double>(r.sent_ns - r.due_ns) / 1e3);
    if (r.done_ns < 0) {
      ++out.unanswered;
      ++out.failed;
      out.latency_us.push_back(kMissed);
    } else if (!r.ok) {
      ++out.failed;
      out.latency_us.push_back(kMissed);
    } else {
      out.latency_us.push_back(static_cast<double>(r.done_ns - r.due_ns) / 1e3);
    }
  }
  return out;
}

WindowedLatency windowed_latency(const std::vector<RequestRecord>& records,
                                 std::size_t windows) {
  WindowedLatency out;
  windows = std::max<std::size_t>(1, std::min(windows, records.size()));
  out.windows = windows;
  out.samples_per_window = records.size() / windows;
  out.tail_percentile = 99;
  std::vector<double> p50s, p90s, p99s;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t lo = records.size() * w / windows;
    const std::size_t hi = records.size() * (w + 1) / windows;
    const OpenLoopSummary s = summarize({records.begin() + lo, records.begin() + hi});
    const TailPick tail = supported_tail(s.latency_us);
    p50s.push_back(median(s.latency_us));
    p90s.push_back(quantile(s.latency_us, 0.9));
    p99s.push_back(tail.value);
    out.tail_percentile = std::min(out.tail_percentile, tail.percentile);
  }
  out.p50_us = median(p50s);
  out.p90_us = median(p90s);
  out.p99_us = median(p99s);
  return out;
}

}  // namespace asrbench
