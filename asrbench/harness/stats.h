// The benchmark's own statistics: medians, the tail-percentile rule, and
// open-loop request accounting.  Pure functions, covered by `asrbench
// selftest`.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace asrbench {

/// Linear-interpolated quantile, q in [0, 1] (0 for an empty sample).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// The highest percentile of {99, 95, 90, 75, 50} that has at least ten
/// samples above it, with the sample count it rests on.  `percentile` is 0
/// when even the median lacks that support.
struct TailPick {
  double percentile = 0;
  double value = 0;
  std::size_t samples = 0;
};
[[nodiscard]] TailPick supported_tail(const std::vector<double>& values);

/// One request of an open-loop schedule.  Times are nanoseconds on one
/// clock; `done_ns` < 0 means no reply arrived.
struct RequestRecord {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = -1;
  std::int64_t done_ns = -1;
  bool ok = false;  ///< the reply arrived and was correct
};

inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// Open-loop accounting: latency runs from when a request was due, not
/// from when it was sent, so a stall delays every request queued behind
/// it.  A failed or unanswered request counts as missing every latency
/// limit (its latency is kMissed).
struct OpenLoopSummary {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< wrong, refused or unanswered
  std::uint64_t unanswered = 0;  ///< subset of failed: no reply at all
  std::vector<double> latency_us;  ///< one per attempt; kMissed for failures
  std::vector<double> lag_us;      ///< sent - due, for requests that were sent
};
[[nodiscard]] OpenLoopSummary summarize(const std::vector<RequestRecord>& records);

/// Latency of a steady-rate phase as the median, over `windows` equal
/// consecutive slices of its requests, of each slice's p50, p90 and p99:
/// one stall (a preempted thread, a stolen core) moves one window, not the
/// result.  Each window's p99 is its highest percentile up to p99 with ten
/// samples beyond it.
struct WindowedLatency {
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double tail_percentile = 0;  ///< of the windows' tails (the smallest)
  std::size_t windows = 0;
  std::size_t samples_per_window = 0;
};
[[nodiscard]] WindowedLatency windowed_latency(const std::vector<RequestRecord>& records,
                                               std::size_t windows);

}  // namespace asrbench
