// Host speed, measured by the benchmark's own fixed work.
//
// The benchmark runs on shared hosts whose core speed drifts over minutes
// (a 1.6x swing between two states has been seen), which no median inside
// one run can remove.  So the gated times are CPU times at a reference
// speed: the run times a fixed reference kernel, which is benchmark code and
// never changes with the program, next to the program's work (never during
// it), and multiplies each CPU time by (the kernel's reference time / its
// measured CPU time).  A change in the program moves the scaled time as it
// moves the raw one; a change in host speed moves the kernel too and
// cancels out.  CPU time, unlike wall time, leaves out time the host steals
// from a vCPU.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace asrbench {

/// The reference kernels.  Each is single-threaded and holds its buffers
/// for the whole process.  A workload is scaled by the one whose working
/// set is like the program's on it: a kernel that also walks the L3 tracks
/// the batch and ingest workloads (hundreds of MB of hash tables) but only
/// adds noise to serve-mix (a few MB, syscall-bound).
enum class Kernel {
  kCore,       ///< hash inserts and probes over a 1 MB table, then a sort
  kCoreAndL3,  ///< kCore, then dependent loads around a random 24 MB cycle
};

/// CPU time of `kernel` at the reference speed, in ms: about what it takes
/// on a 2.0 GHz Xeon vCPU.
[[nodiscard]] double reference_ms(Kernel kernel);

/// Run `kernel` three times; the middle thread CPU time of the three,
/// times three, in ms.
[[nodiscard]] double reference_kernel_ms(Kernel kernel);

/// MB the kernels' buffers hold from their first sample on.  The workloads
/// take them out of peak_rss_mb, which is the program's own memory.
[[nodiscard]] double reference_kernel_mb();

/// The samples that bear on a time measured over [start_ns, end_ns], as an
/// index range [first, last) into `at_ns` (sample times, ascending): those
/// inside it, the last one before it and the first one after it.
[[nodiscard]] std::pair<std::size_t, std::size_t> samples_around(
    const std::vector<std::int64_t>& at_ns, std::int64_t start_ns, std::int64_t end_ns);

/// `reference` over the median of `kernel_ms` (1 when empty).
[[nodiscard]] double reference_scale(double reference, const std::vector<double>& kernel_ms);

/// Kernel samples taken through a run.
class SpeedMeter {
 public:
  explicit SpeedMeter(Kernel kernel) : kernel_(kernel) {}
  /// Take one sample now.
  void sample();
  /// Multiply a CPU time measured in this run by this to get the time at
  /// the reference speed: from the median of all samples...
  [[nodiscard]] double scale() const { return reference_scale(reference(), ms_); }
  /// ...or of the samples around [start_ns, end_ns] (see samples_around).
  [[nodiscard]] double scale_around(std::int64_t start_ns, std::int64_t end_ns) const;
  [[nodiscard]] std::size_t samples() const { return ms_.size(); }
  [[nodiscard]] double median_ms() const { return reference() / scale(); }
  [[nodiscard]] double reference() const { return reference_ms(kernel_); }

 private:
  Kernel kernel_;
  std::vector<std::int64_t> at_ns_;
  std::vector<double> ms_;
};

/// "K ms CPU, median of N samples (reference R ms)": the run fact.
[[nodiscard]] std::string describe(const SpeedMeter& meter);

}  // namespace asrbench
