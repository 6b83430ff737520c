// Shared plumbing for the benchmark harness: clocks, resource readings,
// digests, the run configuration, and the result every workload returns.
#pragma once

#include <cstdint>
#include <streambuf>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace asrbench {

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns() noexcept;
/// CPU seconds of the whole process, all threads.
[[nodiscard]] double process_cpu_s() noexcept;
/// CPU seconds of the calling thread.
[[nodiscard]] double thread_cpu_s() noexcept;
/// Peak resident set of this process (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();
/// Reset VmHWM to the current resident set (Linux: clear_refs 5).
void reset_peak_rss();
/// Hardware threads visible to this process.
[[nodiscard]] unsigned hardware_threads() noexcept;

/// FNV-1a 64 over bytes: the digest used for inputs and published outputs.
[[nodiscard]] std::uint64_t digest(std::string_view bytes) noexcept;
[[nodiscard]] std::string hex64(std::uint64_t value);

[[nodiscard]] std::string read_file(const std::string& path);

/// Read-only streambuf over bytes already in memory (no copy), for the
/// library's istream decoders.
class ViewBuf : public std::streambuf {
 public:
  explicit ViewBuf(std::string_view bytes) {
    char* base = const_cast<char*>(bytes.data());
    setg(base, base, base + bytes.size());
  }
};

void write_file(const std::string& path, std::string_view bytes);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string input_dir;  ///< generated inputs for (workload, seed)
  std::string work_dir;   ///< files written during the run, and the trace
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run returns.  `metrics` are the end-to-end metrics of
/// an untraced run or the per-layer metrics of a traced one; `report` are
/// the same quantities under the names the documentation uses, printed for
/// people; `facts` stamp the run.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> report;
  std::vector<std::pair<std::string, std::string>> facts;
  std::vector<std::string> errors;

  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

/// JSON string literal (quotes and escapes).
[[nodiscard]] std::string json_str(std::string_view text);
/// Shortest round-trip decimal for a double.
[[nodiscard]] std::string json_num(double value);

}  // namespace asrbench
