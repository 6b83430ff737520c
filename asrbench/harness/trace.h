// Spans for the traced run.  The harness opens one span around each call
// it makes into a layer's public entry point; spans stay in memory and are
// written out when the run ends.  A disabled tracer records nothing, so the
// untraced run pays one branch per call site.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace asrbench {

struct Span {
  std::uint32_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint32_t parent = 0;  ///< 0 for a root
  std::uint64_t request = 0; ///< request id for serve requests, else 0
  const char* name = "";     ///< static string: "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Pre-size the span store, so recording never reallocates mid-run.
  void reserve(std::size_t spans);

  /// Open a span; returns its id (0 when disabled).
  std::uint32_t begin(const char* name, std::uint32_t parent = 0, std::uint64_t request = 0);
  void end(std::uint32_t id);
  /// Record a span whose bounds were measured elsewhere.
  std::uint32_t record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                       std::uint32_t parent = 0, std::uint64_t request = 0);

  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::size_t size() const;

  /// Write every span as JSON lines.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;  ///< spans_ is appended from the load and ingest threads
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint32_t parent = 0)
      : tracer_(tracer), id_(tracer.begin(name, parent)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { tracer_.end(id_); }
  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

/// Self time per span name, in ms: each span's duration minus the part of
/// its interval covered by the union of its children's intervals.
[[nodiscard]] std::map<std::string, double> self_time_ms(const std::vector<Span>& spans);

/// Cost of one begin/end pair on an enabled tracer, in ns (measured).
[[nodiscard]] double span_cost_ns();

}  // namespace asrbench
