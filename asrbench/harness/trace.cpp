#include "trace.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "common.h"

namespace asrbench {

void Tracer::reserve(std::size_t spans) {
  if (!enabled_) return;
  std::lock_guard lock(mutex_);
  spans_.reserve(spans_.size() + spans);
}

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent, std::uint64_t request) {
  if (!enabled_) return 0;
  const std::int64_t start = now_ns();
  std::lock_guard lock(mutex_);
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start_ns = start;
  span.end_ns = start;
  spans_.push_back(span);
  return span.id;
}

void Tracer::end(std::uint32_t id) {
  if (!enabled_ || id == 0) return;
  const std::int64_t end = now_ns();
  std::lock_guard lock(mutex_);
  spans_.at(id - 1).end_ns = end;
}

std::uint32_t Tracer::record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                             std::uint32_t parent, std::uint64_t request) {
  if (!enabled_) return 0;
  std::lock_guard lock(mutex_);
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back({id, parent, request, name, start_ns, end_ns});
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  std::lock_guard lock(mutex_);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"name\":" << json_str(s.name) << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

std::map<std::string, double> self_time_ms(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : intervals) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
    }
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return out;
}

double span_cost_ns() {
  constexpr int kPairs = 20000;
  Tracer probe(true);
  const std::int64_t start = now_ns();
  for (int i = 0; i < kPairs; ++i) probe.end(probe.begin("probe"));
  return static_cast<double>(now_ns() - start) / kPairs;
}

}  // namespace asrbench
