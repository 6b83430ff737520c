#include "calibrate.h"

#include <algorithm>
#include <atomic>

#include "common.h"
#include "stats.h"

namespace asrbench {

namespace {

std::uint64_t xorshift(std::uint64_t& state) noexcept {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

// The kernels' buffers: allocated once, so no sample pays for page faults
// or depends on what the allocator holds after the program's work.
constexpr std::size_t kSlots = 1u << 17;  // 1 MB open-addressing table
constexpr std::size_t kSorted = 1u << 14;
constexpr std::size_t kChase = 6u << 20;  // 24 MB random cycle of u32 indexes

std::atomic<std::size_t> g_held_bytes{0};
volatile std::uint64_t g_sink = 0;

struct CoreState {
  std::vector<std::uint64_t> table = std::vector<std::uint64_t>(kSlots);
  std::vector<std::uint64_t> sorted = std::vector<std::uint64_t>(kSorted);
  CoreState() { g_held_bytes += (kSlots + kSorted) * sizeof(std::uint64_t); }
};

/// Sattolo's shuffle: one cycle through all slots, built in place.  The
/// cycle is larger than a core's L2 and fits the shared L3, so a neighbour
/// contending for the L3 slows the walk as it slows the program.
struct ChaseState {
  std::vector<std::uint32_t> next = std::vector<std::uint32_t>(kChase);
  ChaseState() {
    for (std::size_t i = 0; i < kChase; ++i) next[i] = static_cast<std::uint32_t>(i);
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = kChase - 1; i > 0; --i) std::swap(next[i], next[xorshift(state) % i]);
    g_held_bytes += kChase * sizeof(std::uint32_t);
  }
};

/// Hash inserts and probes over the table, then a sort.
void core_once(CoreState& k) {
  std::fill(k.table.begin(), k.table.end(), 0);
  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  const auto slot = [](std::uint64_t key) {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 47);
  };
  for (int i = 0; i < 60000; ++i) {
    const std::uint64_t key = xorshift(state) | 1;
    std::size_t at = slot(key);
    while (k.table[at] != 0 && k.table[at] != key) at = (at + 1) & (kSlots - 1);
    k.table[at] = key;
  }
  std::uint64_t acc = 0;
  for (int i = 0; i < 120000; ++i) {
    const std::uint64_t key = xorshift(state) | 1;
    std::size_t at = slot(key);
    while (k.table[at] != 0 && k.table[at] != key) at = (at + 1) & (kSlots - 1);
    acc += k.table[at] == key;
  }
  for (auto& v : k.sorted) v = xorshift(state);
  std::sort(k.sorted.begin(), k.sorted.end());
  g_sink = g_sink + acc + k.sorted[kSorted / 2];
}

/// Dependent loads around the cycle.
void chase_once(const ChaseState& k) {
  std::uint32_t at = 0;
  for (int i = 0; i < 25000; ++i) at = k.next[at];
  g_sink = g_sink + at;
}

}  // namespace

double reference_ms(Kernel kernel) { return kernel == Kernel::kCore ? 15.0 : 30.0; }

double reference_kernel_ms(Kernel kernel) {
  static CoreState core;
  double reps[3];
  for (double& rep : reps) {
    const double start = thread_cpu_s();
    core_once(core);
    if (kernel == Kernel::kCoreAndL3) {
      static const ChaseState chase;
      chase_once(chase);
    }
    rep = (thread_cpu_s() - start) * 1e3;
  }
  std::sort(reps, reps + 3);
  return 3 * reps[1];
}

double reference_kernel_mb() { return static_cast<double>(g_held_bytes) / (1024.0 * 1024.0); }

std::pair<std::size_t, std::size_t> samples_around(const std::vector<std::int64_t>& at_ns,
                                                   std::int64_t start_ns, std::int64_t end_ns) {
  std::size_t lo = 0;
  while (lo < at_ns.size() && at_ns[lo] < start_ns) ++lo;
  std::size_t hi = lo;
  while (hi < at_ns.size() && at_ns[hi] <= end_ns) ++hi;
  return {lo > 0 ? lo - 1 : 0, std::min(hi + 1, at_ns.size())};
}

double reference_scale(double reference, const std::vector<double>& kernel_ms) {
  return kernel_ms.empty() ? 1.0 : reference / median(kernel_ms);
}

void SpeedMeter::sample() {
  const double ms = reference_kernel_ms(kernel_);
  at_ns_.push_back(now_ns());
  ms_.push_back(ms);
}

double SpeedMeter::scale_around(std::int64_t start_ns, std::int64_t end_ns) const {
  const auto [lo, hi] = samples_around(at_ns_, start_ns, end_ns);
  return reference_scale(reference_ms(kernel_), {ms_.begin() + static_cast<std::ptrdiff_t>(lo),
                                                 ms_.begin() + static_cast<std::ptrdiff_t>(hi)});
}

std::string describe(const SpeedMeter& meter) {
  return json_num(meter.median_ms()) + " ms CPU, median of " + std::to_string(meter.samples()) +
         " samples (reference " + json_num(meter.reference()) + " ms)";
}

}  // namespace asrbench
