// Epoch construction: the back half of the streaming ingest conveyor
// (docs/INGEST.md).
//
// An EpochBuilder turns the applier's current corpus into a fresh ASRK1
// SnapshotIndex: run relationship inference, recompute customer cones
// incrementally against the previous epoch's graph (safe over-invalidation
// with a full-closure fallback — see core::recursive_cone_incremental), and
// freeze the result with snapshot::build_snapshot.  Because inference is
// deterministic and the incremental closure is output-identical to the full
// one, every emitted epoch is byte-identical to a from-scratch batch build
// of the same corpus — batch_build() is that reference path, and the
// differential suite (tests/test_differential.cpp) holds the two equal.
//
// FlushPolicy and expand_epoch_label are the scheduling/naming companions
// the long-running CLI mode drives; both are pure and unit-testable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/asrank.h"
#include "core/cones.h"
#include "obs/metrics.h"
#include "paths/corpus.h"
#include "snapshot/snapshot.h"
#include "topology/as_graph.h"
#include "util/result.h"

namespace asrank::ingest {

struct EpochBuilderConfig {
  core::InferenceConfig inference;

  /// Passed to core::recursive_cone, whose closure is sequential: it has no
  /// effect, and stays only because the benchmark harness sets it.
  std::size_t cone_threads = 1;

  /// Dirty fraction above which the incremental closure abandons reuse for
  /// a plain full closure.
  double full_closure_threshold = 0.5;

  /// Paranoia knob: after every incremental build, serialize both it and a
  /// from-scratch batch build and fail (kInternal) on any byte difference.
  /// The differential tests run with this on; production ingest leaves it
  /// off (it doubles the build cost).
  bool verify_batch = false;
};

/// What one build() did, for logs/benches.
struct EpochBuildInfo {
  std::uint64_t sequence = 0;  ///< 1-based epoch number from this builder
  core::IncrementalConeStats cones;
  std::uint64_t build_micros = 0;

  friend bool operator==(const EpochBuildInfo&, const EpochBuildInfo&) = default;
};

class EpochBuilder {
 public:
  explicit EpochBuilder(EpochBuilderConfig config = {},
                        obs::Registry& metrics = obs::Registry::global());

  /// Build the next epoch from `corpus`.  The first call runs a full cone
  /// closure; later calls recompute only dirty cones against the previous
  /// epoch.  Pipeline exceptions (provider cycles, snapshot invariant
  /// violations) surface as kInternal on the Result rail — a bad corpus
  /// must not kill a long-running ingest process.
  [[nodiscard]] Result<snapshot::SnapshotIndex> build(const paths::PathCorpus& corpus,
                                                      EpochBuildInfo* info = nullptr);

  /// Stateless reference path: full inference + full closure + snapshot.
  /// build() is byte-identical to this for the same corpus.
  [[nodiscard]] static snapshot::SnapshotIndex batch_build(
      const paths::PathCorpus& corpus, const EpochBuilderConfig& config = {});

  [[nodiscard]] std::uint64_t epochs_built() const noexcept { return sequence_; }
  [[nodiscard]] const EpochBuilderConfig& config() const noexcept { return config_; }

 private:
  EpochBuilderConfig config_;
  AsGraph prev_graph_;
  ConeMap prev_cones_;
  bool has_prev_ = false;
  std::uint64_t sequence_ = 0;

  obs::Histogram* build_latency_;
  obs::Gauge* dirty_gauge_;
  obs::Counter* full_closures_;
  obs::Counter* epochs_total_;
};

/// When to cut an epoch.  The caller drives it with one call per applied
/// message plus a periodic due() poll; time is caller-supplied monotonic
/// milliseconds so policies are unit-testable without sleeping.
class FlushPolicy {
 public:
  /// All triggers disabled by zero/false; any combination may be armed.
  FlushPolicy(std::uint64_t every_updates, std::uint64_t every_ms,
              bool on_timestamp_change) noexcept
      : every_updates_(every_updates),
        every_ms_(every_ms),
        on_timestamp_change_(on_timestamp_change) {}

  /// Is an epoch boundary due *before* applying a message stamped
  /// `timestamp`?  True only in timestamp mode, when the stamp advances past
  /// the batch being accumulated — the natural replay boundary between
  /// bgpsim stream steps.
  [[nodiscard]] bool due_before(std::uint32_t timestamp) const noexcept {
    return on_timestamp_change_ && pending_ > 0 && timestamp != last_timestamp_;
  }

  /// Record one applied message.
  void applied(std::uint32_t timestamp) noexcept {
    ++pending_;
    last_timestamp_ = timestamp;
  }

  /// Is a count- or interval-based boundary due at `now_ms`?  Never true
  /// with nothing pending (no empty epochs).
  [[nodiscard]] bool due(std::uint64_t now_ms) const noexcept {
    if (pending_ == 0) return false;
    if (every_updates_ != 0 && pending_ >= every_updates_) return true;
    return every_ms_ != 0 && now_ms - last_flush_ms_ >= every_ms_;
  }

  /// Reset after a flush.
  void flushed(std::uint64_t now_ms) noexcept {
    pending_ = 0;
    last_flush_ms_ = now_ms;
  }

  [[nodiscard]] std::uint64_t pending() const noexcept { return pending_; }

 private:
  std::uint64_t every_updates_;
  std::uint64_t every_ms_;
  bool on_timestamp_change_;
  std::uint64_t pending_ = 0;
  std::uint32_t last_timestamp_ = 0;
  std::uint64_t last_flush_ms_ = 0;
};

/// Expand an epoch-label format string: `%N` becomes the zero-padded 6-digit
/// sequence number, `%T` the decimal timestamp, `%%` a literal percent;
/// every other byte passes through.  The default ingest format is
/// "epoch-%N".  Throws std::invalid_argument on an unknown % escape or when
/// the expansion is not a valid registry epoch label.
[[nodiscard]] std::string expand_epoch_label(std::string_view format,
                                             std::uint64_t sequence,
                                             std::uint64_t timestamp);

}  // namespace asrank::ingest
