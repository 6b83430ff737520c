// The four workloads.  Each runs from inputs generated for its seed, times
// calls into the layers' public entry points, checks every output off the
// clock, and returns end-to-end metrics (untraced) or per-layer metrics
// (traced).  README.md gives the reasons for each workload and the
// layer -> metric -> workload map.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "snapshot/snapshot.h"
#include "trace.h"

namespace asrbench {

[[nodiscard]] RunResult run_batch(const RunConfig& config, Tracer& tracer);
[[nodiscard]] RunResult run_serve_mix(const RunConfig& config, Tracer& tracer);
[[nodiscard]] RunResult run_ingest_serve(const RunConfig& config, Tracer& tracer);

/// The stages AsRankInference::run times into asrank_stage_duration_micros.
/// cone_closure, the other stage that histogram records, runs inside the
/// cone functions, outside run().
inline const std::vector<std::string> kInferenceStages = {
    "sanitize", "degree_tally", "clique", "poisoned_scan",
    "voting", "valley_fixpoint", "finalize"};

/// asrank_stage_duration_micros sums, in microseconds, of the inference
/// stages and cone_closure.
using StageSums = std::map<std::string, double>;
[[nodiscard]] StageSums stage_sums_us();
/// Growth of each sum since `before`.
[[nodiscard]] StageSums stage_deltas_us(const StageSums& before);

/// ASRK1 bytes of an index.
[[nodiscard]] std::string asrk_bytes(const asrank::snapshot::SnapshotIndex& index);

}  // namespace asrbench
