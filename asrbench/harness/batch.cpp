// batch-rib and batch-wide: the publish path, RIB bytes in, published
// files out.  One pass is
//
//   mrt::read_table_dump_v2 -> PathCorpus -> AsRankInference::run
//   -> TopologyView::freeze -> provider_peer_observed_cone (ppdc file)
//   -> recursive_cone (snapshot cones) -> write_as_rel / write_ppdc
//   -> build_snapshot -> ASRK1 bytes
//
// The two workloads differ only in their input (see inputs.cpp).
#include <map>
#include <sstream>
#include <unordered_map>

#include "bgpsim/observation.h"
#include "calibrate.h"
#include "core/asrank.h"
#include "core/cones.h"
#include "inputs.h"
#include "mrt/table_dump_v2.h"
#include "paths/corpus.h"
#include "snapshot/snapshot.h"
#include "stats.h"
#include "topology/serialization.h"
#include "topology/topology_view.h"
#include "workloads.h"

namespace asrbench {

using namespace asrank;

namespace {

struct PassOutput {
  std::string as_rel;
  std::string ppdc;
  std::string asrk;
  std::size_t rows = 0;
  StageSums stage_us;  ///< stage-histogram growth over the pass
  double infer_us = 0;
};

PassOutput publish_pass(std::string_view rib, const core::InferenceConfig& config,
                        Tracer& tracer, std::uint32_t parent) {
  PassOutput out;
  const StageSums before = stage_sums_us();

  mrt::RibDump dump;
  {
    ScopedSpan span(tracer, "mrt.decode", parent);
    ViewBuf buf(rib);
    std::istream in(&buf);
    dump = mrt::read_table_dump_v2(in);
  }
  paths::PathCorpus corpus;
  {
    ScopedSpan span(tracer, "paths.corpus", parent);
    corpus = paths::PathCorpus::from_records(bgpsim::from_rib_dump(dump));
  }
  out.rows = corpus.size();
  core::InferenceResult result;
  {
    const std::int64_t start = now_ns();
    ScopedSpan span(tracer, "core.infer", parent);
    result = core::AsRankInference(config).run(corpus);
    out.infer_us = static_cast<double>(now_ns() - start) / 1e3;
  }
  topology::TopologyView view;
  {
    ScopedSpan span(tracer, "topology.freeze", parent);
    view = topology::TopologyView::freeze(result.graph, result.clique);
  }
  ConeMap ppdc;
  {
    ScopedSpan span(tracer, "cones.ppdc", parent);
    ppdc = core::provider_peer_observed_cone(view, result.sanitized, config.threads);
  }
  ConeMap recursive;
  {
    ScopedSpan span(tracer, "cones.recursive", parent);
    recursive = core::recursive_cone(view, config.threads);
  }
  {
    ScopedSpan span(tracer, "topology.write", parent);
    std::ostringstream rel, cones;
    write_as_rel(result.graph, rel);
    write_ppdc(ppdc, cones);
    out.as_rel = std::move(rel).str();
    out.ppdc = std::move(cones).str();
  }
  snapshot::SnapshotIndex index;
  {
    ScopedSpan span(tracer, "snapshot.build", parent);
    std::unordered_map<Asn, std::size_t> transit;
    for (const Asn as : result.graph.ases()) transit[as] = result.degrees.transit_degree(as);
    index = snapshot::build_snapshot(view, transit, recursive, result.clique);
  }
  {
    ScopedSpan span(tracer, "snapshot.write", parent);
    out.asrk = asrk_bytes(index);
  }
  out.stage_us = stage_deltas_us(before);
  return out;
}

struct Digests {
  std::uint64_t as_rel = 0, ppdc = 0, asrk = 0;
  friend bool operator==(const Digests&, const Digests&) = default;
};

Digests digests_of(const PassOutput& out) {
  return {digest(out.as_rel), digest(out.ppdc), digest(out.asrk)};
}

}  // namespace

RunResult run_batch(const RunConfig& config, Tracer& tracer) {
  RunResult result;
  const unsigned threads = hardware_threads();
  core::InferenceConfig inference;
  inference.threads = threads;

  // Set-up: load the input bytes and run one untimed pass (first-touch
  // allocation, lazy metric registration).  Repeated; the median is setup_s.
  // The speed meter samples the reference kernel before every set-up and
  // every timed pass, and once after the last.
  std::string rib;
  std::vector<std::pair<std::int64_t, std::int64_t>> setup_spans_ns;
  std::vector<double> setup_cpu_s;
  Digests reference;
  SpeedMeter meter(Kernel::kCoreAndL3);
  for (int i = 0; i < 5; ++i) {
    meter.sample();
    const std::int64_t start = now_ns();
    const double cpu_start = process_cpu_s();
    rib = read_file(config.input_dir + "/rib.mrt");
    inference.sanitizer.ixp_asns = read_ixps(config.input_dir + "/ixps.txt");
    const PassOutput warm = publish_pass(rib, inference, tracer, 0);
    setup_cpu_s.push_back(process_cpu_s() - cpu_start);
    setup_spans_ns.push_back({start, now_ns()});
    const Digests d = digests_of(warm);
    if (i == 0) {
      reference = d;
    } else if (++result.attempted; !(d == reference)) {
      ++result.failed;
      result.fail("set-up pass " + std::to_string(i) + " output digests differ");
    }
  }

  std::vector<double> wall_ms, cpu_ms, infer_ms;
  std::vector<std::pair<std::int64_t, std::int64_t>> pass_spans_ns;
  std::vector<StageSums> stage_us;  // per timed pass
  std::size_t rows = 0;
  std::string last_asrk;
  const std::size_t setup_spans = tracer.size();
  const std::int64_t begin = now_ns();
  const auto deadline = begin + static_cast<std::int64_t>(config.seconds * 1e9);
  while (wall_ms.empty() || now_ns() < deadline) {
    meter.sample();
    const std::uint32_t pass_span = tracer.begin("batch.pass");
    const std::int64_t start = now_ns();
    const double cpu_start = process_cpu_s();
    PassOutput out = publish_pass(rib, inference, tracer, pass_span);
    const double cpu_end = process_cpu_s();
    const std::int64_t end = now_ns();
    tracer.end(pass_span);
    wall_ms.push_back(static_cast<double>(end - start) / 1e6);
    pass_spans_ns.push_back({start, end});
    cpu_ms.push_back((cpu_end - cpu_start) * 1e3);
    // Off the clock: every pass must publish byte-identical files.
    ++result.attempted;
    if (!(digests_of(out) == reference)) {
      ++result.failed;
      result.fail("pass " + std::to_string(wall_ms.size()) + " output digests differ");
    }
    rows = out.rows;
    infer_ms.push_back(out.infer_us / 1e3);
    stage_us.push_back(std::move(out.stage_us));
    last_asrk = std::move(out.asrk);
  }
  meter.sample();
  const double measured_s = static_cast<double>(now_ns() - begin) / 1e9;
  const double peak = peak_rss_mb() - reference_kernel_mb();  // before the checks allocate

  // Off the clock: the mapped snapshot must equal the heap-read one, and
  // both must re-serialize to the published bytes.
  const std::string path = config.work_dir + "/published.asrk";
  write_file(path, last_asrk);
  const std::int64_t map_start = now_ns();
  auto mapped = snapshot::try_map_snapshot_file(path);
  const double map_ms = static_cast<double>(now_ns() - map_start) / 1e6;
  auto heap = snapshot::try_read_snapshot_file(path);
  ++result.attempted;
  if (!mapped.ok() || !heap.ok()) {
    ++result.failed;
    result.fail("published snapshot does not load");
  } else if (asrk_bytes(mapped.value()) != last_asrk || asrk_bytes(heap.value()) != last_asrk) {
    ++result.failed;
    result.fail("mapped and heap-read snapshots differ from the published bytes");
  }

  // The gated times: CPU at the reference speed.
  std::vector<double> setups, ref_setup_cpu_s, ref_cpu_ms;
  for (std::size_t i = 0; i < setup_spans_ns.size(); ++i) {
    const auto [start, end] = setup_spans_ns[i];
    setups.push_back(static_cast<double>(end - start) / 1e9);
    ref_setup_cpu_s.push_back(setup_cpu_s[i] * meter.scale_around(start, end));
  }
  for (std::size_t i = 0; i < cpu_ms.size(); ++i) {
    const auto [start, end] = pass_spans_ns[i];
    ref_cpu_ms.push_back(cpu_ms[i] * meter.scale_around(start, end));
  }
  result.facts.push_back({"passes", std::to_string(wall_ms.size())});
  result.facts.push_back({"rows", std::to_string(rows)});
  result.facts.push_back({"program_threads", std::to_string(threads)});
  result.facts.push_back({"generator_threads", "0"});
  result.facts.push_back({"asrk_digest", hex64(reference.asrk)});
  result.facts.push_back({"as_rel_digest", hex64(reference.as_rel)});
  result.facts.push_back({"ppdc_digest", hex64(reference.ppdc)});
  result.facts.push_back({"measured_s", json_num(measured_s)});
  result.facts.push_back({"reference_kernel", describe(meter)});

  const double fail_frac =
      static_cast<double>(result.failed) / static_cast<double>(result.attempted);
  result.report = {{"setup_wall_s", median(setups), "s"},
                   {"setup_cpu_s", median(setup_cpu_s), "s"},
                   {"peak_rss_mb", peak, "MB"},
                   {"batch_s", median(wall_ms) / 1e3, "s"},
                   {"batch_cpu_s", median(cpu_ms) / 1e3, "s"},
                   {"fail_frac", fail_frac, "ratio"}};

  if (!tracer.enabled()) {
    result.metrics = {{"setup_s", median(ref_setup_cpu_s), "s"},
                      {"peak_rss_mb", peak, "MB"},
                      {"cpu_ms", median(ref_cpu_ms), "ms"}};
    return result;
  }

  // Per-layer: mean per timed pass, so the stage parts add up to the whole.
  std::vector<Metric> layers;
  // Set-up passes are roots; timed passes are children of batch.pass.
  const auto spans = tracer.spans();
  std::unordered_map<std::uint32_t, bool> timed;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == "batch.pass") timed[s.id] = true;
  }
  const auto span_mean = [&](std::string_view span, const char* metric) {
    std::vector<double> values;
    for (const Span& s : spans) {
      if (s.name == span && timed.contains(s.parent)) {
        values.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      }
    }
    layers.push_back({metric, mean(values), "ms"});
  };
  span_mean("mrt.decode", "mrt.decode_ms");
  span_mean("paths.corpus", "paths.corpus_ms");
  span_mean("topology.freeze", "topology.freeze_ms");
  span_mean("cones.ppdc", "cones.ppdc_ms");
  span_mean("cones.recursive", "cones.recursive_ms");
  span_mean("topology.write", "topology.write_ms");
  span_mean("snapshot.build", "snapshot.build_ms");
  span_mean("snapshot.write", "snapshot.write_ms");
  std::map<std::string, std::vector<double>> stage_ms;
  std::vector<double> unattributed_ms;
  for (std::size_t i = 0; i < stage_us.size(); ++i) {
    double named = 0;
    for (const auto& [stage, us] : stage_us[i]) {
      stage_ms[stage].push_back(us / 1e3);
      if (stage != "cone_closure") named += us;
    }
    unattributed_ms.push_back(infer_ms[i] - named / 1e3);
  }
  layers.push_back({"core.infer_ms", mean(infer_ms), "ms"});
  for (const auto& [stage, values] : stage_ms) {
    layers.push_back({"core.stage." + stage + "_ms", mean(values), "ms"});
  }
  layers.push_back({"core.unattributed_ms", mean(unattributed_ms), "ms"});
  layers.push_back({"snapshot.bytes", static_cast<double>(last_asrk.size()), "bytes"});
  layers.push_back({"snapshot.map_ms", map_ms, "ms"});
  // Tracing overhead: spans opened in the timed passes, at their measured
  // cost, as a share of the timed wall clock.
  layers.push_back({"trace.overhead_pct",
                    100.0 * static_cast<double>(tracer.size() - setup_spans) * span_cost_ns() /
                        1e9 / measured_s,
                    "%"});
  result.metrics = std::move(layers);
  return result;
}

}  // namespace asrbench
