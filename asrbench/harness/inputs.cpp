#include "inputs.h"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "algo/registry.h"
#include "bgpsim/observation.h"
#include "bgpsim/update_stream.h"
#include "common.h"
#include "core/asrank.h"
#include "core/cones.h"
#include "core/degrees.h"
#include "mrt/bgp4mp.h"
#include "mrt/table_dump_v2.h"
#include "paths/corpus.h"
#include "snapshot/snapshot.h"
#include "topogen/topogen.h"

namespace asrbench {

using namespace asrank;

namespace {

// Input sizes.  The RIB workloads use the `medium` preset (2000 ASes, about
// 150k rows from 36 VPs): a publish pass there takes well under a second, so
// a ten-second run holds enough passes for a steady median, and generation
// stays within a few seconds.  batch-wide is the 50k-AS ascent corpus of
// bench_parallel_scaling.
constexpr const char* kRibPreset = "medium";
constexpr std::size_t kWideAses = 50000;
// Evolution steps in the ingest update stream, each three times the default
// churn: about five times the updates a ten-second run consumes today, so
// epochs keep being cut for the whole run even if builds get much faster.
constexpr std::size_t kUpdateSteps = 8;
constexpr topogen::EvolveParams kChurn{60, 45, 0.06};

topogen::GroundTruth make_truth(const std::string& preset, std::uint64_t seed,
                                std::size_t total_ases = 0) {
  auto params = topogen::GenParams::preset(preset);
  params.seed = seed;
  if (total_ases != 0) params.total_ases = total_ases;
  return topogen::generate(params);
}

bgpsim::ObservationParams observation_params(std::uint64_t seed) {
  bgpsim::ObservationParams params;
  params.seed = seed + 1;
  params.full_vps = 30;
  params.partial_vps = 10;
  params.threads = hardware_threads();  // identical output at any count
  return params;
}

void write_rib(const bgpsim::Observation& observation, const std::string& path) {
  std::ostringstream out;
  mrt::write_table_dump_v2(bgpsim::to_rib_dump(observation), out);
  write_file(path, out.str());
}

void write_ixps(const topogen::GroundTruth& truth, const std::string& path) {
  std::ostringstream out;
  for (const Asn as : truth.ixp_asns) out << as.value() << "\n";
  write_file(path, out.str());
}

/// bench_parallel_scaling's corpus shape: every AS contributes its
/// provider-ascent chain (at most six hops) as one observed path, so the
/// corpus is wide (one row per AS) and thin (no VP sees the whole table).
bgpsim::Observation ascent_observation(const topogen::GroundTruth& truth) {
  bgpsim::Observation observation;
  for (const Asn as : truth.graph.ases()) {
    std::vector<Asn> hops{as};
    Asn cursor = as;
    while (hops.size() < 6) {
      const auto providers = truth.graph.providers(cursor);
      if (providers.empty()) break;
      cursor = providers.front();
      hops.push_back(cursor);
    }
    if (hops.size() < 2) continue;
    observation.vps.push_back({as, true});
    observation.routes.push_back(
        {as, Prefix::v4(hops.back().value() << 8, 24), AsPath(std::move(hops))});
  }
  return observation;
}

/// One algorithm's snapshot part, built the way `asrank_cli snapshot
/// --algorithm` builds it: recursive cones over the inferred graph, corpus
/// transit degrees, and (for the baselines) the rank-order cycle repair.
snapshot::SnapshotIndex algorithm_part(const std::string& name, const paths::PathCorpus& corpus,
                                       const core::Degrees& degrees,
                                       const core::InferenceConfig& config) {
  AsGraph graph;
  std::vector<Asn> clique;
  if (name == "asrank") {
    auto result = core::AsRankInference(config).run(corpus);
    graph = std::move(result.graph);
    clique = std::move(result.clique);
  } else {
    algo::AlgorithmOptions options;
    options.threads = config.threads;
    auto algorithm = algo::create(name, options);
    if (!algorithm.ok()) throw std::runtime_error(algorithm.error().message());
    graph = algorithm.value()->infer(corpus);
    core::break_provider_cycles(graph, degrees);
    clique = graph.provider_free_ases();
  }
  std::unordered_map<Asn, std::size_t> transit;
  for (const Asn as : graph.ases()) transit[as] = degrees.transit_degree(as);
  return snapshot::build_snapshot(graph, transit, core::recursive_cone(graph, config.threads),
                                  clique);
}

}  // namespace

std::unordered_set<Asn> read_ixps(const std::string& path) {
  std::unordered_set<Asn> out;
  std::istringstream in(read_file(path));
  std::uint32_t value = 0;
  while (in >> value) out.insert(Asn(value));
  return out;
}

void generate_inputs(const std::string& workload, std::uint64_t seed, const std::string& dir) {
  if (workload == "batch-rib") {
    const auto truth = make_truth(kRibPreset, seed);
    write_rib(bgpsim::observe(truth, observation_params(seed)), dir + "/rib.mrt");
    write_ixps(truth, dir + "/ixps.txt");
  } else if (workload == "batch-wide") {
    const auto truth = make_truth("large", seed, kWideAses);
    write_rib(ascent_observation(truth), dir + "/rib.mrt");
    write_ixps(truth, dir + "/ixps.txt");
  } else if (workload == "serve-mix") {
    const auto truth = make_truth(kRibPreset, seed);
    const auto observation = bgpsim::observe(truth, observation_params(seed));
    const auto corpus = paths::PathCorpus::from_records(observation.routes);
    core::InferenceConfig config;
    config.threads = hardware_threads();
    config.sanitizer.ixp_asns.insert(truth.ixp_asns.begin(), truth.ixp_asns.end());
    const auto degrees = core::Degrees::compute(corpus, config.threads);
    std::vector<std::pair<std::string, snapshot::SnapshotIndex>> parts;
    for (const std::string name : {"asrank", "gao2001"}) {
      parts.emplace_back(name, algorithm_part(name, corpus, degrees, config));
    }
    auto combined = snapshot::combine_snapshots(std::move(parts));
    if (!combined.ok()) throw std::runtime_error(combined.error().message());
    snapshot::write_snapshot_file(combined.value(), dir + "/snapshot.asrk");
  } else if (workload == "ingest-serve") {
    auto truth = make_truth(kRibPreset, seed);
    write_ixps(truth, dir + "/ixps.txt");
    bgpsim::UpdateStreamParams params;
    params.steps = kUpdateSteps;
    params.seed = seed + 2;
    params.bootstrap = true;  // step 0 carries the base table
    params.evolve = kChurn;
    const auto stream = bgpsim::generate_update_stream(truth, observation_params(seed), params);
    write_rib(stream.front().observation, dir + "/rib.mrt");
    std::ostringstream updates;
    for (std::size_t k = 1; k < stream.size(); ++k) {
      for (const auto& update : stream[k].updates) mrt::write_update(update, updates);
    }
    write_file(dir + "/updates.mrt", updates.str());
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
}

}  // namespace asrbench
