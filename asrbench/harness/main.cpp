// asrbench: the measuring process.  run.py builds it, generates inputs with
// `asrbench gen` in a separate process, then measures with `asrbench run`.
//
//   asrbench gen      --workload W --seed N --out DIR
//   asrbench run      --workload W --seed N --seconds S --trace 0|1
//                     --inputs DIR --work DIR
//   asrbench selftest
//
// `run` prints a report for people, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}; it exits 1 when any output
// check failed.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "inputs.h"
#include "obs/timer.h"
#include "workloads.h"

namespace asrbench {

int selftest();

StageSums stage_sums_us() {
  StageSums sums;
  for (const auto& stage : kInferenceStages) {
    sums[stage] = static_cast<double>(asrank::obs::stage_histogram(stage).sum());
  }
  sums["cone_closure"] =
      static_cast<double>(asrank::obs::stage_histogram("cone_closure").sum());
  return sums;
}

StageSums stage_deltas_us(const StageSums& before) {
  StageSums deltas = stage_sums_us();
  for (auto& [stage, sum] : deltas) sum -= before.at(stage);
  return deltas;
}

std::string asrk_bytes(const asrank::snapshot::SnapshotIndex& index) {
  std::ostringstream out;
  if (auto written = asrank::snapshot::try_write_snapshot(index, out); !written.ok()) {
    throw std::runtime_error(written.error().message());
  }
  return std::move(out).str();
}

namespace {

std::map<std::string, std::string> parse_flags(int argc, char** argv, int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value, got '" + key + "'");
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

const std::string& need(const std::map<std::string, std::string>& flags, const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

std::uint64_t parse_u64(const std::string& text) {
  std::size_t used = 0;
  const auto value = std::stoull(text, &used);
  if (used != text.size()) throw std::invalid_argument("not a number: '" + text + "'");
  return value;
}

void print_result(const RunConfig& config, const RunResult& result, const Tracer& tracer) {
  std::cout << "# " << config.workload << " seed " << config.seed
            << (config.trace ? " (traced)" : "") << "\n";
  for (const Metric& m : result.report) {
    std::cout << "#   " << m.name << " = " << json_num(m.value) << " " << m.unit << "\n";
  }
  for (const auto& [key, value] : result.facts) {
    std::cout << "#   fact " << key << ": " << value << "\n";
  }
  if (config.trace) {
    // Self time per layer (the span name's prefix), over the whole run.
    // Request spans are left out: they overlap one another, so their sum
    // is not time any layer spent.
    std::vector<Span> calls;
    for (const Span& span : tracer.spans()) {
      if (std::string_view(span.name) != "loadgen.request") calls.push_back(span);
    }
    std::map<std::string, double> layers;
    for (const auto& [name, ms] : self_time_ms(calls)) {
      layers[name.substr(0, name.find('.'))] += ms;
    }
    for (const auto& [layer, ms] : layers) {
      std::cout << "#   self_time " << layer << " = " << json_num(ms) << " ms\n";
    }
  }
  for (const std::string& error : result.errors) std::cout << "#   CHECK FAILED: " << error << "\n";
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << json_str(m.name) << ": {\"value\": " << json_num(m.value)
              << ", \"unit\": " << json_str(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
}

int run(const std::map<std::string, std::string>& flags) {
  RunConfig config;
  config.workload = need(flags, "workload");
  config.seed = parse_u64(need(flags, "seed"));
  config.seconds = static_cast<double>(parse_u64(need(flags, "seconds")));
  config.trace = need(flags, "trace") == "1";
  config.input_dir = need(flags, "inputs");
  config.work_dir = need(flags, "work");
  if (config.seconds <= 0) throw std::invalid_argument("--seconds must be positive");

  Tracer tracer(config.trace);
  RunResult result;
  if (config.workload == "batch-rib" || config.workload == "batch-wide") {
    result = run_batch(config, tracer);
  } else if (config.workload == "serve-mix") {
    result = run_serve_mix(config, tracer);
  } else if (config.workload == "ingest-serve") {
    result = run_ingest_serve(config, tracer);
  } else {
    throw std::invalid_argument("unknown workload '" + config.workload + "'");
  }
  if (config.trace) {
    tracer.write_jsonl(config.work_dir + "/trace-" + config.workload + "-" +
                       std::to_string(config.seed) + ".jsonl");
  }
  print_result(config, result, tracer);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace asrbench

int main(int argc, char** argv) {
  using namespace asrbench;
  try {
    const std::string command = argc > 1 ? argv[1] : "";
    if (command == "selftest") return selftest();
    const auto flags = parse_flags(argc, argv, 2);
    if (command == "gen") {
      generate_inputs(need(flags, "workload"), parse_u64(need(flags, "seed")), need(flags, "out"));
      return 0;
    }
    if (command == "run") return run(flags);
    std::cerr << "usage: asrbench gen|run|selftest [--flag value ...]\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "asrbench: " << error.what() << "\n";
    return 2;
  }
}
