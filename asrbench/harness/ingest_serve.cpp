// ingest-serve: writes beside reads.  A BGP4MP update stream is decoded and
// applied to an UpdateApplier seeded from a base RIB; every kEpochUpdates
// messages an epoch is cut, built with EpochBuilder::build and installed
// into the running asrankd, while the generator holds one fixed request
// rate with uniform ASN popularity, so every swap starts on a cold cache.
#include <algorithm>
#include <atomic>
#include <optional>
#include <sstream>
#include <thread>

#include "bgpsim/observation.h"
#include "calibrate.h"
#include "ingest/epoch_builder.h"
#include "ingest/update_applier.h"
#include "inputs.h"
#include "mrt/bgp4mp.h"
#include "mrt/table_dump_v2.h"
#include "served.h"
#include "snapshot/snapshot.h"
#include "stats.h"
#include "workloads.h"

namespace asrbench {

using namespace asrank;

namespace {

// Threads: 1 worker + accept loop + ingest = 3 program, + 1 generator.
constexpr std::size_t kWorkers = 1;
constexpr std::size_t kEpochUpdates = 1000;  // epoch cut by count
constexpr double kRate = 2000;               // requests per second, fixed

struct Epoch {
  double decode_ms = 0;
  double apply_ms = 0;
  std::size_t updates = 0;
  double corpus_ms = 0;
  double build_ms = 0;
  double install_ms = 0;
  double publish_ms = 0;  ///< cut -> served
  double publish_cpu_ms = 0;  ///< ingest-thread CPU, cut -> served
  double peak_rss_mb = 0;     ///< VmHWM from the epoch's start to served
  std::int64_t cut_ns = 0, served_ns = 0;
  ingest::EpochBuildInfo info;
  StageSums stage_us;  ///< stage-histogram growth over the epoch
};

/// Everything one set-up creates: the served daemon, the applier seeded
/// from the base RIB, and a builder that has built epoch 0.
struct Pipeline {
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<ingest::UpdateApplier> applier;
  std::unique_ptr<ingest::EpochBuilder> builder;
};

Pipeline set_up(const RunConfig& config, const ingest::EpochBuilderConfig& build_config) {
  Pipeline p;
  p.daemon = std::make_unique<Daemon>(kWorkers);
  const std::string rib = read_file(config.input_dir + "/rib.mrt");
  ViewBuf buf(rib);
  std::istream in(&buf);
  const auto dump = mrt::read_table_dump_v2(in);
  p.applier = std::make_unique<ingest::UpdateApplier>(p.daemon->metrics());
  for (auto& route : bgpsim::from_rib_dump(dump)) {
    p.applier->seed(route.vp, route.prefix, std::move(route.path));
  }
  p.builder = std::make_unique<ingest::EpochBuilder>(build_config, p.daemon->metrics());
  auto first = p.builder->build(p.applier->corpus());
  if (!first.ok()) throw std::runtime_error(first.error().message());
  if (auto installed = p.daemon->registry().install("epoch-000000", std::move(first).value());
      !installed.ok()) {
    throw std::runtime_error(installed.error().message());
  }
  p.applier->mark();
  p.daemon->start();
  return p;
}

}  // namespace

RunResult run_ingest_serve(const RunConfig& config, Tracer& tracer) {
  RunResult result;
  ingest::EpochBuilderConfig build_config;
  build_config.inference.threads = 1;
  build_config.cone_threads = 1;
  build_config.inference.sanitizer.ixp_asns = read_ixps(config.input_dir + "/ixps.txt");

  // The speed meter samples the reference kernel before every set-up, on
  // the ingest thread before every epoch, and once at the end.
  std::vector<std::pair<std::int64_t, std::int64_t>> setup_spans_ns;
  std::vector<double> setup_cpu_s;
  Pipeline p;
  SpeedMeter meter(Kernel::kCoreAndL3);
  for (int i = 0; i < 5; ++i) {
    p = {};
    meter.sample();
    const std::int64_t start = now_ns();
    const double cpu_start = process_cpu_s();
    p = set_up(config, build_config);
    setup_cpu_s.push_back(process_cpu_s() - cpu_start);
    setup_spans_ns.push_back({start, now_ns()});
  }

  const double setup_peak = peak_rss_mb() - reference_kernel_mb();
  const std::string updates = read_file(config.input_dir + "/updates.mrt");
  const auto ases = p.daemon->registry().current()->index().ases();
  MixConfig mix_config;
  mix_config.text_share = 0.14;  // no wrappers: epoch labels change under the load
  QueryMix mix(std::vector<Asn>(ases.begin(), ases.end()), mix_config, config.seed);
  Schedule schedule;
  schedule.next_wire = [&mix] { return encode(mix.next()); };
  const auto requests = static_cast<std::size_t>(kRate * config.seconds);
  for (std::size_t k = 0; k < requests; ++k) {
    schedule.due_ns.push_back(static_cast<std::int64_t>(static_cast<double>(k) * 1e9 / kRate));
  }

  tracer.reserve(requests + 1000);
  // The ingest thread cuts epochs until the load ends or the stream does.
  std::atomic<bool> stop{false};
  std::vector<Epoch> epochs;
  std::string ingest_error;
  ViewBuf update_buf(updates);
  std::istream update_in(&update_buf);
  mrt::UpdateReader reader(update_in);
  std::thread ingest_thread([&] {
    try {
      bool exhausted = false;
      while (!stop.load() && !exhausted) {
        meter.sample();  // host speed between epochs, off every epoch's clock
        reset_peak_rss();
        Epoch epoch;
        const std::uint32_t root = tracer.begin("ingest.epoch");
        std::vector<mrt::UpdateMessage> batch;
        {
          ScopedSpan span(tracer, "mrt.decode", root);
          const std::int64_t start = now_ns();
          while (batch.size() < kEpochUpdates) {
            auto next = reader.next();
            if (!next.ok()) throw std::runtime_error(next.error().message());
            if (!next.value()) {
              exhausted = true;
              break;
            }
            batch.push_back(std::move(*next.value()));
          }
          epoch.decode_ms = static_cast<double>(now_ns() - start) / 1e6;
        }
        if (batch.empty()) {
          tracer.end(root);
          break;
        }
        {
          ScopedSpan span(tracer, "ingest.apply", root);
          const std::int64_t start = now_ns();
          for (const auto& update : batch) p.applier->apply(update);
          epoch.apply_ms = static_cast<double>(now_ns() - start) / 1e6;
          epoch.updates = batch.size();
        }
        const std::int64_t cut = now_ns();
        const double cut_cpu = thread_cpu_s();
        const StageSums before = stage_sums_us();
        paths::PathCorpus corpus;
        {
          ScopedSpan span(tracer, "ingest.corpus", root);
          corpus = p.applier->corpus();
          p.applier->mark();
        }
        const std::int64_t built_at = now_ns();
        epoch.corpus_ms = static_cast<double>(built_at - cut) / 1e6;
        std::optional<Result<snapshot::SnapshotIndex>> built;
        {
          ScopedSpan span(tracer, "ingest.build", root);
          built.emplace(p.builder->build(corpus, &epoch.info));
        }
        const std::int64_t install_at = now_ns();
        epoch.build_ms = static_cast<double>(install_at - built_at) / 1e6;
        if (!built->ok()) throw std::runtime_error(built->error().message());
        {
          ScopedSpan span(tracer, "serve.install", root);
          const std::string label = ingest::expand_epoch_label(
              "epoch-%N", p.builder->epochs_built() - 1, 0);
          auto installed = p.daemon->registry().install(label, std::move(*built).value());
          if (!installed.ok()) throw std::runtime_error(installed.error().message());
        }
        const std::int64_t served = now_ns();
        epoch.install_ms = static_cast<double>(served - install_at) / 1e6;
        epoch.publish_ms = static_cast<double>(served - cut) / 1e6;
        epoch.publish_cpu_ms = (thread_cpu_s() - cut_cpu) * 1e3;
        epoch.cut_ns = cut;
        epoch.served_ns = served;
        epoch.peak_rss_mb = peak_rss_mb() - reference_kernel_mb();
        epoch.stage_us = stage_deltas_us(before);
        tracer.end(root);
        epochs.push_back(std::move(epoch));
      }
    } catch (const std::exception& error) {
      ingest_error = error.what();
    }
  });

  const double cpu_start = process_cpu_s();
  LoadResult load_result;
  try {
    load_result = run_load(schedule, p.daemon->port(), tracer);
  } catch (...) {
    stop = true;
    ingest_thread.join();
    throw;
  }
  stop = true;
  ingest_thread.join();
  meter.sample();
  const double program_cpu_s = process_cpu_s() - cpu_start - load_result.cpu_s;
  // The median epoch's peak, without the generator's own records, which did
  // not exist yet when the set-up peaked; or the set-up's, if higher.  One
  // run's overall peak moved by 10% between runs of one seed: it is the
  // worst of about ten epochs that race the serving threads for the heap.
  std::vector<double> epoch_peaks;
  for (const Epoch& e : epochs) epoch_peaks.push_back(e.peak_rss_mb);
  const double peak =
      std::max(setup_peak, median(epoch_peaks) - static_cast<double>(load_result.held_bytes) /
                                                     (1024.0 * 1024.0));
  result.facts.push_back(
      {"run_peak_rss_mb",
       json_num(std::max(setup_peak, quantile(epoch_peaks, 1) -
                                         static_cast<double>(load_result.held_bytes) /
                                             (1024.0 * 1024.0)))});
  std::size_t left = 0;  // stream headroom, off the clock
  while (ingest_error.empty()) {
    auto next = reader.next();
    if (!next.ok() || !next.value()) break;
    ++left;
  }
  result.facts.push_back({"updates_left_in_stream", std::to_string(left)});
  if (!ingest_error.empty()) result.fail("ingest: " + ingest_error);
  if (epochs.empty()) result.fail("no epoch was cut during the run");

  // Off the clock.  Replies are checked for an OK status (the answering
  // epoch changes under the load); the last epoch must be byte-identical
  // to a from-scratch batch build of the final corpus.
  for (std::size_t i = 0; i < requests; ++i) {
    load_result.records[i].ok = load_result.records[i].done_ns >= 0 && load_result.reply_ok[i];
  }
  const OpenLoopSummary all = summarize(load_result.records);
  const std::string last = asrk_bytes(p.daemon->registry().current()->index());
  const std::string batch =
      asrk_bytes(ingest::EpochBuilder::batch_build(p.applier->corpus(), build_config));
  result.attempted = all.attempted + 1;
  result.failed = all.failed + (last == batch ? 0 : 1);
  if (last != batch) result.fail("last epoch differs from the batch build of its corpus");
  if (all.failed != 0) {
    result.fail(std::to_string(all.failed) + " of " + std::to_string(all.attempted) +
                " requests failed (" + std::to_string(all.unanswered) + " unanswered)");
  }

  // The gated times, at the reference speed.
  std::vector<double> setups, ref_setup_cpu_s, publish_cpu_ms, ref_publish_cpu_ms;
  for (std::size_t i = 0; i < setup_spans_ns.size(); ++i) {
    const auto [start, end] = setup_spans_ns[i];
    setups.push_back(static_cast<double>(end - start) / 1e9);
    ref_setup_cpu_s.push_back(setup_cpu_s[i] * meter.scale_around(start, end));
  }
  for (const Epoch& e : epochs) {
    publish_cpu_ms.push_back(e.publish_cpu_ms);
    ref_publish_cpu_ms.push_back(e.publish_cpu_ms * meter.scale_around(e.cut_ns, e.served_ns));
  }
  std::vector<double> publish_ms, corpus_ms, build_ms, install_ms, decode_ms, dirty, reused;
  double applied = 0, apply_s = 0;
  for (const Epoch& e : epochs) {
    publish_ms.push_back(e.publish_ms);
    corpus_ms.push_back(e.corpus_ms);
    build_ms.push_back(e.build_ms);
    install_ms.push_back(e.install_ms);
    decode_ms.push_back(e.decode_ms);
    dirty.push_back(e.info.cones.dirty_fraction);
    reused.push_back(static_cast<double>(e.info.cones.reused));
    applied += static_cast<double>(e.updates);
    apply_s += e.apply_ms / 1e3;
  }
  // One-second windows over the whole load; every window holds swaps.
  const WindowedLatency tail = windowed_latency(
      load_result.records, static_cast<std::size_t>(std::max(1.0, config.seconds)));
  const double updates_per_s = apply_s > 0 ? applied / apply_s : 0;
  const double lag_p99 = quantile(all.lag_us, 0.99);
  result.facts.push_back({"epochs", std::to_string(epochs.size())});
  result.facts.push_back({"updates_applied", json_num(applied)});
  result.facts.push_back({"epoch_updates", std::to_string(kEpochUpdates)});
  result.facts.push_back({"query_rate", json_num(kRate)});
  result.facts.push_back({"swap_tail", "p" + json_num(tail.tail_percentile) + ", median of " +
                                           std::to_string(tail.windows) + " windows of " +
                                           std::to_string(tail.samples_per_window) +
                                           " samples"});
  result.facts.push_back({"program_threads", std::to_string(kWorkers + 2)});
  result.facts.push_back({"generator_threads", "1"});
  result.facts.push_back({"generator_lag_p99_us", json_num(lag_p99)});
  result.facts.push_back({"dropped_connections", std::to_string(load_result.dropped_connections)});
  result.facts.push_back({"generator_cpu_frac", json_num(load_result.cpu_s / load_result.wall_s)});
  result.facts.push_back({"generator_held_mb",
                          json_num(static_cast<double>(load_result.held_bytes) / (1024.0 * 1024.0))});
  result.facts.push_back({"last_epoch_digest", hex64(digest(last))});
  result.facts.push_back({"reference_kernel", describe(meter)});

  const double fail_frac =
      static_cast<double>(result.failed) / static_cast<double>(result.attempted);
  const double cpu_per_epoch_ms =
      epochs.empty() ? 0 : program_cpu_s * 1e3 / static_cast<double>(epochs.size());
  result.report = {{"setup_wall_s", median(setups), "s"},
                   {"setup_cpu_s", median(setup_cpu_s), "s"},
                   {"peak_rss_mb", peak, "MB"},
                   {"epoch_publish_p50_ms", median(publish_ms), "ms"},
                   {"updates_per_s", updates_per_s, "1/s"},
                   {"swap_query_p90_us", tail.p90_us, "us"},
                   {"swap_query_p99_us", tail.p99_us, "us"},
                   {"epoch_publish_cpu_ms", median(publish_cpu_ms), "ms"},
                   {"program_cpu_per_epoch_ms", cpu_per_epoch_ms, "ms"},
                   {"fail_frac", fail_frac, "ratio"}};
  if (!tracer.enabled()) {
    result.metrics = {{"setup_s", median(ref_setup_cpu_s), "s"},
                      {"peak_rss_mb", peak, "MB"},
                      {"cpu_ms", median(ref_publish_cpu_ms), "ms"}};
    return result;
  }

  std::vector<Metric> layers;
  layers.push_back({"mrt.decode_ms", median(decode_ms), "ms"});
  layers.push_back({"ingest.apply_us", applied > 0 ? apply_s * 1e6 / applied : 0, "us"});
  layers.push_back({"ingest.corpus_ms", median(corpus_ms), "ms"});
  layers.push_back({"ingest.build_ms", median(build_ms), "ms"});
  layers.push_back({"ingest.dirty_fraction", median(dirty), "ratio"});
  layers.push_back({"ingest.cones_reused", median(reused), "count"});
  layers.push_back({"serve.install_ms", median(install_ms), "ms"});
  std::unordered_map<std::string, std::vector<double>> stage_ms;
  for (const Epoch& e : epochs) {
    for (const auto& [stage, us] : e.stage_us) stage_ms[stage].push_back(us / 1e3);
  }
  for (const auto& [stage, values] : stage_ms) {
    layers.push_back({"core.stage." + stage + "_ms", mean(values), "ms"});
  }
  std::uint64_t cached = 0, hits = 0;
  const auto stats = p.daemon->registry().current()->stats();
  for (const auto type : {serve::QueryType::kConeIntersect, serve::QueryType::kPathToClique}) {
    cached += stats[static_cast<std::size_t>(type)].count;
    hits += stats[static_cast<std::size_t>(type)].cache_hits;
  }
  result.facts.push_back({"cache_hit_base", std::to_string(cached) + " derived queries"});
  layers.push_back({"serve.cache_hit_ratio",
                    cached == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(cached),
                    "ratio"});
  layers.push_back({"runtime.connect_us_p50", median(load_result.connect_us), "us"});
  layers.push_back({"runtime.unanswered", static_cast<double>(all.unanswered), "count"});
  layers.push_back({"loadgen.lag_p99_us", lag_p99, "us"});
  layers.push_back({"loadgen.cpu_frac", load_result.cpu_s / load_result.wall_s, "ratio"});
  layers.push_back({"trace.overhead_pct",
                    100.0 * static_cast<double>(tracer.size()) * span_cost_ns() / 1e9 /
                        load_result.wall_s,
                    "%"});
  result.metrics = std::move(layers);
  return result;
}

}  // namespace asrbench
