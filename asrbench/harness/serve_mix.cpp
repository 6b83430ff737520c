// serve-mix: asrankd mapping a two-algorithm ASRK1 snapshot, driven by the
// open-loop generator up a fixed ladder of request rates.  The inference
// path is not on it at all.
#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "calibrate.h"
#include "served.h"
#include "snapshot/snapshot.h"
#include "stats.h"
#include "workloads.h"

namespace asrbench {

using namespace asrank;

namespace {

constexpr std::size_t kWorkers = 1;  // + accept thread + generator = 3 threads
constexpr double kSloUs = 1000;      // p99 limit for max_qps_at_slo
constexpr const char* kEpoch = "base";

struct Rung {
  double rate = 0;      ///< requests per second
  double share = 0;     ///< share of --seconds spent at this rate
  bool reference = false;
};
// The ladder.  The reference rate, at which latency is reported, keeps
// the worker busy but stays well inside capacity.  On a shared VM, latency
// at low rates is dominated by how fast an idle vCPU wakes (p50 at 4000
// req/s moved by 20% between runs), while near capacity a contended host
// turns the rung into a queue (p50 at 64000 req/s jumped from 0.05 to
// 0.5 ms).  Open-loop latency is printed, not gated: p50 at the reference
// rate read 99 us and 744 us in two runs of one seed minutes apart, as the
// host preempted vCPUs for milliseconds at a time.
constexpr Rung kLadder[] = {{8000, 0.08, false},
                            {16000, 0.28, true},
                            {32000, 0.08, false},
                            {64000, 0.08, false},
                            {96000, 0.08, false}};
constexpr double kGapS = 0.2;  // idle gap between rungs, so backlogs do not carry over

// The burst phase, after the ladder: kBurst requests due at one instant,
// every kBurstEveryS, for kBurstShare of --seconds.  The generator queues a
// whole burst before it writes, so the server reads requests in batches and
// stays busy until the burst is answered: the burst's time is set by the
// server's CPU, not by thread wake-ups.  Its median is the gated serving
// time.
constexpr std::size_t kBurst = 4000;
constexpr double kBurstEveryS = 0.1;
constexpr double kBurstShare = 0.3;

struct RungStats {
  double rate = 0;
  std::size_t first = 0, last = 0;  ///< request index range [first, last)
  double duration_s = 0;
};

}  // namespace

RunResult run_serve_mix(const RunConfig& config, Tracer& tracer) {
  RunResult result;
  const std::string path = config.input_dir + "/snapshot.asrk";

  // Set-up: map the snapshot, start asrankd, and see one query of every op
  // answered under both algorithms (which builds the lazy cone bitsets).
  // Repeated; the median CPU time is setup_s.  One set-up is about 8 ms, and
  // its wall time, much of it loopback round trips and thread wake-ups,
  // moved by a third between runs on a shared host.  The speed meter
  // samples the reference kernel before every set-up and once after the last.
  std::vector<double> setups, setup_cpu_s, ref_setup_cpu_s, map_ms;
  std::vector<std::pair<std::int64_t, std::int64_t>> setup_spans_ns;
  std::unique_ptr<Daemon> daemon;
  SpeedMeter meter(Kernel::kCore);
  for (int i = 0; i < 31; ++i) {
    daemon.reset();
    meter.sample();
    const std::int64_t start = now_ns();
    const double cpu_start = process_cpu_s();
    auto next = std::make_unique<Daemon>(kWorkers);
    const std::int64_t map_start = now_ns();
    auto index = snapshot::try_map_snapshot_file(path);
    map_ms.push_back(static_cast<double>(now_ns() - map_start) / 1e6);
    if (!index.ok()) throw std::runtime_error("snapshot: " + index.error().message());
    if (auto installed = next->registry().install(kEpoch, std::move(index).value());
        !installed.ok()) {
      throw std::runtime_error("install: " + installed.error().message());
    }
    next->start();
    next->warm_up({"asrank", "gao2001"});
    setup_cpu_s.push_back(process_cpu_s() - cpu_start);
    setup_spans_ns.push_back({start, now_ns()});
    daemon = std::move(next);
  }
  meter.sample();
  for (std::size_t i = 0; i < setup_spans_ns.size(); ++i) {
    const auto [start, end] = setup_spans_ns[i];
    setups.push_back(static_cast<double>(end - start) / 1e9);
    ref_setup_cpu_s.push_back(setup_cpu_s[i] * meter.scale_around(start, end));
  }

  const double setup_peak = peak_rss_mb() - reference_kernel_mb();
  // The schedule (off the clock).
  const auto engine = daemon->registry().current();
  const auto ases = engine->index().ases();
  MixConfig mix_config;
  mix_config.text_share = 0.14;
  mix_config.wrapped_share = 0.06;
  mix_config.epoch = kEpoch;
  mix_config.algorithm = "gao2001";
  mix_config.zipf_exponent = 1.0;
  // Popularity follows size: the AS with the r-th largest customer cone is
  // the r-th most popular (ties by ASN).  With a seeded order instead, the
  // work per request moved by a fifth between seeds, with whichever ASes
  // the seed happened to make popular.
  std::vector<Asn> asn_list(ases.begin(), ases.end());
  std::sort(asn_list.begin(), asn_list.end(), [&](Asn a, Asn b) {
    const std::size_t ca = engine->index().cone_size(a), cb = engine->index().cone_size(b);
    return ca != cb ? ca > cb : a < b;
  });
  QueryMix mix(asn_list, mix_config, config.seed);
  Schedule schedule;
  schedule.next_wire = [&mix] { return encode(mix.next()); };
  std::vector<RungStats> rungs;
  double offset_s = 0;
  std::size_t reference_rung = 0;
  for (const Rung& rung : kLadder) {
    const double duration = rung.share * config.seconds;
    const auto count = static_cast<std::size_t>(rung.rate * duration);
    const std::size_t first = schedule.due_ns.size();
    if (rung.reference) reference_rung = rungs.size();
    rungs.push_back({rung.rate, first, first + count, duration});
    for (std::size_t k = 0; k < count; ++k) {
      const double due_s = offset_s + static_cast<double>(k) / rung.rate;
      schedule.due_ns.push_back(static_cast<std::int64_t>(due_s * 1e9));
    }
    offset_s += duration + kGapS;
  }
  Schedule bursts;
  bursts.next_wire = schedule.next_wire;
  bursts.first_id = schedule.due_ns.size() + 1;
  const auto burst_count =
      std::max<std::size_t>(1, static_cast<std::size_t>(kBurstShare * config.seconds / kBurstEveryS));
  for (std::size_t b = 0; b < burst_count; ++b) {
    bursts.due_ns.insert(bursts.due_ns.end(), kBurst,
                         static_cast<std::int64_t>(static_cast<double>(b) * kBurstEveryS * 1e9));
  }
  const std::size_t requests = schedule.due_ns.size() + bursts.due_ns.size();

  tracer.reserve(2 * requests);  // one request span + one engine span each
  const std::string before = daemon->scrape();
  LoadResult load_result = run_load(schedule, daemon->port(), tracer);
  // Host speed around the burst phase (the kernel never runs during a load).
  SpeedMeter burst_meter(Kernel::kCore);
  for (int i = 0; i < 10; ++i) burst_meter.sample();
  const double cpu_start = process_cpu_s();
  LoadResult burst_result = run_load(bursts, daemon->port(), tracer);
  const double burst_program_cpu_s = process_cpu_s() - cpu_start - burst_result.cpu_s;
  // Before the checks allocate; without the generator's own records, which
  // did not exist yet when the set-up peaked.
  const double peak =
      std::max(setup_peak, peak_rss_mb() - reference_kernel_mb() -
                               static_cast<double>(load_result.held_bytes +
                                                   burst_result.held_bytes) /
                                   (1024.0 * 1024.0));
  const std::string after = daemon->scrape();
  for (int i = 0; i < 10; ++i) burst_meter.sample();
  load_result.records.insert(load_result.records.end(), burst_result.records.begin(),
                             burst_result.records.end());
  load_result.reply_digest.insert(load_result.reply_digest.end(),
                                  burst_result.reply_digest.begin(),
                                  burst_result.reply_digest.end());
  load_result.connect_us.insert(load_result.connect_us.end(), burst_result.connect_us.begin(),
                                burst_result.connect_us.end());
  load_result.dropped_connections += burst_result.dropped_connections;
  load_result.held_bytes += burst_result.held_bytes;
  load_result.wall_s += burst_result.wall_s;
  load_result.cpu_s += burst_result.cpu_s;

  // Off the clock: every reply must equal what the in-process engine says.
  obs::Registry reference_metrics;
  serve::SnapshotRegistry reference(serve::SnapshotRegistryConfig{}, &reference_metrics);
  if (auto loaded = reference.load_file(path, kEpoch); !loaded.ok()) {
    throw std::runtime_error("reference load: " + loaded.error().message());
  }
  // The mix is drawn again from the seed: the same requests, in order.
  QueryMix check_mix(asn_list, mix_config, config.seed);
  std::unordered_map<std::string, std::uint64_t> expected;
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    const Wire wire = encode(check_mix.next());
    RequestRecord& record = load_result.records[i];
    if (record.done_ns < 0) continue;
    auto [it, inserted] = expected.try_emplace(wire.bytes, 0);
    if (inserted) it->second = digest(expected_reply(reference, wire));
    record.ok = load_result.reply_digest[i] == it->second;
    if (!record.ok) ++wrong;
  }
  const OpenLoopSummary all = summarize(load_result.records);
  result.attempted = all.attempted;
  result.failed = all.failed;
  if (all.failed != 0) {
    result.fail(std::to_string(all.failed) + " of " + std::to_string(all.attempted) +
                " requests failed (" + std::to_string(wrong) + " wrong, " +
                std::to_string(all.unanswered) + " unanswered)");
  }

  // Per-rung latency; max_qps_at_slo is the achieved rate of the highest
  // rung whose p99 meets the limit with no failure and no growing backlog.
  double max_qps = 0;
  WindowedLatency ref;
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    const RungStats& rung = rungs[r];
    const std::vector<RequestRecord> slice(load_result.records.begin() + rung.first,
                                           load_result.records.begin() + rung.last);
    // One-second windows; the rung's latency is the median window's.
    const auto windows = static_cast<std::size_t>(std::max(1.0, std::round(rung.duration_s)));
    const WindowedLatency w = windowed_latency(slice, windows);
    const OpenLoopSummary s = summarize(slice);
    const std::size_t quarter = s.latency_us.size() / 4;
    const double early = median({s.latency_us.begin(), s.latency_us.begin() + quarter});
    const double late = median({s.latency_us.end() - quarter, s.latency_us.end()});
    const bool backlog = late > 2 * early + 50;
    const bool meets = s.failed == 0 && w.tail_percentile >= 99 && w.p99_us <= kSloUs && !backlog;
    const double achieved = static_cast<double>(s.attempted - s.failed) / rung.duration_s;
    if (meets) max_qps = std::max(max_qps, achieved);
    result.facts.push_back({"rung_" + json_num(rung.rate),
                            "p50_us=" + json_num(w.p50_us) + " p90_us=" + json_num(w.p90_us) + " p" +
                                json_num(w.tail_percentile) + "_us=" + json_num(w.p99_us) +
                                " windows=" + std::to_string(w.windows) +
                                " n=" + std::to_string(s.attempted) +
                                " failed=" + std::to_string(s.failed) +
                                (meets ? " meets_slo" : " misses_slo")});
    if (r == reference_rung) ref = w;
  }

  // Generator lateness on the ladder; a burst is late by design, since its
  // requests are all due at one instant.
  const std::size_t ladder_requests = schedule.due_ns.size();
  const double lag_p99 = quantile(
      summarize({load_result.records.begin(), load_result.records.begin() + ladder_requests})
          .lag_us,
      0.99);
  result.facts.push_back({"reference_rate", json_num(kLadder[reference_rung].rate)});
  result.facts.push_back({"slo", "p99 <= " + json_num(kSloUs) + " us"});
  result.facts.push_back({"reference_tail", "p" + json_num(ref.tail_percentile) + ", median of " +
                                                std::to_string(ref.windows) + " windows of " +
                                                std::to_string(ref.samples_per_window) +
                                                " samples"});
  result.facts.push_back({"program_threads", std::to_string(kWorkers + 1)});
  result.facts.push_back({"generator_threads", "1"});
  result.facts.push_back({"generator_lag_p99_us", json_num(lag_p99)});
  result.facts.push_back({"dropped_connections", std::to_string(load_result.dropped_connections)});
  result.facts.push_back({"generator_cpu_frac", json_num(load_result.cpu_s / load_result.wall_s)});
  result.facts.push_back({"generator_held_mb",
                          json_num(static_cast<double>(load_result.held_bytes) / (1024.0 * 1024.0))});

  // The burst phase: time from a burst's due instant to its last reply,
  // per 1000 requests, for every burst answered in full.
  std::vector<double> burst_ms;
  for (std::size_t b = 0; b < burst_count; ++b) {
    const std::size_t first = ladder_requests + b * kBurst;
    std::int64_t last_done = 0;
    bool answered = true;
    for (std::size_t i = first; i < first + kBurst; ++i) {
      answered = answered && load_result.records[i].ok;
      last_done = std::max(last_done, load_result.records[i].done_ns);
    }
    if (answered) {
      burst_ms.push_back(static_cast<double>(last_done - load_result.records[first].due_ns) /
                         1e6 / (static_cast<double>(kBurst) / 1e3));
    }
  }
  if (burst_ms.empty()) result.fail("no burst was answered in full");
  const double burst_kreq = static_cast<double>(bursts.due_ns.size()) / 1e3;
  result.facts.push_back({"bursts", std::to_string(burst_ms.size()) + " of " +
                                        std::to_string(burst_count) + " answered in full, " +
                                        std::to_string(kBurst) + " requests each"});
  result.facts.push_back({"burst_p90_ms_per_kreq", json_num(quantile(burst_ms, 0.9))});
  result.facts.push_back({"reference_kernel", describe(burst_meter) + " around the bursts"});

  const double fail_frac =
      static_cast<double>(result.failed) / static_cast<double>(result.attempted);
  const double burst_ms_per_kreq = median(burst_ms);
  const double cpu_per_kreq = burst_program_cpu_s * 1e3 / burst_kreq;
  result.report = {{"setup_wall_s", median(setups), "s"},
                   {"setup_cpu_s", median(setup_cpu_s), "s"},
                   {"peak_rss_mb", peak, "MB"},
                   {"query_p50_us", ref.p50_us, "us"},
                   {"query_p90_us", ref.p90_us, "us"},
                   {"query_p99_us", ref.p99_us, "us"},
                   {"max_qps_at_slo", max_qps, "req/s"},
                   {"burst_ms_per_kreq", burst_ms_per_kreq, "ms"},
                   {"burst_cpu_ms_per_kreq", cpu_per_kreq, "ms"},
                   {"fail_frac", fail_frac, "ratio"}};
  if (!tracer.enabled()) {
    result.metrics = {{"setup_s", median(ref_setup_cpu_s), "s"},
                      {"peak_rss_mb", peak, "MB"},
                      {"cpu_ms", cpu_per_kreq * burst_meter.scale(), "ms"}};
    return result;
  }

  // Per-layer.  The engine replay answers the same queries (the mix drawn
  // again from the seed), in order, on a fresh engine pair with direct
  // QueryEngine calls: the gap to query_p50_us is what the runtime and the
  // protocol add.
  std::vector<Metric> layers;
  {
    obs::Registry replay_metrics;
    auto replay_index = snapshot::try_map_snapshot_file(path);
    if (!replay_index.ok()) throw std::runtime_error(replay_index.error().message());
    auto shared = std::make_shared<const snapshot::SnapshotIndex>(std::move(replay_index).value());
    serve::QueryEngine primary(shared, 4096, &replay_metrics);
    const auto slot = shared->algorithm_slot("gao2001");
    std::unique_ptr<serve::QueryEngine> second;
    if (slot) {
      second = std::make_unique<serve::QueryEngine>(shared, 4096, &replay_metrics,
                                                    core::ConeBitsetConfig{}, *slot);
    }
    QueryMix replay(asn_list, mix_config, config.seed);
    std::vector<double> engine_us;
    engine_us.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
      const Query query = replay.next();
      const std::int64_t start = now_ns();
      execute(primary, second.get(), query);
      const std::int64_t end = now_ns();
      engine_us.push_back(static_cast<double>(end - start) / 1e3);
      tracer.record("serve.engine", start, end, 0, i + 1);
    }
    layers.push_back({"serve.engine_p50_us", median(engine_us), "us"});
    layers.push_back({"serve.engine_p99_us", quantile(engine_us, 0.99), "us"});
  }
  std::uint64_t cached = 0, hits = 0;
  const auto stats = daemon->registry().current()->stats();
  for (const auto type : {serve::QueryType::kConeIntersect, serve::QueryType::kPathToClique}) {
    cached += stats[static_cast<std::size_t>(type)].count;
    hits += stats[static_cast<std::size_t>(type)].cache_hits;
  }
  result.facts.push_back({"cache_hit_base", std::to_string(cached) + " derived queries"});
  layers.push_back({"serve.cache_hit_ratio",
                    cached == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(cached),
                    "ratio"});
  layers.push_back({"snapshot.map_ms", median(map_ms), "ms"});
  layers.push_back({"runtime.connect_us_p50", median(load_result.connect_us), "us"});
  layers.push_back({"runtime.shed",
                    prometheus_value(after, "asrankd_connections_shed_total") -
                        prometheus_value(before, "asrankd_connections_shed_total"),
                    "count"});
  layers.push_back({"runtime.unanswered", static_cast<double>(all.unanswered), "count"});
  layers.push_back({"loadgen.lag_p99_us", lag_p99, "us"});
  layers.push_back({"loadgen.cpu_frac", load_result.cpu_s / load_result.wall_s, "ratio"});
  layers.push_back({"trace.overhead_pct",
                    100.0 * static_cast<double>(load_result.records.size()) * span_cost_ns() /
                        1e9 / load_result.wall_s,
                    "%"});
  result.metrics = std::move(layers);
  return result;
}

}  // namespace asrbench
