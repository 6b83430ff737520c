// What serve-mix and ingest-serve share: an in-process asrankd (task
// runtime) on an ephemeral loopback port, and the query mix.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "asn/asn.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot_registry.h"

namespace asrbench {

/// asrankd with its own metrics registry, serving from a thread that is
/// joined on destruction.
class Daemon {
 public:
  /// `workers`: task-runtime worker threads (the accept loop is one more).
  explicit Daemon(std::size_t workers);
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon();

  [[nodiscard]] asrank::serve::SnapshotRegistry& registry() { return registry_; }
  [[nodiscard]] asrank::obs::Registry& metrics() { return metrics_; }
  /// Start serving; returns after one PING round trip has succeeded.
  void start();
  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  /// Answer one query of every op in the mix for each named algorithm, so
  /// lazily built engine state (the cone bitsets) exists before timing.
  void warm_up(const std::vector<std::string>& algorithms) const;
  /// asrankd's /metrics text, fetched over the wire.
  [[nodiscard]] std::string scrape() const;

 private:
  std::size_t workers_;
  asrank::obs::Registry metrics_;
  asrank::serve::SnapshotRegistry registry_;
  std::unique_ptr<asrank::serve::Server> server_;
  std::thread thread_;  ///< declared last: runs server_->run()
};

/// Value of an unlabelled counter in Prometheus text (0 when absent).
[[nodiscard]] double prometheus_value(const std::string& text, const std::string& name);

/// The ops of the mix, all answered by QueryEngine.
enum class QueryOp : std::uint8_t {
  kRank, kConeSize, kInCone, kProviders, kCustomers, kPeers, kPathToClique, kConeIntersect
};

struct Query {
  QueryOp op = QueryOp::kRank;
  asrank::Asn a, b;
  bool text = false;
  std::string epoch;      ///< non-empty: wrapped in WITH_EPOCH
  std::string algorithm;  ///< non-empty: wrapped in WITH_ALGO
};

struct MixConfig {
  double text_share = 0;     ///< sent on the text rail
  double wrapped_share = 0;  ///< binary, wrapped in WITH_EPOCH and/or WITH_ALGO
  std::string epoch;         ///< label for WITH_EPOCH wrappers
  std::string algorithm;     ///< second algorithm for WITH_ALGO wrappers
  double zipf_exponent = 0;  ///< 0 = uniform ASN popularity
};

/// Draws queries over `asns` from a seeded stream.  With a Zipf exponent,
/// `asns` is in popularity order: asns[0] is drawn most often.
class QueryMix {
 public:
  QueryMix(std::vector<asrank::Asn> asns, MixConfig config, std::uint64_t seed);
  [[nodiscard]] Query next();

 private:
  asrank::Asn pick();
  std::vector<asrank::Asn> asns_;  ///< shuffled: popularity rank -> ASN
  std::vector<double> cdf_;        ///< Zipf CDF over popularity ranks (empty: uniform)
  MixConfig config_;
  std::mt19937_64 rng_;
};

/// Wire bytes of a query: a binary frame or a text line.
[[nodiscard]] Wire encode(const Query& query);

/// The reply asrankd must send, computed in-process on `registry`
/// (binary: the frame payload; text: the line without '\n').
[[nodiscard]] std::string expected_reply(asrank::serve::SnapshotRegistry& registry,
                                         const Wire& request);

/// Answer `query` with direct QueryEngine calls (no protocol), for the
/// engine-only replay.
void execute(asrank::serve::QueryEngine& primary, asrank::serve::QueryEngine* second,
             const Query& query);

}  // namespace asrbench
