#include "served.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/query_scope.h"
#include "serve/wire_ops.h"

namespace asrbench {

using namespace asrank;

Daemon::Daemon(std::size_t workers)
    : workers_(workers), registry_(serve::SnapshotRegistryConfig{}, &metrics_) {}

Daemon::~Daemon() {
  if (server_) server_->stop();
  if (thread_.joinable()) thread_.join();
}

void Daemon::start() {
  serve::ServerConfig config;
  config.host = "127.0.0.1";
  config.port = 0;
  config.threads = workers_;
  config.runtime = serve::RuntimeMode::kTask;
  server_ = std::make_unique<serve::Server>(registry_, config);
  thread_ = std::thread([this] { server_->run(); });
  auto client = serve::Client::dial("127.0.0.1", server_->port());
  if (!client.ok()) throw std::runtime_error("asrankd dial: " + client.error().message());
  if (auto pong = client.value().try_ping(); !pong.ok()) {
    throw std::runtime_error("asrankd ping: " + pong.error().message());
  }
}

void Daemon::warm_up(const std::vector<std::string>& algorithms) const {
  auto client = serve::Client::dial("127.0.0.1", server_->port());
  if (!client.ok()) throw std::runtime_error("asrankd dial: " + client.error().message());
  serve::Client& c = client.value();
  for (const std::string& algorithm : algorithms) {
    serve::QueryScope scope;
    scope.algorithm = algorithm;
    auto clique = c.try_clique(scope);
    if (!clique.ok() || clique.value().empty()) throw std::runtime_error("warm-up: no clique");
    const Asn top = clique.value().front();
    auto customers = c.try_customers(top, scope);
    if (!customers.ok() || customers.value().empty()) {
      throw std::runtime_error("warm-up: clique member without customers");
    }
    const Asn low = customers.value().back();
    const bool ok = c.try_rank(low, scope).ok() && c.try_cone_size(top, scope).ok() &&
                    c.try_in_cone(top, low, scope).ok() && c.try_providers(low, scope).ok() &&
                    c.try_peers(top, scope).ok() && c.try_path_to_clique(low, scope).ok() &&
                    c.try_cone_intersection(top, low, scope).ok();
    if (!ok) throw std::runtime_error("warm-up query failed");
  }
}

std::string Daemon::scrape() const {
  auto client = serve::Client::dial("127.0.0.1", server_->port());
  if (!client.ok()) throw std::runtime_error("asrankd dial: " + client.error().message());
  auto text = client.value().try_metrics_text();
  if (!text.ok()) throw std::runtime_error("asrankd metrics: " + text.error().message());
  return std::move(text).value();
}

double prometheus_value(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ') {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  return 0;
}

QueryMix::QueryMix(std::vector<Asn> asns, MixConfig config, std::uint64_t seed)
    : asns_(std::move(asns)), config_(std::move(config)), rng_(seed) {
  if (asns_.empty()) throw std::invalid_argument("query mix over no ASes");
  if (config_.zipf_exponent > 0) {
    cdf_.resize(asns_.size());
    double total = 0;
    for (std::size_t r = 0; r < asns_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), config_.zipf_exponent);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
}

Asn QueryMix::pick() {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
  if (cdf_.empty()) {
    return asns_[std::min(asns_.size() - 1, static_cast<std::size_t>(u * asns_.size()))];
  }
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return asns_[std::min<std::size_t>(it - cdf_.begin(), asns_.size() - 1)];
}

Query QueryMix::next() {
  // Op weights (assumed, not taken from measured traffic; see README.md):
  // point lookups are most of the mix, and the two LRU-cached derived
  // queries are a quarter of it.
  static constexpr std::pair<QueryOp, int> kWeights[] = {
      {QueryOp::kRank, 20},      {QueryOp::kConeSize, 20},     {QueryOp::kInCone, 15},
      {QueryOp::kProviders, 8},  {QueryOp::kCustomers, 7},     {QueryOp::kPeers, 5},
      {QueryOp::kPathToClique, 10}, {QueryOp::kConeIntersect, 15}};
  int roll = std::uniform_int_distribution<int>(0, 99)(rng_);
  Query query;
  for (const auto& [op, weight] : kWeights) {
    if (roll < weight) {
      query.op = op;
      break;
    }
    roll -= weight;
  }
  query.a = pick();
  query.b = pick();
  const double rail = std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
  if (rail < config_.text_share) {
    query.text = true;
  } else if (rail < config_.text_share + config_.wrapped_share) {
    // A third each: epoch only, algorithm only, both.
    const int kind = std::uniform_int_distribution<int>(0, 2)(rng_);
    if (kind != 1) query.epoch = config_.epoch;
    if (kind != 0) query.algorithm = config_.algorithm;
  }
  return query;
}

namespace {

bool two_operands(QueryOp op) {
  return op == QueryOp::kInCone || op == QueryOp::kConeIntersect;
}

serve::Op wire_op(QueryOp op) {
  switch (op) {
    case QueryOp::kRank: return serve::Op::kRank;
    case QueryOp::kConeSize: return serve::Op::kConeSize;
    case QueryOp::kInCone: return serve::Op::kInCone;
    case QueryOp::kProviders: return serve::Op::kProviders;
    case QueryOp::kCustomers: return serve::Op::kCustomers;
    case QueryOp::kPeers: return serve::Op::kPeers;
    case QueryOp::kPathToClique: return serve::Op::kPathToClique;
    case QueryOp::kConeIntersect: return serve::Op::kConeIntersect;
  }
  return serve::Op::kPing;
}

const char* text_verb(QueryOp op) {
  switch (op) {
    case QueryOp::kRank: return "RANK";
    case QueryOp::kConeSize: return "CONESIZE";
    case QueryOp::kInCone: return "INCONE";
    case QueryOp::kProviders: return "PROVIDERS";
    case QueryOp::kCustomers: return "CUSTOMERS";
    case QueryOp::kPeers: return "PEERS";
    case QueryOp::kPathToClique: return "CLIQUEPATH";
    case QueryOp::kConeIntersect: return "INTERSECT";
  }
  return "PING";
}

}  // namespace

Wire encode(const Query& query) {
  Wire request;
  if (query.text) {
    request.text = true;
    request.bytes.append(text_verb(query.op)).append(" ").append(query.a.str());
    if (two_operands(query.op)) request.bytes.append(" ").append(query.b.str());
    request.bytes.append("\n");
    return request;
  }
  auto writer = serve::wire::request(wire_op(query.op));
  writer.u32(query.a.value());
  if (two_operands(query.op)) writer.u32(query.b.value());
  serve::QueryScope scope;
  scope.epoch = query.epoch;
  scope.algorithm = query.algorithm;
  const auto payload = serve::wire::apply_scope(scope, writer.take());
  const auto len = static_cast<std::uint32_t>(payload.size());
  request.bytes.push_back(static_cast<char>(serve::kBinaryMarker));
  for (int i = 0; i < 4; ++i) request.bytes.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  request.bytes.append(payload.begin(), payload.end());
  return request;
}

std::string expected_reply(serve::SnapshotRegistry& registry, const Wire& request) {
  if (request.text) {
    return serve::handle_text_request(
        registry, std::string_view(request.bytes).substr(0, request.bytes.size() - 1));
  }
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(request.bytes.data());
  const auto reply = serve::handle_binary_request(
      registry, std::span<const std::uint8_t>(bytes + 5, request.bytes.size() - 5));
  return std::string(reply.begin(), reply.end());
}

void execute(serve::QueryEngine& primary, serve::QueryEngine* second, const Query& query) {
  serve::QueryEngine& engine =
      (!query.algorithm.empty() && second != nullptr) ? *second : primary;
  switch (query.op) {
    case QueryOp::kRank: (void)engine.rank(query.a); break;
    case QueryOp::kConeSize: (void)engine.cone_size(query.a); break;
    case QueryOp::kInCone: (void)engine.in_cone(query.a, query.b); break;
    case QueryOp::kProviders: (void)engine.providers(query.a); break;
    case QueryOp::kCustomers: (void)engine.customers(query.a); break;
    case QueryOp::kPeers: (void)engine.peers(query.a); break;
    case QueryOp::kPathToClique: (void)engine.path_to_clique(query.a); break;
    case QueryOp::kConeIntersect: (void)engine.cone_intersection(query.a, query.b); break;
  }
}

}  // namespace asrbench
