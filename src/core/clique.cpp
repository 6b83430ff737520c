#include "core/clique.h"

#include <algorithm>

namespace asrank::core {

namespace {

using topology::AsnInterner;
using topology::kNoNode;
using topology::NodeId;

constexpr std::uint64_t pack(NodeId a, NodeId b) noexcept {
  return static_cast<std::uint64_t>(a) << 32 | b;
}

/// Bron–Kerbosch with pivoting over a dense index adjacency matrix.  Emits
/// each maximal clique as a sorted list of vertex indices.
void bron_kerbosch(const std::vector<std::vector<bool>>& adj, std::vector<std::size_t>& r,
                   std::vector<std::size_t> p, std::vector<std::size_t> x,
                   std::vector<std::vector<std::size_t>>& out) {
  if (p.empty() && x.empty()) {
    std::vector<std::size_t> clique = r;
    std::sort(clique.begin(), clique.end());
    out.push_back(std::move(clique));
    return;
  }
  // Pivot: vertex of P ∪ X with most neighbours in P.
  std::size_t pivot = 0;
  std::size_t best = 0;
  bool have_pivot = false;
  for (const auto& set : {p, x}) {
    for (const std::size_t u : set) {
      std::size_t count = 0;
      for (const std::size_t v : p) {
        if (adj[u][v]) ++count;
      }
      if (!have_pivot || count > best) {
        pivot = u;
        best = count;
        have_pivot = true;
      }
    }
  }
  std::vector<std::size_t> candidates;
  for (const std::size_t v : p) {
    if (!adj[pivot][v]) candidates.push_back(v);
  }
  for (const std::size_t v : candidates) {
    r.push_back(v);
    std::vector<std::size_t> p_next, x_next;
    for (const std::size_t u : p) {
      if (adj[v][u]) p_next.push_back(u);
    }
    for (const std::size_t u : x) {
      if (adj[v][u]) x_next.push_back(u);
    }
    bron_kerbosch(adj, r, std::move(p_next), std::move(x_next), out);
    r.pop_back();
    p.erase(std::remove(p.begin(), p.end(), v), p.end());
    x.push_back(v);
  }
}

}  // namespace

ObservedAdjacency ObservedAdjacency::build(const paths::PathTable& table) {
  // Links are sorted by (lo, hi), so row x receives its lower neighbours
  // (from links (l, x)) before its higher ones (from links (x, h)), each in
  // ascending order: rows come out sorted without a sort.
  ObservedAdjacency adjacency;
  const std::size_t n = table.interner().size();
  adjacency.offsets_.assign(n + 1, 0);
  for (std::size_t i = 0; i < table.link_count(); ++i) {
    if (table.link_lo(i) == table.link_hi(i)) continue;  // prepending repeat
    ++adjacency.offsets_[table.link_lo(i) + 1];
    ++adjacency.offsets_[table.link_hi(i) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) adjacency.offsets_[i + 1] += adjacency.offsets_[i];
  adjacency.neighbors_.resize(adjacency.offsets_[n]);
  std::vector<std::uint64_t> cursor(adjacency.offsets_.begin(), adjacency.offsets_.end() - 1);
  for (std::size_t i = 0; i < table.link_count(); ++i) {
    const NodeId lo = table.link_lo(i), hi = table.link_hi(i);
    if (lo == hi) continue;
    adjacency.neighbors_[cursor[lo]++] = hi;
    adjacency.neighbors_[cursor[hi]++] = lo;
  }
  return adjacency;
}

ObservedAdjacency ObservedAdjacency::build(const AsnInterner& interner,
                                           const paths::PathCorpus& corpus) {
  auto table = paths::PathTable::intern(corpus, interner);
  table.index_links();
  return build(table);
}

bool ObservedAdjacency::adjacent(NodeId a, NodeId b) const noexcept {
  const auto row = neighbors(a);
  return std::binary_search(row.begin(), row.end(), b);
}

std::vector<std::vector<NodeId>> maximal_cliques(const ObservedAdjacency& adjacency,
                                                 const std::vector<NodeId>& vertices) {
  const std::size_t n = vertices.size();
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (adjacency.adjacent(vertices[i], vertices[j])) adj[i][j] = adj[j][i] = true;
    }
  }
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  std::vector<std::size_t> r;
  std::vector<std::vector<std::size_t>> indices;
  bron_kerbosch(adj, r, std::move(p), {}, indices);

  std::vector<std::vector<NodeId>> out;
  for (const auto& clique_indices : indices) {
    std::vector<NodeId> clique;
    clique.reserve(clique_indices.size());
    for (const std::size_t i : clique_indices) clique.push_back(vertices[i]);
    std::sort(clique.begin(), clique.end());
    out.push_back(std::move(clique));
  }
  return out;
}

std::vector<std::uint32_t> customer_evidence(const paths::PathTable& table,
                                             const std::vector<NodeId>& members) {
  const std::size_t n = table.interner().size();
  std::vector<std::uint8_t> member(n, 0);
  for (const NodeId m : members) member[m] = 1;
  const auto in = [&](NodeId id) { return id != kNoNode && member[id] != 0; };

  // (flagged, origin) witness pairs, with repeats.
  std::vector<std::uint64_t> pairs;
  const auto witness = [&](NodeId flagged, NodeId origin) {
    pairs.push_back(pack(flagged, origin));
  };
  for (std::size_t r = 0; r < table.size(); ++r) {
    const auto ids = table.hops(r);
    if (ids.size() < 3) continue;
    const NodeId origin = ids.back();
    bool first_in = in(ids[0]), mid_in = in(ids[1]);
    for (std::size_t i = 0; i + 2 < ids.size(); ++i) {
      const bool last_in = in(ids[i + 2]);
      if (first_in && mid_in && !last_in && ids[i + 2] != kNoNode) witness(ids[i + 2], origin);
      if (mid_in && last_in && !first_in && ids[i] != kNoNode) witness(ids[i], origin);
      if (first_in && last_in && ids[i + 1] != kNoNode) witness(ids[i + 1], origin);  // sandwich
      first_in = mid_in;
      mid_in = last_in;
    }
  }
  // Distinct origins per flagged node, in O(pairs + n): bucket the origins
  // by flagged node, then stamp each origin once per bucket (kNoNode origins
  // share the extra stamp slot n).
  std::vector<std::uint32_t> end(n + 1, 0);
  for (const std::uint64_t p : pairs) ++end[(p >> 32) + 1];
  for (std::size_t i = 0; i < n; ++i) end[i + 1] += end[i];
  std::vector<NodeId> origins(pairs.size());
  for (const std::uint64_t p : pairs) origins[end[p >> 32]++] = static_cast<NodeId>(p);
  std::vector<std::uint32_t> witnesses(n, 0);
  std::vector<std::uint32_t> stamp(n + 1, 0);
  for (NodeId flagged = 0, k = 0; flagged < n; ++flagged) {
    for (; k < end[flagged]; ++k) {
      const std::size_t origin = origins[k] == kNoNode ? n : origins[k];
      if (stamp[origin] == flagged + 1) continue;
      stamp[origin] = flagged + 1;
      ++witnesses[flagged];
    }
  }
  return witnesses;
}

std::vector<Asn> infer_clique(const paths::PathCorpus& corpus, const Degrees& degrees,
                              const CliqueConfig& config) {
  auto table = paths::PathTable::intern(corpus, degrees.interner());
  table.index_links();
  return infer_clique(table, degrees, config);
}

std::vector<Asn> infer_clique(const paths::PathTable& table, const Degrees& degrees,
                              const CliqueConfig& config) {
  const auto& ranked = degrees.ranked();
  if (ranked.empty()) return {};
  const AsnInterner& interner = degrees.interner();
  const std::size_t n = interner.size();
  const ObservedAdjacency adjacency = ObservedAdjacency::build(table);

  // Ranked ASes all carry node degree > 0, so they are always interned.
  std::vector<NodeId> ranked_ids;
  ranked_ids.reserve(ranked.size());
  for (const Asn as : ranked) ranked_ids.push_back(interner.id_of(as));

  const std::size_t seed_size = std::min(config.seed_size, ranked_ids.size());

  // Iterated Bron–Kerbosch: observed adjacency alone cannot distinguish a
  // tier-1 peer from a large customer of two tier-1s, so after each clique
  // candidate we test every member against the valley-free customer
  // evidence and eject the ones proven to buy transit from the rest,
  // removing them from the seed and retrying.
  std::vector<bool> banned(n, false);
  std::vector<NodeId> best;
  for (int iteration = 0; iteration < 8; ++iteration) {
    std::vector<NodeId> seed;
    for (std::size_t i = 0; i < ranked_ids.size() && seed.size() < seed_size; ++i) {
      if (!banned[ranked_ids[i]]) seed.push_back(ranked_ids[i]);
    }
    if (seed.empty()) break;

    // Largest maximal clique within the seed; ties broken toward the
    // lexicographically smallest member set for determinism.  Anchoring on
    // the single top-ranked AS (as a literal reading of the paper suggests)
    // is fragile when a non-tier-1 AS tops the transit-degree ranking under
    // sparse vantage-point coverage; the customer-evidence iteration below
    // ejects intruders either way.
    best.clear();
    for (auto& clique : maximal_cliques(adjacency, seed)) {
      if (clique.size() > best.size() || (clique.size() == best.size() && clique < best)) {
        best = std::move(clique);
      }
    }
    if (best.empty()) best = {seed.front()};
    if (!config.reject_customer_evidence) break;

    // Ejecting an established member requires independent witnesses (a lone
    // poisoning origin must not be able to evict true tier-1s).
    const auto evidence = customer_evidence(table, best);
    std::size_t ejected = 0;
    for (const NodeId member : best) {
      if (evidence[member] >= config.customer_evidence_min_origins) {
        banned[member] = true;
        ++ejected;
      }
    }
    if (ejected == 0) break;
  }

  // Admission of *new* candidates is cheap to deny, so any single witness
  // suffices to reject — which also keeps a poisoning origin's inserted ASN
  // out of the clique.
  std::vector<bool> below = banned;
  if (config.reject_customer_evidence) {
    const auto evidence = customer_evidence(table, best);
    for (NodeId id = 0; id < n; ++id) {
      if (evidence[id] > 0) below[id] = true;
    }
  }

  // Expansion: candidates are ASes adjacent to (almost) all current members
  // — found through the members' own adjacency, NOT a transit-degree window,
  // because a true tier-1 with a small customer base ranks arbitrarily low.
  // Candidates are evaluated in rank order so earlier admissions constrain
  // later ones; customer evidence disqualifies outright.
  std::vector<std::uint32_t> member_adjacency(n, 0);
  for (const NodeId member : best) {
    for (const NodeId neighbor : adjacency.neighbors(member)) ++member_adjacency[neighbor];
  }
  std::vector<NodeId> candidates;
  for (NodeId id = 0; id < n; ++id) {
    if (member_adjacency[id] == 0) continue;
    if (member_adjacency[id] + config.max_missing_links < best.size()) continue;
    if (std::binary_search(best.begin(), best.end(), id)) continue;
    if (below[id]) continue;
    candidates.push_back(id);
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](NodeId a, NodeId b) { return degrees.rank_of(a) < degrees.rank_of(b); });
  if (candidates.size() > config.expansion_candidates) {
    candidates.resize(config.expansion_candidates);
  }
  for (const NodeId candidate : candidates) {
    std::size_t missing = 0;
    for (const NodeId member : best) {
      if (!adjacency.adjacent(candidate, member)) ++missing;
    }
    // The tolerance is capped at a third of the current clique: tolerating a
    // missing link in a 2-3 member clique would admit anything adjacent to a
    // single member.
    const std::size_t tolerance = std::min(config.max_missing_links, best.size() / 3);
    if (missing <= tolerance) {
      best.insert(std::upper_bound(best.begin(), best.end(), candidate), candidate);
    }
  }

  std::vector<Asn> out;
  out.reserve(best.size());
  for (const NodeId id : best) out.push_back(interner.asn_of(id));
  return out;
}

}  // namespace asrank::core
