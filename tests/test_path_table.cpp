// Equivalence of the interned path table against per-record reference
// definitions.  The reference functions below walk PathRecords one at a time
// the straightforward way (copy, strip, compress, hash-set dedup, translate
// each hop, sort pair lists); the table computes the same quantities from its
// flat arrays.  Every SanitizerConfig switch is flipped in turn over seeded
// topogen corpora with boosted pathology rates, plus hand-built edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bgpsim/observation.h"
#include "core/clique.h"
#include "core/degrees.h"
#include "paths/path_table.h"
#include "paths/sanitizer.h"
#include "topogen/topogen.h"

namespace asrank {
namespace {

using paths::PathCorpus;
using paths::PathRecord;
using paths::PathTable;
using paths::SanitizerConfig;
using paths::SanitizeStats;
using topology::AsnInterner;
using topology::kNoNode;
using topology::NodeId;

// ------------------------------------------------------------ reference ----

std::pair<PathCorpus, SanitizeStats> ref_sanitize(const PathCorpus& input,
                                                  const SanitizerConfig& config) {
  PathCorpus out;
  SanitizeStats stats;
  stats.input_records = input.size();
  std::unordered_set<std::string> seen;
  for (const PathRecord& record : input.records()) {
    std::vector<Asn> hops(record.path.hops().begin(), record.path.hops().end());
    if (config.strip_ixp_asns && !config.ixp_asns.empty()) {
      const auto before = hops.size();
      std::erase_if(hops, [&](Asn a) { return config.ixp_asns.contains(a); });
      stats.ixp_hops_stripped += before - hops.size();
    }
    if (config.strip_reserved_asns) {
      const auto before = hops.size();
      std::erase_if(hops, [](Asn a) { return a.reserved(); });
      stats.reserved_hops_stripped += before - hops.size();
    }
    AsPath path(std::move(hops));
    if (config.compress_prepending && path.has_prepending()) {
      path = path.compress_prepending();
      ++stats.prepended_compressed;
    }
    if (config.discard_loops && path.has_loop()) {
      ++stats.loops_discarded;
      continue;
    }
    if (config.discard_reserved && path.has_reserved_asn()) {
      ++stats.reserved_discarded;
      continue;
    }
    if (path.empty()) continue;
    const std::string key =
        record.vp.str() + "|" + record.prefix.str() + "|" + path.str();
    if (config.dedup && !seen.insert(key).second) {
      ++stats.duplicates_removed;
      continue;
    }
    out.add(record.vp, record.prefix, std::move(path));
  }
  stats.output_records = out.size();
  return {std::move(out), stats};
}

/// Distinct neighbours over prepending-compressed paths: all of them (node
/// degree) and those seen while the AS sits between two others (transit).
std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>> ref_degrees(
    const PathCorpus& corpus, const AsnInterner& interner) {
  std::set<std::pair<NodeId, NodeId>> all, transit;
  std::vector<NodeId> ids;
  for (const PathRecord& record : corpus.records()) {
    interner.translate(record.path.compress_prepending().hops(), ids);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == kNoNode) continue;
      if (i > 0 && ids[i - 1] != kNoNode) {
        all.emplace(ids[i], ids[i - 1]);
        all.emplace(ids[i - 1], ids[i]);
      }
      if (i > 0 && i + 1 < ids.size()) {
        if (ids[i - 1] != kNoNode) transit.emplace(ids[i], ids[i - 1]);
        if (ids[i + 1] != kNoNode) transit.emplace(ids[i], ids[i + 1]);
      }
    }
  }
  std::vector<std::uint32_t> node_deg(interner.size(), 0), transit_deg(interner.size(), 0);
  for (const auto& [node, neighbor] : all) ++node_deg[node];
  for (const auto& [node, neighbor] : transit) ++transit_deg[node];
  return {node_deg, transit_deg};
}

/// Observed adjacency: adjacent distinct interned hops, both directions.
std::set<std::pair<NodeId, NodeId>> ref_adjacency(const PathCorpus& corpus,
                                                  const AsnInterner& interner) {
  std::set<std::pair<NodeId, NodeId>> out;
  std::vector<NodeId> ids;
  for (const PathRecord& record : corpus.records()) {
    interner.translate(record.path.hops(), ids);
    for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
      if (ids[i] == ids[i + 1] || ids[i] == kNoNode || ids[i + 1] == kNoNode) continue;
      out.emplace(ids[i], ids[i + 1]);
      out.emplace(ids[i + 1], ids[i]);
    }
  }
  return out;
}

/// Link observations: every adjacent interned hop pair, self-pairs included.
std::map<std::pair<NodeId, NodeId>, std::uint32_t> ref_links(const PathCorpus& corpus,
                                                             const AsnInterner& interner) {
  std::map<std::pair<NodeId, NodeId>, std::uint32_t> out;
  std::vector<NodeId> ids;
  for (const PathRecord& record : corpus.records()) {
    interner.translate(record.path.hops(), ids);
    for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
      if (ids[i] == kNoNode || ids[i + 1] == kNoNode) continue;
      ++out[{std::min(ids[i], ids[i + 1]), std::max(ids[i], ids[i + 1])}];
    }
  }
  return out;
}

/// Customer-evidence witnesses: distinct origins per flagged AS.
std::vector<std::uint32_t> ref_evidence(const PathCorpus& corpus, const AsnInterner& interner,
                                        const std::vector<NodeId>& members) {
  const std::set<NodeId> member(members.begin(), members.end());
  const auto in = [&](NodeId id) { return member.contains(id); };
  std::set<std::pair<NodeId, NodeId>> flagged;
  std::vector<NodeId> ids;
  for (const PathRecord& record : corpus.records()) {
    if (record.path.size() < 3) continue;
    interner.translate(record.path.hops(), ids);
    const NodeId origin = ids.back();
    for (std::size_t i = 0; i + 2 < ids.size(); ++i) {
      const bool a = in(ids[i]), b = in(ids[i + 1]), c = in(ids[i + 2]);
      if (a && b && !c && ids[i + 2] != kNoNode) flagged.emplace(ids[i + 2], origin);
      if (b && c && !a && ids[i] != kNoNode) flagged.emplace(ids[i], origin);
      if (a && c && ids[i + 1] != kNoNode) flagged.emplace(ids[i + 1], origin);
    }
  }
  std::vector<std::uint32_t> out(interner.size(), 0);
  for (const auto& [node, origin] : flagged) ++out[node];
  return out;
}

// ------------------------------------------------------------- checkers ----

void expect_same_stats(const SanitizeStats& a, const SanitizeStats& b) {
  EXPECT_EQ(a.input_records, b.input_records);
  EXPECT_EQ(a.ixp_hops_stripped, b.ixp_hops_stripped);
  EXPECT_EQ(a.reserved_hops_stripped, b.reserved_hops_stripped);
  EXPECT_EQ(a.prepended_compressed, b.prepended_compressed);
  EXPECT_EQ(a.loops_discarded, b.loops_discarded);
  EXPECT_EQ(a.reserved_discarded, b.reserved_discarded);
  EXPECT_EQ(a.duplicates_removed, b.duplicates_removed);
  EXPECT_EQ(a.output_records, b.output_records);
}

/// Every tally the table serves must equal the per-record reference over
/// `corpus` (the records the table holds) on the table's own id space.
void expect_table_matches(const PathTable& table, const PathCorpus& corpus) {
  const AsnInterner& interner = table.interner();

  const auto links = ref_links(corpus, interner);
  ASSERT_EQ(table.link_count(), links.size());
  std::size_t i = 0;
  for (const auto& [pair, observations] : links) {
    EXPECT_EQ(table.link_lo(i), pair.first);
    EXPECT_EQ(table.link_hi(i), pair.second);
    EXPECT_EQ(table.observations(i), observations);
    ++i;
  }
  for (std::size_t r = 0; r < table.size(); ++r) {
    const auto hops = table.hops(r);
    const auto hop_links = table.hop_links(r);
    EXPECT_EQ(hop_links[0], paths::kNoLink);
    for (std::size_t j = 1; j < hops.size(); ++j) {
      const bool interned = hops[j - 1] != kNoNode && hops[j] != kNoNode;
      const std::uint32_t expected =
          interned ? table.link_index(hops[j - 1], hops[j]) : paths::kNoLink;
      EXPECT_EQ(hop_links[j], expected);
    }
  }

  const auto degrees = core::Degrees::compute(table);
  const auto [node_deg, transit_deg] = ref_degrees(corpus, interner);
  for (NodeId id = 0; id < interner.size(); ++id) {
    EXPECT_EQ(degrees.node_degree(id), node_deg[id]) << "AS" << interner.asn_of(id).str();
    EXPECT_EQ(degrees.transit_degree(id), transit_deg[id]) << "AS" << interner.asn_of(id).str();
  }

  const auto adjacency = core::ObservedAdjacency::build(table);
  std::set<std::pair<NodeId, NodeId>> rows;
  for (NodeId id = 0; id < adjacency.node_count(); ++id) {
    const auto row = adjacency.neighbors(id);
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
    for (const NodeId neighbor : row) rows.emplace(id, neighbor);
  }
  EXPECT_EQ(rows, ref_adjacency(corpus, interner));

  // Evidence against the top of the ranking, as the clique search asks it.
  std::vector<NodeId> members;
  for (const Asn as : degrees.ranked()) {
    if (members.size() == 10) break;
    members.push_back(interner.id_of(as));
  }
  EXPECT_EQ(core::customer_evidence(table, members), ref_evidence(corpus, interner, members));
}

std::vector<SanitizerConfig> config_flips(const std::unordered_set<Asn>& ixps) {
  std::vector<SanitizerConfig> out(7);
  for (auto& config : out) config.ixp_asns = ixps;
  out[1].strip_ixp_asns = false;
  out[2].strip_reserved_asns = true;
  out[3].compress_prepending = false;
  out[4].discard_loops = false;
  out[5].discard_reserved = false;
  out[6].dedup = false;
  return out;
}

void expect_sanitize_matches(const PathCorpus& raw, const SanitizerConfig& config) {
  const auto [ref_corpus, ref_stats] = ref_sanitize(raw, config);
  SanitizeStats stats;
  PathTable table = PathTable::sanitize(raw, config, stats);
  expect_same_stats(stats, ref_stats);
  ASSERT_EQ(table.size(), ref_corpus.size());
  const PathCorpus materialized = table.corpus();
  EXPECT_TRUE(std::equal(materialized.records().begin(), materialized.records().end(),
                         ref_corpus.records().begin(), ref_corpus.records().end()));
  const auto adapter = paths::sanitize(raw, config);
  EXPECT_TRUE(std::equal(adapter.corpus.records().begin(), adapter.corpus.records().end(),
                         ref_corpus.records().begin(), ref_corpus.records().end()));
  expect_same_stats(adapter.stats, ref_stats);

  // The interner covers exactly the surviving hops, in ascending ASN order.
  std::vector<Asn> asns;
  for (const PathRecord& record : ref_corpus.records()) {
    asns.insert(asns.end(), record.path.hops().begin(), record.path.hops().end());
  }
  std::sort(asns.begin(), asns.end());
  asns.erase(std::unique(asns.begin(), asns.end()), asns.end());
  EXPECT_TRUE(std::equal(asns.begin(), asns.end(), table.interner().asns().begin(),
                         table.interner().asns().end()));

  table.index_links();
  expect_table_matches(table, ref_corpus);

  // Dropping records re-tallies the links over the survivors.
  std::vector<std::uint8_t> keep(table.size());
  PathCorpus kept;
  for (std::size_t r = 0; r < table.size(); ++r) {
    keep[r] = r % 3 != 1;
    if (keep[r]) kept.add(ref_corpus.records()[r]);
  }
  table.retain(keep);
  ASSERT_EQ(table.size(), kept.size());
  expect_table_matches(table, kept);
}

PathCorpus observed_corpus(std::uint64_t seed, double boost, std::unordered_set<Asn>& ixps) {
  auto params = topogen::GenParams::preset("small");
  params.seed = seed;
  const auto truth = topogen::generate(params);
  ixps = truth.ixp_asns;
  bgpsim::ObservationParams observation;
  observation.seed = seed + 1;
  observation.prepend_prob *= boost;
  observation.poison_prob *= boost;
  observation.ixp_leak_prob *= boost;
  observation.private_leak_prob *= boost;
  return PathCorpus::from_records(bgpsim::observe(truth, observation).routes);
}

PathRecord rec(std::uint32_t vp, std::uint32_t prefix_id,
               std::initializer_list<std::uint32_t> hops) {
  return PathRecord{Asn(vp), Prefix::v4(prefix_id << 8, 24), AsPath(hops)};
}

// ---------------------------------------------------------------- tests ----

TEST(PathTable, MatchesPerRecordReferenceOnTopogenCorpora) {
  for (const auto& [seed, boost] :
       {std::pair{1u, 1.0}, std::pair{2u, 8.0}, std::pair{3u, 20.0}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::unordered_set<Asn> ixps;
    const PathCorpus raw = observed_corpus(seed, boost, ixps);
    const auto flips = config_flips(ixps);
    for (std::size_t flip = 0; flip < flips.size(); ++flip) {
      SCOPED_TRACE("config flip " + std::to_string(flip));
      expect_sanitize_matches(raw, flips[flip]);
    }
  }
}

TEST(PathTable, HandBuiltEdgeCasesMatchReference) {
  PathCorpus raw;
  raw.add(rec(7, 1, {7, 7, 7}));              // a a a
  raw.add(rec(1, 2, {1, 2, 2, 3, 2}));        // loop across a prepending run
  raw.add(rec(1, 3, {1, 2, 2, 3}));           // prepending, no loop
  raw.add(rec(1, 4, {1, 900, 64512, 3}));     // IXP and reserved hops
  raw.add(rec(1, 5, {900, 900}));             // emptied by IXP stripping
  raw.add(rec(1, 6, {1, 4, 5}));
  raw.add(rec(1, 6, {1, 4, 4, 5}));           // duplicate up to prepending
  raw.add(rec(1, 6, {1, 1, 4, 5, 5}));        // prepending at both ends
  raw.add(rec(4, 7, {4, 900, 4, 6}));         // IXP splits a prepending run
  raw.add(rec(8, 8, {8}));                    // single hop
  for (const auto& config : config_flips({Asn(900)})) expect_sanitize_matches(raw, config);

  SanitizerConfig with_ixp;
  with_ixp.ixp_asns = {Asn(900)};
  SanitizeStats stats;
  auto table = PathTable::sanitize(raw, with_ixp, stats);
  EXPECT_EQ(stats.loops_discarded, 1u);
  EXPECT_EQ(stats.reserved_discarded, 1u);
  EXPECT_EQ(stats.duplicates_removed, 2u);
  EXPECT_EQ(stats.ixp_hops_stripped, 4u);

  // Kept prepending: "a a a" is one record with a self-link nobody counts
  // as a neighbour, and an end run does not make its AS a transit AS.
  SanitizerConfig keep_prepending;
  keep_prepending.compress_prepending = false;
  table = PathTable::sanitize(raw, keep_prepending, stats);
  table.index_links();
  const NodeId seven = table.interner().id_of(Asn(7));
  const std::uint32_t self_link = table.link_index(seven, seven);
  ASSERT_NE(self_link, paths::kNoLink);
  EXPECT_EQ(table.observations(self_link), 2u);
  const auto degrees = core::Degrees::compute(table);
  EXPECT_EQ(degrees.node_degree(Asn(7)), 0u);
  EXPECT_EQ(degrees.transit_degree(Asn(1)), 0u);  // first run of "1 1 4 5 5"
  EXPECT_EQ(degrees.transit_degree(Asn(5)), 0u);  // last run
  EXPECT_EQ(degrees.transit_degree(Asn(4)), 2u);
}

TEST(PathTable, AdaptersTolerateHopsMissingFromTheInterner) {
  std::unordered_set<Asn> ixps;
  const PathCorpus raw = observed_corpus(4, 8.0, ixps);  // unsanitized on purpose
  // Intern only every other AS, so many hops are kNoNode.
  const std::vector<Asn> all = raw.ases();
  std::vector<Asn> half;
  for (std::size_t i = 0; i < all.size(); i += 2) half.push_back(all[i]);
  const auto interner = AsnInterner::from_asns(half);

  auto table = PathTable::intern(raw, interner);
  table.index_links();
  expect_table_matches(table, raw);  // includes Degrees over the table

  const auto adjacency = core::ObservedAdjacency::build(interner, raw);
  std::set<std::pair<NodeId, NodeId>> rows;
  for (NodeId id = 0; id < adjacency.node_count(); ++id) {
    for (const NodeId neighbor : adjacency.neighbors(id)) rows.emplace(id, neighbor);
  }
  EXPECT_EQ(rows, ref_adjacency(raw, interner));
}

}  // namespace
}  // namespace asrank
