#include "baselines/tor_local_search.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "baselines/degree_heuristic.h"
#include "paths/path_table.h"

namespace asrank::baselines {

namespace {

using paths::PathCorpus;
using paths::PathRecord;
using topology::AsnInterner;

/// Link labelling during the search.  kLoProv/kHiProv name the providing
/// side of the normalized (lo, hi) pair.
enum class Label : std::uint8_t { kLoProv, kHiProv, kPeer };

/// Is the hop sequence valley-free under the labelling in `graph`?
/// Grammar: c2p* p2p? p2c* (sibling links are transparent).
bool valley_free(const AsGraph& graph, std::span<const Asn> hops) {
  // States: 0 = ascending, 1 = peaked/descending.
  int state = 0;
  for (std::size_t i = 1; i < hops.size(); ++i) {
    const auto view = graph.view(hops[i - 1], hops[i]);
    if (!view) return false;  // unlabelled link cannot satisfy the path
    switch (*view) {
      case RelView::kProvider:  // moving up
        if (state != 0) return false;
        break;
      case RelView::kPeer:
        if (state != 0) return false;
        state = 1;
        break;
      case RelView::kCustomer:
        state = 1;
        break;
      case RelView::kSibling:
        break;
    }
  }
  return true;
}

}  // namespace

std::size_t TorLocalSearch::violations(const AsGraph& graph, const PathCorpus& corpus) {
  std::size_t count = 0;
  for (const PathRecord& record : corpus.records()) {
    if (!valley_free(graph, record.path.hops())) ++count;
  }
  return count;
}

AsGraph TorLocalSearch::infer(const PathCorpus& corpus) const {
  // Initial labelling: plain degree comparison.
  DegreeHeuristicConfig initial_config;
  initial_config.provider_ratio = config_.initial_provider_ratio;
  const AsGraph initial = DegreeHeuristic(initial_config).infer(corpus);

  // The search state is the path table of the distinct paths (identical
  // rows add identical objective terms): flat hop ids, the per-hop link
  // index, and a per-link Label byte — re-labelling a link during the climb
  // is a single store.
  PathCorpus distinct;
  {
    std::unordered_set<std::string> seen;
    for (const PathRecord& record : corpus.records()) {
      if (seen.insert(record.path.str()).second) distinct.add(record);
    }
  }
  auto table = paths::PathTable::intern(distinct);
  table.index_links();
  const AsnInterner& interner = table.interner();
  const std::size_t link_count = table.link_count();
  // Self-links (prepending repeats) carry no label: no labelling can satisfy
  // a path through one, and the output never holds one.
  const auto self_link = [&](std::size_t i) { return table.link_lo(i) == table.link_hi(i); };

  std::vector<Label> labels(link_count);
  for (std::size_t i = 0; i < link_count; ++i) {
    if (self_link(i)) continue;
    const Asn lo = interner.asn_of(table.link_lo(i));
    const Asn hi = interner.asn_of(table.link_hi(i));
    const auto link = initial.link(lo, hi);
    if (link->type == LinkType::kP2P) {
      labels[i] = Label::kPeer;
    } else {
      labels[i] = link->a == lo ? Label::kLoProv : Label::kHiProv;
    }
  }

  // The link -> covering-paths index.
  std::vector<std::uint64_t> cover_pairs;  // (link, path) packed
  for (std::size_t p = 0; p < table.size(); ++p) {
    const auto links = table.hop_links(p);
    for (std::size_t i = 1; i < links.size(); ++i) {
      if (links[i] == paths::kNoLink || self_link(links[i])) continue;
      cover_pairs.push_back(static_cast<std::uint64_t>(links[i]) << 32 | p);
    }
  }
  std::sort(cover_pairs.begin(), cover_pairs.end());
  cover_pairs.erase(std::unique(cover_pairs.begin(), cover_pairs.end()),
                    cover_pairs.end());
  std::vector<std::uint64_t> cover_off(link_count + 1, 0);
  for (const std::uint64_t pair : cover_pairs) ++cover_off[(pair >> 32) + 1];
  for (std::size_t i = 0; i < link_count; ++i) cover_off[i + 1] += cover_off[i];

  const auto path_valley_free = [&](std::size_t p) {
    const auto hops = table.hops(p);
    const auto links = table.hop_links(p);
    int state = 0;  // 0 = ascending, 1 = peaked/descending
    for (std::size_t i = 1; i < hops.size(); ++i) {
      const std::uint32_t link = links[i];
      if (link == paths::kNoLink || self_link(link)) return false;
      const Label label = labels[link];
      if (label == Label::kPeer) {
        if (state != 0) return false;
        state = 1;
        continue;
      }
      const bool left_is_lo = hops[i - 1] < hops[i];
      const bool descending = (label == Label::kLoProv) == left_is_lo;
      if (descending) {
        state = 1;
      } else if (state != 0) {  // ascending after the peak
        return false;
      }
    }
    return true;
  };
  const auto local_violations = [&](std::size_t link) {
    std::size_t count = 0;
    for (std::uint64_t k = cover_off[link]; k < cover_off[link + 1]; ++k) {
      if (!path_valley_free(static_cast<std::size_t>(
              static_cast<std::uint32_t>(cover_pairs[k])))) {
        ++count;
      }
    }
    return count;
  };

  // Hill-climb: for each link, try the three labellings, keep the best
  // (ties keep the current labelling so passes terminate).  Links ascend in
  // packed-key order — the same order the legacy sweep derived from the
  // sorted AsGraph::links() snapshot.
  for (std::size_t pass = 0; pass < config_.max_passes; ++pass) {
    bool improved = false;
    for (std::size_t link = 0; link < link_count; ++link) {
      if (cover_off[link] == cover_off[link + 1]) continue;
      const Label current = labels[link];

      std::size_t best_violations = local_violations(link);
      Label best = current;
      // Candidate order mirrors the legacy sweep: both c2p orientations
      // first (relative to the current orientation), then p2p.
      Label candidates[2];
      if (current == Label::kLoProv) {
        candidates[0] = Label::kHiProv;
        candidates[1] = Label::kPeer;
      } else if (current == Label::kHiProv) {
        candidates[0] = Label::kLoProv;
        candidates[1] = Label::kPeer;
      } else {
        candidates[0] = Label::kLoProv;
        candidates[1] = Label::kHiProv;
      }
      for (const Label candidate : candidates) {
        labels[link] = candidate;
        const std::size_t with_candidate = local_violations(link);
        if (with_candidate < best_violations) {
          best_violations = with_candidate;
          best = candidate;
          improved = true;
        }
      }
      labels[link] = best;
    }
    if (!improved) break;
  }

  AsGraph graph;
  for (std::size_t i = 0; i < link_count; ++i) {
    if (self_link(i)) continue;
    const Asn lo = interner.asn_of(table.link_lo(i));
    const Asn hi = interner.asn_of(table.link_hi(i));
    switch (labels[i]) {
      case Label::kLoProv: graph.add_p2c(lo, hi); break;
      case Label::kHiProv: graph.add_p2c(hi, lo); break;
      case Label::kPeer: graph.add_p2p(lo, hi); break;
    }
  }
  return graph;
}

}  // namespace asrank::baselines
