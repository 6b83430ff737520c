#include "baselines/gao.h"

#include <algorithm>
#include <vector>

#include "core/clique.h"
#include "paths/path_table.h"

namespace asrank::baselines {

AsGraph GaoInference::infer(const paths::PathCorpus& corpus) const {
  using topology::NodeId;

  // Phase 1: node degrees, as CSR row lengths over the corpus's path table.
  auto table = paths::PathTable::intern(corpus);
  table.index_links();
  const topology::AsnInterner& interner = table.interner();
  const core::ObservedAdjacency adjacency = core::ObservedAdjacency::build(table);
  const auto degree = [&](NodeId id) { return adjacency.neighbors(id).size(); };
  const auto top_of = [&](std::span<const NodeId> ids) {
    std::size_t top = 0;
    for (std::size_t i = 1; i < ids.size(); ++i) {
      if (degree(ids[i]) > degree(ids[top])) top = i;
    }
    return top;
  };

  // Phase 2: uphill/downhill transit counts per link around each path's top
  // provider.
  std::vector<std::uint32_t> lo_provides(table.link_count(), 0);
  std::vector<std::uint32_t> hi_provides(table.link_count(), 0);
  for (std::size_t r = 0; r < table.size(); ++r) {
    const auto ids = table.hops(r);
    const auto links = table.hop_links(r);
    if (ids.size() < 2) continue;
    const std::size_t top = top_of(ids);
    for (std::size_t j = 1; j < ids.size(); ++j) {
      if (ids[j - 1] == ids[j] || links[j] == paths::kNoLink) continue;
      // Uphill the right side provides, downhill the left.
      const NodeId provider = j <= top ? ids[j] : ids[j - 1];
      const NodeId customer = j <= top ? ids[j - 1] : ids[j];
      ++(provider < customer ? lo_provides : hi_provides)[links[j]];
    }
  }

  // Phase 3: transit / sibling assignment.
  AsGraph graph;
  for (std::size_t i = 0; i < table.link_count(); ++i) {
    const NodeId lo_id = table.link_lo(i), hi_id = table.link_hi(i);
    if (lo_id == hi_id) continue;  // prepending repeat
    const Asn lo = interner.asn_of(lo_id);
    const Asn hi = interner.asn_of(hi_id);
    const bool lo_transits = lo_provides[i] > config_.sibling_threshold;
    const bool hi_transits = hi_provides[i] > config_.sibling_threshold;
    if (lo_transits && hi_transits) {
      graph.add_s2s(lo, hi);
    } else if (lo_provides[i] > hi_provides[i]) {
      graph.add_p2c(lo, hi);
    } else if (hi_provides[i] > lo_provides[i]) {
      graph.add_p2c(hi, lo);
    } else {
      // Equal small evidence both ways: higher degree provides.
      graph.add_p2c(degree(lo_id) >= degree(hi_id) ? lo : hi,
                    degree(lo_id) >= degree(hi_id) ? hi : lo);
    }
  }

  // Phase 4: peering around path tops.
  for (std::size_t r = 0; r < table.size(); ++r) {
    const auto ids = table.hops(r);
    const auto links = table.hop_links(r);
    if (ids.size() < 2) continue;
    const std::size_t top = top_of(ids);
    // The link closing at hop j (between hops j-1 and j).
    const auto consider = [&](std::size_t j) {
      const NodeId a = ids[j - 1], b = ids[j];
      const std::uint32_t link = links[j];
      if (a == b || link == paths::kNoLink) return;
      // Not peering if either direction shows repeated transit evidence.
      if (lo_provides[link] > config_.sibling_threshold ||
          hi_provides[link] > config_.sibling_threshold) {
        return;
      }
      const double da = static_cast<double>(std::max<std::size_t>(degree(a), 1));
      const double db = static_cast<double>(std::max<std::size_t>(degree(b), 1));
      const double ratio = da > db ? da / db : db / da;
      if (ratio <= config_.peering_degree_ratio) {
        graph.add_p2p(interner.asn_of(a), interner.asn_of(b));
      }
    };
    if (top > 0) consider(top);
    if (top + 1 < ids.size()) consider(top + 1);
  }

  return graph;
}

}  // namespace asrank::baselines
