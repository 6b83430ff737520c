#include "core/degrees.h"

#include <algorithm>

namespace asrank::core {

using topology::kNoNode;
using topology::NodeId;

Degrees Degrees::compute(const paths::PathCorpus& corpus, std::size_t /*threads*/) {
  auto table = paths::PathTable::intern(corpus);
  table.index_links();
  return compute(table);
}

Degrees Degrees::compute(const paths::PathTable& table) {
  Degrees degrees;
  const std::size_t n = table.interner().size();
  degrees.node_deg_.assign(n, 0);
  degrees.transit_deg_.assign(n, 0);
  for (std::size_t i = 0; i < table.link_count(); ++i) {
    const NodeId lo = table.link_lo(i), hi = table.link_hi(i);
    if (lo == hi) continue;  // prepending repeat, not a neighbour
    ++degrees.node_deg_[lo];
    ++degrees.node_deg_[hi];
    if (table.lo_transits(i)) ++degrees.transit_deg_[lo];
    if (table.hi_transits(i)) ++degrees.transit_deg_[hi];
  }

  // Rank every AS observed next to another (node degree > 0); ids ascend in
  // ASN order, so the id tie-break below *is* the lower-ASN tie-break.
  std::vector<NodeId> order;
  for (NodeId id = 0; id < n; ++id) {
    if (degrees.node_deg_[id] > 0) order.push_back(id);
  }
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (degrees.transit_deg_[a] != degrees.transit_deg_[b]) {
      return degrees.transit_deg_[a] > degrees.transit_deg_[b];
    }
    if (degrees.node_deg_[a] != degrees.node_deg_[b]) {
      return degrees.node_deg_[a] > degrees.node_deg_[b];
    }
    return a < b;
  });

  degrees.rank_.assign(n, order.size());
  degrees.ranked_.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    degrees.rank_[order[i]] = i;
    degrees.ranked_.push_back(table.interner().asn_of(order[i]));
  }
  degrees.interner_ = table.interner();
  return degrees;
}

std::size_t Degrees::transit_degree(Asn as) const noexcept {
  const NodeId id = interner_.id_of(as);
  return id == kNoNode ? 0 : transit_deg_[id];
}

std::size_t Degrees::node_degree(Asn as) const noexcept {
  const NodeId id = interner_.id_of(as);
  return id == kNoNode ? 0 : node_deg_[id];
}

std::size_t Degrees::rank_of(Asn as) const noexcept {
  const NodeId id = interner_.id_of(as);
  return id == kNoNode ? ranked_.size() : rank_[id];
}

}  // namespace asrank::core
