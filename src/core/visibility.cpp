#include "core/visibility.h"

#include <algorithm>
#include <utility>

#include "paths/path_table.h"

namespace asrank::core {

std::unordered_map<std::uint64_t, LinkVisibility> link_visibility(
    const paths::PathCorpus& corpus, std::size_t /*threads*/) {
  auto table = paths::PathTable::intern(corpus);
  table.index_links();
  std::vector<LinkVisibility> links(table.link_count());
  std::vector<std::uint64_t> link_vps;  // (link, vp) per crossing
  for (std::size_t r = 0; r < table.size(); ++r) {
    const auto hops = table.hops(r);
    const auto hop_links = table.hop_links(r);
    for (std::size_t j = 1; j < hops.size(); ++j) {
      if (hops[j - 1] == hops[j] || hop_links[j] == paths::kNoLink) continue;
      LinkVisibility& link = links[hop_links[j]];
      ++link.observations;
      ++(j > 1 && j + 1 < hops.size() ? link.transit_positions : link.edge_positions);
      link_vps.push_back(static_cast<std::uint64_t>(hop_links[j]) << 32 | table.vp(r).value());
    }
  }
  std::sort(link_vps.begin(), link_vps.end());
  link_vps.erase(std::unique(link_vps.begin(), link_vps.end()), link_vps.end());
  for (const std::uint64_t pair : link_vps) ++links[pair >> 32].vp_count;

  std::unordered_map<std::uint64_t, LinkVisibility> out;
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (links[i].observations == 0) continue;  // a prepending self-link
    out.emplace(paths::PathCorpus::key(table.interner().asn_of(table.link_lo(i)),
                                       table.interner().asn_of(table.link_hi(i))),
                links[i]);
  }
  return out;
}

VisibilityCcdf visibility_ccdf(
    const std::unordered_map<std::uint64_t, LinkVisibility>& visibility,
    std::vector<std::size_t> thresholds) {
  VisibilityCcdf out;
  out.thresholds = std::move(thresholds);
  out.links_at_least.assign(out.thresholds.size(), 0);
  for (const auto& [key, link] : visibility) {
    for (std::size_t i = 0; i < out.thresholds.size(); ++i) {
      if (link.vp_count >= out.thresholds[i]) ++out.links_at_least[i];
    }
  }
  return out;
}

}  // namespace asrank::core
