// Link visibility analysis (paper §6.2's central theme): how many vantage
// points observe each link, and in what path position.  Peering links are
// structurally visible only from within either peer's customer cone, so
// their VP counts concentrate near 1 while transit links are seen from
// almost everywhere — the distribution this module computes is the
// quantitative form of that argument, and the input to deciding how many
// VPs an inference needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "asn/asn.h"
#include "paths/corpus.h"

namespace asrank::core {

struct LinkVisibility {
  std::size_t vp_count = 0;       ///< distinct VPs whose tables cross the link
  std::size_t observations = 0;   ///< path rows crossing the link
  std::size_t transit_positions = 0;  ///< crossings with hops on both sides
  std::size_t edge_positions = 0;     ///< crossings at the first/last hop

  /// Links never seen in the interior of a path touch only table edges —
  /// the signature of stub links and peak-only peering.
  [[nodiscard]] bool interior() const noexcept { return transit_positions > 0; }
};

/// Per-link visibility, keyed by PathCorpus::key: one pass over the corpus's
/// path table, tallied in link-indexed arrays.  `threads` is accepted for
/// source compatibility and ignored.
[[nodiscard]] std::unordered_map<std::uint64_t, LinkVisibility> link_visibility(
    const paths::PathCorpus& corpus, std::size_t threads = 1);

/// Distribution summary: how many links are seen by >= k VPs.
struct VisibilityCcdf {
  std::vector<std::size_t> thresholds;  ///< k values
  std::vector<std::size_t> links_at_least;
};

[[nodiscard]] VisibilityCcdf visibility_ccdf(
    const std::unordered_map<std::uint64_t, LinkVisibility>& visibility,
    std::vector<std::size_t> thresholds);

}  // namespace asrank::core
