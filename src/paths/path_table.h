// Interned path table: the one place where a corpus's ASNs become NodeIds.
//
// Every path-tally stage (degrees, observed adjacency, clique customer
// evidence, the poisoned-path scan, voting) walks the same hop sequences.
// The table holds them once, flat: per-record vp / prefix / hop-offset
// arrays, one NodeId array of all hops translated once against the table's
// AsnInterner, and the sorted unique link table over adjacent hop pairs.
// Each link carries its observation count and two "this endpoint transits
// over this link" bits; each hop carries the index of the link joining it
// to the previous hop.  Consumers index flat arrays and never translate,
// hash, or copy a path.
//
// Definitions shared by every consumer:
//   * a link is an unordered pair of adjacent hops, both interned.  Adjacent
//     repeats form a self-link (lo == hi), present only when prepending was
//     kept or the corpus was never sanitized; neighbour tallies skip it;
//   * an endpoint transits over a link when its prepending run is neither
//     the first nor the last run of the path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "asn/asn.h"
#include "asn/prefix.h"
#include "paths/corpus.h"
#include "paths/sanitizer.h"
#include "topology/interner.h"

namespace asrank::paths {

/// Hop position with no link to its predecessor (a record's first hop, or a
/// hop pair with an endpoint the interner lacks).
inline constexpr std::uint32_t kNoLink = 0xffffffffu;

class PathTable {
 public:
  PathTable() = default;

  /// Sanitize `input` (paper §4.2 step 1; see sanitizer.h) straight into a
  /// table whose interner covers every surviving hop.  `stats` receives the
  /// sanitizer's per-stage counters.
  [[nodiscard]] static PathTable sanitize(const PathCorpus& input,
                                          const SanitizerConfig& config, SanitizeStats& stats);

  /// Intern an existing corpus against a caller's id space, as is (no
  /// sanitization).  Hops the interner lacks become kNoNode and join no link.
  [[nodiscard]] static PathTable intern(const PathCorpus& corpus,
                                        topology::AsnInterner interner);
  /// Same, against an interner over the corpus's own hops (AsnInterner::
  /// from_asns, so AS0 hops stay un-interned).
  [[nodiscard]] static PathTable intern(const PathCorpus& corpus);

  /// Build the link table and the per-hop link indices.  A separate step so
  /// that callers needing only the records (paths::sanitize) skip it; call it
  /// once before using any link accessor.
  void index_links();

  [[nodiscard]] const topology::AsnInterner& interner() const noexcept { return interner_; }

  [[nodiscard]] std::size_t size() const noexcept { return vp_.size(); }
  [[nodiscard]] Asn vp(std::size_t r) const noexcept { return vp_[r]; }

  /// Hop ids of record r, vantage-point side first.
  [[nodiscard]] std::span<const topology::NodeId> hops(std::size_t r) const noexcept {
    return std::span<const topology::NodeId>(hops_).subspan(offsets_[r],
                                                           offsets_[r + 1] - offsets_[r]);
  }
  /// Link indices aligned with hops(r): entry j (j >= 1) is the link between
  /// hops j-1 and j; entry 0 is kNoLink.
  [[nodiscard]] std::span<const std::uint32_t> hop_links(std::size_t r) const noexcept {
    return std::span<const std::uint32_t>(hop_links_).subspan(offsets_[r],
                                                            offsets_[r + 1] - offsets_[r]);
  }

  /// Links are sorted by their (lo, hi) endpoint ids, lo <= hi.
  [[nodiscard]] std::size_t link_count() const noexcept { return link_keys_.size(); }
  [[nodiscard]] topology::NodeId link_lo(std::size_t i) const noexcept {
    return static_cast<topology::NodeId>(link_keys_[i] >> 32);
  }
  [[nodiscard]] topology::NodeId link_hi(std::size_t i) const noexcept {
    return static_cast<topology::NodeId>(link_keys_[i]);
  }
  /// Hop positions joined by link i, over all records.
  [[nodiscard]] std::uint32_t observations(std::size_t i) const noexcept {
    return link_observations_[i];
  }
  [[nodiscard]] bool lo_transits(std::size_t i) const noexcept {
    return (link_transit_[i] & kLoTransits) != 0;
  }
  [[nodiscard]] bool hi_transits(std::size_t i) const noexcept {
    return (link_transit_[i] & kHiTransits) != 0;
  }
  /// Index of the link between a and b, or kNoLink.  O(log links).
  [[nodiscard]] std::uint32_t link_index(topology::NodeId a, topology::NodeId b) const noexcept;

  /// Drop every record r with keep[r] == 0, keeping the order of the rest.
  /// An indexed table is re-indexed over the survivors, so links no
  /// surviving record observes drop out.
  void retain(std::span<const std::uint8_t> keep);

  /// Materialize the records as a PathCorpus.  Every hop must be interned,
  /// as in any table built by sanitize().
  [[nodiscard]] PathCorpus corpus() const;

 private:
  static constexpr std::uint8_t kLoTransits = 1;
  static constexpr std::uint8_t kHiTransits = 2;

  topology::AsnInterner interner_;
  std::vector<Asn> vp_;
  std::vector<Prefix> prefix_;
  /// Record r is hops_[offsets_[r], offsets_[r+1]); at most 2^32 - 1 hops.
  std::vector<std::uint32_t> offsets_{0};
  std::vector<topology::NodeId> hops_;
  std::vector<std::uint32_t> hop_links_;    ///< parallel to hops_

  std::vector<std::uint64_t> link_keys_;    ///< sorted unique packed (lo, hi)
  std::vector<std::uint32_t> link_observations_;
  std::vector<std::uint8_t> link_transit_;  ///< kLoTransits | kHiTransits
};

}  // namespace asrank::paths
