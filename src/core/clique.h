// Clique inference (paper §4.3 step 3, assumption A1).
//
// The top of the transit hierarchy is a set of networks that peer with each
// other and buy transit from no one.  The paper seeds a Bron–Kerbosch maximal
// clique search with the ASes of highest transit degree, takes the largest
// clique containing the top-ranked AS, then considers further ASes in rank
// order, admitting each that is observed adjacent to every current member.
//
// The inference reads the pipeline's paths::PathTable: observed adjacency is
// the CSR of the table's link table (ObservedAdjacency), the customer-evidence
// scan walks the table's hop-id arrays, and membership and ban sets are
// bitmaps over the same dense NodeId space — no translation, no hashing.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "asn/asn.h"
#include "core/degrees.h"
#include "paths/corpus.h"
#include "paths/path_table.h"
#include "topology/interner.h"

namespace asrank::core {

struct CliqueConfig {
  /// Number of top-transit-degree ASes seeding the Bron–Kerbosch search
  /// (paper value: 10).
  std::size_t seed_size = 10;

  /// How many further ranked ASes to test for admission after the seed
  /// clique is chosen.
  std::size_t expansion_candidates = 30;

  /// During expansion, admit a candidate missing observed adjacency to at
  /// most this many current members.  Peering links between two tier-1s are
  /// visible only from below either one, so with a finite VP set a true
  /// member can easily lack one observed link.  The customer-evidence test
  /// below keeps this tolerance safe.
  std::size_t max_missing_links = 1;

  /// Reject any candidate observed *below* two consecutive members: in a
  /// valley-free path "A B X" with A,B both in the clique, the A-B link is
  /// p2p, so B-X must be p2c — X buys transit and cannot be tier-1.  An AS
  /// sandwiched between two members is rejected on the same reasoning.
  bool reject_customer_evidence = true;

  /// Customer evidence must be witnessed by at least this many distinct
  /// origin ASes.  A single origin poisoning its announcements with tier-1
  /// ASNs fabricates such patterns on every path toward itself; requiring
  /// independent origins defuses that.
  std::size_t customer_evidence_min_origins = 2;
};

/// Undirected adjacency restricted to links observed in paths, keyed by
/// dense node id (CSR, rows sorted).  The hot representation behind
/// infer_clique; also reusable by benchmarks and baselines.
class ObservedAdjacency {
 public:
  /// The CSR of an indexed table's link table (self-links skipped).
  [[nodiscard]] static ObservedAdjacency build(const paths::PathTable& table);

  /// Build from a sanitized corpus; hops missing from `interner` are
  /// ignored.
  [[nodiscard]] static ObservedAdjacency build(const topology::AsnInterner& interner,
                                               const paths::PathCorpus& corpus);

  [[nodiscard]] std::size_t node_count() const noexcept { return offsets_.size() - 1; }

  [[nodiscard]] std::span<const topology::NodeId> neighbors(topology::NodeId node) const noexcept {
    return std::span<const topology::NodeId>(neighbors_)
        .subspan(offsets_[node], offsets_[node + 1] - offsets_[node]);
  }

  /// O(log deg) membership test on the sorted row.
  [[nodiscard]] bool adjacent(topology::NodeId a, topology::NodeId b) const noexcept;

 private:
  std::vector<std::uint64_t> offsets_;        // node_count + 1
  std::vector<topology::NodeId> neighbors_;   // rows sorted ascending
};

/// All maximal cliques of the sub-graph induced by `vertices` (Bron–Kerbosch
/// with pivoting), each as a sorted id list.  Intended for small vertex sets.
[[nodiscard]] std::vector<std::vector<topology::NodeId>> maximal_cliques(
    const ObservedAdjacency& adjacency, const std::vector<topology::NodeId>& vertices);

/// Customer evidence relative to a candidate member set, as per-node counts
/// of distinct witnessing origins over the table's paths.  An AS observed
/// directly after two consecutive members (either path direction) must buy
/// transit from a member — the member-member link is p2p, so the next link
/// can only be p2c.  An AS *sandwiched between* two members must buy from at
/// least one (two consecutive p2p links would violate valley-freeness); this
/// also neutralizes path poisoning that inserts a victim between two
/// tier-1s, and applies to members themselves.  Evidence is recorded per
/// distinct origin AS: a single origin poisoning its announcements taints
/// every path toward itself but no path toward anyone else, so callers can
/// demand independent witnesses.  Origins outside the interner share the
/// kNoNode id (one distinct witness).
[[nodiscard]] std::vector<std::uint32_t> customer_evidence(
    const paths::PathTable& table, const std::vector<topology::NodeId>& members);

/// Infer the top clique.  Returns members sorted ascending.  `table` must be
/// indexed and share the id space of `degrees.interner()` (as when the
/// degrees were computed from it — the pipeline's invariant).
[[nodiscard]] std::vector<Asn> infer_clique(const paths::PathTable& table,
                                            const Degrees& degrees,
                                            const CliqueConfig& config);

/// Same, interning `corpus` on the id space of `degrees.interner()`.
[[nodiscard]] std::vector<Asn> infer_clique(const paths::PathCorpus& corpus,
                                            const Degrees& degrees,
                                            const CliqueConfig& config);

}  // namespace asrank::core
