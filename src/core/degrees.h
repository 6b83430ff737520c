// Degree metrics over a path corpus (paper §4.3 step 2).
//
// The ranking that drives top-down inference uses *transit degree*: the
// number of distinct neighbours an AS has in paths where it appears between
// two other ASes (i.e. where it actually transits traffic).  Node degree
// (distinct neighbours anywhere) breaks ties, and lower ASN breaks the rest,
// making the ranking a deterministic total order.
//
// The tally is one linear pass over the link table of a paths::PathTable:
// node degree counts an AS's distinct (non-self) links, transit degree the
// links it transits over.  Per-AS lookups are array reads on the table's
// dense NodeId space.
#pragma once

#include <cstddef>
#include <vector>

#include "asn/asn.h"
#include "paths/corpus.h"
#include "paths/path_table.h"
#include "topology/interner.h"

namespace asrank::core {

class Degrees {
 public:
  /// Degrees over an indexed path table (PathTable::index_links), on the
  /// table's id space.  The pipeline's entry point.
  [[nodiscard]] static Degrees compute(const paths::PathTable& table);

  /// Compute degrees from sanitized paths: interns the corpus over its own
  /// hops and tallies its table.  `threads` is accepted for source
  /// compatibility and ignored: the tally is one sequential linear pass.
  [[nodiscard]] static Degrees compute(const paths::PathCorpus& corpus,
                                       std::size_t threads = 1);

  [[nodiscard]] std::size_t transit_degree(Asn as) const noexcept;
  [[nodiscard]] std::size_t node_degree(Asn as) const noexcept;

  /// Dense-id accessors (id must be < interner().size()).
  [[nodiscard]] std::size_t transit_degree(topology::NodeId id) const noexcept {
    return transit_deg_[id];
  }
  [[nodiscard]] std::size_t node_degree(topology::NodeId id) const noexcept {
    return node_deg_[id];
  }
  [[nodiscard]] std::size_t rank_of(topology::NodeId id) const noexcept {
    return rank_[id];
  }

  /// The id space the tallies are indexed by (every corpus AS).
  [[nodiscard]] const topology::AsnInterner& interner() const noexcept { return interner_; }

  /// All ASes in rank order: transit degree desc, node degree desc, ASN asc.
  [[nodiscard]] const std::vector<Asn>& ranked() const noexcept { return ranked_; }

  /// Position in the ranking (0 = highest).  ASes absent from the corpus
  /// rank below every present AS.
  [[nodiscard]] std::size_t rank_of(Asn as) const noexcept;

 private:
  topology::AsnInterner interner_;
  std::vector<std::uint32_t> transit_deg_;  // by NodeId
  std::vector<std::uint32_t> node_deg_;     // by NodeId
  std::vector<std::size_t> rank_;           // by NodeId; ranked_.size() if unranked
  std::vector<Asn> ranked_;
};

}  // namespace asrank::core
