// Customer cones (paper §5): the set of ASes reachable from an AS by
// descending only customer links.  Cone size is the paper's measure of an
// AS's influence, and the basis of the AS Rank.  Three computations, from
// most to least inclusive:
//
//   * Recursive: full transitive closure over every inferred p2c link.
//     Overestimates when providers don't actually route to all indirect
//     customers (multihomed customers filter announcements).
//   * Provider/peer observed (the canonical "ppdc" CAIDA publishes): closure
//     restricted to p2c links that were observed in a path while descending —
//     i.e. links whose provider was itself reached through one of its
//     providers or peers.  This keeps only customer links proven to carry
//     traffic downward from above.
//   * BGP observed: only ASes seen in an actual contiguous customer-link
//     chain after the AS in some path; no closure.  The most conservative.
//
// Invariant (tested): recursive ⊇ provider/peer observed and
// recursive ⊇ BGP observed, for every AS.  Every cone contains its own AS.
//
// All computations run on the dense-id CSR substrate (topology::TopologyView).
// The closure is one sequential post-order walk over flat customer rows
// indexed by NodeId: each cone is a sorted id list, the node plus the
// deduplicated union of its customers' lists.  It is output-sensitive —
// O(Σ|cone| log |cone|) time and O(Σ|cone|) memory, no n×n matrix — though a
// deep chain still costs n²/2 because its output does.  Cones of n/32
// members or more are held as bit rows instead (no more bytes than the
// list), so the overlapping cones at the top of the hierarchy union by
// word-wise OR.  The AsGraph
// overloads freeze the graph first; callers that already hold a view (the
// CLI, the snapshot builder) should pass it directly and pay the freeze cost
// once.
#pragma once

#include <cstddef>
#include <string_view>

#include "core/degrees.h"
#include "paths/corpus.h"
#include "topology/as_graph.h"
#include "topology/serialization.h"
#include "topology/topology_view.h"

namespace asrank::core {

enum class ConeMethod { kRecursive, kBgpObserved, kProviderPeerObserved };

[[nodiscard]] constexpr std::string_view to_string(ConeMethod method) noexcept {
  switch (method) {
    case ConeMethod::kRecursive: return "recursive";
    case ConeMethod::kBgpObserved: return "bgp-observed";
    case ConeMethod::kProviderPeerObserved: return "provider-peer-observed";
  }
  return "?";
}

// Every computation below takes a worker-thread count: 1 (the default) is
// the sequential path, 0 means all hardware threads, and the result is
// bit-identical at any count.  Only the observed cones use it (path-corpus
// chunks with commutative merges, see util/thread_pool.h); the closure is
// sequential, so the count has no effect on recursive_cone.

/// Establish assumption A3 in place: inside every strongly connected
/// component of the provider->customer digraph, re-orient c2p edges so the
/// higher-ranked endpoint (by transit degree, ASN tie-break) provides.  The
/// strict total order breaks all cycles without discarding transit evidence.
/// This is the asrank pipeline's step-11 repair, exposed for callers that
/// freeze cones over graphs other inference algorithms produced — the
/// baselines (gao2001, tor-local-search, degree-ratio) promise nothing about
/// acyclicity.  Returns the number of re-oriented p2c edges (0 when the
/// graph was already acyclic — the common case — in which case nothing is
/// touched).
std::size_t break_provider_cycles(AsGraph& graph, const Degrees& degrees);

/// Full transitive closure over p2c links.  Requires an acyclic provider
/// graph (throws std::invalid_argument otherwise — assumption A3).
[[nodiscard]] ConeMap recursive_cone(const topology::TopologyView& view,
                                     std::size_t threads = 1);
[[nodiscard]] ConeMap recursive_cone(const AsGraph& graph, std::size_t threads = 1);

/// Instrumentation from one recursive_cone_incremental call.
struct IncrementalConeStats {
  std::size_t changed_links = 0;  ///< links added + removed + re-annotated
  std::size_t dirty_asns = 0;     ///< ASes whose cone was recomputed
  double dirty_fraction = 0.0;    ///< dirty_asns / |after|
  bool full_recompute = false;    ///< dirty fraction crossed the threshold
  std::size_t reused = 0;         ///< cones copied verbatim from `before_cones`

  friend bool operator==(const IncrementalConeStats&, const IncrementalConeStats&) = default;
};

/// Recursive cone of `after`, reusing `before_cones` (the recursive cones of
/// `before`) for every AS whose cone provably did not change.
///
/// Dirty-set construction is safe over-invalidation: the endpoints of every
/// added/removed/re-annotated link seed the set, which then expands upward
/// through provider links of BOTH graphs — any AS that could reach a touched
/// link by descending p2c edges in either vintage gets recomputed.  An AS
/// outside that set has an identical customer subtree in both graphs, so its
/// old cone is copied verbatim.  When the dirty fraction exceeds
/// `full_threshold` the walk is abandoned for a plain full closure (the
/// incremental machinery only pays off on small deltas).
///
/// Output is byte-identical to `recursive_cone(after, threads)` — the
/// differential suite in tests/test_differential.cpp holds this contract.
/// Throws std::invalid_argument on provider cycles, like the full closure.
[[nodiscard]] ConeMap recursive_cone_incremental(const AsGraph& before,
                                                 const ConeMap& before_cones,
                                                 const AsGraph& after,
                                                 double full_threshold = 0.5,
                                                 std::size_t threads = 1,
                                                 IncrementalConeStats* stats = nullptr);

/// Direct observation: contiguous descending chains after each AS in paths,
/// using the view to classify links as p2c.
[[nodiscard]] ConeMap bgp_observed_cone(const topology::TopologyView& view,
                                        const paths::PathCorpus& corpus,
                                        std::size_t threads = 1);
[[nodiscard]] ConeMap bgp_observed_cone(const AsGraph& graph, const paths::PathCorpus& corpus,
                                        std::size_t threads = 1);

/// Closure over p2c links observed in descending path positions where the
/// provider was reached via one of its providers or peers.
[[nodiscard]] ConeMap provider_peer_observed_cone(const topology::TopologyView& view,
                                                  const paths::PathCorpus& corpus,
                                                  std::size_t threads = 1);
[[nodiscard]] ConeMap provider_peer_observed_cone(const AsGraph& graph,
                                                  const paths::PathCorpus& corpus,
                                                  std::size_t threads = 1);

/// Dispatch by method.  kRecursive ignores `corpus`.
[[nodiscard]] ConeMap compute_cone(ConeMethod method, const AsGraph& graph,
                                   const paths::PathCorpus& corpus,
                                   std::size_t threads = 1);
[[nodiscard]] ConeMap compute_cone(ConeMethod method, const topology::TopologyView& view,
                                   const paths::PathCorpus& corpus,
                                   std::size_t threads = 1);

}  // namespace asrank::core
