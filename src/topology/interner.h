// Dense ASN id space.
//
// Every hot layer of the library — staged inference, cone closure, the
// baselines, snapshot construction, and query serving — is dominated by
// per-AS lookups.  Raw 32-bit ASNs are sparse (a corpus of 50k ASes spans
// ids up to 2^32), so keying working state by Asn forces hash tables into
// every inner loop.  The AsnInterner maps the ASes that actually occur in a
// corpus or graph onto a dense, contiguous `NodeId` range [0, size()), so
// per-AS state becomes a flat array and adjacency becomes CSR
// (topology::TopologyView).
//
// The mapping is *deterministic and order-preserving*: NodeIds are assigned
// in ascending ASN order, so id comparisons equal ASN comparisons, sorted
// NodeId sequences translate to sorted ASN sequences without re-sorting, and
// the id space coincides with the node order of the ASRK1 snapshot format
// (whose AS table is also sorted ascending).  Two interners built from the
// same AS set are identical.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "asn/asn.h"

namespace asrank::topology {

/// Dense node index assigned by an AsnInterner.  32 bits: the public
/// Internet has < 2^17 ASes and every realistic corpus far fewer.
using NodeId = std::uint32_t;

/// Sentinel for "no node" (Asn not interned / BFS parent of a root).
inline constexpr NodeId kNoNode = 0xffffffffu;

class AsnInterner {
 public:
  AsnInterner() = default;

  /// Build from any list of ASNs (duplicates fine, order irrelevant).
  /// Invalid AS0 entries are ignored.
  [[nodiscard]] static AsnInterner from_asns(std::vector<Asn> asns) {
    std::sort(asns.begin(), asns.end());
    asns.erase(std::unique(asns.begin(), asns.end()), asns.end());
    if (!asns.empty() && !asns.front().valid()) asns.erase(asns.begin());
    return AsnInterner(std::move(asns));
  }

  /// Build from an already sorted, strictly ascending list (e.g.
  /// AsGraph::ases(), a snapshot AS table, or the hops of a sanitized path
  /// table).  Cheapest constructor; the precondition is the caller's to
  /// uphold.  Unlike from_asns, an AS0 entry is kept.
  [[nodiscard]] static AsnInterner from_sorted_unique(std::vector<Asn> asns) {
    return AsnInterner(std::move(asns));
  }

  [[nodiscard]] std::size_t size() const noexcept { return asns_.size(); }
  [[nodiscard]] bool empty() const noexcept { return asns_.empty(); }

  /// All interned ASNs ascending; the vector index *is* the NodeId.
  [[nodiscard]] std::span<const Asn> asns() const noexcept { return asns_; }

  /// Dense id of `as`, or kNoNode when not interned.  O(log n) on a flat
  /// sorted array — no hashing, no pointer chasing.
  [[nodiscard]] NodeId id_of(Asn as) const noexcept {
    const auto it = std::lower_bound(asns_.begin(), asns_.end(), as);
    if (it == asns_.end() || *it != as) return kNoNode;
    return static_cast<NodeId>(it - asns_.begin());
  }

  [[nodiscard]] bool contains(Asn as) const noexcept { return id_of(as) != kNoNode; }

  /// Inverse mapping; `id` must be < size().
  [[nodiscard]] Asn asn_of(NodeId id) const noexcept { return asns_[id]; }

  /// Translate a hop sequence; unknown ASes become kNoNode.
  void translate(std::span<const Asn> hops, std::vector<NodeId>& out) const {
    out.clear();
    out.reserve(hops.size());
    for (const Asn as : hops) out.push_back(id_of(as));
  }

  friend bool operator==(const AsnInterner&, const AsnInterner&) = default;

 private:
  explicit AsnInterner(std::vector<Asn> sorted) : asns_(std::move(sorted)) {}

  std::vector<Asn> asns_;  ///< strictly ascending; index = NodeId
};

}  // namespace asrank::topology
