#include "paths/path_table.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace asrank::paths {

namespace {

using topology::kNoNode;
using topology::NodeId;

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
constexpr std::uint32_t kEmpty = 0xffffffffu;

std::size_t pow2_at_least(std::size_t n) {
  std::size_t out = 16;
  while (out < n) out <<= 1;
  return out;
}

/// Probes an open-addressing array of ids (kEmpty = free, size a power of
/// two) for one that `same` accepts; claims the free slot for `id` when none
/// does.  Returns the id found, or `id`.
template <typename Same>
std::uint32_t find_or_insert(std::vector<std::uint32_t>& slots, std::uint64_t hash,
                             std::uint32_t id, Same same) {
  std::size_t slot = static_cast<std::size_t>(hash >> 20) & (slots.size() - 1);
  while (slots[slot] != kEmpty) {
    if (same(slots[slot])) return slots[slot];
    slot = (slot + 1) & (slots.size() - 1);
  }
  slots[slot] = id;
  return id;
}

/// Dense ids for keys in first-seen order.
template <typename Key>
class FirstSeen {
 public:
  std::uint32_t id(Key key) {
    const auto next = static_cast<std::uint32_t>(keys_.size());
    const std::uint32_t found = find_or_insert(slots_, key * kGolden, next,
                                               [&](std::uint32_t id) { return keys_[id] == key; });
    if (found != next) return found;
    keys_.push_back(key);
    if (keys_.size() * 2 > slots_.size()) {  // rehash at half load
      slots_.assign(slots_.size() * 2, kEmpty);
      for (std::uint32_t id = 0; id < keys_.size(); ++id) {
        find_or_insert(slots_, keys_[id] * kGolden, id, [](std::uint32_t) { return false; });
      }
    }
    return next;
  }

  /// The keys ascending, and for each first-seen id its rank among them.
  [[nodiscard]] std::pair<std::vector<Key>, std::vector<std::uint32_t>> sorted() const {
    std::vector<std::uint32_t> order(keys_.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) { return keys_[a] < keys_[b]; });
    std::pair<std::vector<Key>, std::vector<std::uint32_t>> out;
    out.first.resize(order.size());
    out.second.resize(order.size());
    for (std::uint32_t rank = 0; rank < order.size(); ++rank) {
      out.first[rank] = keys_[order[rank]];
      out.second[order[rank]] = rank;
    }
    return out;
  }

 private:
  std::vector<std::uint32_t> slots_ = std::vector<std::uint32_t>(1024, kEmpty);
  std::vector<Key> keys_;
};

/// True if an AS recurs in two different prepending runs (adjacent repeats
/// are prepending, not loops; see AsPath::has_loop).  Short paths compare
/// pairwise; long ones sort their run heads in a reused buffer.
bool has_loop(std::span<const Asn> hops, std::vector<Asn>& scratch) {
  if (hops.size() <= 32) {
    for (std::size_t i = 1; i < hops.size(); ++i) {
      if (hops[i] == hops[i - 1]) continue;
      for (std::size_t j = 0; j + 1 < i; ++j) {
        if (hops[j] == hops[i]) return true;
      }
    }
    return false;
  }
  scratch.clear();
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (i == 0 || hops[i] != hops[i - 1]) scratch.push_back(hops[i]);
  }
  std::sort(scratch.begin(), scratch.end());
  return std::adjacent_find(scratch.begin(), scratch.end()) != scratch.end();
}

}  // namespace

PathTable PathTable::sanitize(const PathCorpus& input, const SanitizerConfig& config,
                              SanitizeStats& stats) {
  stats = SanitizeStats{};
  stats.input_records = input.size();
  std::vector<Asn> ixps;
  if (config.strip_ixp_asns) ixps.assign(config.ixp_asns.begin(), config.ixp_asns.end());
  std::sort(ixps.begin(), ixps.end());

  PathTable table;
  table.vp_.reserve(input.size());
  table.prefix_.reserve(input.size());
  table.offsets_.reserve(input.size() + 1);
  FirstSeen<std::uint32_t> ids;

  // Dedup set: open addressing over the table's own records, keyed on
  // (vp, prefix, cleaned hops); it never holds more than input.size().
  std::vector<std::uint32_t> seen(config.dedup ? pow2_at_least(2 * input.size()) : 0, kEmpty);
  const auto first_occurrence = [&](std::size_t r) {
    std::uint64_t hash = table.vp_[r].value() * kGolden ^ std::hash<Prefix>{}(table.prefix_[r]);
    for (const NodeId hop : table.hops(r)) hash = (hash ^ hop) * kGolden;
    const auto same = [&](std::size_t other) {
      const auto a = table.hops(r), b = table.hops(other);
      return table.vp_[r] == table.vp_[other] && table.prefix_[r] == table.prefix_[other] &&
             std::equal(a.begin(), a.end(), b.begin(), b.end());
    };
    return find_or_insert(seen, hash, static_cast<std::uint32_t>(r), same) == r;
  };

  std::vector<Asn> hops, scratch;
  for (const PathRecord& record : input.records()) {
    // IXP strip -> reserved strip -> prepending compression, in one sweep:
    // compression compares against the last kept hop, which is exactly the
    // previous hop of the stripped path.
    hops.clear();
    bool prepended = false;
    for (const Asn hop : record.path.hops()) {
      if (!ixps.empty() && std::binary_search(ixps.begin(), ixps.end(), hop)) {
        ++stats.ixp_hops_stripped;
      } else if (config.strip_reserved_asns && hop.reserved()) {
        ++stats.reserved_hops_stripped;
      } else if (config.compress_prepending && !hops.empty() && hops.back() == hop) {
        prepended = true;
      } else {
        hops.push_back(hop);
      }
    }
    if (prepended) ++stats.prepended_compressed;

    if (config.discard_loops && has_loop(hops, scratch)) {
      ++stats.loops_discarded;
      continue;
    }
    if (config.discard_reserved &&
        std::any_of(hops.begin(), hops.end(), [](Asn a) { return a.reserved(); })) {
      ++stats.reserved_discarded;
      continue;
    }
    if (hops.empty()) continue;

    const std::size_t r = table.size();
    table.vp_.push_back(record.vp);
    table.prefix_.push_back(record.prefix);
    for (const Asn hop : hops) table.hops_.push_back(ids.id(hop.value()));
    table.offsets_.push_back(static_cast<std::uint32_t>(table.hops_.size()));
    if (config.dedup && !first_occurrence(r)) {
      ++stats.duplicates_removed;
      table.vp_.pop_back();
      table.prefix_.pop_back();
      table.offsets_.pop_back();
      table.hops_.resize(table.offsets_.back());
    }
  }
  stats.output_records = table.size();

  // Re-number first-seen ids in ascending ASN order (the interner's order).
  const auto [sorted, rank] = ids.sorted();
  for (NodeId& hop : table.hops_) hop = rank[hop];
  std::vector<Asn> asns;
  asns.reserve(sorted.size());
  for (const std::uint32_t value : sorted) asns.emplace_back(value);
  table.interner_ = topology::AsnInterner::from_sorted_unique(std::move(asns));
  return table;
}

SanitizeResult sanitize(const PathCorpus& input, const SanitizerConfig& config) {
  SanitizeResult result;
  result.corpus = PathTable::sanitize(input, config, result.stats).corpus();
  return result;
}

PathTable PathTable::intern(const PathCorpus& corpus, topology::AsnInterner interner) {
  PathTable table;
  table.interner_ = std::move(interner);
  table.vp_.reserve(corpus.size());
  table.prefix_.reserve(corpus.size());
  table.offsets_.reserve(corpus.size() + 1);
  for (const PathRecord& record : corpus.records()) {
    table.vp_.push_back(record.vp);
    table.prefix_.push_back(record.prefix);
    for (const Asn hop : record.path.hops()) table.hops_.push_back(table.interner_.id_of(hop));
    table.offsets_.push_back(static_cast<std::uint32_t>(table.hops_.size()));
  }
  return table;
}

PathTable PathTable::intern(const PathCorpus& corpus) {
  std::vector<Asn> asns;
  for (const PathRecord& record : corpus.records()) {
    const auto hops = record.path.hops();
    asns.insert(asns.end(), hops.begin(), hops.end());
  }
  return intern(corpus, topology::AsnInterner::from_asns(std::move(asns)));
}

void PathTable::index_links() {
  // Links are numbered in first-seen order through a small hash index, then
  // renumbered in sorted (lo, hi) order.
  FirstSeen<std::uint64_t> numbering;
  hop_links_.assign(hops_.size(), kNoLink);
  for (std::size_t r = 0; r < size(); ++r) {
    for (std::uint32_t p = offsets_[r] + 1; p < offsets_[r + 1]; ++p) {
      const NodeId a = hops_[p - 1], b = hops_[p];
      if (a == kNoNode || b == kNoNode) continue;
      hop_links_[p] =
          numbering.id(static_cast<std::uint64_t>(std::min(a, b)) << 32 | std::max(a, b));
    }
  }
  std::vector<std::uint32_t> rank;
  std::tie(link_keys_, rank) = numbering.sorted();
  for (std::uint32_t& link : hop_links_) {
    if (link != kNoLink) link = rank[link];
  }

  link_observations_.assign(link_keys_.size(), 0);
  link_transit_.assign(link_keys_.size(), 0);
  for (std::size_t r = 0; r < size(); ++r) {
    const auto path = hops(r);
    const auto links = hop_links(r);
    const std::size_t k = path.size();
    if (k < 2) continue;
    // Hop j sits in the first (last) prepending run iff j < first_end
    // (j >= last_start).
    std::size_t first_end = 1;
    while (first_end < k && path[first_end] == path[0]) ++first_end;
    std::size_t last_start = k - 1;
    while (last_start > 0 && path[last_start - 1] == path[k - 1]) --last_start;
    for (std::size_t j = 1; j < k; ++j) {
      const std::uint32_t link = links[j];
      if (link == kNoLink) continue;
      ++link_observations_[link];
      if (path[j - 1] == path[j]) continue;  // self-link: nobody transits
      const bool left_is_lo = path[j - 1] < path[j];
      if (j - 1 >= first_end) link_transit_[link] |= left_is_lo ? kLoTransits : kHiTransits;
      if (j < last_start) link_transit_[link] |= left_is_lo ? kHiTransits : kLoTransits;
    }
  }
}

std::uint32_t PathTable::link_index(NodeId a, NodeId b) const noexcept {
  const std::uint64_t key = static_cast<std::uint64_t>(std::min(a, b)) << 32 | std::max(a, b);
  const auto it = std::lower_bound(link_keys_.begin(), link_keys_.end(), key);
  if (it == link_keys_.end() || *it != key) return kNoLink;
  return static_cast<std::uint32_t>(it - link_keys_.begin());
}

void PathTable::retain(std::span<const std::uint8_t> keep) {
  std::size_t kept = 0;
  std::uint32_t hop_out = 0;
  for (std::size_t r = 0; r < size(); ++r) {
    const std::uint32_t begin = offsets_[r], end = offsets_[r + 1];
    if (!keep[r]) continue;
    vp_[kept] = vp_[r];
    prefix_[kept] = prefix_[r];
    std::copy(hops_.begin() + begin, hops_.begin() + end, hops_.begin() + hop_out);
    hop_out += end - begin;
    offsets_[++kept] = hop_out;
  }
  vp_.resize(kept);
  prefix_.resize(kept);
  offsets_.resize(kept + 1);
  hops_.resize(hop_out);
  if (!hop_links_.empty()) index_links();
}

PathCorpus PathTable::corpus() const {
  PathCorpus out;
  out.reserve(size());
  for (std::size_t r = 0; r < size(); ++r) {
    const auto ids = hops(r);
    std::vector<Asn> path(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) path[i] = interner_.asn_of(ids[i]);
    out.add(vp_[r], prefix_[r], AsPath(std::move(path)));
  }
  return out;
}

}  // namespace asrank::paths
