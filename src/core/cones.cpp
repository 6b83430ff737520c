#include "core/cones.h"

#include <algorithm>
#include <bit>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/timer.h"
#include "topology/bitset.h"
#include "topology/graph_diff.h"
#include "util/thread_pool.h"

namespace asrank::core {

namespace {

using topology::AsnInterner;
using topology::kNoNode;
using topology::NodeId;
using topology::TopologyView;

/// Memoized post-order closure over an arbitrary p2c sub-relation given as a
/// per-node customer-row accessor (NodeId -> span<const NodeId>).  Each cone
/// is the node plus the union of its customers' cones, held as a sorted
/// NodeId list: members are appended once each (a per-node stamp array
/// dedups) and the list sorted.  Work and memory follow the output (the sum
/// of cone sizes), not n²; a deep chain still costs n²/2 because its output
/// does.  A cone whose customers' cones sum to n/32 members or more is built
/// as a bit row instead, and kept as one if it really is that big: the row
/// then costs no more bytes than the list, and its word-wise OR into each
/// provider replaces re-walking overlapping member lists at the dense top of
/// the hierarchy.  Ids ascend with ASNs, so either form translates to a
/// sorted member list directly.
template <typename CustomersFn>
ConeMap closure(const AsnInterner& interner, const CustomersFn& customers) {
  obs::StageTimer stage_timer("cone_closure");
  const std::size_t n = interner.size();
  const std::size_t dense_min = std::max<std::size_t>(n / 32, 1);
  std::vector<std::vector<NodeId>> lists(n);
  std::vector<std::vector<std::uint64_t>> rows(n);  // non-empty: cone is a bit row
  std::vector<std::size_t> sizes(n, 0);
  std::vector<NodeId> stamp(n, kNoNode);  // stamp[m] == node: m already in node's list
  std::vector<std::uint8_t> state(n, 0);  // 0 = new, 1 = visiting, 2 = done

  const auto build = [&](NodeId node, std::span<const NodeId> row) {
    std::size_t bound = 1;
    for (const NodeId c : row) bound += sizes[c];
    if (bound < dense_min) {  // so every customer's cone is a list too
      std::vector<NodeId>& cone = lists[node];
      cone.push_back(node);
      stamp[node] = node;
      for (const NodeId c : row) {
        for (const NodeId member : lists[c]) {
          if (stamp[member] == node) continue;
          stamp[member] = node;
          cone.push_back(member);
        }
      }
      std::sort(cone.begin(), cone.end());
      sizes[node] = cone.size();
      return;
    }
    std::vector<std::uint64_t> bits((n + 63) / 64, 0);
    const auto set = [&](NodeId id) { bits[id >> 6] |= 1ULL << (id & 63); };
    set(node);
    for (const NodeId c : row) {
      if (rows[c].empty()) {
        for (const NodeId member : lists[c]) set(member);
      } else {
        for (std::size_t w = 0; w < bits.size(); ++w) bits[w] |= rows[c][w];
      }
    }
    std::size_t count = 0;
    for (const std::uint64_t word : bits) count += static_cast<std::size_t>(std::popcount(word));
    sizes[node] = count;
    if (count >= dense_min) {
      rows[node] = std::move(bits);
    } else {
      lists[node].reserve(count);
      topology::for_each_bit(bits, [&](std::size_t id) {
        lists[node].push_back(static_cast<NodeId>(id));
      });
    }
  };

  for (NodeId root = 0; root < n; ++root) {
    if (state[root] == 2) continue;
    // Iterative DFS post-order.
    std::vector<std::pair<NodeId, std::size_t>> frames{{root, 0}};
    while (!frames.empty()) {
      const NodeId node = frames.back().first;
      std::size_t& child = frames.back().second;
      const auto row = customers(node);
      if (child == 0) {
        if (state[node] == 2) {
          frames.pop_back();
          continue;
        }
        state[node] = 1;
      }
      if (child < row.size()) {
        const NodeId next = row[child];
        ++child;
        if (state[next] == 1) {
          throw std::invalid_argument("customer cones: provider graph has a cycle");
        }
        if (state[next] != 2) frames.push_back({next, 0});
        continue;
      }
      build(node, row);
      state[node] = 2;
      frames.pop_back();
    }
  }

  ConeMap out;
  for (NodeId i = 0; i < n; ++i) {
    std::vector<Asn> members;
    members.reserve(sizes[i]);
    if (rows[i].empty()) {
      for (const NodeId id : lists[i]) members.push_back(interner.asn_of(id));
    } else {
      topology::for_each_bit(rows[i], [&](std::size_t id) {
        members.push_back(interner.asn_of(static_cast<NodeId>(id)));
      });
    }
    std::vector<NodeId>().swap(lists[i]);
    std::vector<std::uint64_t>().swap(rows[i]);
    out.emplace(interner.asn_of(i), std::move(members));
  }
  return out;
}

/// Is the link a -> b a known p2c (b is a's customer)?  kNoNode-safe.
bool is_p2c(const TopologyView& view, NodeId a, NodeId b) {
  if (a == kNoNode || b == kNoNode) return false;
  const auto rel = view.relationship(a, b);
  return rel && *rel == RelView::kCustomer;
}

}  // namespace

ConeMap recursive_cone(const TopologyView& view, std::size_t /*threads*/) {
  return closure(view.interner(), [&](NodeId node) { return view.customers(node); });
}

ConeMap recursive_cone(const AsGraph& graph, std::size_t threads) {
  return recursive_cone(graph.freeze(), threads);
}

ConeMap recursive_cone_incremental(const AsGraph& before, const ConeMap& before_cones,
                                   const AsGraph& after, double full_threshold,
                                   std::size_t threads, IncrementalConeStats* stats) {
  obs::StageTimer stage_timer("cone_incremental");
  IncrementalConeStats local;

  const GraphDiff diff = diff_graphs(before, after);
  local.changed_links = diff.added.size() + diff.removed.size() + diff.changed.size();

  // Seeds: endpoints of every touched link, plus ASes with no prior cone
  // (new nodes, or callers that handed us a partial base map).
  std::set<Asn> dirty;
  const auto seed_link = [&](const Link& link) {
    dirty.insert(link.a);
    dirty.insert(link.b);
  };
  for (const Link& link : diff.added) seed_link(link);
  for (const Link& link : diff.removed) seed_link(link);
  for (const LinkChange& change : diff.changed) {
    seed_link(change.before);
    seed_link(change.after);
  }
  const std::vector<Asn> after_ases = after.ases();
  for (const Asn as : after_ases) {
    if (!before_cones.contains(as)) dirty.insert(as);
  }

  // Expand upward through provider links of BOTH vintages: an AS whose cone
  // changed must be able to reach some touched link by descending p2c edges
  // in before or after, which makes it a provider-ancestor of a seed in one
  // of the two graphs.  Anything the walk never reaches keeps its old cone.
  std::vector<Asn> frontier(dirty.begin(), dirty.end());
  while (!frontier.empty()) {
    std::vector<Asn> next;
    for (const Asn as : frontier) {
      const auto ascend = [&](std::span<const Asn> providers) {
        for (const Asn p : providers) {
          if (dirty.insert(p).second) next.push_back(p);
        }
      };
      ascend(before.providers(as));
      ascend(after.providers(as));
    }
    frontier = std::move(next);
  }
  // The walk may pass through ASes removed in `after`; they own no cone.
  std::erase_if(dirty, [&](const Asn as) { return !after.has_as(as); });

  local.dirty_asns = dirty.size();
  local.dirty_fraction = after_ases.empty()
                             ? 0.0
                             : static_cast<double>(dirty.size()) /
                                   static_cast<double>(after_ases.size());

  if (local.dirty_fraction > full_threshold) {
    local.full_recompute = true;
    if (stats != nullptr) *stats = local;
    return recursive_cone(after, threads);
  }

  // Memoized post-order DFS over the dirty set only.  Clean customers
  // contribute their (unchanged) base cone; dirty customers recurse.  Every
  // node of a provider cycle introduced by the delta is necessarily dirty
  // (each is a provider-ancestor of the changed link's endpoints), so the
  // visiting-state check still catches A3 violations.
  std::map<Asn, std::vector<Asn>> fresh;
  const auto base_cone = [&](Asn as) -> const std::vector<Asn>& {
    const auto it = before_cones.find(as);
    if (it == before_cones.end()) {
      throw std::invalid_argument("incremental cone: base cone map is missing AS " +
                                  std::to_string(as.value()));
    }
    return it->second;
  };
  std::map<Asn, std::uint8_t> state;  // absent = new, 1 = visiting, 2 = done
  for (const Asn root : dirty) {
    if (state[root] == 2) continue;
    std::vector<std::pair<Asn, std::size_t>> frames{{root, 0}};
    while (!frames.empty()) {
      const Asn node = frames.back().first;
      std::size_t& child = frames.back().second;
      const auto row = after.customers(node);
      if (child == 0) {
        if (state[node] == 2) {
          frames.pop_back();
          continue;
        }
        state[node] = 1;
      }
      if (child < row.size()) {
        const Asn next = row[child];
        ++child;
        if (!dirty.contains(next)) continue;  // clean subtree: reuse below
        if (state[next] == 1) {
          throw std::invalid_argument("customer cones: provider graph has a cycle");
        }
        if (state[next] != 2) frames.push_back({next, 0});
        continue;
      }
      std::set<Asn> acc;
      acc.insert(node);
      for (const Asn c : row) {
        const std::vector<Asn>& sub = dirty.contains(c) ? fresh.at(c) : base_cone(c);
        acc.insert(sub.begin(), sub.end());
      }
      fresh.emplace(node, std::vector<Asn>(acc.begin(), acc.end()));
      state[node] = 2;
      frames.pop_back();
    }
  }

  ConeMap out;
  for (const Asn as : after_ases) {
    if (dirty.contains(as)) {
      out.emplace(as, std::move(fresh.at(as)));
    } else {
      out.emplace(as, base_cone(as));
      ++local.reused;
    }
  }
  if (stats != nullptr) *stats = local;
  return out;
}

ConeMap bgp_observed_cone(const TopologyView& view, const paths::PathCorpus& corpus,
                          std::size_t threads) {
  using SetMap = std::unordered_map<Asn, std::unordered_set<Asn>>;
  util::ThreadPool pool(threads);
  const auto records = corpus.records();
  const AsnInterner& interner = view.interner();

  // Cone keys/members stay ASN-typed: observed paths may cross ASes the
  // annotated graph has never seen, which have no NodeId.  Only the p2c
  // classification runs on the dense view.  Per-chunk membership sets merge
  // by set union — commutative, so the ordered reduction yields the
  // sequential result at any worker count.
  SetMap cones = pool.map_reduce<SetMap>(
      records.size(), SetMap{},
      [&](std::size_t begin, std::size_t end) {
        SetMap local;
        std::vector<NodeId> ids;
        for (std::size_t r = begin; r < end; ++r) {
          const auto hops = records[r].path.hops();
          if (hops.size() < 2) continue;
          interner.translate(hops, ids);
          // reach_end[i]: last index of the contiguous p2c descent starting
          // at i.  Computed right-to-left in one pass.
          std::vector<std::size_t> reach_end(hops.size());
          reach_end[hops.size() - 1] = hops.size() - 1;
          for (std::size_t i = hops.size() - 1; i-- > 0;) {
            reach_end[i] = is_p2c(view, ids[i], ids[i + 1]) ? reach_end[i + 1] : i;
          }
          for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
            auto& cone = local[hops[i]];
            for (std::size_t j = i + 1; j <= reach_end[i]; ++j) cone.insert(hops[j]);
          }
        }
        return local;
      },
      [](SetMap& acc, SetMap&& part) {
        for (auto& [as, members] : part) {
          acc[as].insert(members.begin(), members.end());
        }
      });
  for (const Asn as : interner.asns()) cones[as].insert(as);

  ConeMap out;
  for (auto& [as, members] : cones) {
    std::vector<Asn> sorted(members.begin(), members.end());
    std::sort(sorted.begin(), sorted.end());
    out.emplace(as, std::move(sorted));
  }
  return out;
}

ConeMap bgp_observed_cone(const AsGraph& graph, const paths::PathCorpus& corpus,
                          std::size_t threads) {
  return bgp_observed_cone(graph.freeze(), corpus, threads);
}

ConeMap provider_peer_observed_cone(const TopologyView& view,
                                    const paths::PathCorpus& corpus, std::size_t threads) {
  // Collect p2c links observed while descending from above: the provider
  // hop was itself preceded by one of its providers or peers.  Each chunk
  // emits packed (provider, customer) id pairs; the final sort+unique makes
  // the result independent of chunk order, so concatenation merging is safe.
  const AsnInterner& interner = view.interner();
  util::ThreadPool pool(threads);
  const auto records = corpus.records();

  using PairList = std::vector<std::uint64_t>;
  PairList pairs = pool.map_reduce<PairList>(
      records.size(), PairList{},
      [&](std::size_t begin, std::size_t end) {
        PairList local;
        std::vector<NodeId> ids;
        for (std::size_t r = begin; r < end; ++r) {
          const auto hops = records[r].path.hops();
          interner.translate(hops, ids);
          for (std::size_t i = 1; i + 1 < hops.size(); ++i) {
            if (ids[i] == kNoNode || ids[i - 1] == kNoNode) continue;
            const auto preceding = view.relationship(ids[i], ids[i - 1]);
            const bool from_above = preceding && (*preceding == RelView::kProvider ||
                                                  *preceding == RelView::kPeer);
            if (!from_above) continue;
            // Every contiguous p2c link after i is proven to carry traffic
            // downward.
            for (std::size_t j = i; j + 1 < hops.size(); ++j) {
              if (!is_p2c(view, ids[j], ids[j + 1])) break;
              local.push_back(static_cast<std::uint64_t>(ids[j]) << 32 | ids[j + 1]);
            }
          }
        }
        return local;
      },
      [](PairList& acc, PairList&& part) {
        acc.insert(acc.end(), part.begin(), part.end());
      });
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  // CSR over the filtered sub-relation: pairs are sorted by (provider,
  // customer), so each row comes out sorted.
  const std::size_t n = interner.size();
  std::vector<std::uint64_t> offsets(n + 1, 0);
  std::vector<NodeId> customers(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ++offsets[(pairs[i] >> 32) + 1];
    customers[i] = static_cast<NodeId>(pairs[i]);
  }
  for (std::size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];

  return closure(interner, [&](NodeId node) {
    return std::span<const NodeId>(customers).subspan(offsets[node],
                                                      offsets[node + 1] - offsets[node]);
  });
}

ConeMap provider_peer_observed_cone(const AsGraph& graph, const paths::PathCorpus& corpus,
                                    std::size_t threads) {
  return provider_peer_observed_cone(graph.freeze(), corpus, threads);
}

ConeMap compute_cone(ConeMethod method, const TopologyView& view,
                     const paths::PathCorpus& corpus, std::size_t threads) {
  switch (method) {
    case ConeMethod::kRecursive: return recursive_cone(view, threads);
    case ConeMethod::kBgpObserved: return bgp_observed_cone(view, corpus, threads);
    case ConeMethod::kProviderPeerObserved:
      return provider_peer_observed_cone(view, corpus, threads);
  }
  throw std::invalid_argument("compute_cone: unknown method");
}

ConeMap compute_cone(ConeMethod method, const AsGraph& graph,
                     const paths::PathCorpus& corpus, std::size_t threads) {
  return compute_cone(method, graph.freeze(), corpus, threads);
}

std::size_t break_provider_cycles(AsGraph& graph, const Degrees& degrees) {
  if (graph.p2c_acyclic()) return 0;
  // Tarjan SCC over the provider->customer digraph of a frozen CSR view;
  // inside each non-trivial SCC, re-orient c2p edges so the higher-ranked
  // endpoint provides, which imposes a strict total order and breaks all
  // cycles without discarding transit evidence.
  const TopologyView view = graph.freeze();
  const std::size_t n = view.node_count();

  std::vector<std::size_t> low(n, 0), disc(n, 0), scc_id(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> stack;
  std::size_t timer = 1, scc_count = 0;

  // Iterative Tarjan to avoid deep recursion on large graphs.
  struct Frame {
    std::size_t node;
    std::size_t child_index;
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (disc[root] != 0) continue;
    std::vector<Frame> frames{{root, 0}};
    while (!frames.empty()) {
      const std::size_t node = frames.back().node;
      if (frames.back().child_index == 0) {
        disc[node] = low[node] = timer++;
        stack.push_back(node);
        on_stack[node] = true;
      }
      const auto customers = view.customers(static_cast<NodeId>(node));
      if (frames.back().child_index < customers.size()) {
        const std::size_t next = customers[frames.back().child_index];
        ++frames.back().child_index;
        if (disc[next] == 0) {
          frames.push_back({next, 0});  // frames.back() invalidated; loop re-reads
        } else if (on_stack[next]) {
          low[node] = std::min(low[node], disc[next]);
        }
        continue;
      }
      if (low[node] == disc[node]) {
        ++scc_count;
        while (true) {
          const std::size_t top = stack.back();
          stack.pop_back();
          on_stack[top] = false;
          scc_id[top] = scc_count;
          if (top == node) break;
        }
      }
      frames.pop_back();
      if (!frames.empty()) {
        low[frames.back().node] = std::min(low[frames.back().node], low[node]);
      }
    }
  }

  const AsnInterner& graph_ids = view.interner();
  std::size_t reoriented = 0;
  for (const Link& link : graph.links()) {
    if (link.type != LinkType::kP2C) continue;
    const NodeId ia = graph_ids.id_of(link.a), ib = graph_ids.id_of(link.b);
    if (scc_id[ia] != scc_id[ib]) continue;
    // Intra-SCC edge: orient toward the ranking.
    const bool a_higher = degrees.rank_of(link.a) < degrees.rank_of(link.b) ||
                          (degrees.rank_of(link.a) == degrees.rank_of(link.b) &&
                           link.a < link.b);
    if (!a_higher) {
      graph.add_p2c(link.b, link.a);
      ++reoriented;
    }
  }
  return reoriented;
}

}  // namespace asrank::core
