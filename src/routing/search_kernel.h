#ifndef L2R_ROUTING_SEARCH_KERNEL_H_
#define L2R_ROUTING_SEARCH_KERNEL_H_

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "common/indexed_heap.h"
#include "roadnet/road_network.h"
#include "roadnet/weights.h"

/// Header-only search kernel shared by the Dijkstra family
/// (DijkstraSearch, PreferenceDijkstra).
/// The direction, weight accessor, stop predicate, heap key and edge
/// admission policy are template parameters, so the relaxation loop
/// compiles to direct calls — no std::function indirection on the hot
/// path. The non-template classes in dijkstra.h etc. stay as thin
/// wrappers over this kernel so existing call sites keep compiling.
///
/// Canonical parents: among the tight in-edges of a vertex (those through
/// which it reaches its final distance) the kernel keeps the one with the
/// smallest EdgeId, whatever order they were relaxed in. A route is then
/// a function of the distances, not of heap pop order, which is what lets
/// a goal-directed search (routing/goal_potential.h) return exactly the
/// route plain Dijkstra returns.

namespace l2r {

inline constexpr double kInfCost = std::numeric_limits<double>::infinity();

/// Reusable per-search scratch: label arrays are stamped per query so
/// repeated queries on the same network do no O(n) clearing. The heap is
/// sized exactly once, at construction, from the vertex count; BeginQuery
/// asserts the invariant instead of silently growing mid-query.
struct SearchWorkspace {
  explicit SearchWorkspace(size_t num_vertices)
      : dist(num_vertices, kInfCost),
        parent_edge(num_vertices, kInvalidEdge),
        stamp(num_vertices, 0),
        heap(num_vertices) {}

  /// Opens a new query: bumps the stamp (hard reset on wrap) and clears
  /// the heap.
  void BeginQuery() {
    L2R_DCHECK(heap.capacity() == stamp.size());
    ++current_stamp;
    if (current_stamp == 0) {  // stamp wrap: hard reset
      std::fill(stamp.begin(), stamp.end(), 0);
      current_stamp = 1;
    }
    heap.Clear();
    settled_count = 0;
  }

  bool Reached(VertexId v) const {
    return stamp[v] == current_stamp && dist[v] < kInfCost;
  }
  double DistTo(VertexId v) const {
    return stamp[v] == current_stamp ? dist[v] : kInfCost;
  }

  std::vector<double> dist;
  std::vector<EdgeId> parent_edge;
  std::vector<uint32_t> stamp;
  uint32_t current_stamp = 0;
  IndexedMinHeap<double> heap;
  size_t settled_count = 0;
  /// Settles accumulated over the workspace's lifetime (across queries) —
  /// the deterministic work measure behind DeadlineBudget calibration and
  /// the repair-vs-recompute cost curve (world/route_repairer.h).
  uint64_t lifetime_settles = 0;
};

/// Direction policies: which adjacency list to scan and which endpoint a
/// relaxed edge labels. Selecting the direction at compile time removes
/// the per-edge branch the old runtime `reverse_` flag paid.
struct ForwardExpand {
  static std::span<const EdgeId> Edges(const RoadNetwork& net, VertexId u) {
    return net.OutEdges(u);
  }
  static VertexId Head(const RoadNetwork& net, EdgeId e) {
    return net.edge(e).to;
  }
};
struct ReverseExpand {
  static std::span<const EdgeId> Edges(const RoadNetwork& net, VertexId u) {
    return net.InEdges(u);
  }
  static VertexId Head(const RoadNetwork& net, EdgeId e) {
    return net.edge(e).from;
  }
};

/// Weight accessor over a precomputed EdgeWeights array (the common case).
struct ArrayWeight {
  const EdgeWeights* w;
  double operator()(EdgeId e) const { return (*w)[e]; }
};

/// Default customization points.
struct NeverStop {
  bool operator()(VertexId) const { return false; }
};
/// Plain Dijkstra key: the heap priority is the tentative distance.
struct DistanceKey {
  double operator()(VertexId, double g) const { return g; }
};
/// Admission policy that explores every edge. Stateful policies (e.g. the
/// slave-preference filter of Algorithm 2) implement the same two methods.
struct ExploreAll {
  void BeginVertex(VertexId) {}
  bool ShouldExplore(EdgeId) const { return true; }
};
/// Relaxes every admitted edge of `u` (settled at distance `du`): creates
/// or improves labels and pushes heap entries keyed by `key(x, g)`. An
/// equal-distance
/// relaxation keeps the parent with the smaller EdgeId (the canonical
/// parent rule above); `du < nd` keeps parent chains strictly decreasing
/// in distance, so they stay acyclic even where an edge weight vanishes in
/// round-off. Shared by RunSearchKernel and SettleKeysUpTo.
template <typename Expand, typename WeightFn, typename KeyFn,
          typename Explore>
inline void RelaxVertex(const RoadNetwork& net, SearchWorkspace& ws,
                        VertexId u, double du, const WeightFn& weight,
                        const KeyFn& key, Explore& explore) {
  explore.BeginVertex(u);
  for (const EdgeId e : Expand::Edges(net, u)) {
    if (!explore.ShouldExplore(e)) continue;
    const VertexId x = Expand::Head(net, e);
    const double nd = du + weight(e);
    // Closed edges (dynamic world, world/update_channel.h) carry kInfCost:
    // never label through them, so closures are invisible to extraction
    // and a closed-off destination reports NotFound instead of an
    // infinite-cost path.
    if (nd == kInfCost) continue;
    if (ws.stamp[x] != ws.current_stamp) {
      ws.stamp[x] = ws.current_stamp;
      ws.dist[x] = nd;
      ws.parent_edge[x] = e;
      ws.heap.Push(x, key(x, nd));
    } else if (nd < ws.dist[x]) {
      ws.dist[x] = nd;
      ws.parent_edge[x] = e;
      ws.heap.PushOrUpdate(x, key(x, nd));
    } else if (nd == ws.dist[x] && e < ws.parent_edge[x] && du < nd) {
      ws.parent_edge[x] = e;
    }
  }
}

/// Runs a best-first search from `s` until `stop(v)` fires on a settled
/// vertex or the popped heap key exceeds `max_key`. Returns the stopping
/// vertex, or kInvalidVertex when the search exhausts/overruns the bound.
/// After the call the workspace holds labels for all settled vertices.
template <typename Expand, typename WeightFn, typename StopFn,
          typename KeyFn = DistanceKey, typename Explore = ExploreAll>
inline VertexId RunSearchKernel(const RoadNetwork& net, SearchWorkspace& ws,
                                VertexId s, const WeightFn& weight,
                                const StopFn& stop, double max_key = kInfCost,
                                const KeyFn& key = {}, Explore explore = {}) {
  L2R_CHECK(s < net.NumVertices());
  ws.BeginQuery();
  ws.stamp[s] = ws.current_stamp;
  ws.dist[s] = 0;
  ws.parent_edge[s] = kInvalidEdge;
  ws.heap.Push(s, key(s, 0.0));
  while (!ws.heap.empty()) {
    const auto [u, ku] = ws.heap.Pop();
    if (ku > max_key) return kInvalidVertex;
    ++ws.settled_count;
    ++ws.lifetime_settles;
    if (stop(u)) return u;
    RelaxVertex<Expand>(net, ws, u, ws.dist[u], weight, key, explore);
  }
  return kInvalidVertex;
}

/// Settles every heap entry whose key is <= `bound`, relaxing as usual.
/// Goal-directed single-target searches call it with bound = d(s, t) once
/// t is reached (see RunToTarget in routing/goal_potential.h).
template <typename Expand, typename WeightFn, typename KeyFn,
          typename Explore>
inline void SettleKeysUpTo(const RoadNetwork& net, SearchWorkspace& ws,
                           double bound, const WeightFn& weight,
                           const KeyFn& key, Explore explore) {
  while (!ws.heap.empty() && ws.heap.Top().second <= bound) {
    const VertexId u = ws.heap.Pop().first;
    ++ws.settled_count;
    ++ws.lifetime_settles;
    RelaxVertex<Expand>(net, ws, u, ws.dist[u], weight, key, explore);
  }
}

/// Follows parent edges from `v` back to the source of the last forward
/// query, returning source -> ... -> v.
inline std::vector<VertexId> ExtractForwardVertices(const RoadNetwork& net,
                                                    const SearchWorkspace& ws,
                                                    VertexId v) {
  std::vector<VertexId> out;
  VertexId cur = v;
  while (true) {
    out.push_back(cur);
    const EdgeId pe = ws.parent_edge[cur];
    if (pe == kInvalidEdge) break;
    cur = net.edge(pe).from;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

/// Follows parent edges from `v` toward the seed of the last reverse
/// query, returning the forward-oriented path v -> ... -> seed.
inline std::vector<VertexId> ExtractReverseVertices(const RoadNetwork& net,
                                                    const SearchWorkspace& ws,
                                                    VertexId v) {
  std::vector<VertexId> out;
  VertexId cur = v;
  while (true) {
    out.push_back(cur);
    const EdgeId pe = ws.parent_edge[cur];
    if (pe == kInvalidEdge) break;
    cur = net.edge(pe).to;  // reverse runs relax via in-edges
  }
  return out;
}

}  // namespace l2r

#endif  // L2R_ROUTING_SEARCH_KERNEL_H_
