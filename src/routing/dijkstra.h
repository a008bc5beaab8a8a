#ifndef L2R_ROUTING_DIJKSTRA_H_
#define L2R_ROUTING_DIJKSTRA_H_

#include <limits>
#include <vector>

#include "common/result.h"
#include "roadnet/weights.h"
#include "routing/path.h"
#include "routing/search_kernel.h"

namespace l2r {

/// Dijkstra's algorithm with a reusable workspace: distance/parent arrays
/// are stamped per query so repeated queries on the same network do no O(n)
/// clearing. Not thread-safe; use one instance per thread.
///
/// The hot loop lives in routing/search_kernel.h; the templated RunUntilT /
/// RunUntilReverseT entry points compile the stop predicate into the loop.
class DijkstraSearch {
 public:
  explicit DijkstraSearch(const RoadNetwork& net)
      : net_(net), ws_(net.NumVertices()) {}

  const RoadNetwork& net() const { return net_; }

  /// Single-pair shortest path under `w`. NotFound if `t` is unreachable.
  /// Goal-directed when `w` carries a potential (routing/goal_potential.h);
  /// the route is the same either way.
  Result<Path> ShortestPath(VertexId s, VertexId t, const EdgeWeights& w);

  /// Single-pair shortest path under an arbitrary weight functor
  /// `weight(EdgeId) -> double` (positive). Lets callers with derived
  /// per-edge costs (e.g. personalized road-type scalings) search without
  /// materializing an EdgeWeights array per query. Plain Dijkstra: a
  /// functor carries no potential.
  template <typename WeightFn>
  Result<Path> ShortestPathW(VertexId s, VertexId t, const WeightFn& weight) {
    if (s >= net_.NumVertices() || t >= net_.NumVertices()) {
      return Status::InvalidArgument("vertex id out of range");
    }
    reverse_ = false;
    const VertexId hit = RunSearchKernel<ForwardExpand>(
        net_, ws_, s, weight, [t](VertexId v) { return v == t; });
    if (hit != t) {
      return Status::NotFound("no path " + std::to_string(s) + "->" +
                              std::to_string(t));
    }
    return ExtractPath(t);
  }

  /// Runs from `s` until `stop(v)` returns true for a settled vertex or the
  /// cost bound is exceeded. Returns the stopping vertex (kInvalidVertex if
  /// none). After the call the workspace holds distances for all settled
  /// vertices; use DistTo/Reached/ExtractPath.
  template <typename StopFn>
  VertexId RunUntilT(VertexId s, const EdgeWeights& w, const StopFn& stop,
                     double max_cost = kInfCost) {
    reverse_ = false;
    return RunSearchKernel<ForwardExpand>(net_, ws_, s, ArrayWeight{&w},
                                          stop, max_cost);
  }

  /// One-to-all within `max_cost`.
  void RunBounded(VertexId s, const EdgeWeights& w, double max_cost) {
    RunUntilT(s, w, NeverStop{}, max_cost);
  }

  /// Like RunUntilT but searching backward over in-edges from `d`: DistTo(v)
  /// then holds the cost of the forward path v -> d. Use ExtractReversePath
  /// to materialize it.
  template <typename StopFn>
  VertexId RunUntilReverseT(VertexId d, const EdgeWeights& w,
                            const StopFn& stop, double max_cost = kInfCost) {
    reverse_ = true;
    return RunSearchKernel<ReverseExpand>(net_, ws_, d, ArrayWeight{&w},
                                          stop, max_cost);
  }

  /// Path v -> ... -> d (forward orientation) after RunUntilReverseT.
  Path ExtractReversePath(VertexId v) const;

  /// Valid after RunUntilT/RunBounded (or a successful ShortestPath).
  bool Reached(VertexId v) const { return ws_.Reached(v); }
  double DistTo(VertexId v) const { return ws_.DistTo(v); }
  /// Path from the last query's source to `v` (v must be reached).
  Path ExtractPath(VertexId v) const;

  /// Number of vertices settled by the last query (work measure).
  size_t LastSettledCount() const { return ws_.settled_count; }
  /// Settles accumulated over this instance's lifetime — deltas around a
  /// call sequence give its deterministic total work (budget calibration,
  /// repair cost accounting).
  uint64_t LifetimeSettles() const { return ws_.lifetime_settles; }

 private:
  const RoadNetwork& net_;
  bool reverse_ = false;
  SearchWorkspace ws_;
};

/// Convenience single-shot wrapper (allocates a workspace).
Result<Path> ShortestPath(const RoadNetwork& net, VertexId s, VertexId t,
                          const EdgeWeights& w);

}  // namespace l2r

#endif  // L2R_ROUTING_DIJKSTRA_H_
