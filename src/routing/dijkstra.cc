#include "routing/dijkstra.h"

#include "routing/goal_potential.h"

namespace l2r {

Result<Path> DijkstraSearch::ShortestPath(VertexId s, VertexId t,
                                          const EdgeWeights& w) {
  if (s >= net_.NumVertices() || t >= net_.NumVertices()) {
    return Status::InvalidArgument("vertex id out of range");
  }
  reverse_ = false;
  const GoalPotential potential(net_, w, t);
  const VertexId hit =
      RunToTarget(net_, ws_, s, t, ArrayWeight{&w}, potential,
                  [t](VertexId v) { return v == t; });
  if (hit != t) {
    return Status::NotFound("no path " + std::to_string(s) + "->" +
                            std::to_string(t));
  }
  return ExtractPath(t);
}

Path DijkstraSearch::ExtractPath(VertexId v) const {
  L2R_CHECK(Reached(v));
  L2R_CHECK(!reverse_);
  Path path;
  path.cost = ws_.dist[v];
  path.vertices = ExtractForwardVertices(net_, ws_, v);
  return path;
}

Path DijkstraSearch::ExtractReversePath(VertexId v) const {
  L2R_CHECK(Reached(v));
  L2R_CHECK(reverse_);
  Path path;
  path.cost = ws_.dist[v];
  path.vertices = ExtractReverseVertices(net_, ws_, v);
  return path;
}

Result<Path> ShortestPath(const RoadNetwork& net, VertexId s, VertexId t,
                          const EdgeWeights& w) {
  DijkstraSearch search(net);
  return search.ShortestPath(s, t, w);
}

}  // namespace l2r
