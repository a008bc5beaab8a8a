#include "routing/goal_potential.h"

#include <cmath>
#include <memory>

#include "common/parallel.h"

namespace l2r {

namespace {

/// Edge weights read straight from a table's floor array.
struct FloorWeight {
  const std::vector<double>* floor;
  double operator()(EdgeId e) const { return (*floor)[e]; }
};

/// One-to-all costs over `floor` into `ws`: d(source -> v) forward,
/// d(v -> source) in reverse.
void RunOneToAll(const RoadNetwork& net, SearchWorkspace& ws,
                 VertexId source, const std::vector<double>& floor,
                 bool reverse) {
  if (reverse) {
    RunSearchKernel<ReverseExpand>(net, ws, source, FloorWeight{&floor},
                                   NeverStop{});
  } else {
    RunSearchKernel<ForwardExpand>(net, ws, source, FloorWeight{&floor},
                                   NeverStop{});
  }
}

/// Farthest-point selection on graph distances over `floor`: the first
/// landmark is the vertex farthest from vertex 0, each next one the vertex
/// farthest from every landmark picked so far (smallest id on ties;
/// unreached vertices are skipped). It spreads the landmarks over the
/// periphery, where ALT bounds are tightest.
std::vector<VertexId> SelectLandmarks(const RoadNetwork& net,
                                      const std::vector<double>& floor) {
  const size_t n = net.NumVertices();
  std::vector<VertexId> out;
  if (n == 0) return out;
  // The reached vertex with the largest positive `dist`, if any.
  auto farthest = [n](const auto& dist) {
    VertexId best = kInvalidVertex;
    double best_d = 0;
    for (VertexId v = 0; v < n; ++v) {
      const double d = dist(v);
      if (d < kInfCost && d > best_d) {
        best = v;
        best_d = d;
      }
    }
    return best;
  };
  SearchWorkspace ws(n);
  RunOneToAll(net, ws, 0, floor, /*reverse=*/false);
  VertexId next = farthest([&](VertexId v) { return ws.DistTo(v); });
  std::vector<double> nearest(n, kInfCost);
  while (next != kInvalidVertex) {
    out.push_back(next);
    if (out.size() == LandmarkTable::kNumLandmarks) break;
    RunOneToAll(net, ws, next, floor, /*reverse=*/false);
    for (VertexId v = 0; v < n; ++v) {
      nearest[v] = std::min(nearest[v], ws.DistTo(v));
    }
    next = farthest([&](VertexId v) { return nearest[v]; });
  }
  return out;
}

}  // namespace

void AttachGoalPotentials(const RoadNetwork& net,
                          std::span<const std::vector<EdgeWeights*>> groups,
                          unsigned num_threads) {
  if (groups.empty()) return;
  const size_t n = net.NumVertices();
  std::vector<std::shared_ptr<LandmarkTable>> tables;
  for (const std::vector<EdgeWeights*>& group : groups) {
    L2R_CHECK(!group.empty());
    auto table = std::make_shared<LandmarkTable>();
    table->floor.assign(net.NumEdges(), kInfCost);
    for (const EdgeWeights* w : group) {
      L2R_CHECK(w->size() == net.NumEdges());
      for (EdgeId e = 0; e < net.NumEdges(); ++e) {
        table->floor[e] = std::min(table->floor[e], (*w)[e]);
      }
    }
    tables.push_back(std::move(table));
  }
  const std::vector<VertexId> landmarks =
      SelectLandmarks(net, tables.front()->floor);
  const size_t k = landmarks.size();
  for (const auto& table : tables) {
    table->landmarks = landmarks;
    table->dist.assign(n * 2 * k, kInfCost);
  }

  // Job j: group j / (2k), landmark (j / 2) % k, forward (even) or
  // reverse (odd). Each job writes its own column of its group's table.
  ParallelForWorker(
      groups.size() * 2 * k,
      [n]() { return std::make_unique<SearchWorkspace>(n); },
      [&](std::unique_ptr<SearchWorkspace>& ws, size_t j) {
        LandmarkTable& table = *tables[j / (2 * k)];
        const size_t i = (j / 2) % k;
        const bool reverse = j % 2 == 1;
        RunOneToAll(net, *ws, landmarks[i], table.floor, reverse);
        const size_t column = reverse ? k + i : i;
        for (VertexId v = 0; v < n; ++v) {
          table.dist[v * 2 * k + column] = ws->DistTo(v);
        }
      },
      num_threads);

  for (size_t g = 0; g < groups.size(); ++g) {
    // Round-off slack: far above the error of any table sum, far below
    // any edge weight that matters for pruning.
    double max_dist = 0;
    for (const double d : tables[g]->dist) {
      if (std::isfinite(d)) max_dist = std::max(max_dist, d);
    }
    tables[g]->slack = 1e-9 * max_dist;
    const std::shared_ptr<const LandmarkTable> table = std::move(tables[g]);
    for (EdgeWeights* w : groups[g]) w->AttachPotential(net, table);
  }
}

}  // namespace l2r
