// Sparse transfer: the paper's core contribution in isolation. We
// deliberately thin the trajectory set so many region pairs have no
// trajectories (B-edges), then show how preferences learned on T-edges
// are transferred across similar region pairs and used to route between
// regions that no trajectory ever connected (the paper's Case 3).
//
//   ./build/examples/sparse_transfer

#include <cstdio>

#include "core/l2r.h"
#include "eval/datasets.h"
#include "pref/similarity.h"

using namespace l2r;  // NOLINT — example code

int main() {
  // A sparse workload: few trajectories relative to the city size.
  DatasetSpec spec = CityDataset(/*traj_scale=*/0.08);
  spec.traj.hotspot_fraction = 0.8;  // concentrate coverage on few corridors
  std::printf("Building sparse workload (%zu trajectories)...\n",
              spec.traj.num_trajectories);
  auto built = BuildDataset(spec);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 1;
  }
  const RoadNetwork& net = built->world.net;

  L2ROptions options;
  auto router = L2RRouter::Build(&net, built->split.train, options);
  if (!router.ok()) {
    std::fprintf(stderr, "%s\n", router.status().ToString().c_str());
    return 1;
  }

  const RegionGraph& graph = (*router)->region_graph(TimePeriod::kOffPeak);
  const auto& prefs = (*router)->edge_preferences(TimePeriod::kOffPeak);
  const auto& space = (*router)->feature_space();

  std::printf("\nRegion graph: %zu regions, %zu T-edges, %zu B-edges\n",
              graph.NumRegions(), graph.NumTEdges(), graph.NumBEdges());

  // Show transferred preferences on a few B-edges.
  std::printf("\nTransferred preferences on B-edges (no trajectories ever "
              "connected these region pairs):\n");
  int shown = 0;
  size_t with_paths = 0;
  for (uint32_t e = 0; e < graph.NumEdges(); ++e) {
    const RegionEdge& edge = graph.edge(e);
    if (edge.is_t_edge) continue;
    if (!edge.b_paths.empty()) ++with_paths;
    if (shown < 8 && prefs[e].has_value()) {
      std::printf("  B-edge R%u -> R%u: %s, %zu path(s) attached\n",
                  edge.from, edge.to,
                  PreferenceName(*prefs[e], space).c_str(),
                  edge.b_paths.size());
      ++shown;
    }
  }
  std::printf("B-edges with attached paths: %zu of %zu\n", with_paths,
              graph.NumBEdges());

  // Route across a B-edge: endpoints in regions that only B-edges connect.
  std::printf("\nRouting across uncovered region pairs:\n");
  L2RQueryContext ctx = (*router)->MakeContext();
  int routed = 0;
  for (uint32_t e = 0; e < graph.NumEdges() && routed < 5; ++e) {
    const RegionEdge& edge = graph.edge(e);
    if (edge.is_t_edge || edge.b_paths.empty()) continue;
    const VertexId s = graph.region(edge.from).members.front();
    const VertexId d = graph.region(edge.to).members.back();
    if (s == d) continue;
    auto route = (*router)->Route(&ctx, s, d, 12 * 3600);
    if (!route.ok()) continue;
    const char* method =
        route->method == RouteMethod::kRegionGraph       ? "region-graph"
        : route->method == RouteMethod::kPreferenceRoute ? "preference"
        : route->method == RouteMethod::kInnerRegionPopular ? "inner"
                                                            : "fastest";
    std::printf("  %u -> %u (R%u -> R%u): %zu vertices via %s\n", s, d,
                edge.from, edge.to, route->path.vertices.size(), method);
    ++routed;
  }
  std::printf("\nWithout the transfer step these queries would only have "
              "cost-centric answers; with it they reuse preferences from "
              "similar, trajectory-covered region pairs.\n");
  return 0;
}
