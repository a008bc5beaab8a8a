// Quickstart: generate a small city world with local-driver trajectories,
// build the learn-to-route (L2R) engine, and route a few queries —
// comparing L2R's answers against the paths local drivers actually took
// and against plain fastest-path routing.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/l2r.h"
#include "eval/datasets.h"
#include "pref/similarity.h"
#include "routing/dijkstra.h"

using namespace l2r;  // NOLINT — example code

int main() {
  // 1. A small synthetic city + trajectory workload (stands in for the
  //    paper's OSM network + GPS data; see README "Synthetic stand-ins").
  DatasetSpec spec = CityDataset(/*traj_scale=*/0.2);  // ~2000 trajectories
  spec.name = "quickstart-city";
  std::printf("Generating world '%s'...\n", spec.name.c_str());
  auto built = BuildDataset(spec);
  if (!built.ok()) {
    std::fprintf(stderr, "dataset: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const RoadNetwork& net = built->world.net;
  std::printf("  network: %zu vertices, %zu edges\n", net.NumVertices(),
              net.NumEdges());
  std::printf("  trajectories: %zu train, %zu test\n",
              built->split.train.size(), built->split.test.size());

  // 2. Build the L2R engine from the training trajectories.
  L2ROptions options;
  auto router = L2RRouter::Build(&net, built->split.train, options);
  if (!router.ok()) {
    std::fprintf(stderr, "build: %s\n", router.status().ToString().c_str());
    return 1;
  }
  const L2RBuildReport& report = (*router)->build_report();
  for (int p = 0; p < kNumTimePeriods; ++p) {
    const auto& rep = report.period[p];
    if (rep.trajectories == 0) continue;
    std::printf(
        "  [%s] %zu trajs -> %zu regions, %zu T-edges, %zu B-edges "
        "(null-rate %.1f%%)\n",
        p == 0 ? "off-peak" : "peak", rep.trajectories, rep.num_regions,
        rep.num_t_edges, rep.num_b_edges, 100 * rep.transfer_null_rate);
  }

  // 3. Route the first few test queries and compare with ground truth.
  L2RQueryContext ctx = (*router)->MakeContext();
  DijkstraSearch fastest(net);
  const EdgeWeights tt(net, CostFeature::kTravelTime, TimePeriod::kOffPeak);

  std::printf("\n%6s %6s %10s %12s %12s\n", "src", "dst", "method",
              "L2R pSim", "Fastest pSim");
  int shown = 0;
  for (const MatchedTrajectory& t : built->split.test) {
    if (shown >= 8 || t.path.size() < 10) continue;
    const VertexId s = t.path.front();
    const VertexId d = t.path.back();
    auto l2r_route = (*router)->Route(&ctx, s, d, t.departure_time);
    auto fast_route = fastest.ShortestPath(s, d, tt);
    if (!l2r_route.ok() || !fast_route.ok()) continue;
    const double sim_l2r =
        PathSimilarity(net, t.path, l2r_route->path.vertices);
    const double sim_fast = PathSimilarity(net, t.path, fast_route->vertices);
    const char* method =
        l2r_route->method == RouteMethod::kInnerRegionPopular ? "inner"
        : l2r_route->method == RouteMethod::kRegionGraph      ? "region"
        : l2r_route->method == RouteMethod::kPreferenceRoute  ? "preference"
                                                              : "fallback";
    std::printf("%6u %6u %10s %11.1f%% %11.1f%%\n", s, d, method,
                100 * sim_l2r, 100 * sim_fast);
    ++shown;
  }
  if (shown == 0) {
    std::fprintf(stderr, "no query routed\n");
    return 1;
  }

  std::printf("\nDone. L2R routes follow local-driver behaviour; fastest "
              "paths often do not.\n");
  return 0;
}
