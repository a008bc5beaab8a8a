// Engine microbenchmarks (google-benchmark): the substrate operations the
// reproduction is built on. Not a paper figure; used to watch for
// performance regressions in the hot paths.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "linalg/solvers.h"
#include "mapmatch/hmm_matcher.h"
#include "region/clustering.h"
#include "region/trajectory_graph.h"
#include "roadnet/generator.h"
#include "routing/dijkstra.h"
#include "routing/goal_potential.h"
#include "traj/driver_model.h"
#include "traj/generator.h"

namespace l2r {
namespace {

const GeneratedNetwork& World() {
  static const GeneratedNetwork* world = [] {
    NetworkGenConfig config;
    config.city_width_m = 12000;
    config.city_height_m = 9000;
    config.block_spacing_m = 300;
    config.seed = 9;
    auto gen = GenerateNetwork(config);
    L2R_CHECK(gen.ok());
    return new GeneratedNetwork(std::move(gen).value());
  }();
  return *world;
}

const TrajectoryDataset& Workload() {
  static const TrajectoryDataset* data = [] {
    const DriverModel model(&World(), 10);
    TrajectoryGenConfig config;
    config.num_trajectories = 1500;
    config.seed = 11;
    config.emit_gps = true;
    config.sample_interval_s = 5;
    const TrajectoryGenerator gen(&World(), &model);
    auto out = gen.Generate(config);
    L2R_CHECK(out.ok());
    return new TrajectoryDataset(std::move(out).value());
  }();
  return *data;
}

void BM_Dijkstra(benchmark::State& state) {
  const RoadNetwork& net = World().net;
  const EdgeWeights w(net, CostFeature::kTravelTime, TimePeriod::kOffPeak);
  DijkstraSearch search(net);
  Rng rng(21);
  for (auto _ : state) {
    const VertexId s = static_cast<VertexId>(rng.Index(net.NumVertices()));
    const VertexId t = static_cast<VertexId>(rng.Index(net.NumVertices()));
    benchmark::DoNotOptimize(search.ShortestPath(s, t, w));
  }
}
BENCHMARK(BM_Dijkstra);

/// DijkstraSearch::ShortestPath on distance weights, without (arg 0) and
/// with (arg 1) the goal-directed potential of routing/goal_potential.h.
void BM_ShortestPathPotential(benchmark::State& state) {
  const RoadNetwork& net = World().net;
  EdgeWeights w(net, CostFeature::kDistance, TimePeriod::kOffPeak);
  if (state.range(0) != 0) {
    const std::vector<std::vector<EdgeWeights*>> groups = {{&w}};
    AttachGoalPotentials(net, groups);
  }
  DijkstraSearch search(net);
  Rng rng(22);
  for (auto _ : state) {
    const VertexId s = static_cast<VertexId>(rng.Index(net.NumVertices()));
    const VertexId t = static_cast<VertexId>(rng.Index(net.NumVertices()));
    benchmark::DoNotOptimize(search.ShortestPath(s, t, w));
  }
}
BENCHMARK(BM_ShortestPathPotential)->Arg(0)->Arg(1);

void BM_Clustering(benchmark::State& state) {
  const RoadNetwork& net = World().net;
  auto tg = TrajectoryGraph::Build(net, Workload().matched);
  L2R_CHECK(tg.ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(BottomUpClustering(*tg, net.NumVertices()));
  }
}
BENCHMARK(BM_Clustering);

void BM_ConjugateGradient(benchmark::State& state) {
  // Laplacian-like SPD system of 2000 unknowns.
  Rng rng(31);
  const size_t n = 2000;
  std::vector<Triplet> triplets;
  std::vector<double> degree(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (int k = 0; k < 8; ++k) {
      const uint32_t j = static_cast<uint32_t>(rng.Index(n));
      if (j == i) continue;
      const double v = rng.Uniform(0.1, 1.0);
      triplets.push_back({static_cast<uint32_t>(i), j, -v});
      degree[i] += v;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    triplets.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(i),
                        degree[i] + 1.0});
  }
  const SparseMatrix a = SparseMatrix::FromTriplets(n, std::move(triplets));
  std::vector<double> b(n);
  for (auto& v : b) v = rng.Uniform(-1, 1);
  std::vector<double> x;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ConjugateGradient(a, b, &x));
  }
}
BENCHMARK(BM_ConjugateGradient);

void BM_HmmMapMatch(benchmark::State& state) {
  const RoadNetwork& net = World().net;
  static const SpatialGrid* grid = new SpatialGrid(net, 250);
  const HmmMapMatcher matcher(net, *grid);
  const auto& gps = Workload().gps;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.Match(gps[i % gps.size()]));
    ++i;
  }
}
BENCHMARK(BM_HmmMapMatch);

void BM_SpatialGridNearest(benchmark::State& state) {
  const RoadNetwork& net = World().net;
  static const SpatialGrid* grid = new SpatialGrid(net, 250);
  Rng rng(41);
  const BoundingBox& bb = net.bounds();
  for (auto _ : state) {
    const Point p(rng.Uniform(bb.min.x, bb.max.x),
                  rng.Uniform(bb.min.y, bb.max.y));
    benchmark::DoNotOptimize(grid->NearestVertex(p));
  }
}
BENCHMARK(BM_SpatialGridNearest);

}  // namespace
}  // namespace l2r

BENCHMARK_MAIN();
