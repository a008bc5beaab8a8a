// Reproduces Figs. 10-13 from one build of L2R and its baselines per
// dataset (Metro, then City), all scored on the same held-out queries:
//
// - Fig. 10: accuracy under the Eq. 1 path similarity;
// - Fig. 11: accuracy under the Eq. 4 (Jaccard) path similarity;
// - Fig. 12: online running time per query;
//
// each of L2R vs Shortest / Fastest / Dom / TRIP, bucketed by trip
// distance and by region category, plus an `overall` row; then
//
// - Fig. 13: L2R vs the (simulated) web routing service, scored with the
//   Fig. 14 band-matching methodology: the service returns waypoint
//   polylines, waypoints within a 10 m band of the GT path polyline are
//   matched, and the covered GT length yields the accuracy.
//
// Paper shape: L2R highest everywhere and improving with distance;
// Shortest degrades with distance; Fastest ~Shortest on short trips and
// much better on long ones; Dom best baseline; TRIP slightly above
// Fastest; Eq. 4 keeps Eq. 1's ordering with slightly lower numbers.
// Online, L2R is fastest (it searches the small region graph), Dom much
// slower (multi-objective skyline), TRIP comparable to Shortest/Fastest.
// The web service scores 60-85%, improving with distance, below L2R in
// all settings.

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/band_match.h"
#include "baselines/web_router.h"
#include "bench_util.h"
#include "eval/comparison.h"
#include "pref/similarity.h"

using namespace l2r;

namespace {

struct Metric {
  const char* figure;
  const char* name;
  double (*value)(const BucketStats&);
};

constexpr Metric kMetrics[] = {
    {"Fig. 10", "accuracy %, Eq. 1",
     [](const BucketStats& b) { return b.mean_accuracy_eq1; }},
    {"Fig. 11", "accuracy %, Eq. 4",
     [](const BucketStats& b) { return b.mean_accuracy_eq4; }},
    {"Fig. 12", "mean query time, ms",
     [](const BucketStats& b) { return b.mean_query_ms; }},
};

void PrintMetricTables(const std::string& dataset, const Metric& metric,
                       const std::vector<RouterEval>& evals) {
  const std::string title = std::string(metric.figure) + " — " + dataset;
  PrintComparisonTable(
      title + ", by distance (km)", evals,
      [](const RouterEval& ev) -> const std::vector<BucketStats>& {
        return ev.by_distance;
      },
      metric.value, metric.name);
  PrintComparisonTable(
      title + ", by region category", evals,
      [](const RouterEval& ev) -> const std::vector<BucketStats>& {
        return ev.by_region;
      },
      metric.value, metric.name);
  std::printf("%-14s", "overall");
  for (const RouterEval& ev : evals) {
    std::printf("%12.1f", metric.value(ev.overall));
  }
  std::printf("%10zu\n", evals.front().overall.queries);
}

// Fig. 13 on the comparison's own L2R and queries. A query counts only
// where both L2R and the web service return a route.
void PrintWebComparison(const ComparisonSetup& setup) {
  const RoadNetwork& net = setup.data.world.net;
  const DistanceBuckets& buckets = setup.spec.buckets;
  L2RQueryContext ctx = setup.l2r->MakeContext();
  WebRouter web(net);

  struct Accum {
    double l2r = 0;
    double web = 0;
    size_t n = 0;
  };
  std::vector<Accum> by_dist(buckets.size());
  std::vector<Accum> by_region(kNumRegionCategories);
  for (const QueryCase& q : setup.queries) {
    auto l2r_route = setup.l2r->Route(&ctx, q.s, q.d, q.departure_time);
    auto web_route = web.Route(q.s, q.d);
    if (!l2r_route.ok() || !web_route.ok()) continue;
    const double sim_l2r =
        PathSimilarity(net, q.gt_path, l2r_route->path.vertices);
    const double sim_web =
        PolylineBandSimilarity(net, q.gt_path, web_route->polyline, 10.0);
    const size_t db = buckets.BucketOf(q.gt_length_m);
    const size_t rb = static_cast<size_t>(CategorizeQuery(*setup.l2r, q));
    for (Accum* acc : {&by_dist[db], &by_region[rb]}) {
      acc->l2r += sim_l2r;
      acc->web += sim_web;
      ++acc->n;
    }
  }

  std::printf("\nFig. 13 — %s, L2R vs web service  [band-match accuracy %%]\n",
              setup.spec.name.c_str());
  std::printf("%-14s %8s %8s %9s\n", "bucket", "L2R", "Web", "queries");
  for (size_t b = 0; b < buckets.size(); ++b) {
    const Accum& a = by_dist[b];
    if (a.n == 0) continue;
    std::printf("%-14s %7.1f%% %7.1f%% %9zu\n", buckets.LabelOf(b).c_str(),
                100 * a.l2r / a.n, 100 * a.web / a.n, a.n);
  }
  for (int c = 0; c < kNumRegionCategories; ++c) {
    const Accum& a = by_region[c];
    if (a.n == 0) continue;
    std::printf("%-14s %7.1f%% %7.1f%% %9zu\n",
                RegionCategoryName(static_cast<RegionCategory>(c)),
                100 * a.l2r / a.n, 100 * a.web / a.n, a.n);
  }
}

Status RunDataset(const DatasetSpec& spec) {
  L2R_ASSIGN_OR_RETURN(auto setup,
                       BuildComparison(spec, bench::BenchQueries()));
  const RoadNetwork& net = setup->data.world.net;
  std::printf("\n[%s] %zu vertices, %zu edges, %zu train / %zu test, "
              "%zu queries\n",
              spec.name.c_str(), net.NumVertices(), net.NumEdges(),
              setup->data.split.train.size(), setup->data.split.test.size(),
              setup->queries.size());
  const std::vector<RouterEval> evals = EvaluateAll(setup.get());
  for (const Metric& metric : kMetrics) {
    PrintMetricTables(spec.name, metric, evals);
  }
  PrintWebComparison(*setup);
  return Status::OK();
}

}  // namespace

int main() {
  std::printf("=== Figs. 10-13: L2R vs baselines and the web service ===\n");
  return bench::ExitCode({RunDataset(MetroDataset(bench::BenchScale())),
                          RunDataset(CityDataset(bench::BenchScale()))});
}
