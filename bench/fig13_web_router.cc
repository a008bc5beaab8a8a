// Reproduces Fig. 13: L2R vs the (simulated) web routing service, scored
// with the Fig. 14 band-matching methodology: the service returns waypoint
// polylines, waypoints within a 10 m band of the GT path polyline are
// matched, and the covered GT length yields the accuracy.
//
// Paper shape: the web service scores 60-85%, improving with distance and
// showing no region-category pattern; L2R is higher in all settings.

#include <cstdio>

#include "baselines/band_match.h"
#include "baselines/web_router.h"
#include "bench_util.h"
#include "pref/similarity.h"

using namespace l2r;

namespace {

Status RunDataset(const DatasetSpec& spec) {
  L2R_ASSIGN_OR_RETURN(const BuiltDataset built, BuildDataset(spec));
  const RoadNetwork& net = built.world.net;
  std::printf("\n[%s] %zu vertices, %zu train / %zu test\n",
              spec.name.c_str(), net.NumVertices(),
              built.split.train.size(), built.split.test.size());

  L2ROptions options;
  L2R_ASSIGN_OR_RETURN(const std::unique_ptr<L2RRouter> l2r,
                       L2RRouter::Build(&net, built.split.train, options));
  L2RQueryContext ctx = l2r->MakeContext();
  WebRouter web(net);

  const auto queries =
      BuildQueries(net, built.split.test, bench::BenchQueries());

  struct Accum {
    double l2r = 0;
    double web = 0;
    size_t n = 0;
  };
  std::vector<Accum> by_dist(spec.buckets.size());
  std::vector<Accum> by_region(kNumRegionCategories);
  for (const QueryCase& q : queries) {
    auto l2r_route = l2r->Route(&ctx, q.s, q.d, q.departure_time);
    auto web_route = web.Route(q.s, q.d);
    if (!l2r_route.ok() || !web_route.ok()) continue;
    const double sim_l2r =
        PathSimilarity(net, q.gt_path, l2r_route->path.vertices);
    const double sim_web =
        PolylineBandSimilarity(net, q.gt_path, web_route->polyline, 10.0);
    const size_t db = spec.buckets.BucketOf(q.gt_length_m);
    const size_t rb = static_cast<size_t>(CategorizeQuery(*l2r, q));
    for (Accum* acc : {&by_dist[db], &by_region[rb]}) {
      acc->l2r += sim_l2r;
      acc->web += sim_web;
      ++acc->n;
    }
  }

  std::printf("%-14s %8s %8s %9s\n", "bucket", "L2R", "Web", "queries");
  for (size_t b = 0; b < spec.buckets.size(); ++b) {
    const Accum& a = by_dist[b];
    if (a.n == 0) continue;
    std::printf("%-14s %7.1f%% %7.1f%% %9zu\n",
                spec.buckets.LabelOf(b).c_str(), 100 * a.l2r / a.n,
                100 * a.web / a.n, a.n);
  }
  for (int c = 0; c < kNumRegionCategories; ++c) {
    const Accum& a = by_region[c];
    if (a.n == 0) continue;
    std::printf("%-14s %7.1f%% %7.1f%% %9zu\n",
                RegionCategoryName(static_cast<RegionCategory>(c)),
                100 * a.l2r / a.n, 100 * a.web / a.n, a.n);
  }
  return Status::OK();
}

}  // namespace

int main() {
  std::printf("=== Fig. 13: Comparison with the Web Routing Service ===\n");
  return bench::ExitCode({RunDataset(MetroDataset(bench::BenchScale())),
                          RunDataset(CityDataset(bench::BenchScale()))});
}
