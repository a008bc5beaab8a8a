// Reproduces Table IV: region sizes — the number of regions whose
// convex-hull area falls in each bucket, and the maximum hull diameter per
// bucket. Paper shape: the vast majority of regions are small (< 2 km^2);
// a few large regions represent backbone corridors.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"
#include "region/clustering.h"
#include "region/region_graph.h"
#include "region/trajectory_graph.h"

using namespace l2r;

namespace {

Status Report(const DatasetSpec& spec,
              const std::vector<double>& buckets_km2) {
  L2R_ASSIGN_OR_RETURN(BuiltDataset built, BuildDataset(spec));
  const RoadNetwork& net = built.world.net;
  L2R_ASSIGN_OR_RETURN(const TrajectoryGraph tg,
                       TrajectoryGraph::Build(net, built.split.train));
  L2R_ASSIGN_OR_RETURN(const ClusteringResult clustering,
                       BottomUpClustering(tg, net.NumVertices()));
  L2R_ASSIGN_OR_RETURN(
      const RegionGraph graph,
      BuildRegionGraph(net, clustering, &built.split.train));

  std::vector<size_t> counts(buckets_km2.size() + 1, 0);
  std::vector<double> max_diam(buckets_km2.size() + 1, 0);
  for (RegionId r = 0; r < graph.NumRegions(); ++r) {
    const RegionInfo& info = graph.region(r);
    size_t b = buckets_km2.size();
    for (size_t i = 0; i < buckets_km2.size(); ++i) {
      if (info.hull_area_km2 <= buckets_km2[i]) {
        b = i;
        break;
      }
    }
    ++counts[b];
    max_diam[b] = std::max(max_diam[b], info.hull_diameter_km);
  }

  std::printf("\nTable IV — %s (%zu regions)\n", spec.name.c_str(),
              graph.NumRegions());
  std::printf("%-14s %10s %10s %14s\n", "Size (km^2)", "#Regions",
              "Percent", "MaxDiam (km)");
  double lo = 0;
  for (size_t b = 0; b <= buckets_km2.size(); ++b) {
    std::string label =
        b < buckets_km2.size()
            ? StrFormat("(%g,%g]", lo, buckets_km2[b])
            : StrFormat(">%g", buckets_km2.back());
    std::printf("%-14s %10zu %9.1f%% %14.2f\n", label.c_str(), counts[b],
                100.0 * counts[b] / graph.NumRegions(), max_diam[b]);
    if (b < buckets_km2.size()) lo = buckets_km2[b];
  }
  return Status::OK();
}

}  // namespace

int main() {
  std::printf("=== Table IV: Region Sizes ===\n");
  const int code =
      bench::ExitCode({Report(MetroDataset(bench::BenchScale()), {2, 10, 100}),
                       Report(CityDataset(bench::BenchScale()), {2, 5, 10})});
  std::printf(
      "\nPaper shape: most regions in the smallest bucket; a handful of "
      "large backbone regions.\n");
  return code;
}
