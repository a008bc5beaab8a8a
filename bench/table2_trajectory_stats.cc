// Reproduces Table II: statistics (travel-distance distribution) of the
// two trajectory workloads. Paper reference shapes:
//   D1 (Denmark):  (0,10] 91.6%, (10,50] 7.6%, (50,100] 0.5%, (100,500] 0.3%
//   D2 (Chengdu):  (0,2] 15.8%, (2,5] 56.9%, (5,10] 23.5%, (10,35] 3.8%
// Metro scales D1's bucket edges to its smaller extent (README "Synthetic
// stand-ins"); the shape to match is "mass concentrated on short urban
// trips with a thin long-distance tail".

#include <cstdio>
#include <vector>

#include "bench_util.h"

using namespace l2r;

namespace {

Status Report(const DatasetSpec& spec) {
  L2R_ASSIGN_OR_RETURN(const BuiltDataset built, BuildDataset(spec));
  const RoadNetwork& net = built.world.net;
  std::vector<size_t> counts(spec.buckets.size(), 0);
  size_t total = 0;
  for (const MatchedTrajectory& t : built.data.matched) {
    const auto len = net.PathLengthM(t.path);
    if (!len.ok()) continue;
    ++counts[spec.buckets.BucketOf(*len)];
    ++total;
  }
  std::printf("\nTable II — %s (%zu trajectories)\n", spec.name.c_str(),
              total);
  std::printf("%-12s %12s %12s\n", "Distance(km)", "#Trajectories",
              "Percentage");
  for (size_t b = 0; b < spec.buckets.size(); ++b) {
    std::printf("%-12s %12zu %11.1f%%\n", spec.buckets.LabelOf(b).c_str(),
                counts[b], 100.0 * counts[b] / total);
  }
  return Status::OK();
}

}  // namespace

int main() {
  std::printf("=== Table II: Statistics of Trajectories ===\n");
  const int code = bench::ExitCode({Report(MetroDataset(bench::BenchScale())),
                                    Report(CityDataset(bench::BenchScale()))});
  std::printf(
      "\nPaper shape: most trips short (city) with a small long tail "
      "(metro); matched when the first bucket dominates and the last holds "
      "a few percent.\n");
  return code;
}
