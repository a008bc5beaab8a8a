// Reproduces Fig. 12: online running time per query, bucketed by distance
// and region category. Paper shape: L2R fastest online (it searches the
// small region graph); Dom much slower (multi-objective skyline); TRIP
// comparable to Shortest/Fastest (single-objective Dijkstra).

#include "bench_util.h"

using namespace l2r;

namespace {

Status RunDataset(const DatasetSpec& spec) {
  L2R_ASSIGN_OR_RETURN(auto setup,
                       bench::BuildComparison(spec, bench::BenchQueries()));
  const auto evals = bench::EvaluateAll(setup.get());
  auto ms = [](const BucketStats& b) { return b.mean_query_ms; };
  PrintComparisonTable(
      "Fig. 12 — " + spec.name + ", by distance (km)", evals,
      [](const RouterEval& ev) -> const std::vector<BucketStats>& {
        return ev.by_distance;
      },
      ms, "mean query time, ms");
  PrintComparisonTable(
      "Fig. 12 — " + spec.name + ", by region category", evals,
      [](const RouterEval& ev) -> const std::vector<BucketStats>& {
        return ev.by_region;
      },
      ms, "mean query time, ms");
  return Status::OK();
}

}  // namespace

int main() {
  std::printf("=== Fig. 12: Online Running Time ===\n");
  return bench::ExitCode({RunDataset(MetroDataset(bench::BenchScale())),
                          RunDataset(CityDataset(bench::BenchScale()))});
}
