// Reproduces Fig. 10: accuracy of L2R vs Shortest / Fastest / Dom / TRIP
// under the Eq. 1 path similarity, bucketed by trip distance and by
// region category, on both datasets.
//
// Paper shape: L2R highest everywhere and improving with distance;
// Shortest degrades with distance; Fastest ~Shortest on short trips and
// much better on long ones; Dom best baseline; TRIP slightly above
// Fastest; L2R decreases from InRegion to OutRegion but stays on top.

#include "bench_util.h"

using namespace l2r;

namespace {

Status RunDataset(const DatasetSpec& spec) {
  L2R_ASSIGN_OR_RETURN(auto setup,
                       bench::BuildComparison(spec, bench::BenchQueries()));
  const auto evals = bench::EvaluateAll(setup.get());
  auto eq1 = [](const BucketStats& b) { return b.mean_accuracy_eq1; };
  PrintComparisonTable(
      "Fig. 10 — " + spec.name + ", by distance (km)", evals,
      [](const RouterEval& ev) -> const std::vector<BucketStats>& {
        return ev.by_distance;
      },
      eq1, "accuracy %, Eq. 1");
  PrintComparisonTable(
      "Fig. 10 — " + spec.name + ", by region category", evals,
      [](const RouterEval& ev) -> const std::vector<BucketStats>& {
        return ev.by_region;
      },
      eq1, "accuracy %, Eq. 1");
  return Status::OK();
}

}  // namespace

int main() {
  std::printf("=== Fig. 10: Accuracy using Eq. 1 ===\n");
  return bench::ExitCode({RunDataset(MetroDataset(bench::BenchScale())),
                          RunDataset(CityDataset(bench::BenchScale()))});
}
