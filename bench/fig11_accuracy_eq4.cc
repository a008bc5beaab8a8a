// Reproduces Fig. 11: same comparison as Fig. 10 but under the Eq. 4
// (Jaccard) path similarity. Paper shape: same ordering as Fig. 10 with
// slightly lower absolute numbers.

#include "bench_util.h"

using namespace l2r;

namespace {

Status RunDataset(const DatasetSpec& spec) {
  L2R_ASSIGN_OR_RETURN(auto setup,
                       bench::BuildComparison(spec, bench::BenchQueries()));
  const auto evals = bench::EvaluateAll(setup.get());
  auto eq4 = [](const BucketStats& b) { return b.mean_accuracy_eq4; };
  PrintComparisonTable(
      "Fig. 11 — " + spec.name + ", by distance (km)", evals,
      [](const RouterEval& ev) -> const std::vector<BucketStats>& {
        return ev.by_distance;
      },
      eq4, "accuracy %, Eq. 4");
  PrintComparisonTable(
      "Fig. 11 — " + spec.name + ", by region category", evals,
      [](const RouterEval& ev) -> const std::vector<BucketStats>& {
        return ev.by_region;
      },
      eq4, "accuracy %, Eq. 4");
  return Status::OK();
}

}  // namespace

int main() {
  std::printf("=== Fig. 11: Accuracy using Eq. 4 ===\n");
  return bench::ExitCode({RunDataset(MetroDataset(bench::BenchScale())),
                          RunDataset(CityDataset(bench::BenchScale()))});
}
