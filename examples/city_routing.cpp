// City routing: the paper's headline comparison on a Chengdu-like city —
// L2R against Shortest / Fastest / Dom / TRIP on held-out driver trips,
// reported by distance band and region category (paper Figs. 10-12 in
// miniature).
//
//   ./build/examples/city_routing [traj_scale]

#include <cstdio>
#include <cstdlib>

#include "eval/comparison.h"

using namespace l2r;  // NOLINT — example code

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.3;
  const DatasetSpec spec = CityDataset(scale);
  std::printf("Building %s (scale %.2f) and training L2R + baselines...\n",
              spec.name.c_str(), scale);
  auto setup = BuildComparison(spec, 200);
  if (!setup.ok()) {
    std::fprintf(stderr, "%s\n", setup.status().ToString().c_str());
    return 1;
  }
  std::printf("Evaluating %zu held-out queries...\n",
              (*setup)->queries.size());
  const std::vector<RouterEval> evals = EvaluateAll(setup->get());

  auto eq1 = [](const BucketStats& b) { return b.mean_accuracy_eq1; };
  auto ms = [](const BucketStats& b) { return b.mean_query_ms; };
  PrintComparisonTable(
      "Accuracy by distance (km)", evals,
      [](const RouterEval& ev) -> const std::vector<BucketStats>& {
        return ev.by_distance;
      },
      eq1, "Eq. 1 %");
  PrintComparisonTable(
      "Accuracy by region category", evals,
      [](const RouterEval& ev) -> const std::vector<BucketStats>& {
        return ev.by_region;
      },
      eq1, "Eq. 1 %");
  PrintComparisonTable(
      "Query time by distance (km)", evals,
      [](const RouterEval& ev) -> const std::vector<BucketStats>& {
        return ev.by_distance;
      },
      ms, "ms");
  return 0;
}
