// Reproduces Fig. 6: statistical evidence for the paper's design choices.
//  (a) Per-T-edge distribution of the number of unique per-path learned
//      preferences (paper: >70% of T-edges have a single preference) plus
//      the distribution of learned preferences over the master features
//      DI/TT/FC (paper: roughly uniform spread — all masters occur).
//  (b) Region-edge similarity vs. preference similarity (paper: similar
//      T-edges have similar preferences) and the percentage of T-edge
//      pairs per similarity range.

#include <cstdio>
#include <map>
#include <set>

#include "bench_pipeline.h"
#include "common/rng.h"

using namespace l2r;

int main() {
  std::printf("=== Fig. 6: Preference Statistics (City dataset) ===\n");
  auto setup = bench::BuildPipeline(CityDataset(bench::BenchScale()));
  if (setup == nullptr) {
    std::fprintf(stderr, "pipeline build failed\n");
    return 1;
  }
  const RegionGraph& g = *setup->graph;
  const RoadNetwork& net = setup->data->world.net;
  std::printf("regions=%zu T-edges=%zu B-edges=%zu\n", g.NumRegions(),
              g.NumTEdges(), g.NumBEdges());

  // --- (a) Unique per-path preferences per T-edge, over the paths the
  // router learns each edge from.
  PreferenceLearner learner(net, *setup->weights, setup->space);
  std::map<size_t, size_t> unique_counts;  // #unique prefs -> #edges
  std::array<size_t, kNumCostFeatures> master_counts{};
  size_t edges_sampled = 0;
  size_t prefs_total = 0;
  for (uint32_t e = 0; e < g.NumTEdges() && edges_sampled < 800; ++e) {
    std::set<std::pair<int, int>> unique;
    size_t paths_used = 0;
    for (const StoredPathRef* ref : LearnPaths(g.edge(e))) {
      const std::span<const VertexId> path = g.ResolvePath(*ref);
      auto learned = learner.LearnForPath({path.begin(), path.end()});
      if (!learned.ok()) continue;
      ++paths_used;
      unique.insert({static_cast<int>(learned->pref.master),
                     learned->pref.slave_index});
      ++master_counts[static_cast<int>(learned->pref.master)];
      ++prefs_total;
    }
    if (paths_used == 0) continue;
    ++edges_sampled;
    ++unique_counts[std::min<size_t>(unique.size(), 3)];
  }
  std::printf("\nFig. 6(a) — unique per-path preferences per T-edge "
              "(%zu edges sampled)\n", edges_sampled);
  for (const auto& [k, n] : unique_counts) {
    std::printf("  %zu%s preference(s): %5.1f%%\n", k, k == 3 ? "+" : "",
                100.0 * n / edges_sampled);
  }
  std::printf("Fig. 6(a) — learned preference master distribution\n");
  for (int m = 0; m < kNumCostFeatures; ++m) {
    std::printf("  %s: %5.1f%%\n",
                CostFeatureName(static_cast<CostFeature>(m)),
                100.0 * master_counts[m] / std::max<size_t>(1, prefs_total));
  }

  // --- (b) T-edge similarity vs preference similarity.
  std::vector<uint32_t> labeled_edges;
  for (uint32_t e = 0; e < g.NumTEdges(); ++e) {
    if (setup->labeled[e].has_value()) labeled_edges.push_back(e);
  }
  Rng rng(1234);
  constexpr int kBuckets = 10;
  std::array<double, kBuckets> pref_sim_sum{};
  std::array<size_t, kBuckets> pair_counts{};
  size_t total_pairs = 0;
  const size_t samples = 400000;
  for (size_t s = 0; s < samples && labeled_edges.size() >= 2; ++s) {
    const uint32_t a = labeled_edges[rng.Index(labeled_edges.size())];
    const uint32_t b = labeled_edges[rng.Index(labeled_edges.size())];
    if (a == b) continue;
    // reSim is in [0, 2]; normalize to [0, 1] for the bucket axis.
    const double sim =
        RegionEdgeSimilarity(setup->features[a], setup->features[b]) / 2.0;
    const int bucket =
        std::min(kBuckets - 1, static_cast<int>(sim * kBuckets));
    pref_sim_sum[bucket] +=
        PreferenceJaccard(*setup->labeled[a], *setup->labeled[b]);
    ++pair_counts[bucket];
    ++total_pairs;
  }
  std::printf("\nFig. 6(b) — T-edge similarity (reSim/2) vs preference "
              "similarity (%zu sampled pairs)\n", total_pairs);
  std::printf("%-12s %18s %14s\n", "sim range", "pref similarity",
              "%% of pairs");
  for (int b = 0; b < kBuckets; ++b) {
    if (pair_counts[b] == 0) continue;
    std::printf("[%.1f,%.1f) %17.1f%% %13.2f%%\n", b / 10.0, (b + 1) / 10.0,
                100.0 * pref_sim_sum[b] / pair_counts[b],
                100.0 * pair_counts[b] / total_pairs);
  }
  std::printf(
      "\nPaper shape: (a) one preference for >70%% of T-edges, all three "
      "masters present; (b) preference similarity increases with T-edge "
      "similarity, few highly similar pairs.\n");
  return 0;
}
