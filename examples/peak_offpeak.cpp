// Peak vs off-peak: the paper builds separate region graphs per period
// (Sec. III, scope (1)) and picks one by departure time. This example
// shows the same query routed at 08:00 (peak) and 12:00 (off-peak) and
// how the recommended paths differ, plus the map-matching substrate in
// action on low-frequency GPS.
//
//   ./build/examples/peak_offpeak

#include <cstdio>

#include "core/l2r.h"
#include "eval/datasets.h"
#include "mapmatch/hmm_matcher.h"
#include "pref/similarity.h"

using namespace l2r;  // NOLINT — example code

int main() {
  DatasetSpec spec = CityDataset(/*traj_scale=*/0.25);
  spec.traj.emit_gps = true;  // keep raw GPS for the map-matching demo
  spec.traj.sample_interval_s = 15;
  std::printf("Building %s...\n", spec.name.c_str());
  auto built = BuildDataset(spec);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 1;
  }
  const RoadNetwork& net = built->world.net;

  // --- Map matching demo: recover paths from noisy low-frequency GPS.
  std::printf("\nMap matching (HMM, Newson-Krumm) on low-frequency GPS:\n");
  const SpatialGrid grid(net, 250);
  HmmMatchOptions match_options;
  match_options.emission_sigma_m = 15;
  const HmmMapMatcher matcher(net, grid, match_options);
  double sim_sum = 0;
  int matched = 0;
  for (size_t i = 0; i < built->data.gps.size() && matched < 25; ++i) {
    auto result = matcher.Match(built->data.gps[i]);
    if (!result.ok()) continue;
    sim_sum +=
        PathSimilarity(net, built->data.matched[i].path, result->path);
    ++matched;
  }
  std::printf("  %d trajectories matched, mean recovery %.1f%%\n", matched,
              100 * sim_sum / matched);

  // --- Time-dependent routing.
  L2ROptions options;
  auto router = L2RRouter::Build(&net, built->split.train, options);
  if (!router.ok()) {
    std::fprintf(stderr, "%s\n", router.status().ToString().c_str());
    return 1;
  }
  for (int p = 0; p < kNumTimePeriods; ++p) {
    const auto& rep = (*router)->build_report().period[p];
    std::printf("[%s] %zu trajectories -> %zu regions, %zu T-edges\n",
                p == 0 ? "off-peak" : "peak", rep.trajectories,
                rep.num_regions, rep.num_t_edges);
  }

  std::printf("\nSame query, different departure time:\n");
  L2RQueryContext ctx = (*router)->MakeContext();
  int shown = 0;
  for (const MatchedTrajectory& t : built->split.test) {
    if (shown >= 6 || t.path.size() < 20) continue;
    const VertexId s = t.path.front();
    const VertexId d = t.path.back();
    auto off = (*router)->Route(&ctx, s, d, 12 * 3600);   // 12:00
    auto peak = (*router)->Route(&ctx, s, d, 8 * 3600);   // 08:00
    if (!off.ok() || !peak.ok()) continue;
    const double overlap = PathSimilarity(net, off->path.vertices,
                                          peak->path.vertices);
    std::printf(
        "  %5u -> %5u: off-peak %5.0f s (%3zu v), peak %5.0f s (%3zu v), "
        "path overlap %.0f%%\n",
        s, d, off->path.cost, off->path.vertices.size(), peak->path.cost,
        peak->path.cost > 0 ? peak->path.vertices.size() : 0,
        100 * overlap);
    ++shown;
  }
  if (shown == 0) {
    std::fprintf(stderr, "no query routed\n");
    return 1;
  }
  std::printf("\nPeak routes differ where congestion changes which roads "
              "local drivers prefer.\n");
  return 0;
}
