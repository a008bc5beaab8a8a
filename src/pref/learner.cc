#include "pref/learner.h"

#include "pref/similarity.h"

namespace l2r {

namespace {

/// A slave feature is adopted only if it improves the summed similarity
/// by more than this.
constexpr double kMinSlaveImprovement = 1e-9;

}  // namespace

PreferenceLearner::PreferenceLearner(const RoadNetwork& net,
                                     const WeightSet& ws,
                                     const PreferenceFeatureSpace& space,
                                     const SlaveReachability* reach)
    : net_(net), ws_(ws), space_(space), search_(net, reach) {}

Result<PreferenceLearner::LearnOutput> PreferenceLearner::LearnForPaths(
    const std::vector<std::vector<VertexId>>& all_paths,
    const std::vector<uint32_t>& all_counts) {
  if (all_paths.empty()) {
    return Status::InvalidArgument("no paths to learn from");
  }
  if (!all_counts.empty() && all_counts.size() != all_paths.size()) {
    return Status::InvalidArgument("counts/paths size mismatch");
  }

  std::vector<const std::vector<VertexId>*> paths;
  std::vector<double> weights;
  for (size_t i = 0; i < all_paths.size(); ++i) {
    if (all_paths[i].size() < 2) continue;
    paths.push_back(&all_paths[i]);
    weights.push_back(all_counts.empty() ? 1.0 : all_counts[i]);
  }
  if (paths.empty()) {
    return Status::InvalidArgument("all paths degenerate");
  }
  double weight_total = 0;
  for (const double w : weights) weight_total += w;

  // Scores a candidate preference: weighted sum of Eq. 1 similarities of
  // its constructed paths against the ground-truth paths.
  auto score = [&](CostFeature master, int slave_index) -> double {
    const EdgeWeights& mw = ws_.Get(master);
    const RoadTypeMask mask = space_.slave_mask(slave_index);
    double total = 0;
    for (size_t i = 0; i < paths.size(); ++i) {
      const std::vector<VertexId>& gt = *paths[i];
      auto routed = search_.Route(gt.front(), gt.back(), mw, mask);
      if (!routed.ok()) continue;
      total += weights[i] * PathSimilarity(net_, gt, routed->path.vertices);
    }
    return total;
  };

  // Master dimension first (coordinate descent).
  CostFeature best_master = CostFeature::kDistance;
  double best_master_score = -1;
  for (int m = 0; m < kNumCostFeatures; ++m) {
    const double s = score(static_cast<CostFeature>(m), 0);
    if (s > best_master_score) {
      best_master_score = s;
      best_master = static_cast<CostFeature>(m);
    }
  }

  // Slave dimension next: adopt the best strictly-improving feature.
  int best_slave = 0;
  double best_slave_score = best_master_score;
  for (int s = 1; s < space_.num_slave(); ++s) {
    const double sc = score(best_master, s);
    if (sc > best_slave_score + kMinSlaveImprovement) {
      best_slave_score = sc;
      best_slave = s;
    }
  }

  LearnOutput out;
  out.pref.master = best_master;
  out.pref.slave_index = best_slave;
  out.similarity = weight_total > 0 ? best_slave_score / weight_total : 0;
  return out;
}

Result<PreferenceLearner::LearnOutput> PreferenceLearner::LearnForPath(
    const std::vector<VertexId>& path) {
  return LearnForPaths({path}, {});
}

}  // namespace l2r
