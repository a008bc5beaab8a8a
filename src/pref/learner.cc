#include "pref/learner.h"

#include "pref/similarity.h"
#include "routing/slave_reachability.h"

namespace l2r {

namespace {

/// A slave feature is adopted only if it improves the summed similarity
/// by more than this.
constexpr double kMinSlaveImprovement = 1e-9;

/// What a pruned candidate scores: below every real score (>= 0), so it
/// never wins a strict comparison.
constexpr double kCannotWin = -1;

/// Whether Algorithm 2's filter under `mask` admits every edge of `route`:
/// an edge passes when its road type is in the mask or its tail has no
/// out-edge in the mask. A hop passes only when every parallel edge does,
/// so the check holds for whichever edge the search took.
bool FilterAdmitsRoute(const RoadNetwork& net, RoadTypeMask mask,
                       const std::vector<VertexId>& route) {
  for (size_t k = 0; k + 1 < route.size(); ++k) {
    const VertexId u = route[k];
    if (NoneSatisfies(net, u, mask)) continue;
    for (const EdgeId e : net.OutEdges(u)) {
      const EdgeRecord& edge = net.edge(e);
      if (edge.to == route[k + 1] && !MaskContains(mask, edge.road_type)) {
        return false;
      }
    }
  }
  return true;
}

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

  LearnOutput out;
  LearnCounts& counts = out.counts;
  counts.path_scores = static_cast<uint64_t>(kNumCostFeatures +
                                             space_.num_slave() - 1) *
                       paths.size();

  // Per path, the route the master being scored found (empty when its
  // search failed) and its similarity; `best` keeps the best master's.
  struct MasterRoute {
    std::vector<VertexId> vertices;
    double similarity = 0;
  };
  std::vector<MasterRoute> routes(paths.size());
  std::vector<MasterRoute> best(paths.size());

  // Scores a candidate preference: weighted sum of Eq. 1 similarities of
  // its constructed paths against the ground-truth paths, in path order.
  // Returns kCannotWin once the score provably stays <= `floor`.
  auto score = [&](CostFeature master, int slave_index,
                   double floor) -> double {
    const EdgeWeights& mw = ws_.Get(master);
    const RoadTypeMask mask = space_.slave_mask(slave_index);
    double total = 0;
    for (size_t i = 0; i < paths.size(); ++i) {
      // Every remaining similarity at its maximum 1, added in score order.
      double bound = total;
      for (size_t j = i; j < paths.size(); ++j) bound += weights[j];
      if (bound <= floor) {
        counts.pruned += paths.size() - i;
        return kCannotWin;
      }
      if (slave_index != 0 && !best[i].vertices.empty() &&
          FilterAdmitsRoute(net_, mask, best[i].vertices)) {
        ++counts.reused;
        total += weights[i] * best[i].similarity;
        continue;
      }
      const std::vector<VertexId>& gt = *paths[i];
      ++counts.searches;
      auto routed = search_.Route(gt.front(), gt.back(), mw, mask);
      if (slave_index == 0) routes[i].vertices.clear();
      if (!routed.ok()) continue;
      const double sim = PathSimilarity(net_, gt, routed->path.vertices);
      if (slave_index == 0) routes[i] = {std::move(routed->path.vertices), sim};
      total += weights[i] * sim;
    }
    return total;
  };

  // Master dimension first (coordinate descent).
  CostFeature best_master = CostFeature::kDistance;
  double best_master_score = -1;
  for (int m = 0; m < kNumCostFeatures; ++m) {
    const double s = score(static_cast<CostFeature>(m), 0, best_master_score);
    if (s > best_master_score) {
      best_master_score = s;
      best_master = static_cast<CostFeature>(m);
      routes.swap(best);
    }
  }

  // Slave dimension next: adopt the best strictly-improving feature.
  int best_slave = 0;
  double best_slave_score = best_master_score;
  for (int s = 1; s < space_.num_slave(); ++s) {
    const double sc =
        score(best_master, s, best_slave_score + kMinSlaveImprovement);
    if (sc > best_slave_score + kMinSlaveImprovement) {
      best_slave_score = sc;
      best_slave = s;
    }
  }

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
