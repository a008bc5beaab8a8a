#ifndef L2R_PREF_LEARNER_H_
#define L2R_PREF_LEARNER_H_

#include <vector>

#include "common/result.h"
#include "pref/preference.h"
#include "routing/preference_dijkstra.h"

namespace l2r {

/// Paths per T-edge used for learning (the most informative — traversals
/// x hops — first); bounds the number of shortest-path computations.
inline constexpr size_t kMaxLearnPaths = 4;
/// Paths with fewer hops carry almost no preference signal (every cost
/// feature explains a 2-vertex hop); edges whose paths are all shorter
/// stay unlabeled and receive transferred preferences instead.
inline constexpr size_t kMinLearnPathHops = 4;

/// The coordinate-descent preference learner of Sec. V-A: first pick the
/// master travel-cost feature whose lowest-cost paths best match the
/// ground-truth paths (Eq. 1), then pick the slave road-condition feature
/// that further improves the match (or none).
class PreferenceLearner {
 public:
  /// `ws` supplies the per-period weight arrays the searches run on;
  /// `reach` (optional, see PreferenceDijkstra) skips their futile
  /// filtered passes without changing what is learned.
  PreferenceLearner(const RoadNetwork& net, const WeightSet& ws,
                    const PreferenceFeatureSpace& space,
                    const SlaveReachability* reach = nullptr);

  struct LearnOutput {
    RoutingPreference pref;
    /// Weighted mean Eq. 1 similarity achieved by the chosen preference.
    double similarity = 0;
  };

  /// Learns V* for one T-edge's path set, scoring every path given (the
  /// caller picks them: see LearnPaths in core/l2r.h). `counts[i]` weights
  /// path i; pass an empty vector for uniform weights.
  Result<LearnOutput> LearnForPaths(
      const std::vector<std::vector<VertexId>>& paths,
      const std::vector<uint32_t>& counts);

  /// Learns the preference explaining a single path (used for the paper's
  /// Fig. 6(a) per-path preference statistics).
  Result<LearnOutput> LearnForPath(const std::vector<VertexId>& path);

 private:
  const RoadNetwork& net_;
  const WeightSet& ws_;
  const PreferenceFeatureSpace& space_;
  PreferenceDijkstra search_;
};

}  // namespace l2r

#endif  // L2R_PREF_LEARNER_H_
