#ifndef L2R_PREF_LEARNER_H_
#define L2R_PREF_LEARNER_H_

#include <cstdint>
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

/// Work counts of PreferenceLearner::LearnForPaths. The plain descent
/// scores every (candidate, path) pair with one Algorithm 2 search; each
/// such path score is exactly one of searched, reused or pruned, so
/// `searches + reused + pruned == path_scores`.
struct LearnCounts {
  uint64_t searches = 0;     ///< Algorithm 2 searches run
  uint64_t reused = 0;       ///< slave scores from the master's route
  uint64_t pruned = 0;       ///< path scores skipped by the bound
  uint64_t path_scores = 0;  ///< (masters + non-empty slaves) x paths

  LearnCounts& operator+=(const LearnCounts& o) {
    searches += o.searches;
    reused += o.reused;
    pruned += o.pruned;
    path_scores += o.path_scores;
    return *this;
  }
};

/// The coordinate-descent preference learner of Sec. V-A: first pick the
/// master travel-cost feature whose lowest-cost paths best match the
/// ground-truth paths (Eq. 1), then pick the slave road-condition feature
/// that further improves the match (or none).
///
/// Searches that cannot change the outcome are skipped, so what is
/// learned (the preference and the bits of its similarity) is what the
/// plain descent, one search per (candidate, path), learns:
///  - Bound. Before each path, a candidate stops when its running score
///    plus the remaining paths' weights, summed in score order, cannot
///    beat the score it must beat (the best master's; the best slave's
///    plus kMinSlaveImprovement). Exact: Eq. 1 is at most 1 (its shared
///    length sums a subset of the ground-truth length's terms in the same
///    order) and rounded addition is monotone, so that sum bounds every
///    score the candidate can still reach. The winner is never cut, so
///    its score is computed in full.
///  - Reuse. A slave whose filter admits every edge of the chosen master's
///    route for a path (every parallel edge of each hop, so whichever the
///    search took) scores that path with the master's similarity and runs
///    no search. Exact: the filter admits a fixed subgraph that holds the
///    route at unchanged distances; its tight in-edges at each route
///    vertex are a subset of the full graph's and still hold the
///    canonical (smallest-EdgeId) parent, so Algorithm 2 returns the same
///    route.
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
    LearnCounts counts;
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
