#ifndef L2R_ROUTING_GOAL_POTENTIAL_H_
#define L2R_ROUTING_GOAL_POTENTIAL_H_

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "roadnet/weights.h"
#include "routing/search_kernel.h"

/// Goal-directed single-target search on the shared kernel: an admissible,
/// consistent potential h(v) <= d(v, t), fed to RunSearchKernel as its
/// heap key g + h(v). h is the larger of two lower bounds:
///  - Euclidean: euclid_scale * |v - t| (EdgeWeights::euclid_scale);
///  - ALT: for each landmark L, d(L, t) - d(L, v) and d(v, L) - d(t, L),
///    read from the array's LandmarkTable.
/// Both are consistent (h(u) <= w(u, x) + h(x)), so every settled label is
/// final. Both are also shrunk by a margin above round-off (kShrink,
/// LandmarkTable::slack), so every vertex on a shortest s-t path keys
/// strictly below d(s, t) and settles before t. With the kernel's
/// smaller-EdgeId tie rule and RunToTarget's settling of keys equal to
/// d(s, t), the route is a function of the distances alone: it is
/// byte-identical to plain Dijkstra's. (Without the margin, a tight bound
/// one ulp too high reorders ties; routing_test's tie-heavy property test
/// catches that.)

namespace l2r {

/// Builds one LandmarkTable per group and attaches it, together with the
/// Euclidean bound, to every array of the group. A group holds arrays that
/// share a table (L2RRouter: the two period arrays of distance, which are
/// equal); its table is computed over their per-edge minimum. All groups
/// share LandmarkTable::kNumLandmarks landmarks, picked by farthest-point
/// selection on the first group's graph distances; the 2 * landmarks *
/// groups one-to-all searches run on up to `num_threads` threads (0 =
/// default).
void AttachGoalPotentials(const RoadNetwork& net,
                          std::span<const std::vector<EdgeWeights*>> groups,
                          unsigned num_threads = 0);

/// The potential of one query toward target `t` under `w`; also the
/// kernel's KeyFn.
class GoalPotential {
 public:
  GoalPotential(const RoadNetwork& net, const EdgeWeights& w, VertexId t)
      : positions_(net.VertexPositions().data()),
        target_(net.VertexPos(t)),
        scale_(w.euclid_scale() * kShrink),
        table_(w.landmarks()) {
    if (table_ == nullptr) return;
    const double* row = table_->Row(t);
    std::copy(row, row + 2 * table_->num_landmarks(), target_row_.begin());
  }

  /// True when h == 0 everywhere (no potential attached or enabled).
  bool zero() const { return scale_ == 0 && table_ == nullptr; }

  /// The heap key of a goal-directed search: g + h(v).
  double operator()(VertexId v, double g) const { return g + Bound(v); }

  /// h(v), a lower bound on d(v, t).
  double Bound(VertexId v) const {
    double h = scale_ * Dist(positions_[v], target_);
    if (table_ != nullptr) {
      const size_t k = table_->num_landmarks();
      const double* row = table_->Row(v);
      double alt = 0;
      // An unreachable landmark makes a term -inf (ignored by max) or
      // inf - inf = NaN, which std::max(alt, NaN) also ignores.
      for (size_t i = 0; i < k; ++i) {
        alt = std::max(alt, target_row_[i] - row[i]);
        alt = std::max(alt, row[k + i] - target_row_[k + i]);
      }
      h = std::max(h, alt - table_->slack);
    }
    return h;
  }

 private:
  /// Shrinks the Euclidean bound by a relative margin far above the
  /// round-off of the path sums it is compared against.
  static constexpr double kShrink = 1 - 1e-9;

  const Point* positions_;
  Point target_;
  double scale_;
  const LandmarkTable* table_;
  std::array<double, 2 * LandmarkTable::kNumLandmarks> target_row_{};
};

/// Single-target forward search from `s` to `t` under `potential`, stopping
/// where `stop` fires (it must fire on t). When the search reaches t with a
/// nonzero potential, every heap entry keyed <= d(s, t) is settled before
/// returning, so every tight predecessor of every shortest-path vertex has
/// been relaxed and RelaxVertex's tie rule picks the parents plain
/// Dijkstra picks.
template <typename WeightFn, typename StopFn, typename Explore = ExploreAll>
inline VertexId RunToTarget(const RoadNetwork& net, SearchWorkspace& ws,
                            VertexId s, VertexId t, const WeightFn& weight,
                            const GoalPotential& potential,
                            const StopFn& stop, Explore explore = {}) {
  if (potential.zero()) {
    return RunSearchKernel<ForwardExpand>(net, ws, s, weight, stop,
                                          kInfCost, DistanceKey{}, explore);
  }
  const VertexId got = RunSearchKernel<ForwardExpand>(
      net, ws, s, weight, stop, kInfCost, potential, explore);
  if (got == t) {
    SettleKeysUpTo<ForwardExpand>(net, ws, ws.dist[t], weight, potential,
                                  explore);
  }
  return got;
}

}  // namespace l2r

#endif  // L2R_ROUTING_GOAL_POTENTIAL_H_
