#ifndef L2R_ROADNET_WEIGHTS_H_
#define L2R_ROADNET_WEIGHTS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "roadnet/road_network.h"

namespace l2r {

/// The travel-cost features of the paper's preference master dimension
/// (Sec. V-A): distance (DI), travel time (TT), fuel consumption (FC).
enum class CostFeature : uint8_t {
  kDistance = 0,
  kTravelTime = 1,
  kFuel = 2,
};
inline constexpr int kNumCostFeatures = 3;

const char* CostFeatureName(CostFeature f);

/// Fuel consumed over `length_m` meters at steady `speed_kmh`, in
/// milliliters. Simplified vehicular environmental impact model in the
/// spirit of EcoMark [37,38]: per-km consumption is a bathtub curve
///   ml/km = c0 / v + c1 + c2 * v^2
/// (idle share dominates at low speed, aerodynamic drag at high speed),
/// minimized around 55-65 km/h. This makes the fuel-optimal path genuinely
/// different from both the shortest and the fastest path.
double FuelMilliliters(double length_m, double speed_kmh);

/// ALT landmark distances for one cost feature: exact shortest-path costs
/// to and from a few landmark vertices, computed over `floor`, the per-edge
/// minimum of the weight arrays the table serves (L2RRouter: one array, or
/// the two equal period arrays of distance). By the triangle inequality
/// they bound the remaining cost of any search on those arrays from below,
/// for as long as no array drops below its floor. routing/goal_potential.h
/// builds them.
struct LandmarkTable {
  static constexpr size_t kNumLandmarks = 8;

  size_t num_landmarks() const { return landmarks.size(); }
  /// Row of vertex v: d(L_i -> v) for every landmark i, then d(v -> L_i);
  /// +inf when unreachable.
  const double* Row(VertexId v) const {
    return dist.data() + static_cast<size_t>(v) * 2 * landmarks.size();
  }

  std::vector<VertexId> landmarks;
  std::vector<double> dist;
  std::vector<double> floor;
  /// Absolute slack subtracted from every landmark bound, so round-off in
  /// the table sums can never lift a bound above the true remaining cost.
  double slack = 0;
};

/// Precomputed per-edge weights for one cost feature and time period.
/// Shortest-path searches index this array instead of recomputing costs.
///
/// An array may also carry a goal-directed search potential
/// (AttachPotential): the Euclidean bound `euclid_scale() * |v - t|` and,
/// optionally, a shared LandmarkTable. Single-target searches on the array
/// (DijkstraSearch::ShortestPath, PreferenceDijkstra::Route) pick it up
/// through routing/goal_potential.h. Arrays without one (FromValues, the
/// default) search as plain Dijkstra.
class EdgeWeights {
 public:
  EdgeWeights() = default;
  EdgeWeights(const RoadNetwork& net, CostFeature feature, TimePeriod period);

  /// Custom weight array (e.g. scalarized or personalized weights); values
  /// must be positive and indexed by EdgeId.
  static EdgeWeights FromValues(std::vector<double> values) {
    EdgeWeights w;
    w.values_ = std::move(values);
    return w;
  }

  CostFeature feature() const { return feature_; }
  TimePeriod period() const { return period_; }

  double operator[](EdgeId e) const { return values_[e]; }
  size_t size() const { return values_.size(); }

  /// Recomputes the value of one edge from the network's current
  /// attributes (speeds, closure bit) — the dynamic-world seam. A closed
  /// edge becomes +infinity in every feature, so searches under any
  /// master dimension refuse to label through it. Keeps an attached
  /// potential admissible: the Euclidean scale is a running minimum, and
  /// the landmark bound is off while any edge is below its table floor.
  void RefreshEdge(const RoadNetwork& net, EdgeId e);

  /// Attaches a goal-directed potential: the Euclidean scale (the largest
  /// c with w[e] >= c * |from - to| on every edge) and `landmarks`, which
  /// may be null. The table's floor must be indexed by EdgeId.
  void AttachPotential(const RoadNetwork& net,
                       std::shared_ptr<const LandmarkTable> landmarks);

  /// Turns the attached potential off (searches run as plain Dijkstra) or
  /// back on — the zero-potential reference for tests and benches.
  void SetPotentialEnabled(bool on) { potential_enabled_ = on; }

  /// Cost per meter of straight-line distance that every edge costs at
  /// least; 0 without a potential.
  double euclid_scale() const {
    return potential_enabled_ ? euclid_scale_ : 0;
  }
  /// The landmark table, or null while the landmark bound is off: none is
  /// attached, the potential is disabled, or some edge is cheaper than
  /// its build-time floor.
  const LandmarkTable* landmarks() const {
    return potential_enabled_ && below_floor_ == 0 ? landmarks_.get()
                                                   : nullptr;
  }

 private:
  CostFeature feature_ = CostFeature::kDistance;
  TimePeriod period_ = TimePeriod::kOffPeak;
  std::vector<double> values_;
  std::shared_ptr<const LandmarkTable> landmarks_;
  double euclid_scale_ = 0;
  /// Edges whose value is below landmarks_->floor.
  size_t below_floor_ = 0;
  bool potential_enabled_ = true;
};

/// Bundle of the three cost-feature weight arrays for one time period.
struct WeightSet {
  WeightSet() = default;
  WeightSet(const RoadNetwork& net, TimePeriod period)
      : distance(net, CostFeature::kDistance, period),
        time(net, CostFeature::kTravelTime, period),
        fuel(net, CostFeature::kFuel, period),
        period_(period) {}

  const EdgeWeights& Get(CostFeature f) const {
    switch (f) {
      case CostFeature::kDistance:
        return distance;
      case CostFeature::kTravelTime:
        return time;
      case CostFeature::kFuel:
        return fuel;
    }
    return distance;
  }

  TimePeriod period() const { return period_; }

  /// Refreshes all three feature arrays for one edge (dynamic world).
  void RefreshEdge(const RoadNetwork& net, EdgeId e) {
    distance.RefreshEdge(net, e);
    time.RefreshEdge(net, e);
    fuel.RefreshEdge(net, e);
  }

  void SetPotentialEnabled(bool on) {
    distance.SetPotentialEnabled(on);
    time.SetPotentialEnabled(on);
    fuel.SetPotentialEnabled(on);
  }

  EdgeWeights distance;
  EdgeWeights time;
  EdgeWeights fuel;

 private:
  TimePeriod period_ = TimePeriod::kOffPeak;
};

}  // namespace l2r

#endif  // L2R_ROADNET_WEIGHTS_H_
