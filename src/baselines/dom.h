#ifndef L2R_BASELINES_DOM_H_
#define L2R_BASELINES_DOM_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "baselines/router_api.h"
#include "routing/dijkstra.h"
#include "routing/skyline.h"
#include "traj/trajectory.h"

namespace l2r {

/// Dom baseline [26] (Yang et al., "Toward personalized, context-aware
/// routing", VLDBJ 2015): learns one global routing preference per
/// driver — a weight vector over normalized distance / travel time / fuel
/// — by matching weighted shortest paths against the driver's historical
/// paths, then answers queries with a multi-objective skyline search and
/// picks the Pareto path optimal under the driver's weights. Slow at query
/// time by design (paper Fig. 12).
class DomRouter : public VertexPathRouter {
 public:
  /// Learns per-driver preferences from training trajectories.
  static Result<std::unique_ptr<DomRouter>> Train(
      const RoadNetwork* net,
      const std::vector<MatchedTrajectory>& training);

  std::string name() const override { return "Dom"; }

  Result<Path> Route(VertexId s, VertexId d, double departure_time,
                     uint32_t driver_id) override;

  /// The learned weights of a driver (defaults if unseen in training).
  struct Weights {
    double di = 1.0 / 3;
    double tt = 1.0 / 3;
    double fc = 1.0 / 3;
  };
  Weights DriverWeights(uint32_t driver_id) const;

 private:
  explicit DomRouter(const RoadNetwork* net);

  /// Per-edge scalarized weights for a lambda (normalized dimensions).
  EdgeWeights CombinedWeights(const Weights& w, TimePeriod period) const;

  const RoadNetwork* net_;
  WeightSet offpeak_;
  WeightSet peak_;
  double di_norm_ = 1;
  double tt_norm_ = 1;
  double fc_norm_ = 1;
  std::unordered_map<uint32_t, Weights> driver_weights_;
  DijkstraSearch fallback_search_;
  SkylineSearch skyline_;
};

}  // namespace l2r

#endif  // L2R_BASELINES_DOM_H_
