#ifndef L2R_BASELINES_TRIP_H_
#define L2R_BASELINES_TRIP_H_

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "baselines/router_api.h"
#include "routing/dijkstra.h"
#include "traj/trajectory.h"

namespace l2r {

/// TRIP baseline [27] (Letchner, Krumm, Horvitz, AAAI 2006): learns the
/// ratio between a driver's observed travel times and the network-expected
/// travel times, then computes fastest paths on the personalized weights.
/// We estimate the ratios per road type via ridge least squares on
/// (observed trip duration, per-type expected time breakdown).
class TripRouter : public VertexPathRouter {
 public:
  static Result<std::unique_ptr<TripRouter>> Train(
      const RoadNetwork* net,
      const std::vector<MatchedTrajectory>& training);

  std::string name() const override { return "TRIP"; }

  Result<Path> Route(VertexId s, VertexId d, double departure_time,
                     uint32_t driver_id) override;

  /// Learned ratios of one driver (all 1.0 if unseen).
  std::array<double, kNumRoadTypes> DriverRatios(uint32_t driver_id) const;

 private:
  explicit TripRouter(const RoadNetwork* net);

  const RoadNetwork* net_;
  EdgeWeights offpeak_time_;
  EdgeWeights peak_time_;
  std::unordered_map<uint32_t, std::array<double, kNumRoadTypes>> ratios_;
  DijkstraSearch search_;
};

}  // namespace l2r

#endif  // L2R_BASELINES_TRIP_H_
