#ifndef L2R_BASELINES_WEB_ROUTER_H_
#define L2R_BASELINES_WEB_ROUTER_H_

#include <memory>

#include "common/geo.h"
#include "common/result.h"
#include "routing/dijkstra.h"

namespace l2r {

/// Options of the simulated online routing service, the stand-in for the
/// paper's Google Directions API comparison (README "Synthetic
/// stand-ins").
struct WebRouterOptions {
  /// The service's global knowledge is free-flow speeds; it does not know
  /// local congestion, so it always routes on off-peak travel times.
  /// Major-road bias: services weight big roads slightly down to produce
  /// "sensible" routes.
  double major_road_discount = 0.92;
  /// Waypoint subsampling distance along the route polyline, meters.
  double waypoint_spacing_m = 200;
};

/// A route as an external service returns it: a waypoint polyline in
/// coordinates, not an edge path — which is why the paper needs the band
/// matching of its Fig. 14 to score it.
struct WebRoute {
  Polyline polyline;
};

/// Simulated web routing service: fastest-path routing on free-flow travel
/// times with a mild major-road bias, returning waypoint polylines.
class WebRouter {
 public:
  explicit WebRouter(const RoadNetwork& net, WebRouterOptions options = {});

  Result<WebRoute> Route(VertexId s, VertexId d);

 private:
  const RoadNetwork& net_;
  WebRouterOptions options_;
  EdgeWeights weights_;
  DijkstraSearch search_;
};

}  // namespace l2r

#endif  // L2R_BASELINES_WEB_ROUTER_H_
