#include "roadnet/weights.h"

#include <algorithm>
#include <cmath>

namespace l2r {

const char* CostFeatureName(CostFeature f) {
  switch (f) {
    case CostFeature::kDistance:
      return "DI";
    case CostFeature::kTravelTime:
      return "TT";
    case CostFeature::kFuel:
      return "FC";
  }
  return "??";
}

double FuelMilliliters(double length_m, double speed_kmh) {
  // ml/km = c0 / v + c1 + c2 * v^2, minimum near 58 km/h (~117 ml/km).
  constexpr double kC0 = 3000.0;
  constexpr double kC1 = 35.0;
  constexpr double kC2 = 0.009;
  const double v = speed_kmh < 5.0 ? 5.0 : speed_kmh;
  const double ml_per_km = kC0 / v + kC1 + kC2 * v * v;
  return ml_per_km * (length_m / 1000.0);
}

EdgeWeights::EdgeWeights(const RoadNetwork& net, CostFeature feature,
                         TimePeriod period)
    : feature_(feature), period_(period) {
  values_.resize(net.NumEdges());
  for (EdgeId e = 0; e < net.NumEdges(); ++e) RefreshEdge(net, e);
}

namespace {

/// Straight-line length of edge `e` — what the Euclidean bound multiplies
/// (the stored length_m may be shorter).
double ChordM(const RoadNetwork& net, EdgeId e) {
  const EdgeRecord& r = net.edge(e);
  return Dist(net.VertexPos(r.from), net.VertexPos(r.to));
}

}  // namespace

void EdgeWeights::RefreshEdge(const RoadNetwork& net, EdgeId e) {
  const double old = values_[e];
  double& v = values_[e];
  if (net.EdgeClosed(e)) {
    v = std::numeric_limits<double>::infinity();
  } else {
    switch (feature_) {
      case CostFeature::kDistance:
        v = net.EdgeLengthM(e);
        break;
      case CostFeature::kTravelTime:
        v = net.EdgeTravelTimeS(e, period_);
        break;
      case CostFeature::kFuel:
        v = net.EdgeFuelMl(e, period_);
        break;
    }
  }
  if (euclid_scale_ > 0) {
    const double chord = ChordM(net, e);
    if (chord > 0) euclid_scale_ = std::min(euclid_scale_, v / chord);
  }
  if (landmarks_ != nullptr) {
    const double floor = landmarks_->floor[e];
    below_floor_ += static_cast<size_t>(v < floor);
    below_floor_ -= static_cast<size_t>(old < floor);
  }
}

void EdgeWeights::AttachPotential(
    const RoadNetwork& net, std::shared_ptr<const LandmarkTable> landmarks) {
  L2R_CHECK(values_.size() == net.NumEdges());
  L2R_CHECK(landmarks == nullptr ||
            landmarks->floor.size() == values_.size());
  double scale = std::numeric_limits<double>::infinity();
  below_floor_ = 0;
  for (EdgeId e = 0; e < values_.size(); ++e) {
    const double chord = ChordM(net, e);
    if (chord > 0) scale = std::min(scale, values_[e] / chord);
    if (landmarks != nullptr && values_[e] < landmarks->floor[e]) {
      ++below_floor_;
    }
  }
  euclid_scale_ = std::isfinite(scale) ? scale : 0;
  landmarks_ = std::move(landmarks);
}

}  // namespace l2r
