#ifndef L2R_TRAJ_DRIVER_MODEL_H_
#define L2R_TRAJ_DRIVER_MODEL_H_

#include <array>
#include <cstdint>

#include "roadnet/generator.h"
#include "roadnet/weights.h"

namespace l2r {

/// The latent routing preference of local drivers for one travel context:
/// the same ⟨master, slave⟩ structure the paper's L2R learns (Sec. V-A).
struct LatentPreference {
  CostFeature master = CostFeature::kTravelTime;
  RoadTypeMask slave = 0;  ///< 0 = no road-condition preference
};

/// Ground-truth world model of driver routing behaviour — the substitute
/// for the paper's real drivers (README "Synthetic stand-ins").
///
/// Local drivers minimize a *subjective cost*: travel time scaled by a
/// factor that depends on the district an edge lies in, the edge's road
/// class, and the time period. In business districts main streets feel
/// cheap and residential cut-throughs feel expensive; in quiet
/// neighbourhoods the opposite; on long hauls motorways dominate because
/// they are genuinely fast. The landscape is shared by all drivers, so
/// path choice is *locally consistent*: everyone crossing the same two
/// areas picks the same corridor, regardless of where their trip began.
/// That is precisely the structure the paper assumes when it learns "a
/// routing preference for travel between two regions" and transfers it to
/// similar region pairs — ⟨master, slave⟩ preferences are a local
/// approximation of this subjective landscape.
///
/// L2R and the baselines never see this class; only the trajectory
/// generator consults it.
class DriverModel {
 public:
  DriverModel(const GeneratedNetwork* world, uint64_t seed);

  /// The subjective per-edge costs local drivers minimize in `period`.
  const EdgeWeights& SubjectiveWeights(TimePeriod period) const {
    return subjective_[static_cast<int>(period)];
  }

  /// The subjective multiplier applied to travel time for edges of road
  /// type `rt` in a district of type `d` (exposed for tests/analysis).
  double Factor(DistrictType d, RoadType rt, TimePeriod period) const {
    return factors_[static_cast<int>(period)][static_cast<int>(d)]
                   [static_cast<int>(rt)];
  }

  /// The preference vector that best describes local travel inside a
  /// district of type `d` (the rule-level view of the subjective
  /// landscape; used as the reference point in tests and analyses).
  static LatentPreference ReferencePreference(DistrictType d,
                                              TimePeriod period);

 private:
  const GeneratedNetwork* world_;
  // factors_[period][district][road type]
  double factors_[kNumTimePeriods][kNumDistrictTypes][kNumRoadTypes];
  EdgeWeights subjective_[kNumTimePeriods];
};

}  // namespace l2r

#endif  // L2R_TRAJ_DRIVER_MODEL_H_
