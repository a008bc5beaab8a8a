#ifndef L2R_TRAJ_GENERATOR_H_
#define L2R_TRAJ_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "roadnet/generator.h"
#include "traj/driver_model.h"
#include "traj/trajectory.h"

namespace l2r {

/// Parameters of the trajectory workload generator, the substitute for
/// the paper's D1/D2 GPS sets (README "Synthetic stand-ins").
struct TrajectoryGenConfig {
  size_t num_trajectories = 10000;
  uint64_t seed = 7;
  /// Length of the synthetic timeline in days; departures are spread over
  /// it (the paper splits train/test by time).
  int num_days = 28;
  /// GPS sampling interval: 1 s reproduces the high-frequency D1 regime,
  /// 10-30 s the low-frequency D2 regime.
  double sample_interval_s = 1.0;
  /// Standard deviation of per-axis Gaussian GPS noise, meters.
  double gps_noise_sigma_m = 5.0;
  /// Probability a driver ignores the latent preference and just drives
  /// the fastest path (behavioural noise).
  double pref_noise = 0.08;
  /// Fraction of trip endpoints drawn from Zipf-weighted hotspots; the
  /// rest are district-gravity draws. Produces the skewed, sparse coverage
  /// the paper's problem setting assumes.
  double hotspot_fraction = 0.5;
  int num_hotspots = 50;
  double zipf_exponent = 1.1;
  double min_trip_euclid_m = 800;
  /// Gravity-style distance decay of destination choice: among candidate
  /// destinations, nearer ones are preferred with weight exp(-dist/decay).
  /// Produces the paper's Table II shape (short trips dominate, thin long
  /// tail). 0 disables.
  double od_distance_decay_m = 4000;
  uint32_t num_drivers = 200;
  /// Fraction of departures inside peak windows.
  double peak_fraction = 0.45;
  /// Emit raw GPS records (off for large workloads where only the matched
  /// paths are needed; the ground-truth path is always emitted).
  bool emit_gps = true;
  /// Cap on GPS records per trajectory (0 = unlimited).
  size_t max_records_per_traj = 4000;
  unsigned num_threads = 0;  ///< 0 = DefaultThreadCount()
};

/// A generated workload: raw GPS trajectories (if requested) and the
/// ground-truth matched paths, index-aligned.
struct TrajectoryDataset {
  std::vector<Trajectory> gps;
  std::vector<MatchedTrajectory> matched;
};

/// Generates trajectories from the latent driver model: skewed OD demand,
/// preference-aware path choice, GPS emission with noise. Deterministic in
/// `config.seed` regardless of thread count.
class TrajectoryGenerator {
 public:
  TrajectoryGenerator(const GeneratedNetwork* world,
                      const DriverModel* model);

  Result<TrajectoryDataset> Generate(const TrajectoryGenConfig& config) const;

 private:
  const GeneratedNetwork* world_;
  const DriverModel* model_;
};

}  // namespace l2r

#endif  // L2R_TRAJ_GENERATOR_H_
