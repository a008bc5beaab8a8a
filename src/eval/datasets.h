#ifndef L2R_EVAL_DATASETS_H_
#define L2R_EVAL_DATASETS_H_

#include <string>

#include "common/result.h"
#include "eval/harness.h"
#include "roadnet/generator.h"
#include "traj/generator.h"
#include "traj/split.h"

namespace l2r {

/// A self-contained experiment dataset: world model + workload + split +
/// reporting buckets. Mirrors the paper's two datasets (README "Synthetic
/// stand-ins"):
///   Metro ≈ N1/D1 (Denmark, 1 Hz GPS, long trips possible)
///   City  ≈ N2/D2 (Chengdu taxi, 0.03-0.1 Hz GPS, short urban trips)
struct DatasetSpec {
  std::string name;
  NetworkGenConfig network;
  TrajectoryGenConfig traj;
  DistanceBuckets buckets;
  /// Temporal train fraction (the paper trains on the first 18 months of
  /// D1 / 21 days of D2).
  double train_fraction = 0.75;
};

/// D1-like preset. `traj_scale` scales the workload size.
DatasetSpec MetroDataset(double traj_scale = 1.0);
/// D2-like preset.
DatasetSpec CityDataset(double traj_scale = 1.0);

struct BuiltDataset {
  GeneratedNetwork world;
  TrajectoryDataset data;
  TrajectorySplit split;
};

/// Generates the world, the workload, and the temporal split.
Result<BuiltDataset> BuildDataset(const DatasetSpec& spec);

}  // namespace l2r

#endif  // L2R_EVAL_DATASETS_H_
