#ifndef L2R_ROADNET_WORLD_H_
#define L2R_ROADNET_WORLD_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "roadnet/road_network.h"

namespace l2r {

/// Urban-planning district classes used by the synthetic world model. The
/// generator assigns one to every vertex; the trajectory generator's latent
/// driver preferences key on district types (README "Synthetic stand-ins").
/// L2R itself never sees districts — it only sees the network and
/// trajectories, exactly like the paper.
enum class DistrictType : uint8_t {
  kCityCenter = 0,
  kBusiness = 1,
  kResidential = 2,
  kIndustrial = 3,
  kSuburb = 4,
  kRural = 5,
};
inline constexpr int kNumDistrictTypes = 6;

const char* DistrictTypeName(DistrictType t);

/// Peak-hour congestion multiplier on free-flow speed for a district.
double DistrictPeakFactor(DistrictType t);

/// The one immutable world handle every consumer routes on — L2R build,
/// ServingRouter, bench, tests — however it was produced: a hand-built
/// network (WorldFromNetwork), the synthetic generator (GenerateNetwork)
/// or a mapped snapshot (WorldSnapshot::Open). Carries the road network
/// plus the world-model ground truth the trajectory generator needs
/// (per-vertex district types).
///
/// A snapshot-origin World's network arrays are read-only views into the
/// snapshot image; the network's copy-on-write mutation seam keeps
/// dynamic-world updates working on top of the shared image (see
/// RoadNetwork's class comment).
struct World {
  RoadNetwork net;
  std::vector<DistrictType> vertex_district;
  std::array<std::vector<VertexId>, kNumDistrictTypes> vertices_by_district;
  size_t num_patches = 0;

  /// Rebuilds vertices_by_district from vertex_district.
  void IndexDistricts();
};

/// Wraps a finished network into a World. `districts` must be empty (all
/// vertices become kResidential) or have one entry per vertex.
Result<World> WorldFromNetwork(RoadNetwork net,
                               std::vector<DistrictType> districts = {});

}  // namespace l2r

#endif  // L2R_ROADNET_WORLD_H_
