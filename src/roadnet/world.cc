#include "roadnet/world.h"

#include <utility>

namespace l2r {

void World::IndexDistricts() {
  std::array<size_t, kNumDistrictTypes> counts{};
  for (const DistrictType d : vertex_district) {
    ++counts[static_cast<size_t>(d)];
  }
  for (int d = 0; d < kNumDistrictTypes; ++d) {
    vertices_by_district[d].clear();
    vertices_by_district[d].reserve(counts[d]);
  }
  for (VertexId v = 0; v < vertex_district.size(); ++v) {
    vertices_by_district[static_cast<size_t>(vertex_district[v])]
        .push_back(v);
  }
}

Result<World> WorldFromNetwork(RoadNetwork net,
                               std::vector<DistrictType> districts) {
  if (!districts.empty() && districts.size() != net.NumVertices()) {
    return Status::InvalidArgument("district count != vertex count");
  }
  World w;
  w.net = std::move(net);
  w.vertex_district = districts.empty()
                          ? std::vector<DistrictType>(
                                w.net.NumVertices(),
                                DistrictType::kResidential)
                          : std::move(districts);
  w.num_patches = 1;
  w.IndexDistricts();
  return w;
}

}  // namespace l2r
