#ifndef L2R_ROUTING_PATH_H_
#define L2R_ROUTING_PATH_H_

#include <vector>

#include "roadnet/road_network.h"

namespace l2r {

/// A path P = <v1, ..., va> in the road network plus its cost under the
/// weight function the producing search used.
struct Path {
  std::vector<VertexId> vertices;
  double cost = 0;

  bool operator==(const Path&) const = default;

  bool empty() const { return vertices.empty(); }
  VertexId source() const { return vertices.front(); }
  VertexId destination() const { return vertices.back(); }
};

/// True if consecutive vertices are connected by edges in `net`.
bool PathIsConnected(const RoadNetwork& net, const std::vector<VertexId>& p);

/// Concatenates `suffix` onto `base`; if base's last vertex equals suffix's
/// first, the duplicate is dropped. Costs are added.
void AppendPath(Path* base, const Path& suffix);

}  // namespace l2r

#endif  // L2R_ROUTING_PATH_H_
