#ifndef L2R_REGION_CLUSTERING_H_
#define L2R_REGION_CLUSTERING_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "region/trajectory_graph.h"

namespace l2r {

using RegionId = uint32_t;
inline constexpr RegionId kNoRegion = 0xFFFFFFFFu;

/// Output of the modularity-based clustering (Algorithm 1): disjoint
/// regions covering exactly the trajectory-graph vertices.
struct ClusteringResult {
  /// Region members; regions_[r] is region r's vertex set.
  std::vector<std::vector<VertexId>> regions;
  /// Dense map vertex -> region (kNoRegion for vertices not in the
  /// trajectory graph). Sized to the road network's vertex count.
  std::vector<RegionId> vertex_region;
  /// Road type recorded for each region's aggregate vertex (nullopt for
  /// single-vertex regions that never merged).
  std::vector<std::optional<RoadType>> region_road_type;
  /// Final popularity of each region's cluster.
  std::vector<uint64_t> region_popularity;
};

/// The paper's modularity gain DeltaQ_{vi,vj} = s_ij/S - Si*Sj/S^2 for
/// connected cluster pairs (0 otherwise, handled by callers).
double ModularityGain(uint64_t s_ij, uint64_t s_i, uint64_t s_j, uint64_t s);

/// BottomUpClustering (Algorithm 1): agglomerative, parameter-free
/// modularity clustering constrained by road type (Table I).
///
/// Deviation (README "Synthetic stand-ins"): when clusters merge,
/// parallel original edges between two clusters can carry different road
/// types; the aggregated cluster edge uses the popularity-dominant type
/// for the Table I checks (ties broken toward the smaller type id).
Result<ClusteringResult> BottomUpClustering(const TrajectoryGraph& graph,
                                            size_t num_network_vertices);

}  // namespace l2r

#endif  // L2R_REGION_CLUSTERING_H_
