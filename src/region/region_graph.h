#ifndef L2R_REGION_REGION_GRAPH_H_
#define L2R_REGION_REGION_GRAPH_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/flat_map.h"
#include "common/hull.h"
#include "common/result.h"
#include "region/clustering.h"
#include "traj/trajectory.h"

namespace l2r {

/// A reference to a contiguous slice [begin, end] (inclusive) of a matched
/// trajectory's vertex path, with the number of trajectories that traversed
/// exactly this vertex sequence. Region graphs store path references
/// instead of materialized vertex vectors to stay compact at scale.
struct StoredPathRef {
  uint32_t traj = 0;
  uint32_t begin = 0;
  uint32_t end = 0;
  uint32_t count = 1;
};

/// Per-region metadata (Sec. IV-B plus the features Sec. V-B needs).
struct RegionInfo {
  std::vector<VertexId> members;  ///< sorted
  Point centroid;
  double hull_area_km2 = 0;
  double hull_diameter_km = 0;
  /// Count of incident road-network edges by road type; the top-k types
  /// define the region's functionality feature F (Sec. V-B).
  std::array<uint64_t, kNumRoadTypes> road_type_counts{};
  /// Transfer centers: vertices where trajectories enter/leave the region,
  /// most frequent first (at most 8 per region).
  std::vector<VertexId> transfer_centers;
  /// Inner-region paths recorded from trajectories (Sec. IV-B).
  std::vector<StoredPathRef> inner_paths;

  /// Mask of the top-k road types by incident-edge count.
  RoadTypeMask TopRoadTypes(int k) const;
};

/// A directed region edge. T-edges carry trajectory path sets; B-edges get
/// paths attached by the preference-transfer step (Sec. V, step 3).
struct RegionEdge {
  RegionId from = kNoRegion;
  RegionId to = kNoRegion;
  bool is_t_edge = true;
  /// T-edge: unique trajectory paths with traversal counts, most popular
  /// first after Build.
  std::vector<StoredPathRef> t_paths;
  /// B-edge: paths identified via the transferred preference (Algorithm 2),
  /// one per transfer-center pair.
  std::vector<std::vector<VertexId>> b_paths;
};

/// The region graph G_R (Sec. IV-B): regions as vertices, T-edges from
/// trajectories, B-edges from the BFS completion, inner-region paths, and
/// transfer centers. Holds a pointer to the training trajectories used to
/// build it (for path-reference resolution); the caller keeps them alive.
class RegionGraph {
 public:
  size_t NumRegions() const { return regions_.size(); }
  size_t NumEdges() const { return edges_.size(); }
  size_t NumTEdges() const { return num_t_edges_; }
  size_t NumBEdges() const { return edges_.size() - num_t_edges_; }

  const RegionInfo& region(RegionId r) const { return regions_[r]; }
  const RegionEdge& edge(uint32_t e) const { return edges_[e]; }
  RegionEdge& mutable_edge(uint32_t e) { return edges_[e]; }
  const std::vector<RegionEdge>& edges() const { return edges_; }

  /// Region containing `v`, or kNoRegion.
  RegionId RegionOf(VertexId v) const {
    return v < vertex_region_.size() ? vertex_region_[v] : kNoRegion;
  }

  /// Directed edge id from `a` to `b`, or -1.
  int64_t FindEdge(RegionId a, RegionId b) const;

  /// Outgoing region-edge ids of region `r`.
  std::span<const uint32_t> OutEdges(RegionId r) const {
    return {out_edge_ids_.data() + out_offsets_[r],
            out_offsets_[r + 1] - out_offsets_[r]};
  }

  /// The vertices of a stored path reference, viewed in place in the
  /// training trajectory (valid as long as the graph's trajectories).
  std::span<const VertexId> ResolvePath(const StoredPathRef& ref) const;

  const std::vector<MatchedTrajectory>& trajectories() const {
    return *trajs_;
  }

 private:
  friend Result<RegionGraph> BuildRegionGraph(
      const RoadNetwork& net, const ClusteringResult& clustering,
      const std::vector<MatchedTrajectory>* trajs);

  std::vector<RegionInfo> regions_;
  std::vector<RegionEdge> edges_;
  /// Region-edge adjacency in CSR form (size num_regions + 1 offsets into
  /// one contiguous id array): the build accumulates per-region vectors
  /// and flattens them at the end, so the steady-state structure is two
  /// flat arrays — contiguous, 32-bit, snapshot-able.
  std::vector<uint32_t> out_offsets_;
  std::vector<uint32_t> out_edge_ids_;
  std::vector<RegionId> vertex_region_;
  FlatMap64 edge_index_;  // (from,to) -> edge
  size_t num_t_edges_ = 0;
  const std::vector<MatchedTrajectory>* trajs_ = nullptr;
};

/// Builds the region graph from a clustering and the training trajectories
/// (Sec. IV-B): T-edge construction, inner-region paths, transfer centers,
/// region features, and the BFS completion that adds B-edges until every
/// region connects to its nearby regions.
Result<RegionGraph> BuildRegionGraph(
    const RoadNetwork& net, const ClusteringResult& clustering,
    const std::vector<MatchedTrajectory>* trajs);

}  // namespace l2r

#endif  // L2R_REGION_REGION_GRAPH_H_
