#ifndef L2R_TRANSFER_FEATURES_H_
#define L2R_TRANSFER_FEATURES_H_

#include <cstdint>
#include <vector>

#include "region/region_graph.h"

namespace l2r {

/// Feature description of one region edge (Sec. V-B): the centroid distance
/// `dis` of its two regions, and the functionality feature F — the
/// Cartesian product of the two regions' top-k road-type sets (k =
/// kTopRoadTypes) — packed as a 36-bit mask over (type_a, type_b) pairs so
/// Jaccard similarity is two popcounts.
struct RegionEdgeFeatures {
  double dis = 0;
  uint64_t f_mask = 0;
};

/// k of the top-k road types that define a region's functionality F.
inline constexpr int kTopRoadTypes = 2;

/// Bit for the ordered road-type pair (ta, tb).
inline constexpr uint64_t RoadTypePairBit(int ta, int tb) {
  return 1ULL << (ta * kNumRoadTypes + tb);
}

/// Computes features for a region edge of `graph`.
RegionEdgeFeatures ComputeRegionEdgeFeatures(const RegionGraph& graph,
                                             const RegionEdge& edge);

/// Features for all edges of `graph`, index-aligned with graph.edges().
std::vector<RegionEdgeFeatures> ComputeAllRegionEdgeFeatures(
    const RegionGraph& graph);

/// Distance term of reSim: min(dis)/max(dis), in [0, 1]. Two zero-length
/// edges are maximally distance-similar; one zero-length edge matches
/// nothing.
inline double DistanceSimilarity(double a, double b) {
  if (a <= 0 && b <= 0) return 1;
  if (a <= 0 || b <= 0) return 0;
  return a < b ? a / b : b / a;
}

/// Functionality term of reSim: Jaccard(F_a, F_b) over the packed masks,
/// in [0, 1]; 0 when both are empty.
double MaskJaccard(uint64_t a, uint64_t b);

/// The paper's region-edge similarity:
///   reSim(a, b) = min(dis)/max(dis) + Jaccard(F_a, F_b), in [0, 2].
/// Always DistanceSimilarity + MaskJaccard, so a caller that tabulates
/// either term gets bit-equal sums.
double RegionEdgeSimilarity(const RegionEdgeFeatures& a,
                            const RegionEdgeFeatures& b);

}  // namespace l2r

#endif  // L2R_TRANSFER_FEATURES_H_
