#include "transfer/features.h"

#include <bit>

namespace l2r {

RegionEdgeFeatures ComputeRegionEdgeFeatures(const RegionGraph& graph,
                                             const RegionEdge& edge) {
  RegionEdgeFeatures out;
  const RegionInfo& a = graph.region(edge.from);
  const RegionInfo& b = graph.region(edge.to);
  out.dis = Dist(a.centroid, b.centroid);
  const RoadTypeMask ma = a.TopRoadTypes(kTopRoadTypes);
  const RoadTypeMask mb = b.TopRoadTypes(kTopRoadTypes);
  for (int ta = 0; ta < kNumRoadTypes; ++ta) {
    if (!MaskContains(ma, static_cast<RoadType>(ta))) continue;
    for (int tb = 0; tb < kNumRoadTypes; ++tb) {
      if (!MaskContains(mb, static_cast<RoadType>(tb))) continue;
      out.f_mask |= RoadTypePairBit(ta, tb);
    }
  }
  return out;
}

std::vector<RegionEdgeFeatures> ComputeAllRegionEdgeFeatures(
    const RegionGraph& graph) {
  std::vector<RegionEdgeFeatures> out;
  out.reserve(graph.NumEdges());
  for (const RegionEdge& e : graph.edges()) {
    out.push_back(ComputeRegionEdgeFeatures(graph, e));
  }
  return out;
}

double MaskJaccard(uint64_t a, uint64_t b) {
  const uint64_t uni = a | b;
  if (uni == 0) return 0;
  return static_cast<double>(std::popcount(a & b)) /
         static_cast<double>(std::popcount(uni));
}

double RegionEdgeSimilarity(const RegionEdgeFeatures& a,
                            const RegionEdgeFeatures& b) {
  return DistanceSimilarity(a.dis, b.dis) + MaskJaccard(a.f_mask, b.f_mask);
}

}  // namespace l2r
