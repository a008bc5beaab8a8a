#include "transfer/apply.h"

#include "common/parallel.h"
#include "routing/preference_dijkstra.h"

namespace l2r {

namespace {

/// Transfer-center pairs routed per B-edge (the paper identifies one path
/// per pair; this bounds the number of searches).
constexpr size_t kMaxCenterPairs = 9;

}  // namespace

Status ApplyTransferredPreferences(
    RegionGraph* graph, const RoadNetwork& net, const WeightSet& weights,
    const PreferenceFeatureSpace& space,
    const std::vector<std::optional<RoutingPreference>>& preferences,
    const SlaveReachability* reach, unsigned num_threads) {
  if (graph == nullptr) return Status::InvalidArgument("graph is null");
  if (preferences.size() != graph->NumEdges()) {
    return Status::InvalidArgument("preferences size mismatch");
  }

  // Collect B-edge ids once; work item i handles b_edge_ids[i].
  std::vector<uint32_t> b_edge_ids;
  for (uint32_t e = 0; e < graph->NumEdges(); ++e) {
    if (!graph->edge(e).is_t_edge) b_edge_ids.push_back(e);
  }

  ParallelForWorker(
      b_edge_ids.size(),
      [&net, reach]() { return PreferenceDijkstra(net, reach); },
      [&](PreferenceDijkstra& search, size_t i) {
        const uint32_t eid = b_edge_ids[i];
        RegionEdge& edge = graph->mutable_edge(eid);
        const RegionInfo& from = graph->region(edge.from);
        const RegionInfo& to = graph->region(edge.to);

        CostFeature master = CostFeature::kTravelTime;
        RoadTypeMask slave = 0;
        const auto& pref = preferences[eid];
        if (pref.has_value()) {
          master = pref->master;
          slave = space.slave_mask(pref->slave_index);
        }  // else null preference: fastest paths (Sec. VII-B)
        const EdgeWeights& master_w = weights.Get(master);

        size_t pairs = 0;
        for (const VertexId a : from.transfer_centers) {
          for (const VertexId b : to.transfer_centers) {
            if (pairs >= kMaxCenterPairs) break;
            if (a == b) continue;
            auto routed = search.Route(a, b, master_w, slave);
            if (!routed.ok()) continue;
            ++pairs;
            edge.b_paths.push_back(std::move(routed->path.vertices));
          }
          if (pairs >= kMaxCenterPairs) break;
        }
      },
      num_threads);
  return Status::OK();
}

}  // namespace l2r
