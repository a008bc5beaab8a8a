#ifndef L2R_TRANSFER_APPLY_H_
#define L2R_TRANSFER_APPLY_H_

#include "common/result.h"
#include "region/region_graph.h"
#include "routing/slave_reachability.h"
#include "transfer/transfer.h"

namespace l2r {

/// Step 3 (Sec. V-C): for every B-edge, identify paths between transfer
/// centers of its two regions with the transferred preference, using the
/// modified Dijkstra of Algorithm 2. B-edges with null preferences get
/// fastest paths (Sec. VII-B). Fills RegionEdge::b_paths in place: one
/// path per routable transfer-center pair, at most 9 per B-edge.
/// `reach` (optional, see PreferenceDijkstra) skips futile filtered
/// passes; `num_threads`: 0 = hardware concurrency. The paths are the same
/// with or without `reach` and at every thread count.
Status ApplyTransferredPreferences(
    RegionGraph* graph, const RoadNetwork& net, const WeightSet& weights,
    const PreferenceFeatureSpace& space,
    const std::vector<std::optional<RoutingPreference>>& preferences,
    const SlaveReachability* reach = nullptr, unsigned num_threads = 0);

}  // namespace l2r

#endif  // L2R_TRANSFER_APPLY_H_
