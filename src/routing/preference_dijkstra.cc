#include "routing/preference_dijkstra.h"

#include <algorithm>

#include "common/check.h"
#include "routing/goal_potential.h"

namespace l2r {

namespace {

/// Lines 7-11 of Algorithm 2 as a kernel admission policy: per settled
/// vertex, explore an edge iff it satisfies the slave preference or no
/// out-edge does (noneSat). A zero mask admits everything.
struct SlaveFilter {
  const RoadNetwork& net;
  RoadTypeMask mask;
  bool none_sat = true;

  void BeginVertex(VertexId u) {
    if (mask != 0) none_sat = NoneSatisfies(net, u, mask);
  }
  bool ShouldExplore(EdgeId e) const {
    if (mask == 0 || none_sat) return true;
    return MaskContains(mask, net.edge(e).road_type);
  }
};

}  // namespace

PreferenceDijkstra::PreferenceDijkstra(const RoadNetwork& net,
                                       const SlaveReachability* reach)
    : net_(net), reach_(reach), ws_(net.NumVertices()) {
  L2R_CHECK(reach == nullptr || reach->num_vertices() == net.NumVertices());
}

VertexId PreferenceDijkstra::Run(VertexId s, VertexId t,
                                 const EdgeWeights& master,
                                 RoadTypeMask slave_mask, size_t max_settles,
                                 bool* exhausted) {
  // The budget fires through the stop predicate: stop() sees each vertex
  // right after it is settled, so `settled_count >= cap` aborts the
  // search at a deterministic point in the expansion order.
  bool hit_budget = false;
  auto stop = [&](VertexId v) {
    if (v == t) return true;
    if (max_settles != 0 && ws_.settled_count >= max_settles) {
      hit_budget = true;
      return true;
    }
    return false;
  };
  const GoalPotential potential(net_, master, t);
  const VertexId got =
      RunToTarget(net_, ws_, s, t, ArrayWeight{&master}, potential, stop,
                  SlaveFilter{net_, slave_mask});
  *exhausted = hit_budget && got != t;
  return got;
}

Path PreferenceDijkstra::Extract(VertexId t) const {
  Path path;
  path.cost = ws_.dist[t];
  path.vertices = ExtractForwardVertices(net_, ws_, t);
  return path;
}

Result<PreferencePathResult> PreferenceDijkstra::Route(
    VertexId s, VertexId t, const EdgeWeights& master,
    RoadTypeMask slave_mask, size_t max_settles) {
  if (s >= net_.NumVertices() || t >= net_.NumVertices()) {
    return Status::InvalidArgument("vertex id out of range");
  }
  PreferencePathResult out;
  bool exhausted = false;
  // A pass the oracle proves futile can only end with t unreached (or, under
  // a cap, out of settles); skipping it changes no uncapped result.
  const bool futile =
      reach_ != nullptr && reach_->Unreachable(slave_mask, s, t);
  if (!futile) {
    if (Run(s, t, master, slave_mask, max_settles, &exhausted) == t) {
      out.path = Extract(t);
      return out;
    }
    if (exhausted) {
      return Status::DeadlineExceeded("preference search settle budget");
    }
    if (slave_mask == 0) {
      return Status::NotFound("no path " + std::to_string(s) + "->" +
                              std::to_string(t));
    }
  }
  // The slave filter can disconnect t (Algorithm 2 leaves this case
  // unspecified); fall back to the unfiltered master-cost search.
  if (Run(s, t, master, /*slave_mask=*/0, max_settles, &exhausted) == t) {
    out.path = Extract(t);
    out.fell_back_to_unfiltered = true;
    return out;
  }
  if (exhausted) {
    return Status::DeadlineExceeded("preference search settle budget");
  }
  return Status::NotFound("no path " + std::to_string(s) + "->" +
                          std::to_string(t));
}

}  // namespace l2r
