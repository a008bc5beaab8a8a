#ifndef L2R_ROUTING_PREFERENCE_DIJKSTRA_H_
#define L2R_ROUTING_PREFERENCE_DIJKSTRA_H_

#include <vector>

#include "common/result.h"
#include "roadnet/weights.h"
#include "routing/path.h"
#include "routing/search_kernel.h"
#include "routing/slave_reachability.h"

namespace l2r {

/// Result of a preference-aware search.
struct PreferencePathResult {
  Path path;
  /// True when the slave road-type filter disconnected the destination and
  /// the search fell back to an unfiltered Dijkstra (the paper's Algorithm 2
  /// does not specify this case; we fall back and flag it). The flag is the
  /// same whether the filtered pass ran and failed or the reachability
  /// oracle skipped it.
  bool fell_back_to_unfiltered = false;
};

/// The paper's Algorithm 2 ("ApplyingPreferencesModifiedDijkstra"):
/// Dijkstra over the master-dimension cost where, from each settled vertex
/// u, only edges satisfying the slave road-type preference are explored —
/// unless u has no satisfying out-edge, in which case all of u's edges are
/// explored. The slave filter runs as the kernel's edge admission policy.
/// The search is goal-directed when `master` carries a potential
/// (routing/goal_potential.h): the filter admits a fixed subgraph, on
/// which the full-graph bounds stay admissible, so the route is the one
/// the unguided search returns.
///
/// When the filter disconnects t, the filtered pass settles s's whole
/// filtered component before the unfiltered rerun. With a
/// SlaveReachability oracle that proves t unreachable under the mask,
/// Route skips that pass and runs unfiltered straight away: the route,
/// the status and fell_back_to_unfiltered are what the two passes give,
/// and only the futile pass's settles go.
class PreferenceDijkstra {
 public:
  /// `reach`, when non-null, must index `net` and outlive the search.
  explicit PreferenceDijkstra(const RoadNetwork& net,
                              const SlaveReachability* reach = nullptr);

  /// `master` is the cost weight array; `slave_mask` the preferred road
  /// types (0 = no slave preference = plain Dijkstra). `max_settles` caps
  /// the vertices settled per underlying search run (0 = unlimited): when
  /// a capped run gives out before reaching `t`, Route returns
  /// DeadlineExceeded so the caller can degrade instead of paying for the
  /// full rebuild. The cap counts settled vertices — a deterministic work
  /// measure — so budget decisions are identical across runs and threads.
  /// A goal-directed search settles far fewer vertices, so a given cap
  /// degrades fewer queries than it would with plain Dijkstra. A filtered
  /// pass the oracle skips spends none of the cap, so such a query can
  /// return its route where it would otherwise give out.
  Result<PreferencePathResult> Route(VertexId s, VertexId t,
                                     const EdgeWeights& master,
                                     RoadTypeMask slave_mask,
                                     size_t max_settles = 0);

  /// Settles accumulated over this instance's lifetime (see
  /// DijkstraSearch::LifetimeSettles).
  uint64_t LifetimeSettles() const { return ws_.lifetime_settles; }

 private:
  VertexId Run(VertexId s, VertexId t, const EdgeWeights& master,
               RoadTypeMask slave_mask, size_t max_settles, bool* exhausted);
  Path Extract(VertexId t) const;

  const RoadNetwork& net_;
  const SlaveReachability* const reach_;
  SearchWorkspace ws_;
};

}  // namespace l2r

#endif  // L2R_ROUTING_PREFERENCE_DIJKSTRA_H_
