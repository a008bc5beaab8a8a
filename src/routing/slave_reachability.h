#ifndef L2R_ROUTING_SLAVE_REACHABILITY_H_
#define L2R_ROUTING_SLAVE_REACHABILITY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "roadnet/road_network.h"

namespace l2r {

/// Algorithm 2's noneSat test (lines 7-11): true when no out-edge of `u`
/// has a road type in `mask`, so the slave filter explores all of u's
/// edges. The search's edge filter and the reachability index below both
/// use it, so they see one subgraph.
inline bool NoneSatisfies(const RoadNetwork& net, VertexId u,
                          RoadTypeMask mask) {
  for (const EdgeId e : net.OutEdges(u)) {
    if (MaskContains(mask, net.edge(e).road_type)) return false;
  }
  return true;
}

/// One-sided reachability oracle for Algorithm 2's slave-filtered
/// subgraphs. The filter depends only on the vertex and the mask: u keeps
/// its in-mask out-edges, or all of them when none is in the mask. So each
/// mask fixes a subgraph, and when t is unreachable in it the filtered
/// search is futile: it settles s's whole filtered component before
/// PreferenceDijkstra reruns unfiltered. The oracle lets Route skip that
/// pass.
///
/// Per mask it holds the strongly connected component of every vertex,
/// numbered by Tarjan's algorithm (a reverse topological order of the
/// condensation: a component reaches only components with smaller ids),
/// and kNumIntervals GRAIL interval labels [low, post] per component, each
/// from a post-order DFS over the condensation with a different child
/// order (Yildirim et al., VLDB 2010). If component c reaches d, then
/// d's id <= c's and each of d's intervals nests inside c's; when either
/// condition fails, t is provably unreachable. A pass condition proves
/// nothing, so Unreachable may answer false for an unreachable pair, never
/// true for a reachable one. Cost: 4 bytes per vertex plus 16 per
/// component, per mask; a transitive closure would be quadratic in the
/// components (residential at metro scale 3.0 has 282k).
///
/// Live updates keep it sound without a rebuild: they change speeds and
/// closures, never topology or road types, and a closure only removes
/// edges from the live subgraph. The noneSat test reads every out-edge,
/// closed or not, so the static subgraph contains every live one and a
/// static "unreachable" stays true.
///
/// Immutable after Build: concurrent queries need no synchronization.
class SlaveReachability {
 public:
  /// An empty oracle: it knows no mask, so Unreachable is always false.
  SlaveReachability() = default;

  /// Indexes every distinct non-zero mask of `masks` over `net`, one mask
  /// per task on up to `num_threads` threads (0 = default).
  static SlaveReachability Build(const RoadNetwork& net,
                                 std::span<const RoadTypeMask> masks,
                                 unsigned num_threads = 0);

  /// True only when `t` provably cannot be reached from `s` in the
  /// filtered subgraph of `mask`; false for a mask Build did not index
  /// (0 included). `s` and `t` must be vertices of the indexed network.
  bool Unreachable(RoadTypeMask mask, VertexId s, VertexId t) const;

  /// Vertex count of the indexed network (0 for an empty oracle).
  size_t num_vertices() const { return num_vertices_; }
  /// Heap bytes of the labels.
  size_t MemoryBytes() const;

 private:
  static constexpr int kNumIntervals = 2;
  struct Interval {
    uint32_t low = 0;   ///< smallest post-order number reachable
    uint32_t post = 0;  ///< this component's post-order number
  };
  struct MaskIndex {
    RoadTypeMask mask = 0;
    std::vector<uint32_t> component;  ///< per vertex, Tarjan id
    std::vector<Interval> intervals;  ///< kNumIntervals per component
  };

  static MaskIndex BuildMask(const RoadNetwork& net, RoadTypeMask mask);

  size_t num_vertices_ = 0;
  std::vector<MaskIndex> masks_;
};

}  // namespace l2r

#endif  // L2R_ROUTING_SLAVE_REACHABILITY_H_
