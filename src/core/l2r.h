#ifndef L2R_CORE_L2R_H_
#define L2R_CORE_L2R_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/serve_hooks.h"
#include "pref/learner.h"
#include "region/region_graph.h"
#include "routing/dijkstra.h"
#include "routing/slave_reachability.h"
#include "transfer/apply.h"
#include "transfer/transfer.h"
#include "traj/trajectory.h"

namespace l2r {

/// Options of the full learn-to-route pipeline. Every other build
/// parameter is a named constant in the module that uses it (README,
/// "Offline pipeline").
struct L2ROptions {
  /// Threads for every parallel build step (landmarks, learning, transfer,
  /// apply); 0 = hardware concurrency. The build is the same at every
  /// value.
  unsigned num_threads = 0;
};

/// Budget on T-edges whose preferences are learned directly (the
/// highest-evidence edges first); the rest stay unlabeled and receive
/// transferred preferences like B-edges.
inline constexpr size_t kMaxLearnedTEdges = 8000;

/// The paths a T-edge learns from (Sec. V-A): its kMaxLearnPaths most
/// informative stored paths of at least kMinLearnPathHops hops, ranked by
/// traversals x hops, ties in stored order. Points into edge.t_paths;
/// empty when no path is long enough.
std::vector<const StoredPathRef*> LearnPaths(const RegionEdge& edge);

/// T-edge preference learning (Sec. V-A), the offline build's step 3.
/// Learns every T-edge that has a path of at least kMinLearnPathHops hops;
/// when more than kMaxLearnedTEdges do, only those with the most evidence
/// (traversals x hops summed over such paths, ties in edge order). Each
/// edge learns from its LearnPaths, weighted by traversals x hops. The
/// result is index-aligned with graph.edges(), nullopt for B-edges and
/// unlearned T-edges, and the same with or without `reach` (which only
/// skips futile filtered passes; null = none) and at every `num_threads`
/// (0 = hardware concurrency).
std::vector<std::optional<RoutingPreference>> LearnTEdgePreferences(
    const RoadNetwork& net, const RegionGraph& graph, const WeightSet& ws,
    const PreferenceFeatureSpace& space, const SlaveReachability* reach,
    unsigned num_threads);

/// Build-time report (the offline processing the paper times in
/// Sec. VII-C).
struct L2RBuildReport {
  struct PeriodReport {
    size_t trajectories = 0;
    size_t num_regions = 0;
    size_t num_t_edges = 0;
    size_t num_b_edges = 0;
    double cluster_seconds = 0;
    double region_graph_seconds = 0;
    double learn_seconds = 0;
    double transfer_seconds = 0;
    double apply_seconds = 0;
    double transfer_null_rate = 0;
    /// Transfer's split (TransferResult): adjacency + Laplacian assembly,
    /// the p column solves, off-diagonal nnz of M, the most iterations
    /// any column's solve took, whether every column met the CG
    /// tolerance, and the rows of M settled by the sequential tie rule.
    double transfer_build_seconds = 0;
    double transfer_solve_seconds = 0;
    size_t transfer_adjacency_nnz = 0;
    int transfer_solver_iterations = 0;
    bool transfer_converged = false;
    size_t transfer_tie_rows = 0;
  };
  PeriodReport period[kNumTimePeriods];
  /// Landmark tables of the goal-directed search potentials.
  double landmark_seconds = 0;
  /// The slave-filter reachability oracle (routing/slave_reachability.h).
  double reach_seconds = 0;
  double total_seconds = 0;
};

/// How a returned route was produced (Sec. VI).
enum class RouteMethod : uint8_t {
  kInnerRegionPopular,  ///< Case 1, same region, popular trajectory path
  kRegionGraph,         ///< stitched from region-edge trajectory paths
  kPreferenceRoute,     ///< Algorithm 2 under the region pair's preference
  kFastestFallback,     ///< no usable region structure; fastest path
};

struct RouteResult {
  Path path;  ///< path.cost = travel time (s) for the queried period
  RouteMethod method = RouteMethod::kFastestFallback;
  /// True when the preference-route rebuild blew the query's settle budget
  /// (Route's max_preference_settles) and the route degraded to the
  /// stitched path or the fastest fallback. Deterministic: the budget
  /// counts settled vertices, never wall-clock time.
  bool budget_degraded = false;

  bool operator==(const RouteResult&) const = default;
};

/// The identity of the query from `s` to `d` departing at
/// `departure_time`: its period is PeriodOf(departure_time).
inline QueryKey QueryKeyOf(VertexId s, VertexId d, double departure_time) {
  return {s, d, static_cast<uint8_t>(PeriodOf(departure_time))};
}

/// Reusable per-thread query workspace (allocation-free routing).
class L2RQueryContext {
 public:
  /// `reach`: see PreferenceDijkstra (L2RRouter::MakeContext passes the
  /// router's oracle).
  explicit L2RQueryContext(const RoadNetwork& net,
                           const SlaveReachability* reach = nullptr)
      : dijkstra(net), pref_dijkstra(net, reach) {}

  /// Vertices settled by this context over its lifetime, across both
  /// search kernels — the deterministic work measure behind the
  /// repair-vs-recompute cost curve (world/RouteRepairer) and
  /// DeadlineBudget calibration.
  uint64_t TotalSettles() const {
    return dijkstra.LifetimeSettles() + pref_dijkstra.LifetimeSettles();
  }

 private:
  friend class L2RRouter;
  DijkstraSearch dijkstra;
  PreferenceDijkstra pref_dijkstra;
};

/// The learn-to-route engine (the paper's L2R): builds the region graph(s)
/// from training trajectories, learns T-edge preferences, transfers them to
/// B-edges, attaches B-edge paths, and serves routing requests for
/// arbitrary (source, destination) pairs.
class L2RRouter {
 public:
  /// Builds the full pipeline. `training` trajectories are consumed (the
  /// router keeps them: region graphs reference their paths). `net` must
  /// outlive the router.
  static Result<std::unique_ptr<L2RRouter>> Build(
      const RoadNetwork* net, std::vector<MatchedTrajectory> training,
      const L2ROptions& options = {});

  /// Routes from `key.s` to `key.d` on the region graph of `key.period`
  /// (InvalidArgument for a period >= kNumTimePeriods, like an
  /// out-of-range vertex). `max_preference_settles` caps the vertices the
  /// preference-route (Algorithm 2) rebuild may settle; 0 is no cap. The
  /// cap counts settles, never wall-clock time, so a degrade decision is
  /// reproducible (serve/DeadlineBudget derives it from a microsecond
  /// target).
  Result<RouteResult> Route(L2RQueryContext* ctx, const QueryKey& key,
                            size_t max_preference_settles = 0) const;

  /// The API edge: routes the query departing at `departure_time`.
  Result<RouteResult> Route(L2RQueryContext* ctx, VertexId s, VertexId d,
                            double departure_time) const {
    return Route(ctx, QueryKeyOf(s, d, departure_time));
  }

  /// A context whose preference searches use slave_reachability(); it
  /// must not outlive the router.
  L2RQueryContext MakeContext() const {
    return L2RQueryContext(*net_, &reach_);
  }

  const L2RBuildReport& build_report() const { return report_; }
  const RegionGraph& region_graph(TimePeriod p) const {
    return *graphs_[static_cast<int>(p)];
  }
  /// Final (learned or transferred) preference of each region edge of the
  /// period graph, index-aligned with region_graph(p).edges().
  const std::vector<std::optional<RoutingPreference>>& edge_preferences(
      TimePeriod p) const {
    return preferences_[static_cast<int>(p)];
  }
  const WeightSet& weights(TimePeriod p) const {
    return weights_[static_cast<int>(p)];
  }
  const PreferenceFeatureSpace& feature_space() const { return space_; }
  /// Reachability oracle over every slave mask of feature_space(), shared
  /// by both periods: masks depend only on topology and road types, which
  /// live updates never change.
  const SlaveReachability& slave_reachability() const { return reach_; }
  const RoadNetwork& net() const { return *net_; }

  /// Recomputes the cached per-edge weight arrays (both periods, all three
  /// cost features) for `edges` after the underlying network's attributes
  /// changed — the router half of the dynamic-world mutation seam
  /// (RoadNetwork::SetEdgeSpeeds / SetEdgeClosed mutate the source of
  /// truth; this propagates it into the arrays the search kernels read).
  /// Not synchronized: callers must hold the world update channel's
  /// exclusive gate, which excludes all in-flight queries.
  void RefreshEdgeWeights(std::span<const EdgeId> edges);

  /// Turns the goal-directed search potentials off (every search runs as
  /// plain Dijkstra) or back on. Routes are identical either way; this is
  /// the zero-potential reference for tests and benches. Not synchronized,
  /// like RefreshEdgeWeights.
  void SetGoalDirected(bool on);

 private:
  explicit L2RRouter(const RoadNetwork* net)
      : net_(net), space_(PreferenceFeatureSpace::Default()) {}

  Status BuildPeriod(TimePeriod period,
                     std::vector<MatchedTrajectory> trajectories,
                     unsigned num_threads);

  /// Sec. VI Case 1, same region: most-traversed recorded inner path.
  std::optional<Path> InnerRegionRoute(const RegionGraph& graph, RegionId r,
                                       VertexId s, VertexId d) const;

  /// Greedy region-graph search (Sec. VI): returns region-edge ids.
  std::optional<std::vector<uint32_t>> RegionRoute(const RegionGraph& graph,
                                                   RegionId rs,
                                                   RegionId rd) const;

  /// Maps a region path to a road path, stitching with inner paths /
  /// fastest connectors. `cur` is the current road vertex. Reports the
  /// total straight-line connector overhead in *overhead_m.
  Status StitchRegionPath(L2RQueryContext* ctx, const RegionGraph& graph,
                          const WeightSet& ws,
                          const std::vector<uint32_t>& region_edges,
                          VertexId cur, VertexId dest,
                          std::vector<VertexId>* out,
                          double* overhead_m) const;

  /// The preference governing travel from rs to rd: the preference of
  /// the first hop along `region_edges` that has one (on a single-edge
  /// path, the direct (Rs, Rd) edge's), nullopt when no hop has one.
  std::optional<RoutingPreference> PairPreference(
      int period_index, const std::vector<uint32_t>& region_edges) const;

  /// Chooses the best stored path on a region edge w.r.t. the current
  /// stitch position and the query destination (start near `cur`, end
  /// toward `goal`, popular paths preferred), viewed in place; empty when
  /// the edge has no path of two or more vertices.
  std::span<const VertexId> BestEdgePath(const RegionGraph& graph,
                                         const RegionEdge& edge,
                                         VertexId cur,
                                         const Point& goal) const;

  const RoadNetwork* net_;
  PreferenceFeatureSpace space_;
  SlaveReachability reach_;
  WeightSet weights_[kNumTimePeriods];
  std::vector<MatchedTrajectory> trajectories_[kNumTimePeriods];
  std::unique_ptr<RegionGraph> graphs_[kNumTimePeriods];
  std::vector<std::optional<RoutingPreference>>
      preferences_[kNumTimePeriods];
  L2RBuildReport report_;
};

/// Anything that answers routing queries on behalf of an L2RRouter —
/// either the router itself or a serving layer wrapped around it
/// (serve/ServingRouter). BatchRouter fans queries out through this
/// interface, so the cache/budget stack slots in without core
/// depending on serve/. Implementations must tolerate concurrent Route
/// calls (each with its own context) and must stay deterministic: the
/// result for (s, d, departure_time) may not depend on call order or
/// thread interleaving.
class QueryService {
 public:
  virtual ~QueryService() = default;

  /// The underlying router (context creation).
  virtual const L2RRouter& router() const = 0;

  virtual Result<RouteResult> Route(L2RQueryContext* ctx, VertexId s,
                                    VertexId d, double departure_time) = 0;

  /// Per-epoch serving counters (dynamic world): how many queries were
  /// answered on the current epoch vs on a stale-but-still-valid stamp.
  /// Default: no world attached, nothing to count.
  virtual EpochServeCounts GetEpochServeCounts() const { return {}; }
};

/// The set of region buckets `result` depends on, sorted and unique —
/// the invalidation footprint its cache entry is stamped with. A
/// budget-degraded result returns {kAllRegionsBucket}: its degrade bit is
/// a function of the search's exploration pattern, not just the final
/// path, so only a period-wide validity check is sound. Otherwise the
/// footprint is RegionOf over the path's vertices (kNoRegion included as
/// its own bucket when the path leaves the region cover).
std::vector<RegionId> RouteRegionFootprint(const L2RRouter& router,
                                           const RouteResult& result,
                                           TimePeriod period);

}  // namespace l2r

#endif  // L2R_CORE_L2R_H_
