#include "core/l2r.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "common/timer.h"
#include "region/trajectory_graph.h"
#include "routing/goal_potential.h"
#include "traj/split.h"

namespace l2r {

namespace {

/// Stitching: tradeoff between connector detour (meters) and path
/// popularity when choosing among a region edge's paths.
constexpr double kPopularityBonusM = 50;
/// Stitch-or-apply gate: a stitched region path is kept only when its
/// connector overhead stays below this fraction of the query's
/// straight-line distance; otherwise the route is built by applying the
/// region pair's (learned or transferred) preference with Algorithm 2 —
/// the same mechanism Sec. V-C uses for B-edges. The overhead is the
/// straight-line length of the gaps between the planned stored paths, so
/// the gate is decided before any connector search runs.
constexpr double kStitchOverheadLimit = 0.50;

uint64_t PathHops(const StoredPathRef& p) { return p.end - p.begin; }

/// Looks for a recorded inner-region trajectory sub-path from `from` to
/// `to` in region `r`, viewed in place; empty when none exists. Inner
/// paths are sorted by traversal count, so the first hit is the most
/// popular.
std::span<const VertexId> TryInnerSubPath(const RegionGraph& g, RegionId r,
                                          VertexId from, VertexId to) {
  for (const StoredPathRef& ref : g.region(r).inner_paths) {
    const std::span<const VertexId> path = g.ResolvePath(ref);
    for (size_t i = 0; i < path.size(); ++i) {
      if (path[i] != from) continue;
      for (size_t j = i; j < path.size(); ++j) {
        if (path[j] == to) return path.subspan(i, j - i + 1);
      }
      break;  // `from` found but `to` not after it; try next stored path
    }
  }
  return {};
}

}  // namespace

std::vector<const StoredPathRef*> LearnPaths(const RegionEdge& edge) {
  std::vector<const StoredPathRef*> refs;
  for (const StoredPathRef& p : edge.t_paths) {
    if (PathHops(p) >= kMinLearnPathHops) refs.push_back(&p);
  }
  std::stable_sort(refs.begin(), refs.end(),
                   [](const StoredPathRef* a, const StoredPathRef* b) {
                     return a->count * PathHops(*a) > b->count * PathHops(*b);
                   });
  if (refs.size() > kMaxLearnPaths) refs.resize(kMaxLearnPaths);
  return refs;
}

std::vector<std::optional<RoutingPreference>> LearnTEdgePreferences(
    const RoadNetwork& net, const RegionGraph& graph, const WeightSet& ws,
    const PreferenceFeatureSpace& space, const SlaveReachability* reach,
    unsigned num_threads, LearnCounts* counts) {
  auto evidence = [&](uint32_t e) {
    uint64_t total = 0;
    for (const StoredPathRef& p : graph.edge(e).t_paths) {
      if (PathHops(p) >= kMinLearnPathHops) total += p.count * PathHops(p);
    }
    return total;
  };
  std::vector<uint32_t> learn_set;
  for (uint32_t e = 0; e < graph.NumTEdges(); ++e) {
    if (evidence(e) > 0) learn_set.push_back(e);
  }
  if (learn_set.size() > kMaxLearnedTEdges) {
    std::stable_sort(learn_set.begin(), learn_set.end(),
                     [&](uint32_t a, uint32_t b) {
                       return evidence(a) > evidence(b);
                     });
    learn_set.resize(kMaxLearnedTEdges);
  }
  std::vector<std::optional<RoutingPreference>> labeled(graph.NumEdges());
  std::vector<LearnCounts> edge_counts(learn_set.size());
  ParallelForWorker(
      learn_set.size(),
      [&]() {
        return std::make_unique<PreferenceLearner>(net, ws, space, reach);
      },
      [&](std::unique_ptr<PreferenceLearner>& learner, size_t i) {
        const uint32_t e = learn_set[i];
        std::vector<std::vector<VertexId>> paths;
        std::vector<uint32_t> counts;
        for (const StoredPathRef* p : LearnPaths(graph.edge(e))) {
          const std::span<const VertexId> path = graph.ResolvePath(*p);
          paths.emplace_back(path.begin(), path.end());
          counts.push_back(static_cast<uint32_t>(p->count * PathHops(*p)));
        }
        auto learned = learner->LearnForPaths(paths, counts);
        if (!learned.ok()) return;
        labeled[e] = learned->pref;
        edge_counts[i] = learned->counts;
      },
      num_threads);
  if (counts != nullptr) {
    for (const LearnCounts& c : edge_counts) *counts += c;
  }
  return labeled;
}

Result<std::unique_ptr<L2RRouter>> L2RRouter::Build(
    const RoadNetwork* net, std::vector<MatchedTrajectory> training,
    const L2ROptions& options) {
  if (net == nullptr) return Status::InvalidArgument("net is null");
  if (training.empty()) {
    return Status::InvalidArgument("no training trajectories");
  }

  std::unique_ptr<L2RRouter> router(new L2RRouter(net));
  router->weights_[0] = WeightSet(*net, TimePeriod::kOffPeak);
  router->weights_[1] = WeightSet(*net, TimePeriod::kPeak);

  Timer total;
  // Goal-directed search potentials. Distance is the same in both periods,
  // so its arrays share one landmark table. Time and fuel get one table
  // per served period: a shared table over the faster off-peak weights
  // bounds peak costs loosely (peak time preference searches settled
  // 3.3x more on City scale 0.3). Every single-target search after this
  // point (learning, B-edge paths, serving) runs goal-directed.
  std::vector<std::vector<EdgeWeights*>> groups(1);
  for (int p = 0; p < kNumTimePeriods; ++p) {
    WeightSet& ws = router->weights_[p];
    groups.front().push_back(&ws.distance);
    groups.push_back({&ws.time});
    groups.push_back({&ws.fuel});
  }
  AttachGoalPotentials(*net, groups, options.num_threads);
  router->report_.landmark_seconds = total.ElapsedSeconds();
  // Every preference search after this point (learning, B-edge paths,
  // serving) skips filtered passes the oracle proves futile.
  Timer reach_timer;
  router->reach_ = SlaveReachability::Build(*net, router->space_.slaves(),
                                            options.num_threads);
  router->report_.reach_seconds = reach_timer.ElapsedSeconds();
  PeriodPartition parts = PartitionByPeriod(training);
  // A degenerate partition falls back to the full set so both period
  // graphs exist.
  if (parts.offpeak.empty()) parts.offpeak = training;
  if (parts.peak.empty()) parts.peak = training;
  L2R_RETURN_NOT_OK(router->BuildPeriod(
      TimePeriod::kOffPeak, std::move(parts.offpeak), options.num_threads));
  L2R_RETURN_NOT_OK(router->BuildPeriod(
      TimePeriod::kPeak, std::move(parts.peak), options.num_threads));
  router->report_.total_seconds = total.ElapsedSeconds();
  return router;
}

Status L2RRouter::BuildPeriod(TimePeriod period,
                              std::vector<MatchedTrajectory> trajectories,
                              unsigned num_threads) {
  const int pi = static_cast<int>(period);
  trajectories_[pi] = std::move(trajectories);
  L2RBuildReport::PeriodReport& rep = report_.period[pi];
  rep.trajectories = trajectories_[pi].size();
  const WeightSet& ws = weights_[pi];

  // 1. Clustering (Sec. IV-A).
  Timer timer;
  Result<TrajectoryGraph> tg =
      TrajectoryGraph::Build(*net_, trajectories_[pi]);
  if (!tg.ok()) return tg.status();
  Result<ClusteringResult> clustering =
      BottomUpClustering(*tg, net_->NumVertices());
  if (!clustering.ok()) return clustering.status();
  rep.cluster_seconds = timer.ElapsedSeconds();

  // 2. Region graph with T-edges and BFS B-edges (Sec. IV-B).
  timer.Restart();
  Result<RegionGraph> built =
      BuildRegionGraph(*net_, *clustering, &trajectories_[pi]);
  if (!built.ok()) return built.status();
  graphs_[pi] = std::make_unique<RegionGraph>(std::move(*built));
  RegionGraph& graph = *graphs_[pi];
  rep.num_regions = graph.NumRegions();
  rep.num_t_edges = graph.NumTEdges();
  rep.num_b_edges = graph.NumBEdges();
  rep.region_graph_seconds = timer.ElapsedSeconds();

  // 3. T-edge preference learning (Sec. V-A), parallel over T-edges.
  timer.Restart();
  LearnCounts learn_counts;
  const std::vector<std::optional<RoutingPreference>> labeled =
      LearnTEdgePreferences(*net_, graph, ws, space_, &reach_, num_threads,
                            &learn_counts);
  rep.learn_seconds = timer.ElapsedSeconds();
  rep.learn_searches = learn_counts.searches;
  rep.learn_reused = learn_counts.reused;
  rep.learn_pruned = learn_counts.pruned;
  rep.learn_path_scores = learn_counts.path_scores;

  // 4. Preference transfer to B-edges (Sec. V-B).
  timer.Restart();
  TransferOptions transfer_options;
  transfer_options.num_threads = num_threads;
  Result<TransferResult> transferred = TransferPreferences(
      ComputeAllRegionEdgeFeatures(graph), labeled, space_, transfer_options);
  if (!transferred.ok()) return transferred.status();
  preferences_[pi] = std::move(transferred->preferences);
  rep.transfer_null_rate = transferred->null_rate;
  rep.transfer_build_seconds = transferred->build_seconds;
  rep.transfer_solve_seconds = transferred->solve_seconds;
  rep.transfer_adjacency_nnz = transferred->adjacency_nnz;
  rep.transfer_solver_iterations = transferred->max_solver_iterations;
  rep.transfer_converged = transferred->all_converged;
  rep.transfer_seconds = timer.ElapsedSeconds();

  // 5. Apply transferred preferences: attach B-edge paths (Sec. V-C).
  timer.Restart();
  L2R_RETURN_NOT_OK(ApplyTransferredPreferences(
      &graph, *net_, ws, space_, preferences_[pi], &reach_, num_threads));
  rep.apply_seconds = timer.ElapsedSeconds();
  return Status::OK();
}

std::optional<Path> L2RRouter::InnerRegionRoute(const RegionGraph& graph,
                                                RegionId r, VertexId s,
                                                VertexId d) const {
  const std::span<const VertexId> verts = TryInnerSubPath(graph, r, s, d);
  if (verts.empty()) return std::nullopt;
  Path path;
  path.vertices.assign(verts.begin(), verts.end());
  return path;
}

std::optional<std::vector<uint32_t>> L2RRouter::RegionRoute(
    const RegionGraph& graph, RegionId rs, RegionId rd) const {
  // Direct region edge wins outright (Sec. VI).
  auto usable = [&](uint32_t eid) {
    const RegionEdge& e = graph.edge(eid);
    return e.is_t_edge ? !e.t_paths.empty() : !e.b_paths.empty();
  };
  const int64_t direct = graph.FindEdge(rs, rd);
  if (direct >= 0 && usable(static_cast<uint32_t>(direct))) {
    return std::vector<uint32_t>{static_cast<uint32_t>(direct)};
  }

  // Greedy best-first by centroid distance to the destination region.
  const Point& goal = graph.region(rd).centroid;
  IndexedMinHeap<double> frontier(graph.NumRegions());
  std::vector<int64_t> parent_edge(graph.NumRegions(), -1);
  std::vector<bool> visited(graph.NumRegions(), false);
  frontier.Push(rs, Dist(graph.region(rs).centroid, goal));
  visited[rs] = true;
  while (!frontier.empty()) {
    const auto [r, pri] = frontier.Pop();
    (void)pri;
    // A direct edge to the destination is always taken when present.
    const int64_t to_dest = graph.FindEdge(r, rd);
    if (to_dest >= 0 && usable(static_cast<uint32_t>(to_dest))) {
      std::vector<uint32_t> edges;
      edges.push_back(static_cast<uint32_t>(to_dest));
      RegionId cur = r;
      while (cur != rs) {
        const int64_t pe = parent_edge[cur];
        L2R_CHECK(pe >= 0);
        edges.push_back(static_cast<uint32_t>(pe));
        cur = graph.edge(static_cast<uint32_t>(pe)).from;
      }
      std::reverse(edges.begin(), edges.end());
      return edges;
    }
    for (const uint32_t eid : graph.OutEdges(r)) {
      if (!usable(eid)) continue;
      const RegionId nxt = graph.edge(eid).to;
      if (visited[nxt]) continue;
      visited[nxt] = true;
      parent_edge[nxt] = eid;
      frontier.Push(nxt, Dist(graph.region(nxt).centroid, goal));
    }
  }
  return std::nullopt;
}

std::span<const VertexId> L2RRouter::BestEdgePath(const RegionGraph& graph,
                                                  const RegionEdge& edge,
                                                  VertexId cur,
                                                  const Point& goal) const {
  const Point& here = net_->VertexPos(cur);
  std::span<const VertexId> best;
  double best_score = kInfCost;
  auto consider = [&](std::span<const VertexId> verts, uint32_t count) {
    if (verts.size() < 2) return;
    // Enter where we are, leave toward where we are going: detour to the
    // path start plus remaining distance from the path end to the query
    // destination, discounted by path popularity.
    const double connector = Dist(here, net_->VertexPos(verts.front()));
    const double onward = Dist(net_->VertexPos(verts.back()), goal);
    const double score = connector + onward -
                         kPopularityBonusM * std::log2(1.0 + count);
    if (score < best_score) {
      best_score = score;
      best = verts;
    }
  };
  if (edge.is_t_edge) {
    for (const StoredPathRef& ref : edge.t_paths) {
      consider(graph.ResolvePath(ref), ref.count);
    }
  } else {
    for (const std::vector<VertexId>& p : edge.b_paths) consider(p, 1);
  }
  return best;
}

std::optional<RoutingPreference> L2RRouter::PairPreference(
    int period_index, const std::vector<uint32_t>& region_edges) const {
  const auto& prefs = preferences_[period_index];
  // The first hop along the region path that carries a (learned or
  // transferred) preference; on a single-edge path that is the direct
  // (Rs, Rd) edge.
  for (const uint32_t eid : region_edges) {
    if (eid < prefs.size() && prefs[eid].has_value()) return prefs[eid];
  }
  return std::nullopt;
}

std::optional<double> L2RRouter::PlanStitch(
    const RegionGraph& graph, const std::vector<uint32_t>& region_edges,
    VertexId cur, VertexId dest,
    std::vector<std::span<const VertexId>>* hops) const {
  auto gap = [&](VertexId from, VertexId to) {
    return Dist(net_->VertexPos(from), net_->VertexPos(to));
  };
  const Point& goal = net_->VertexPos(dest);
  double overhead_m = 0;
  for (const uint32_t eid : region_edges) {
    const std::span<const VertexId> chosen =
        BestEdgePath(graph, graph.edge(eid), cur, goal);
    if (chosen.empty()) return std::nullopt;
    overhead_m += gap(cur, chosen.front());
    hops->push_back(chosen);
    cur = chosen.back();
  }
  return overhead_m + gap(cur, dest);
}

Status L2RRouter::StitchRegionPath(
    L2RQueryContext* ctx, const RegionGraph& graph, const WeightSet& ws,
    std::span<const std::span<const VertexId>> hops, VertexId dest,
    std::vector<VertexId>* out) const {
  auto append = [out](std::span<const VertexId> seg) {
    out->insert(out->end(), seg.begin() + 1, seg.end());
  };
  auto connect = [&](VertexId from, VertexId to) -> Status {
    if (from == to) return Status::OK();
    // Prefer a recorded inner-region path when both endpoints share a
    // region; otherwise the fastest path.
    const RegionId r = graph.RegionOf(from);
    if (r != kNoRegion && graph.RegionOf(to) == r) {
      const std::span<const VertexId> inner =
          TryInnerSubPath(graph, r, from, to);
      if (!inner.empty()) {
        append(inner);
        return Status::OK();
      }
    }
    auto fastest = ctx->dijkstra.ShortestPath(from, to, ws.time);
    if (!fastest.ok()) return fastest.status();
    append(fastest->vertices);
    return Status::OK();
  };

  for (const std::span<const VertexId> hop : hops) {
    L2R_RETURN_NOT_OK(connect(out->back(), hop.front()));
    append(hop);
  }
  return connect(out->back(), dest);
}

Result<RouteResult> L2RRouter::Route(L2RQueryContext* ctx,
                                     const QueryKey& key,
                                     size_t max_preference_settles) const {
  const VertexId s = key.s;
  const VertexId d = key.d;
  if (ctx == nullptr) return Status::InvalidArgument("ctx is null");
  if (s >= net_->NumVertices() || d >= net_->NumVertices()) {
    return Status::InvalidArgument("vertex id out of range");
  }
  if (key.period >= kNumTimePeriods) {
    return Status::InvalidArgument("period out of range");
  }
  if (s == d) return Status::InvalidArgument("source equals destination");

  const int pi = key.period;
  const RegionGraph& graph = *graphs_[pi];
  const WeightSet& ws = weights_[pi];

  RouteResult result;

  auto finish = [&](Path path, RouteMethod method) -> Result<RouteResult> {
    Result<double> tt = net_->PathTravelTimeS(path.vertices, ws.period());
    if (!tt.ok()) return tt.status();
    path.cost = *tt;
    result.path = std::move(path);
    result.method = method;
    return result;
  };

  auto fastest_fallback = [&]() -> Result<RouteResult> {
    auto fastest = ctx->dijkstra.ShortestPath(s, d, ws.time);
    if (!fastest.ok()) return fastest.status();
    return finish(std::move(*fastest), RouteMethod::kFastestFallback);
  };

  // Case 1, same region: the most-traversed recorded inner path, else the
  // fastest path (Sec. VI).
  RegionId rs = graph.RegionOf(s);
  RegionId rd = graph.RegionOf(d);
  if (rs != kNoRegion && rs == rd) {
    if (auto inner = InnerRegionRoute(graph, rs, s, d)) {
      return finish(std::move(*inner), RouteMethod::kInnerRegionPopular);
    }
    return fastest_fallback();
  }

  // Case 2: find candidate regions by fastest-path search (forward from s,
  // backward from d), keeping the connector paths Ps and Pd.
  std::vector<VertexId> prefix{s};
  std::vector<VertexId> suffix{d};
  if (rs == kNoRegion) {
    const VertexId hit = ctx->dijkstra.RunUntilT(s, ws.time, [&](VertexId v) {
      return v == d || graph.RegionOf(v) != kNoRegion;
    });
    if (hit == kInvalidVertex) return fastest_fallback();
    if (hit == d) {
      return finish(ctx->dijkstra.ExtractPath(d),
                    RouteMethod::kFastestFallback);
    }
    prefix = ctx->dijkstra.ExtractPath(hit).vertices;
    rs = graph.RegionOf(hit);
  }
  if (rd == kNoRegion) {
    const VertexId hit =
        ctx->dijkstra.RunUntilReverseT(d, ws.time, [&](VertexId v) {
          return v == s || graph.RegionOf(v) != kNoRegion;
        });
    if (hit == kInvalidVertex || hit == s) return fastest_fallback();
    suffix = ctx->dijkstra.ExtractReversePath(hit).vertices;
    rd = graph.RegionOf(hit);
  }

  // The road path through the planned hops: prefix, hops joined by
  // connectors, suffix.
  std::vector<std::span<const VertexId>> hops;
  auto stitch = [&]() -> Result<Path> {
    Path path;
    path.vertices = prefix;
    L2R_RETURN_NOT_OK(StitchRegionPath(ctx, graph, ws, hops, suffix.front(),
                                       &path.vertices));
    path.vertices.insert(path.vertices.end(), suffix.begin() + 1,
                         suffix.end());
    return path;
  };

  if (rs == rd) {
    // The candidate regions coincide: connect through the region.
    auto stitched = stitch();
    if (!stitched.ok()) return fastest_fallback();
    return finish(std::move(*stitched), RouteMethod::kRegionGraph);
  }

  const auto region_edges = RegionRoute(graph, rs, rd);
  const std::optional<RoutingPreference> pair_pref =
      region_edges.has_value() ? PairPreference(pi, *region_edges)
                               : std::nullopt;

  // Applying the region pair's preference with Algorithm 2 — the paper's
  // mechanism for identifying paths where recorded ones do not serve.
  // Under a settle budget (max_preference_settles), a search that would
  // blow the budget degrades to the planned stitch (the region path that
  // failed the overhead gate, built only now) when `degrade_to_stitch`
  // and it connects, else to the fastest fallback, with the decision
  // recorded in RouteResult::budget_degraded.
  auto preference_route = [&](bool degrade_to_stitch) -> Result<RouteResult> {
    if (!pair_pref.has_value()) return fastest_fallback();
    auto routed = ctx->pref_dijkstra.Route(
        s, d, ws.Get(pair_pref->master),
        space_.slave_mask(pair_pref->slave_index),
        max_preference_settles);
    if (routed.ok()) {
      return finish(std::move(routed->path), RouteMethod::kPreferenceRoute);
    }
    if (routed.status().code() == StatusCode::kDeadlineExceeded) {
      result.budget_degraded = true;
      if (degrade_to_stitch) {
        auto stitched = stitch();
        if (stitched.ok()) {
          return finish(std::move(*stitched), RouteMethod::kRegionGraph);
        }
      }
    }
    return fastest_fallback();
  };

  if (!region_edges.has_value()) return preference_route(false);
  const std::optional<double> overhead =
      PlanStitch(graph, *region_edges, prefix.back(), suffix.front(), &hops);
  if (!overhead.has_value()) return preference_route(false);
  // Stitch-or-apply gate: recorded paths are reused only when they
  // actually pass near the query endpoints; otherwise the preference is
  // applied directly (see kStitchOverheadLimit).
  const double span = Dist(net_->VertexPos(s), net_->VertexPos(d));
  if (*overhead > kStitchOverheadLimit * span) return preference_route(true);
  auto stitched = stitch();
  if (!stitched.ok()) return preference_route(false);
  return finish(std::move(*stitched), RouteMethod::kRegionGraph);
}

void L2RRouter::RefreshEdgeWeights(std::span<const EdgeId> edges) {
  for (int p = 0; p < kNumTimePeriods; ++p) {
    for (EdgeId e : edges) weights_[p].RefreshEdge(*net_, e);
  }
}

void L2RRouter::SetGoalDirected(bool on) {
  for (WeightSet& ws : weights_) ws.SetPotentialEnabled(on);
}

std::vector<RegionId> RouteRegionFootprint(const L2RRouter& router,
                                           const RouteResult& result,
                                           TimePeriod period) {
  if (result.budget_degraded) return {kAllRegionsBucket};
  const RegionGraph& graph = router.region_graph(period);
  std::vector<RegionId> regions;
  regions.reserve(8);
  for (VertexId v : result.path.vertices) {
    regions.push_back(graph.RegionOf(v));
  }
  std::sort(regions.begin(), regions.end());
  regions.erase(std::unique(regions.begin(), regions.end()), regions.end());
  return regions;
}

}  // namespace l2r
