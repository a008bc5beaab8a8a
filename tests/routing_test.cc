#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "routing/dijkstra.h"
#include "routing/goal_potential.h"
#include "routing/preference_dijkstra.h"
#include "routing/skyline.h"
#include "routing/slave_reachability.h"
#include "test_util.h"

namespace l2r {
namespace {

using testing::MakeGrid;
using testing::MakeLine;
using testing::ThreeCorridorNetwork;

/// Bellman-Ford oracle for shortest-path costs.
std::vector<double> BellmanFord(const RoadNetwork& net, VertexId s,
                                const EdgeWeights& w) {
  std::vector<double> dist(net.NumVertices(), kInfCost);
  dist[s] = 0;
  for (size_t round = 0; round + 1 < net.NumVertices(); ++round) {
    bool changed = false;
    for (EdgeId e = 0; e < net.NumEdges(); ++e) {
      const auto& rec = net.edge(e);
      if (dist[rec.from] + w[e] < dist[rec.to] - 1e-12) {
        dist[rec.to] = dist[rec.from] + w[e];
        changed = true;
      }
    }
    if (!changed) break;
  }
  return dist;
}

/// The non-zero slave masks of the default preference feature space: the
/// six road types one by one, plus highway (motorway | trunk).
std::vector<RoadTypeMask> SlaveMasks() {
  std::vector<RoadTypeMask> masks;
  for (int t = 0; t < kNumRoadTypes; ++t) {
    masks.push_back(RoadTypeBit(static_cast<RoadType>(t)));
  }
  masks.push_back(RoadTypeBit(RoadType::kMotorway) |
                  RoadTypeBit(RoadType::kTrunk));
  return masks;
}

/// A random strongly-connected-ish network for property tests.
RoadNetwork RandomNetwork(uint64_t seed, int n) {
  Rng rng(seed);
  RoadNetworkBuilder b;
  for (int i = 0; i < n; ++i) {
    b.AddVertex({rng.Uniform(0, 5000), rng.Uniform(0, 5000)});
  }
  // Ring for connectivity + random chords.
  for (int i = 0; i < n; ++i) {
    b.AddTwoWayEdge(i, (i + 1) % n,
                    static_cast<RoadType>(rng.Index(kNumRoadTypes)),
                    rng.Uniform(30, 100), rng.Uniform(20, 60));
  }
  for (int k = 0; k < 3 * n; ++k) {
    const VertexId u = static_cast<VertexId>(rng.Index(n));
    const VertexId v = static_cast<VertexId>(rng.Index(n));
    if (u == v) continue;
    b.AddEdge(u, v, static_cast<RoadType>(rng.Index(kNumRoadTypes)),
              rng.Uniform(30, 100), rng.Uniform(20, 60));
  }
  auto net = b.Build();
  L2R_CHECK(net.ok());
  return std::move(net).value();
}

TEST(DijkstraTest, LinePathCostAndVertices) {
  const RoadNetwork net = MakeLine(6, 100);
  DijkstraSearch search(net);
  const EdgeWeights w(net, CostFeature::kDistance, TimePeriod::kOffPeak);
  auto path = search.ShortestPath(0, 5, w);
  ASSERT_TRUE(path.ok());
  EXPECT_NEAR(path->cost, 500, 1e-6);
  EXPECT_EQ(path->vertices, (std::vector<VertexId>{0, 1, 2, 3, 4, 5}));
}

TEST(DijkstraTest, SourceEqualsTarget) {
  const RoadNetwork net = MakeLine(3);
  DijkstraSearch search(net);
  const EdgeWeights w(net, CostFeature::kDistance, TimePeriod::kOffPeak);
  auto path = search.ShortestPath(1, 1, w);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->cost, 0);
  EXPECT_EQ(path->vertices.size(), 1u);
}

TEST(DijkstraTest, UnreachableIsNotFound) {
  RoadNetworkBuilder b;
  b.AddVertex({0, 0});
  b.AddVertex({100, 0});
  b.AddVertex({200, 0});
  b.AddEdge(0, 1, RoadType::kPrimary, 50, 40);  // one-way; 2 isolated
  auto net = b.Build();
  ASSERT_TRUE(net.ok());
  DijkstraSearch search(*net);
  const EdgeWeights w(*net, CostFeature::kDistance, TimePeriod::kOffPeak);
  EXPECT_EQ(search.ShortestPath(0, 2, w).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(search.ShortestPath(1, 0, w).status().code(),
            StatusCode::kNotFound);
}

TEST(DijkstraTest, OutOfRangeIdsRejected) {
  const RoadNetwork net = MakeLine(3);
  DijkstraSearch search(net);
  const EdgeWeights w(net, CostFeature::kDistance, TimePeriod::kOffPeak);
  EXPECT_EQ(search.ShortestPath(0, 99, w).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DijkstraTest, WorkspaceReuseAcrossQueries) {
  const RoadNetwork net = MakeGrid(8, 8, 100);
  DijkstraSearch search(net);
  const EdgeWeights w(net, CostFeature::kDistance, TimePeriod::kOffPeak);
  Rng rng(3);
  for (int q = 0; q < 50; ++q) {
    const VertexId s = static_cast<VertexId>(rng.Index(net.NumVertices()));
    const VertexId t = static_cast<VertexId>(rng.Index(net.NumVertices()));
    auto path = search.ShortestPath(s, t, w);
    ASSERT_TRUE(path.ok());
    // Manhattan distance on a grid.
    const double manhattan = std::abs(net.VertexPos(s).x - net.VertexPos(t).x) +
                             std::abs(net.VertexPos(s).y - net.VertexPos(t).y);
    EXPECT_NEAR(path->cost, manhattan, 1e-6);
  }
}

TEST(DijkstraTest, MatchesBellmanFordOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const RoadNetwork net = RandomNetwork(seed, 60);
    const EdgeWeights w(net, CostFeature::kTravelTime, TimePeriod::kOffPeak);
    const auto oracle = BellmanFord(net, 0, w);
    DijkstraSearch search(net);
    search.RunBounded(0, w, kInfCost);
    for (VertexId v = 0; v < net.NumVertices(); ++v) {
      EXPECT_NEAR(search.DistTo(v), oracle[v], 1e-6)
          << "seed " << seed << " v " << v;
    }
  }
}

TEST(DijkstraTest, RunUntilStopsAtPredicate) {
  const RoadNetwork net = MakeLine(10, 100);
  DijkstraSearch search(net);
  const EdgeWeights w(net, CostFeature::kDistance, TimePeriod::kOffPeak);
  const VertexId hit =
      search.RunUntilT(0, w, [](VertexId v) { return v >= 4; });
  EXPECT_EQ(hit, 4u);
  EXPECT_TRUE(search.Reached(4));
  EXPECT_FALSE(search.Reached(9));
}

TEST(DijkstraTest, RunBoundedRespectsBudget) {
  const RoadNetwork net = MakeLine(10, 100);
  DijkstraSearch search(net);
  const EdgeWeights w(net, CostFeature::kDistance, TimePeriod::kOffPeak);
  search.RunBounded(0, w, 350);
  EXPECT_TRUE(search.Reached(3));
  EXPECT_FALSE(search.Reached(5));
}

TEST(DijkstraTest, ReverseSearchFindsForwardPath) {
  const RoadNetwork net = MakeGrid(6, 6, 100);
  DijkstraSearch search(net);
  const EdgeWeights w(net, CostFeature::kDistance, TimePeriod::kOffPeak);
  const VertexId hit =
      search.RunUntilReverseT(35, w, [](VertexId v) { return v == 0; });
  ASSERT_EQ(hit, 0u);
  const Path path = search.ExtractReversePath(0);
  EXPECT_EQ(path.vertices.front(), 0u);
  EXPECT_EQ(path.vertices.back(), 35u);
  EXPECT_TRUE(PathIsConnected(net, path.vertices));
  EXPECT_NEAR(path.cost, 1000, 1e-6);  // 5+5 grid hops of 100 m
}

// ---------- goal-directed search (routing/goal_potential.h) ----------

/// Attaches a goal potential (Euclidean bound + landmark table) to `w`.
void AttachPotential(const RoadNetwork& net, EdgeWeights* w) {
  const std::vector<std::vector<EdgeWeights*>> groups = {{w}};
  AttachGoalPotentials(net, groups, 2);
}

TEST(GoalPotentialTest, EuclidScaleBounds) {
  const RoadNetwork net = MakeLine(5, 100, RoadType::kPrimary, 60);
  EdgeWeights di(net, CostFeature::kDistance, TimePeriod::kOffPeak);
  EXPECT_EQ(di.euclid_scale(), 0);  // nothing attached yet
  AttachPotential(net, &di);
  EXPECT_NEAR(di.euclid_scale(), 1.0, 1e-6);
  EdgeWeights tt(net, CostFeature::kTravelTime, TimePeriod::kOffPeak);
  AttachPotential(net, &tt);
  EXPECT_NEAR(tt.euclid_scale(), 1.0 / (60 / 3.6), 1e-6);
  ASSERT_NE(tt.landmarks(), nullptr);
  EXPECT_EQ(tt.landmarks()->num_landmarks(), 5u);  // min(8, |V|)
}

TEST(GoalPotentialTest, MatchesDijkstraOnRandomGraphs) {
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    const RoadNetwork net = RandomNetwork(seed, 80);
    const EdgeWeights w(net, CostFeature::kDistance, TimePeriod::kOffPeak);
    EdgeWeights goal = w;
    AttachPotential(net, &goal);
    DijkstraSearch dijkstra(net);
    DijkstraSearch directed(net);
    Rng rng(seed * 7);
    for (int q = 0; q < 25; ++q) {
      const VertexId s = static_cast<VertexId>(rng.Index(net.NumVertices()));
      const VertexId t = static_cast<VertexId>(rng.Index(net.NumVertices()));
      auto want = dijkstra.ShortestPath(s, t, w);
      auto got = directed.ShortestPath(s, t, goal);
      ASSERT_EQ(want.ok(), got.ok());
      if (want.ok()) {
        EXPECT_EQ(got->cost, want->cost) << "seed " << seed;
        EXPECT_EQ(got->vertices, want->vertices) << "seed " << seed;
      }
    }
  }
}

TEST(GoalPotentialTest, ExpandsFewerVerticesThanDijkstra) {
  const RoadNetwork net = MakeGrid(20, 20, 100);
  const EdgeWeights w(net, CostFeature::kDistance, TimePeriod::kOffPeak);
  EdgeWeights goal = w;
  AttachPotential(net, &goal);
  DijkstraSearch dijkstra(net);
  DijkstraSearch directed(net);
  // Across the middle row: one straight shortest path. (Corner to corner
  // every vertex lies on a shortest path, so an exact potential settles
  // them all.)
  ASSERT_TRUE(dijkstra.ShortestPath(200, 219, w).ok());
  ASSERT_TRUE(directed.ShortestPath(200, 219, goal).ok());
  EXPECT_LT(directed.LastSettledCount() * 5, dijkstra.LastSettledCount());
}

TEST(GoalPotentialTest, ShortcutShorterThanItsChordStaysAdmissible) {
  // Edge 1 -> 2 claims 50 m over a 500 m chord (explicit lengths may be
  // shorter than the straight line). A scale taken from length_m would be
  // 1 and bound the remaining cost at 1 by 500, so the search would settle
  // 2 through the direct 400 m edge first. The chord-derived scale is 0.1
  // and finds 0 -> 1 -> 2 (150 m).
  RoadNetworkBuilder b;
  b.AddVertex(Point(0, 0));
  b.AddVertex(Point(-100, 0));
  b.AddVertex(Point(400, 0));
  b.AddEdge(0, 2, RoadType::kPrimary, 50, 40);
  b.AddEdge(0, 1, RoadType::kPrimary, 50, 40);
  b.AddEdge(1, 2, RoadType::kPrimary, 50, 40, /*length_m=*/50);
  auto net = b.Build();
  ASSERT_TRUE(net.ok());
  const EdgeWeights w(*net, CostFeature::kDistance, TimePeriod::kOffPeak);
  EdgeWeights goal = w;
  goal.AttachPotential(*net, nullptr);  // Euclidean bound alone
  EXPECT_NEAR(goal.euclid_scale(), 0.1, 1e-9);
  DijkstraSearch dijkstra(*net);
  DijkstraSearch directed(*net);
  auto want = dijkstra.ShortestPath(0, 2, w);
  auto got = directed.ShortestPath(0, 2, goal);
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_EQ(want->vertices, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(got->vertices, want->vertices);
  EXPECT_EQ(got->cost, want->cost);
  AttachPotential(*net, &goal);  // plus landmarks
  got = directed.ShortestPath(0, 2, goal);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->vertices, want->vertices);
  EXPECT_EQ(got->cost, want->cost);
}

/// Property: on the same values, a goal-directed PreferenceDijkstra
/// returns exactly the zero-potential route — same vertices, same cost,
/// same fallback flag, same status — for every (s, t, master, slave mask).
/// The arrays are FromValues copies, so the only difference is the
/// potential. Counts compared routes and filtered-disconnect fallbacks.
struct MatchCounts {
  size_t compared = 0;
  size_t fell_back = 0;
};
void ExpectGoalDirectedMatchesPlain(const RoadNetwork& net,
                                    const std::vector<VertexId>& sources,
                                    const std::vector<VertexId>& targets,
                                    MatchCounts* counts) {
  std::vector<RoadTypeMask> masks = {0};
  for (const RoadTypeMask mask : SlaveMasks()) masks.push_back(mask);
  const WeightSet ws(net, TimePeriod::kPeak);
  PreferenceDijkstra plain(net);
  PreferenceDijkstra directed(net);
  for (int f = 0; f < kNumCostFeatures; ++f) {
    const EdgeWeights& base = ws.Get(static_cast<CostFeature>(f));
    std::vector<double> values(base.size());
    for (EdgeId e = 0; e < base.size(); ++e) values[e] = base[e];
    const EdgeWeights zero = EdgeWeights::FromValues(values);
    EdgeWeights goal = EdgeWeights::FromValues(values);
    AttachPotential(net, &goal);
    EXPECT_NE(goal.landmarks(), nullptr);
    for (const VertexId s : sources) {
      for (const VertexId t : targets) {
        if (s == t) continue;
        for (const RoadTypeMask mask : masks) {
          auto want = plain.Route(s, t, zero, mask);
          auto got = directed.Route(s, t, goal, mask);
          ++counts->compared;
          ASSERT_EQ(want.ok(), got.ok()) << s << "->" << t;
          if (!want.ok()) {
            EXPECT_EQ(want.status().code(), got.status().code());
            continue;
          }
          ASSERT_EQ(got->path.vertices, want->path.vertices)
              << s << "->" << t << " feature " << f << " mask " << mask;
          ASSERT_EQ(got->path.cost, want->path.cost);
          ASSERT_EQ(got->fell_back_to_unfiltered,
                    want->fell_back_to_unfiltered);
          counts->fell_back += got->fell_back_to_unfiltered ? 1 : 0;
        }
      }
    }
  }
}

std::vector<VertexId> AllVertices(const RoadNetwork& net) {
  std::vector<VertexId> out(net.NumVertices());
  for (VertexId v = 0; v < out.size(); ++v) out[v] = v;
  return out;
}

TEST(GoalPotentialTest, PreferenceRoutesMatchZeroPotentialOnTieHeavyNets) {
  // Every (s, t, master, slave mask) on the three-corridor network and a
  // grid — both full of equal-cost alternatives, so the canonical tie
  // rule is what keeps the routes identical.
  for (const RoadNetwork& net : {ThreeCorridorNetwork(), MakeGrid(7, 6)}) {
    const std::vector<VertexId> all = AllVertices(net);
    MatchCounts counts;
    ExpectGoalDirectedMatchesPlain(net, all, all, &counts);
    EXPECT_EQ(counts.compared, all.size() * (all.size() - 1) * 3 * 8);
  }
}

TEST(GoalPotentialTest, PreferenceRoutesMatchZeroPotentialOnRandomNets) {
  MatchCounts counts;
  for (uint64_t seed = 31; seed <= 33; ++seed) {
    const RoadNetwork net = RandomNetwork(seed, 70);
    Rng rng(seed);
    std::vector<VertexId> sources;
    std::vector<VertexId> targets;
    for (int i = 0; i < 12; ++i) {
      sources.push_back(static_cast<VertexId>(rng.Index(70)));
      targets.push_back(static_cast<VertexId>(rng.Index(70)));
    }
    ExpectGoalDirectedMatchesPlain(net, sources, targets, &counts);
  }
  // One-way random chords let the slave filter cut off targets: the
  // filtered-disconnect fallback is part of what was compared.
  EXPECT_GT(counts.fell_back, 0u);
}

TEST(GoalPotentialTest, FilteredDisconnectFallbackMatchesZeroPotential) {
  // The FallsBackWhenFilterDisconnects network: residential from 0 is a
  // dead end, so the filtered search exhausts before the unfiltered rerun.
  RoadNetworkBuilder b;
  b.AddVertex({0, 0});
  b.AddVertex({100, 0});
  b.AddVertex({200, 0});
  b.AddVertex({100, 100});
  b.AddEdge(0, 1, RoadType::kResidential, 30, 25);
  b.AddEdge(0, 3, RoadType::kPrimary, 60, 50);
  b.AddEdge(3, 2, RoadType::kPrimary, 60, 50);
  auto net = b.Build();
  ASSERT_TRUE(net.ok());
  MatchCounts counts;
  ExpectGoalDirectedMatchesPlain(*net, {0}, {2}, &counts);
  EXPECT_EQ(counts.fell_back, 3u);  // once per master feature
}

TEST(GoalPotentialTest, SettleCapStillReturnsDeadlineExceeded) {
  const RoadNetwork net = MakeGrid(20, 20, 100);
  EdgeWeights goal(net, CostFeature::kTravelTime, TimePeriod::kOffPeak);
  AttachPotential(net, &goal);
  PreferenceDijkstra directed(net);
  const uint64_t before = directed.LifetimeSettles();
  auto full = directed.Route(0, 399, goal, 0);
  ASSERT_TRUE(full.ok());
  const size_t settles = directed.LifetimeSettles() - before;
  // A cap below what the goal-directed search needs still gives out.
  EXPECT_EQ(directed.Route(0, 399, goal, 0, settles / 2).status().code(),
            StatusCode::kDeadlineExceeded);
  // A cap it fits under returns the same route as the uncapped search.
  auto capped = directed.Route(0, 399, goal, 0, settles);
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped->path.vertices, full->path.vertices);
}

TEST(GoalPotentialTest, LandmarkBoundTracksEdgesBelowTheFloor) {
  RoadNetwork net = MakeGrid(6, 6, 100);
  EdgeWeights w(net, CostFeature::kTravelTime, TimePeriod::kOffPeak);
  AttachPotential(net, &w);
  ASSERT_NE(w.landmarks(), nullptr);
  const double scale = w.euclid_scale();
  // Slowdown and closure: costs only rise, the bound stays on.
  net.SetEdgeSpeeds(3, 10, 10);
  w.RefreshEdge(net, 3);
  net.SetEdgeClosed(4, true);
  w.RefreshEdge(net, 4);
  EXPECT_NE(w.landmarks(), nullptr);
  EXPECT_EQ(w.euclid_scale(), scale);
  // A speed-up above the build-time speed undercuts the floor: off, and
  // the Euclidean scale falls with it.
  net.SetEdgeSpeeds(5, 100, 80);
  w.RefreshEdge(net, 5);
  EXPECT_EQ(w.landmarks(), nullptr);
  EXPECT_LT(w.euclid_scale(), scale);
  // Undone: on again; the Euclidean scale stays a running minimum.
  net.SetEdgeSpeeds(5, 50, 40);
  w.RefreshEdge(net, 5);
  EXPECT_NE(w.landmarks(), nullptr);
  EXPECT_LT(w.euclid_scale(), scale);
  w.SetPotentialEnabled(false);
  EXPECT_EQ(w.landmarks(), nullptr);
  EXPECT_EQ(w.euclid_scale(), 0);
}

// ---------- preference Dijkstra (Algorithm 2) ----------

/// Two routes from 0 to 3: the direct primary row and a residential
/// detour row; slave preference steers between them.
RoadNetwork TwoCorridorNetwork() {
  RoadNetworkBuilder b;
  // Row 0 (primary): 0 - 1 - 2 - 3 at y=0.
  // Row 1 (residential): 4 - 5 at y=100, connected via 0 and 3.
  b.AddVertex({0, 0});
  b.AddVertex({100, 0});
  b.AddVertex({200, 0});
  b.AddVertex({300, 0});
  b.AddVertex({100, 100});
  b.AddVertex({200, 100});
  b.AddTwoWayEdge(0, 1, RoadType::kPrimary, 60, 50);
  b.AddTwoWayEdge(1, 2, RoadType::kPrimary, 60, 50);
  b.AddTwoWayEdge(2, 3, RoadType::kPrimary, 60, 50);
  b.AddTwoWayEdge(0, 4, RoadType::kResidential, 30, 25);
  b.AddTwoWayEdge(4, 5, RoadType::kResidential, 30, 25);
  b.AddTwoWayEdge(5, 3, RoadType::kResidential, 30, 25);
  auto net = b.Build();
  L2R_CHECK(net.ok());
  return std::move(net).value();
}

TEST(PreferenceDijkstraTest, NoSlaveEqualsPlainDijkstra) {
  const RoadNetwork net = TwoCorridorNetwork();
  const EdgeWeights di(net, CostFeature::kDistance, TimePeriod::kOffPeak);
  PreferenceDijkstra pref(net);
  DijkstraSearch plain(net);
  auto a = pref.Route(0, 3, di, 0);
  auto b = plain.ShortestPath(0, 3, di);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->path.vertices, b->vertices);
  EXPECT_FALSE(a->fell_back_to_unfiltered);
}

TEST(PreferenceDijkstraTest, SlaveSteersOntoPreferredType) {
  const RoadNetwork net = TwoCorridorNetwork();
  const EdgeWeights di(net, CostFeature::kDistance, TimePeriod::kOffPeak);
  PreferenceDijkstra pref(net);
  auto res = pref.Route(0, 3, di, RoadTypeBit(RoadType::kResidential));
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->path.vertices, (std::vector<VertexId>{0, 4, 5, 3}));
  auto prim = pref.Route(0, 3, di, RoadTypeBit(RoadType::kPrimary));
  ASSERT_TRUE(prim.ok());
  EXPECT_EQ(prim->path.vertices, (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(PreferenceDijkstraTest, NoneSatExploresAllEdges) {
  // Middle of the residential detour has no primary edges; with a primary
  // slave the search must still get through (noneSat rule).
  const RoadNetwork net = TwoCorridorNetwork();
  const EdgeWeights di(net, CostFeature::kDistance, TimePeriod::kOffPeak);
  PreferenceDijkstra pref(net);
  auto res = pref.Route(4, 5, di, RoadTypeBit(RoadType::kPrimary));
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->path.vertices.front(), 4u);
  EXPECT_EQ(res->path.vertices.back(), 5u);
}

TEST(PreferenceDijkstraTest, FallsBackWhenFilterDisconnects) {
  // Line: 0 -p- 1 -p- 2 -r- 3. From 0, slave=residential filters nothing
  // at 0/1 (noneSat) but a mixed setup can disconnect; construct one:
  RoadNetworkBuilder b;
  b.AddVertex({0, 0});
  b.AddVertex({100, 0});
  b.AddVertex({200, 0});
  b.AddVertex({100, 100});
  b.AddEdge(0, 1, RoadType::kResidential, 30, 25);  // one-way res
  b.AddEdge(0, 3, RoadType::kPrimary, 60, 50);      // one-way primary
  b.AddEdge(3, 2, RoadType::kPrimary, 60, 50);
  auto net = b.Build();
  ASSERT_TRUE(net.ok());
  const EdgeWeights di(*net, CostFeature::kDistance, TimePeriod::kOffPeak);
  PreferenceDijkstra pref(*net);
  // With slave=residential, vertex 0 explores only 0->1 (dead end for
  // reaching 2); Algorithm 2 leaves this unspecified and we fall back.
  auto res = pref.Route(0, 2, di, RoadTypeBit(RoadType::kResidential));
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->fell_back_to_unfiltered);
  EXPECT_EQ(res->path.vertices, (std::vector<VertexId>{0, 3, 2}));
}

// ---------- slave reachability oracle ----------

/// Breadth-first search over Algorithm 2's filtered subgraph, written
/// independently of the oracle and the search: u keeps its in-mask
/// out-edges, or all of them when none is in the mask.
std::vector<bool> FilteredReach(const RoadNetwork& net, VertexId s,
                                RoadTypeMask mask) {
  std::vector<bool> seen(net.NumVertices(), false);
  std::vector<VertexId> queue = {s};
  seen[s] = true;
  for (size_t head = 0; head < queue.size(); ++head) {
    const VertexId u = queue[head];
    bool any_in_mask = false;
    for (const EdgeId e : net.OutEdges(u)) {
      any_in_mask |= MaskContains(mask, net.edge(e).road_type);
    }
    for (const EdgeId e : net.OutEdges(u)) {
      const EdgeRecord& rec = net.edge(e);
      if (any_in_mask && !MaskContains(mask, rec.road_type)) continue;
      if (!seen[rec.to]) {
        seen[rec.to] = true;
        queue.push_back(rec.to);
      }
    }
  }
  return seen;
}

/// The oracle test nets: seeded random nets (one-way chords, so filters
/// cut targets off), the three-corridor network and a grid.
std::vector<RoadNetwork> OracleNets() {
  std::vector<RoadNetwork> nets;
  for (uint64_t seed = 41; seed <= 45; ++seed) {
    nets.push_back(RandomNetwork(seed, 40));
  }
  nets.push_back(ThreeCorridorNetwork());
  nets.push_back(MakeGrid(7, 6));
  return nets;
}

TEST(SlaveReachabilityTest, UnreachableIsSoundForEveryPairAndMask) {
  size_t unreachable = 0;
  size_t proven = 0;
  for (const RoadNetwork& net : OracleNets()) {
    const std::vector<RoadTypeMask> masks = SlaveMasks();
    const SlaveReachability reach = SlaveReachability::Build(net, masks);
    EXPECT_EQ(reach.num_vertices(), net.NumVertices());
    for (const RoadTypeMask mask : masks) {
      for (VertexId s = 0; s < net.NumVertices(); ++s) {
        const std::vector<bool> seen = FilteredReach(net, s, mask);
        for (VertexId t = 0; t < net.NumVertices(); ++t) {
          const bool says = reach.Unreachable(mask, s, t);
          ASSERT_FALSE(says && seen[t])
              << "mask " << int{mask} << " " << s << "->" << t;
          unreachable += seen[t] ? 0 : 1;
          proven += says ? 1 : 0;
          // A mask Build did not index proves nothing.
          EXPECT_FALSE(reach.Unreachable(0, s, t));
        }
      }
    }
  }
  EXPECT_GT(unreachable, 0u);
  // The labels must catch nearly every cut-off pair to be worth their
  // bytes (99% on these nets).
  EXPECT_GE(proven * 10, unreachable * 9) << proven << " of " << unreachable;
}

TEST(SlaveReachabilityTest, EmptyOracleKnowsNoMask) {
  const SlaveReachability empty;
  EXPECT_EQ(empty.num_vertices(), 0u);
  EXPECT_EQ(empty.MemoryBytes(), 0u);
  EXPECT_FALSE(empty.Unreachable(RoadTypeBit(RoadType::kPrimary), 0, 1));
}

/// Route with and without the oracle: same status, vertices, cost and
/// fallback flag for every (s, t, master, slave mask), on goal-directed
/// arrays as the router uses them. Where the oracle short-circuits, the
/// search settles exactly what the unfiltered run alone settles.
TEST(SlaveReachabilityTest, RoutesAreIdenticalWithAndWithoutTheOracle) {
  size_t shortcuts = 0;
  for (const RoadNetwork& net : OracleNets()) {
    const std::vector<RoadTypeMask> masks = SlaveMasks();
    const SlaveReachability reach = SlaveReachability::Build(net, masks);
    WeightSet ws(net, TimePeriod::kPeak);
    for (EdgeWeights* w : {&ws.distance, &ws.time, &ws.fuel}) {
      AttachPotential(net, w);
    }
    PreferenceDijkstra bare(net);
    PreferenceDijkstra oracle(net, &reach);
    PreferenceDijkstra unfiltered(net);
    for (int f = 0; f < kNumCostFeatures; ++f) {
      const EdgeWeights& w = ws.Get(static_cast<CostFeature>(f));
      for (const RoadTypeMask mask : masks) {
        for (VertexId s = 0; s < net.NumVertices(); ++s) {
          for (VertexId t = 0; t < net.NumVertices(); ++t) {
            auto want = bare.Route(s, t, w, mask);
            const uint64_t before = oracle.LifetimeSettles();
            auto got = oracle.Route(s, t, w, mask);
            const uint64_t settles = oracle.LifetimeSettles() - before;
            ASSERT_EQ(want.ok(), got.ok()) << s << "->" << t;
            if (!want.ok()) {
              ASSERT_EQ(want.status().code(), got.status().code());
            } else {
              ASSERT_EQ(got->path.vertices, want->path.vertices)
                  << s << "->" << t << " feature " << f << " mask "
                  << int{mask};
              ASSERT_EQ(got->path.cost, want->path.cost);
              ASSERT_EQ(got->fell_back_to_unfiltered,
                        want->fell_back_to_unfiltered);
            }
            if (!reach.Unreachable(mask, s, t)) continue;
            ++shortcuts;
            const uint64_t before_alone = unfiltered.LifetimeSettles();
            (void)unfiltered.Route(s, t, w, 0);
            ASSERT_EQ(settles, unfiltered.LifetimeSettles() - before_alone);
          }
        }
      }
    }
  }
  EXPECT_GT(shortcuts, 0u);
}

TEST(SlaveReachabilityTest, SkippedPassSpendsNoneOfTheSettleCap) {
  // Find a query whose futile filtered pass settles more than the
  // unfiltered run needs, and cap both searches at the unfiltered run.
  for (uint64_t seed = 41; seed <= 45; ++seed) {
    const RoadNetwork net = RandomNetwork(seed, 70);
    const std::vector<RoadTypeMask> masks = SlaveMasks();
    const SlaveReachability reach = SlaveReachability::Build(net, masks);
    EdgeWeights w(net, CostFeature::kTravelTime, TimePeriod::kOffPeak);
    AttachPotential(net, &w);
    PreferenceDijkstra bare(net);
    PreferenceDijkstra oracle(net, &reach);
    for (const RoadTypeMask mask : masks) {
      for (VertexId s = 0; s < net.NumVertices(); ++s) {
        for (VertexId t = 0; t < net.NumVertices(); ++t) {
          if (!reach.Unreachable(mask, s, t)) continue;
          uint64_t before = oracle.LifetimeSettles();
          auto full = oracle.Route(s, t, w, mask);
          if (!full.ok()) continue;
          const uint64_t cap = oracle.LifetimeSettles() - before;
          before = bare.LifetimeSettles();
          ASSERT_TRUE(bare.Route(s, t, w, mask).ok());
          const uint64_t filtered = bare.LifetimeSettles() - before - cap;
          if (filtered <= cap) continue;
          // Without the oracle the futile pass runs into the cap.
          EXPECT_EQ(bare.Route(s, t, w, mask, cap).status().code(),
                    StatusCode::kDeadlineExceeded);
          // With it, the query returns the unbudgeted route.
          auto capped = oracle.Route(s, t, w, mask, cap);
          ASSERT_TRUE(capped.ok());
          EXPECT_EQ(capped->path.vertices, full->path.vertices);
          EXPECT_EQ(capped->path.cost, full->path.cost);
          EXPECT_TRUE(capped->fell_back_to_unfiltered);
          return;
        }
      }
    }
  }
  FAIL() << "no futile filtered pass larger than its unfiltered run";
}

// ---------- skyline ----------

TEST(SkylineTest, DominanceRules) {
  EXPECT_TRUE(Dominates({1, 1, 1}, {2, 2, 2}, 0));
  EXPECT_FALSE(Dominates({2, 2, 2}, {1, 1, 1}, 0));
  EXPECT_FALSE(Dominates({1, 3, 1}, {2, 2, 2}, 0));
  EXPECT_FALSE(Dominates({1, 1, 1}, {1, 1, 1}, 0));  // ties don't dominate
  EXPECT_TRUE(Dominates({1, 1, 1.005}, {1, 1, 1}, 0.01));  // eps slack
}

TEST(SkylineTest, FindsBothExtremePaths) {
  // Fast-but-long motorway vs short-but-slow residential.
  RoadNetworkBuilder b;
  b.AddVertex({0, 0});
  b.AddVertex({1000, 0});
  b.AddVertex({500, 400});
  b.AddEdge(0, 1, RoadType::kResidential, 30, 25, 1000);  // direct, slow
  b.AddEdge(0, 2, RoadType::kMotorway, 110, 100, 900);
  b.AddEdge(2, 1, RoadType::kMotorway, 110, 100, 900);    // long, fast
  auto net = b.Build();
  ASSERT_TRUE(net.ok());
  const WeightSet ws(*net, TimePeriod::kOffPeak);
  SkylineSearch search(*net);
  auto out = search.Route(0, 1, ws);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->paths.size(), 2u);  // both are Pareto-optimal
}

TEST(SkylineTest, ParetoFrontIsMutuallyNonDominated) {
  const RoadNetwork net = RandomNetwork(77, 40);
  const WeightSet ws(net, TimePeriod::kOffPeak);
  SkylineSearch search(net);
  SkylineOptions opts;
  opts.epsilon = 0;
  auto out = search.Route(0, 20, ws, opts);
  ASSERT_TRUE(out.ok());
  ASSERT_FALSE(out->paths.empty());
  for (size_t i = 0; i < out->paths.size(); ++i) {
    EXPECT_TRUE(PathIsConnected(net, out->paths[i].path.vertices));
    for (size_t j = 0; j < out->paths.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(
          Dominates(out->paths[i].costs, out->paths[j].costs, 0.0));
    }
  }
}

TEST(SkylineTest, CostVectorsMatchPathWeights) {
  const RoadNetwork net = RandomNetwork(78, 30);
  const WeightSet ws(net, TimePeriod::kOffPeak);
  SkylineSearch search(net);
  auto out = search.Route(0, 15, ws);
  ASSERT_TRUE(out.ok());
  for (const SkylinePath& sp : out->paths) {
    double di = 0;
    double tt = 0;
    for (size_t i = 0; i + 1 < sp.path.vertices.size(); ++i) {
      const EdgeId e =
          net.FindEdge(sp.path.vertices[i], sp.path.vertices[i + 1]);
      ASSERT_NE(e, kInvalidEdge);
      // Parallel edges can make the recomputed cost differ; accept min.
      di += ws.distance[e];
      tt += ws.time[e];
    }
    // The skyline's recorded costs are consistent within tolerance
    // (parallel-edge choice can only make the recomputed sum smaller).
    EXPECT_LE(sp.costs.di, di + 1e-6);
    EXPECT_LE(sp.costs.tt, tt + 1e-6);
  }
}

TEST(SkylineTest, DominatedRouteNeverReturned) {
  const RoadNetwork net = MakeLine(5, 100);
  const WeightSet ws(net, TimePeriod::kOffPeak);
  SkylineSearch search(net);
  auto out = search.Route(0, 4, ws);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->paths.size(), 1u);  // single corridor -> single optimum
}

// ---------- path utils ----------

TEST(PathTest, AppendPathMergesJoint) {
  Path base;
  base.vertices = {1, 2, 3};
  base.cost = 5;
  Path suffix;
  suffix.vertices = {3, 4};
  suffix.cost = 2;
  AppendPath(&base, suffix);
  EXPECT_EQ(base.vertices, (std::vector<VertexId>{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(base.cost, 7);
}

TEST(PathTest, PathIsConnected) {
  const RoadNetwork net = MakeLine(4);
  EXPECT_TRUE(PathIsConnected(net, {0, 1, 2, 3}));
  EXPECT_FALSE(PathIsConnected(net, {0, 2}));
  EXPECT_TRUE(PathIsConnected(net, {2}));
}

}  // namespace
}  // namespace l2r
