#include <gtest/gtest.h>

#include <set>

#include "region/clustering.h"
#include "region/region_graph.h"
#include "region/trajectory_graph.h"
#include "routing/path.h"
#include "test_util.h"

namespace l2r {
namespace {

using testing::MakeGrid;
using testing::MakeLine;
using testing::MakeTraj;

// ---------- trajectory graph ----------

TEST(TrajectoryGraphTest, CountsPopularity) {
  const RoadNetwork net = MakeLine(5, 100);
  std::vector<MatchedTrajectory> trajs = {
      MakeTraj({0, 1, 2}),
      MakeTraj({2, 1}),  // reverse direction counts to the same edge
      MakeTraj({1, 2, 3, 4}),
  };
  auto g = TrajectoryGraph::Build(net, trajs);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->vertices().size(), 5u);
  EXPECT_EQ(g->edges().size(), 4u);
  // Edge {1,2}: traversed by all three trajectories.
  uint64_t pop12 = 0;
  for (const auto& e : g->edges()) {
    if (e.u == 1 && e.v == 2) pop12 = e.popularity;
  }
  EXPECT_EQ(pop12, 3u);
  // Edge pops: {0,1}=1, {1,2}=3, {2,3}=1, {3,4}=1.
  EXPECT_EQ(g->total_popularity(), 6u);
  EXPECT_EQ(g->VertexPopularity(1), 1u + 3u);  // edges {0,1} and {1,2}
  EXPECT_EQ(g->VertexPopularity(0), 1u);
}

TEST(TrajectoryGraphTest, UncoveredVerticesExcluded) {
  const RoadNetwork net = MakeLine(10);
  std::vector<MatchedTrajectory> trajs = {MakeTraj({0, 1, 2})};
  auto g = TrajectoryGraph::Build(net, trajs);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->vertices().size(), 3u);
  EXPECT_EQ(g->VertexPopularity(7), 0u);
  EXPECT_TRUE(g->IncidentEdges(7).empty());
}

TEST(TrajectoryGraphTest, RejectsNonRoadHop) {
  const RoadNetwork net = MakeLine(5);
  std::vector<MatchedTrajectory> trajs = {MakeTraj({0, 2})};
  EXPECT_FALSE(TrajectoryGraph::Build(net, trajs).ok());
}

TEST(TrajectoryGraphTest, RejectsOutOfRangeVertex) {
  const RoadNetwork net = MakeLine(3);
  std::vector<MatchedTrajectory> trajs = {MakeTraj({0, 99})};
  EXPECT_FALSE(TrajectoryGraph::Build(net, trajs).ok());
}

// ---------- modularity ----------

TEST(ModularityTest, MatchesFormula) {
  // DeltaQ = s_ij/S - Si*Sj/S^2.
  EXPECT_DOUBLE_EQ(ModularityGain(10, 20, 30, 100),
                   10.0 / 100 - (20.0 * 30.0) / (100.0 * 100.0));
  EXPECT_GT(ModularityGain(10, 10, 10, 100), 0);
  EXPECT_LT(ModularityGain(1, 60, 60, 100), 0);
}

// ---------- clustering ----------

TEST(ClusteringTest, UniformPathMergesIntoFewRegions) {
  const RoadNetwork net = MakeLine(20, 100);
  std::vector<MatchedTrajectory> trajs;
  std::vector<VertexId> full;
  for (VertexId v = 0; v < 20; ++v) full.push_back(v);
  for (int k = 0; k < 5; ++k) trajs.push_back(MakeTraj(full));
  auto g = TrajectoryGraph::Build(net, trajs);
  ASSERT_TRUE(g.ok());
  auto clusters = BottomUpClustering(*g, net.NumVertices());
  ASSERT_TRUE(clusters.ok());
  EXPECT_LT(clusters->regions.size(), 8u);  // aggregates actually grow
  // Every covered vertex is in exactly one region.
  std::set<VertexId> seen;
  for (const auto& region : clusters->regions) {
    for (const VertexId v : region) {
      EXPECT_TRUE(seen.insert(v).second) << "vertex in two regions";
    }
  }
  EXPECT_EQ(seen.size(), 20u);
}

TEST(ClusteringTest, RoadTypeBoundariesStopMerging) {
  // Line with left half residential, right half primary; same popularity.
  RoadNetworkBuilder b;
  for (int i = 0; i < 11; ++i) b.AddVertex(Point(i * 100.0, 0));
  for (int i = 0; i < 10; ++i) {
    const RoadType t =
        i < 5 ? RoadType::kResidential : RoadType::kPrimary;
    b.AddTwoWayEdge(i, i + 1, t, 50, 40);
  }
  auto net = b.Build();
  ASSERT_TRUE(net.ok());
  std::vector<MatchedTrajectory> trajs;
  std::vector<VertexId> full;
  for (VertexId v = 0; v <= 10; ++v) full.push_back(v);
  for (int k = 0; k < 4; ++k) trajs.push_back(MakeTraj(full));
  auto g = TrajectoryGraph::Build(*net, trajs);
  ASSERT_TRUE(g.ok());
  auto clusters = BottomUpClustering(*g, net->NumVertices());
  ASSERT_TRUE(clusters.ok());
  // No region mixes both halves (except possibly the boundary vertex 5,
  // which may join either side): vertices 0-4 and 6-10 never share one.
  const auto& v2r = clusters->vertex_region;
  for (VertexId a = 0; a <= 4; ++a) {
    for (VertexId c = 6; c <= 10; ++c) {
      EXPECT_NE(v2r[a], v2r[c]);
    }
  }
}

TEST(ClusteringTest, NegativeGainPreventsMerge) {
  // Two heavy hubs joined by a light edge: the hubs must not merge.
  RoadNetworkBuilder b;
  for (int i = 0; i < 6; ++i) b.AddVertex(Point(i * 100.0, 0));
  b.AddVertex(Point(150, 100));  // 6
  // Heavy star at 1 and at 4, light bridge 2-3.
  b.AddTwoWayEdge(0, 1, RoadType::kResidential, 50, 40);
  b.AddTwoWayEdge(1, 2, RoadType::kResidential, 50, 40);
  b.AddTwoWayEdge(2, 3, RoadType::kResidential, 50, 40);
  b.AddTwoWayEdge(3, 4, RoadType::kResidential, 50, 40);
  b.AddTwoWayEdge(4, 5, RoadType::kResidential, 50, 40);
  auto net = b.Build();
  ASSERT_TRUE(net.ok());
  std::vector<MatchedTrajectory> trajs;
  for (int k = 0; k < 50; ++k) trajs.push_back(MakeTraj({0, 1, 2}));
  for (int k = 0; k < 50; ++k) trajs.push_back(MakeTraj({3, 4, 5}));
  trajs.push_back(MakeTraj({2, 3}));  // light bridge
  auto g = TrajectoryGraph::Build(*net, trajs);
  ASSERT_TRUE(g.ok());
  auto clusters = BottomUpClustering(*g, net->NumVertices());
  ASSERT_TRUE(clusters.ok());
  const auto& v2r = clusters->vertex_region;
  // DeltaQ across the bridge: 1/201 - (101*101)/201^2 < 0 -> separate.
  EXPECT_NE(v2r[1], v2r[4]);
  // But each heavy side merges internally.
  EXPECT_EQ(v2r[0], v2r[1]);
  EXPECT_EQ(v2r[4], v2r[5]);
}

TEST(ClusteringTest, CoversExactlyTrajectoryVertices) {
  const RoadNetwork net = MakeGrid(6, 6, 100);
  std::vector<MatchedTrajectory> trajs = {
      MakeTraj({0, 1, 2, 3}),
      MakeTraj({6, 7, 8}),
      MakeTraj({0, 6, 12}),
  };
  auto g = TrajectoryGraph::Build(net, trajs);
  ASSERT_TRUE(g.ok());
  auto clusters = BottomUpClustering(*g, net.NumVertices());
  ASSERT_TRUE(clusters.ok());
  std::set<VertexId> covered;
  for (const auto& t : trajs) covered.insert(t.path.begin(), t.path.end());
  for (VertexId v = 0; v < net.NumVertices(); ++v) {
    if (covered.count(v)) {
      EXPECT_NE(clusters->vertex_region[v], kNoRegion);
      EXPECT_LT(clusters->vertex_region[v], clusters->regions.size());
    } else {
      EXPECT_EQ(clusters->vertex_region[v], kNoRegion);
    }
  }
}

TEST(ClusteringTest, PopularityConserved) {
  const RoadNetwork net = MakeGrid(5, 5, 100);
  std::vector<MatchedTrajectory> trajs = {
      MakeTraj({0, 1, 2, 7, 12}), MakeTraj({0, 1, 2}), MakeTraj({12, 7, 2})};
  auto g = TrajectoryGraph::Build(net, trajs);
  ASSERT_TRUE(g.ok());
  auto clusters = BottomUpClustering(*g, net.NumVertices());
  ASSERT_TRUE(clusters.ok());
  uint64_t total = 0;
  for (const uint64_t p : clusters->region_popularity) total += p;
  // Each region's popularity is the sum of its member vertex popularities
  // (paper: aggregates sum member popularities), so the grand total is
  // 2 * S (every edge contributes to both endpoints).
  EXPECT_EQ(total, 2 * g->total_popularity());
}

TEST(ClusteringTest, EmptyGraphYieldsNoRegions) {
  auto clusters = BottomUpClustering(TrajectoryGraph(), 10);
  // Empty trajectory graph is not an error, just no regions.
  ASSERT_TRUE(clusters.ok());
  EXPECT_TRUE(clusters->regions.empty());
  EXPECT_EQ(clusters->vertex_region.size(), 10u);
}

// ---------- region graph ----------

class RegionGraphTest : public ::testing::Test {
 protected:
  /// Builds a 8x8 grid world where two horizontal corridors are heavily
  /// traversed, producing two elongated regions plus BFS B-edges.
  void SetUp() override {
    net_ = MakeGrid(8, 8, 100);
    auto row_path = [&](int row) {
      std::vector<VertexId> path;
      for (int i = 0; i < 8; ++i) path.push_back(row * 8 + i);
      return path;
    };
    for (int k = 0; k < 10; ++k) {
      trajs_.push_back(MakeTraj(row_path(1), k * 100.0));
      trajs_.push_back(MakeTraj(row_path(6), k * 100.0));
    }
    // One trajectory connecting the corridors (creates T-edges).
    std::vector<VertexId> cross = {8 + 3, 16 + 3, 24 + 3, 32 + 3,
                                   40 + 3, 48 + 3};
    trajs_.push_back(MakeTraj(cross, 5000));

    auto g = TrajectoryGraph::Build(net_, trajs_);
    L2R_CHECK(g.ok());
    auto clusters = BottomUpClustering(*g, net_.NumVertices());
    L2R_CHECK(clusters.ok());
    clustering_ = std::move(clusters).value();
  }

  RoadNetwork net_;
  std::vector<MatchedTrajectory> trajs_;
  ClusteringResult clustering_;
};

TEST_F(RegionGraphTest, BuildsTAndBEdges) {
  auto graph = BuildRegionGraph(net_, clustering_, &trajs_);
  ASSERT_TRUE(graph.ok());
  EXPECT_GT(graph->NumRegions(), 1u);
  EXPECT_GT(graph->NumTEdges(), 0u);
  EXPECT_EQ(graph->NumEdges(), graph->NumTEdges() + graph->NumBEdges());
}

TEST_F(RegionGraphTest, TEdgePathsConnectTheirRegions) {
  auto graph = BuildRegionGraph(net_, clustering_, &trajs_);
  ASSERT_TRUE(graph.ok());
  for (uint32_t e = 0; e < graph->NumTEdges(); ++e) {
    const RegionEdge& edge = graph->edge(e);
    EXPECT_TRUE(edge.is_t_edge);
    ASSERT_FALSE(edge.t_paths.empty());
    for (const StoredPathRef& ref : edge.t_paths) {
      const std::span<const VertexId> stored = graph->ResolvePath(ref);
      const std::vector<VertexId> path(stored.begin(), stored.end());
      ASSERT_GE(path.size(), 2u);
      // Path starts where the trajectory left `from` and ends where it
      // entered `to` (transfer centers).
      EXPECT_EQ(graph->RegionOf(path.front()), edge.from);
      EXPECT_EQ(graph->RegionOf(path.back()), edge.to);
      EXPECT_TRUE(PathIsConnected(net_, path));
    }
  }
}

TEST_F(RegionGraphTest, TEdgePathsSortedByCount) {
  auto graph = BuildRegionGraph(net_, clustering_, &trajs_);
  ASSERT_TRUE(graph.ok());
  for (uint32_t e = 0; e < graph->NumTEdges(); ++e) {
    const auto& paths = graph->edge(e).t_paths;
    for (size_t i = 1; i < paths.size(); ++i) {
      EXPECT_GE(paths[i - 1].count, paths[i].count);
    }
  }
}

TEST_F(RegionGraphTest, RegionGraphIsConnectedAfterBfs) {
  auto graph = BuildRegionGraph(net_, clustering_, &trajs_);
  ASSERT_TRUE(graph.ok());
  // Undirected reachability over all region edges from region 0.
  std::vector<bool> seen(graph->NumRegions(), false);
  std::vector<RegionId> stack = {0};
  seen[0] = true;
  size_t count = 1;
  while (!stack.empty()) {
    const RegionId r = stack.back();
    stack.pop_back();
    for (const auto& edge : graph->edges()) {
      RegionId other = kNoRegion;
      if (edge.from == r) other = edge.to;
      if (edge.to == r) other = edge.from;
      if (other != kNoRegion && !seen[other]) {
        seen[other] = true;
        ++count;
        stack.push_back(other);
      }
    }
  }
  EXPECT_EQ(count, graph->NumRegions());
}

TEST_F(RegionGraphTest, TransferCentersBelongToRegion) {
  auto graph = BuildRegionGraph(net_, clustering_, &trajs_);
  ASSERT_TRUE(graph.ok());
  for (RegionId r = 0; r < graph->NumRegions(); ++r) {
    const RegionInfo& info = graph->region(r);
    EXPECT_FALSE(info.transfer_centers.empty());
    for (const VertexId v : info.transfer_centers) {
      EXPECT_EQ(graph->RegionOf(v), r);
    }
  }
}

TEST_F(RegionGraphTest, InnerPathsStayInsideRegion) {
  auto graph = BuildRegionGraph(net_, clustering_, &trajs_);
  ASSERT_TRUE(graph.ok());
  for (RegionId r = 0; r < graph->NumRegions(); ++r) {
    for (const StoredPathRef& ref : graph->region(r).inner_paths) {
      for (const VertexId v : graph->ResolvePath(ref)) {
        EXPECT_EQ(graph->RegionOf(v), r);
      }
    }
  }
}

TEST_F(RegionGraphTest, RegionMetadataComputed) {
  auto graph = BuildRegionGraph(net_, clustering_, &trajs_);
  ASSERT_TRUE(graph.ok());
  for (RegionId r = 0; r < graph->NumRegions(); ++r) {
    const RegionInfo& info = graph->region(r);
    EXPECT_FALSE(info.members.empty());
    EXPECT_GE(info.hull_area_km2, 0);
    EXPECT_GE(info.hull_diameter_km, 0);
    uint64_t type_total = 0;
    for (const auto c : info.road_type_counts) type_total += c;
    EXPECT_GT(type_total, 0u);
    EXPECT_NE(info.TopRoadTypes(2), 0);
  }
}

TEST_F(RegionGraphTest, FindEdgeDirected) {
  auto graph = BuildRegionGraph(net_, clustering_, &trajs_);
  ASSERT_TRUE(graph.ok());
  ASSERT_GT(graph->NumEdges(), 0u);
  const RegionEdge& e = graph->edge(0);
  EXPECT_GE(graph->FindEdge(e.from, e.to), 0);
  EXPECT_EQ(graph->FindEdge(999999 % graph->NumRegions(),
                            999999 % graph->NumRegions()),
            -1);  // self edge never exists
}

TEST_F(RegionGraphTest, MultiRegionTrajectoryCreatesPairEdges) {
  // The cross trajectory visits several regions; each ordered pair along
  // it gets a T-edge (up to m(m-1)/2).
  auto graph = BuildRegionGraph(net_, clustering_, &trajs_);
  ASSERT_TRUE(graph.ok());
  const auto& cross = trajs_.back().path;
  std::vector<RegionId> visited;
  for (const VertexId v : cross) {
    const RegionId r = graph->RegionOf(v);
    if (r != kNoRegion &&
        (visited.empty() || visited.back() != r)) {
      visited.push_back(r);
    }
  }
  for (size_t i = 0; i < visited.size(); ++i) {
    for (size_t j = i + 1; j < visited.size(); ++j) {
      if (visited[i] == visited[j]) continue;
      EXPECT_GE(graph->FindEdge(visited[i], visited[j]), 0)
          << visited[i] << "->" << visited[j];
    }
  }
}

TEST_F(RegionGraphTest, NullTrajsRejected) {
  EXPECT_FALSE(BuildRegionGraph(net_, clustering_, nullptr).ok());
}

}  // namespace
}  // namespace l2r
