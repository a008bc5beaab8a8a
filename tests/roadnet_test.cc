#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string>

#include "common/rng.h"
#include "roadnet/generator.h"
#include "roadnet/road_network.h"
#include "roadnet/spatial_grid.h"
#include "roadnet/weights.h"
#include "test_util.h"

namespace l2r {
namespace {

using testing::MakeGrid;
using testing::MakeLine;

TEST(RoadNetworkTest, BuilderProducesCsr) {
  RoadNetworkBuilder b;
  const VertexId v0 = b.AddVertex({0, 0});
  const VertexId v1 = b.AddVertex({100, 0});
  const VertexId v2 = b.AddVertex({100, 100});
  b.AddEdge(v0, v1, RoadType::kPrimary, 60, 40);
  b.AddEdge(v1, v2, RoadType::kPrimary, 60, 40);
  b.AddEdge(v2, v0, RoadType::kSecondary, 50, 35);
  auto net = b.Build();
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net->NumVertices(), 3u);
  EXPECT_EQ(net->NumEdges(), 3u);
  EXPECT_EQ(net->OutEdges(v0).size(), 1u);
  EXPECT_EQ(net->InEdges(v0).size(), 1u);
  EXPECT_EQ(net->edge(net->OutEdges(v0)[0]).to, v1);
}

TEST(RoadNetworkTest, TwoWayEdgeAddsBothDirections) {
  RoadNetworkBuilder b;
  b.AddVertex({0, 0});
  b.AddVertex({100, 0});
  b.AddTwoWayEdge(0, 1, RoadType::kTertiary, 45, 40);
  auto net = b.Build();
  ASSERT_TRUE(net.ok());
  EXPECT_NE(net->FindEdge(0, 1), kInvalidEdge);
  EXPECT_NE(net->FindEdge(1, 0), kInvalidEdge);
}

TEST(RoadNetworkTest, FindEdgeMissing) {
  const RoadNetwork net = MakeLine(3);
  EXPECT_EQ(net.FindEdge(0, 2), kInvalidEdge);
}

TEST(RoadNetworkTest, EdgeLengthDefaultsToEuclidean) {
  RoadNetworkBuilder b;
  b.AddVertex({0, 0});
  b.AddVertex({30, 40});
  b.AddEdge(0, 1, RoadType::kPrimary, 60, 50);
  auto net = b.Build();
  ASSERT_TRUE(net.ok());
  EXPECT_FLOAT_EQ(net->edge(0).length_m, 50);
}

TEST(RoadNetworkTest, BuildRejectsSelfLoop) {
  RoadNetworkBuilder b;
  b.AddVertex({0, 0});
  b.AddVertex({1, 1});
  b.AddEdge(0, 0, RoadType::kPrimary, 60, 50, 10);
  EXPECT_FALSE(b.Build().ok());
}

TEST(RoadNetworkTest, BuildRejectsBadSpeed) {
  RoadNetworkBuilder b;
  b.AddVertex({0, 0});
  b.AddVertex({10, 0});
  b.AddEdge(0, 1, RoadType::kPrimary, 0, 50);
  EXPECT_FALSE(b.Build().ok());
}

TEST(RoadNetworkTest, TravelTimeUsesPeriodSpeed) {
  RoadNetworkBuilder b;
  b.AddVertex({0, 0});
  b.AddVertex({1000, 0});
  b.AddEdge(0, 1, RoadType::kPrimary, 60, 30);
  auto net = b.Build();
  ASSERT_TRUE(net.ok());
  EXPECT_NEAR(net->EdgeTravelTimeS(0, TimePeriod::kOffPeak), 60, 1e-9);
  EXPECT_NEAR(net->EdgeTravelTimeS(0, TimePeriod::kPeak), 120, 1e-9);
}

TEST(RoadNetworkTest, PathHelpers) {
  const RoadNetwork net = MakeLine(5, 100);
  const std::vector<VertexId> path = {0, 1, 2, 3};
  EXPECT_NEAR(net.PathLengthM(path).value(), 300, 1e-6);
  EXPECT_TRUE(net.PathToEdges(path).ok());
  EXPECT_EQ(net.PathToEdges(path)->size(), 3u);
  // Span-style read paths accept any contiguous vertex sequence.
  const VertexId disconnected[] = {0, 2};
  const VertexId single[] = {0};
  EXPECT_FALSE(net.PathToEdges(disconnected).ok());
  EXPECT_EQ(net.PathToEdges(single)->size(), 0u);
  EXPECT_NEAR(net.PathLengthM(std::span(path).subspan(1)).value(), 200,
              1e-6);
}

TEST(RoadNetworkTest, BoundsCoverAllVertices) {
  const RoadNetwork net = MakeGrid(4, 3, 100);
  EXPECT_DOUBLE_EQ(net.bounds().min.x, 0);
  EXPECT_DOUBLE_EQ(net.bounds().max.x, 300);
  EXPECT_DOUBLE_EQ(net.bounds().max.y, 200);
}

// ---------- weights ----------

TEST(WeightsTest, DistanceWeights) {
  const RoadNetwork net = MakeLine(3, 150);
  const EdgeWeights w(net, CostFeature::kDistance, TimePeriod::kOffPeak);
  for (EdgeId e = 0; e < net.NumEdges(); ++e) {
    EXPECT_NEAR(w[e], 150, 1e-4);
  }
}

TEST(WeightsTest, FuelModelBathtubShape) {
  // Per-km fuel has its minimum somewhere in the middle speeds.
  const double slow = FuelMilliliters(1000, 15);
  const double mid = FuelMilliliters(1000, 60);
  const double fast = FuelMilliliters(1000, 120);
  EXPECT_LT(mid, slow);
  EXPECT_LT(mid, fast);
  EXPECT_GT(mid, 0);
}

TEST(WeightsTest, FuelScalesWithLength) {
  EXPECT_NEAR(FuelMilliliters(2000, 60), 2 * FuelMilliliters(1000, 60),
              1e-9);
}

TEST(WeightsTest, FuelClampsTinySpeeds) {
  EXPECT_LT(FuelMilliliters(1000, 0.1), 1e9);  // no division blow-up
}

TEST(WeightsTest, WeightSetAccessors) {
  const RoadNetwork net = MakeLine(4);
  const WeightSet ws(net, TimePeriod::kPeak);
  EXPECT_EQ(ws.period(), TimePeriod::kPeak);
  EXPECT_EQ(&ws.Get(CostFeature::kDistance), &ws.distance);
  EXPECT_EQ(&ws.Get(CostFeature::kTravelTime), &ws.time);
  EXPECT_EQ(&ws.Get(CostFeature::kFuel), &ws.fuel);
}

TEST(WeightsTest, FromValuesCustomArray) {
  const EdgeWeights w = EdgeWeights::FromValues({1.5, 2.5});
  EXPECT_EQ(w.size(), 2u);
  EXPECT_DOUBLE_EQ(w[1], 2.5);
}

TEST(RoadTypesTest, NamesAndSpeeds) {
  std::set<std::string> names;
  for (int t = 0; t < kNumRoadTypes; ++t) {
    names.insert(RoadTypeName(static_cast<RoadType>(t)));
    EXPECT_GT(RoadTypeBaseSpeedKmh(static_cast<RoadType>(t)), 0);
  }
  EXPECT_EQ(names.size(), 6u);  // all distinct
  // Hierarchy: faster classes have higher design speeds.
  EXPECT_GT(RoadTypeBaseSpeedKmh(RoadType::kMotorway),
            RoadTypeBaseSpeedKmh(RoadType::kResidential));
}

TEST(RoadTypesTest, MaskOperations) {
  const RoadTypeMask m =
      RoadTypeBit(RoadType::kMotorway) | RoadTypeBit(RoadType::kTrunk);
  EXPECT_TRUE(MaskContains(m, RoadType::kMotorway));
  EXPECT_FALSE(MaskContains(m, RoadType::kPrimary));
  EXPECT_EQ(RoadTypeMaskName(m), "motorway|trunk");
  EXPECT_EQ(RoadTypeMaskName(0), "none");
}

// ---------- spatial grid ----------

TEST(SpatialGridTest, NearestVertexMatchesBruteForce) {
  const RoadNetwork net = MakeGrid(10, 8, 120);
  const SpatialGrid grid(net, 200);
  Rng rng(51);
  for (int trial = 0; trial < 200; ++trial) {
    const Point q(rng.Uniform(-200, 1400), rng.Uniform(-200, 1100));
    const VertexId got = grid.NearestVertex(q);
    VertexId want = 0;
    for (VertexId v = 1; v < net.NumVertices(); ++v) {
      if (DistSq(q, net.VertexPos(v)) < DistSq(q, net.VertexPos(want))) {
        want = v;
      }
    }
    EXPECT_DOUBLE_EQ(Dist(q, net.VertexPos(got)),
                     Dist(q, net.VertexPos(want)))
        << "trial " << trial;
  }
}

TEST(SpatialGridTest, VerticesInRadius) {
  const RoadNetwork net = MakeGrid(5, 5, 100);
  const SpatialGrid grid(net, 150);
  const auto near = grid.VerticesInRadius({200, 200}, 105);
  // Center vertex + 4 neighbours at distance 100.
  EXPECT_EQ(near.size(), 5u);
}

TEST(SpatialGridTest, EdgesNearFindsIncidentSegments) {
  const RoadNetwork net = MakeGrid(5, 5, 100);
  const SpatialGrid grid(net, 120);
  // Point just off the middle of a horizontal edge.
  const auto edges = grid.EdgesNear({250, 203}, 10);
  ASSERT_FALSE(edges.empty());
  for (const EdgeId e : edges) {
    const auto& rec = net.edge(e);
    const auto proj = ProjectPointToSegment(
        {250, 203}, net.VertexPos(rec.from), net.VertexPos(rec.to));
    EXPECT_LE(proj.distance, 10.0);
  }
}

TEST(SpatialGridTest, EmptyRadiusQueries) {
  const RoadNetwork net = MakeGrid(3, 3, 100);
  const SpatialGrid grid(net, 100);
  EXPECT_TRUE(grid.VerticesInRadius({-1000, -1000}, 10).empty());
  EXPECT_TRUE(grid.EdgesNear({-1000, -1000}, 10).empty());
}

// ---------- generator ----------

class GeneratorTest : public ::testing::TestWithParam<NetworkStyle> {};

TEST_P(GeneratorTest, ProducesConnectedTypedNetwork) {
  NetworkGenConfig config;
  config.style = GetParam();
  config.city_width_m = 6000;
  config.city_height_m = 5000;
  config.block_spacing_m = 400;
  config.num_satellite_towns = 2;
  config.metro_radius_m = 9000;
  config.seed = 77;
  auto gen = GenerateNetwork(config);
  ASSERT_TRUE(gen.ok());
  const RoadNetwork& net = gen->net;
  EXPECT_GT(net.NumVertices(), 100u);
  EXPECT_GT(net.NumEdges(), 200u);
  EXPECT_EQ(gen->vertex_district.size(), net.NumVertices());

  // Strong connectivity on the largest scale: BFS from vertex 0 reaches
  // (almost) everything — the generator links all patches.
  std::vector<bool> seen(net.NumVertices(), false);
  std::vector<VertexId> stack = {0};
  seen[0] = true;
  size_t count = 1;
  while (!stack.empty()) {
    const VertexId u = stack.back();
    stack.pop_back();
    for (const EdgeId e : net.OutEdges(u)) {
      const VertexId x = net.edge(e).to;
      if (!seen[x]) {
        seen[x] = true;
        ++count;
        stack.push_back(x);
      }
    }
  }
  EXPECT_EQ(count, net.NumVertices());

  // Multiple road types and districts present.
  std::set<RoadType> types;
  for (EdgeId e = 0; e < net.NumEdges(); ++e) types.insert(net.EdgeRoadType(e));
  EXPECT_GE(types.size(), 4u);
  std::set<DistrictType> districts(gen->vertex_district.begin(),
                                   gen->vertex_district.end());
  EXPECT_GE(districts.size(), 3u);
}

TEST_P(GeneratorTest, DeterministicInSeed) {
  NetworkGenConfig config;
  config.style = GetParam();
  config.city_width_m = 5000;
  config.city_height_m = 4000;
  config.block_spacing_m = 400;
  config.num_satellite_towns = 2;
  config.seed = 99;
  auto a = GenerateNetwork(config);
  auto b = GenerateNetwork(config);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->net.NumVertices(), b->net.NumVertices());
  ASSERT_EQ(a->net.NumEdges(), b->net.NumEdges());
  for (VertexId v = 0; v < a->net.NumVertices(); v += 37) {
    EXPECT_EQ(a->net.VertexPos(v), b->net.VertexPos(v));
  }
  for (EdgeId e = 0; e < a->net.NumEdges(); e += 53) {
    EXPECT_EQ(a->net.edge(e).from, b->net.edge(e).from);
    EXPECT_FLOAT_EQ(a->net.edge(e).speed_offpeak_kmh,
                    b->net.edge(e).speed_offpeak_kmh);
  }
}

INSTANTIATE_TEST_SUITE_P(Styles, GeneratorTest,
                         ::testing::Values(NetworkStyle::kCity,
                                           NetworkStyle::kMetro));

TEST(GeneratorTest, PeakSpeedsAreSlower) {
  NetworkGenConfig config;
  config.city_width_m = 5000;
  config.city_height_m = 4000;
  config.block_spacing_m = 400;
  auto gen = GenerateNetwork(config);
  ASSERT_TRUE(gen.ok());
  for (EdgeId e = 0; e < gen->net.NumEdges(); ++e) {
    const auto& rec = gen->net.edge(e);
    EXPECT_LE(rec.speed_peak_kmh, rec.speed_offpeak_kmh);
  }
}

TEST(GeneratorTest, RejectsBadConfig) {
  NetworkGenConfig config;
  config.city_width_m = 100;  // < 1 km
  EXPECT_FALSE(GenerateNetwork(config).ok());
  config.city_width_m = 5000;
  config.block_spacing_m = 5;  // too fine
  EXPECT_FALSE(GenerateNetwork(config).ok());
}

TEST(GeneratorTest, VerticesByDistrictPartition) {
  NetworkGenConfig config;
  config.city_width_m = 5000;
  config.city_height_m = 4000;
  config.block_spacing_m = 400;
  auto gen = GenerateNetwork(config);
  ASSERT_TRUE(gen.ok());
  size_t total = 0;
  for (const auto& list : gen->vertices_by_district) total += list.size();
  EXPECT_EQ(total, gen->net.NumVertices());
}

TEST(GeneratorTest, WorldScaleGrowsVertexCount) {
  NetworkGenConfig config;
  config.city_width_m = 5000;
  config.city_height_m = 4000;
  config.block_spacing_m = 400;
  config.seed = 12;
  auto small = GenerateNetwork(config);
  ASSERT_TRUE(small.ok());
  config.world_scale = 2.0;
  auto big = GenerateNetwork(config);
  ASSERT_TRUE(big.ok());
  // Area grows 4x; the grid count should grow roughly with it.
  EXPECT_GT(big->net.NumVertices(), 2 * small->net.NumVertices());
  config.world_scale = -1;
  EXPECT_FALSE(GenerateNetwork(config).ok());
}

}  // namespace
}  // namespace l2r
