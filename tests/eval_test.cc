#include <gtest/gtest.h>

#include "eval/comparison.h"
#include "eval/datasets.h"
#include "eval/harness.h"
#include "test_util.h"

namespace l2r {
namespace {

using testing::MakeLine;
using testing::MakeTraj;

TEST(DistanceBucketsTest, BucketAssignment) {
  DistanceBuckets buckets;
  buckets.edges_km = {0, 2, 5, 10, 35};
  EXPECT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets.BucketOf(1500), 0u);
  EXPECT_EQ(buckets.BucketOf(2000), 0u);   // boundary goes low
  EXPECT_EQ(buckets.BucketOf(2001), 1u);
  EXPECT_EQ(buckets.BucketOf(7000), 2u);
  EXPECT_EQ(buckets.BucketOf(34000), 3u);
  EXPECT_EQ(buckets.BucketOf(99000), 3u);  // clamped into last bucket
  EXPECT_EQ(buckets.LabelOf(1), "(2,5]");
}

TEST(BuildQueriesTest, ExtractsFromTestTrajectories) {
  const RoadNetwork net = MakeLine(6, 100);
  std::vector<MatchedTrajectory> test = {
      MakeTraj({0, 1, 2, 3}, 1000, 7),
      MakeTraj({5}, 2000, 8),        // degenerate: skipped
      MakeTraj({2, 3, 4, 5}, 3000, 9),
  };
  const auto queries = BuildQueries(net, test);
  ASSERT_EQ(queries.size(), 2u);
  EXPECT_EQ(queries[0].s, 0u);
  EXPECT_EQ(queries[0].d, 3u);
  EXPECT_EQ(queries[0].driver_id, 7u);
  EXPECT_NEAR(queries[0].gt_length_m, 300, 1e-6);
  EXPECT_EQ(queries[1].s, 2u);
}

TEST(BuildQueriesTest, MaxQueriesCap) {
  const RoadNetwork net = MakeLine(6, 100);
  std::vector<MatchedTrajectory> test;
  for (int i = 0; i < 20; ++i) test.push_back(MakeTraj({0, 1, 2}, i));
  EXPECT_EQ(BuildQueries(net, test, 5).size(), 5u);
}

TEST(RegionCategoryTest, Names) {
  EXPECT_STREQ(RegionCategoryName(RegionCategory::kInRegion), "InRegion");
  EXPECT_STREQ(RegionCategoryName(RegionCategory::kInOutRegion),
               "InOutRegion");
  EXPECT_STREQ(RegionCategoryName(RegionCategory::kOutRegion), "OutRegion");
}

TEST(EvaluateRouterTest, AggregatesAccuracyAndFailures) {
  const RoadNetwork net = MakeLine(11, 1000);  // 1 km edges
  std::vector<QueryCase> queries;
  for (int i = 0; i < 4; ++i) {
    QueryCase q;
    q.s = 0;
    q.d = static_cast<VertexId>(3 + i);
    q.gt_path = {};
    for (VertexId v = 0; v <= q.d; ++v) q.gt_path.push_back(v);
    q.gt_length_m = (3.0 + i) * 1000;
    queries.push_back(q);
  }
  DistanceBuckets buckets;
  buckets.edges_km = {0, 3.5, 10};

  // A fake router that answers perfectly for even queries and fails odd
  // ones.
  int call = 0;
  const RouterEval eval = EvaluateRouter(
      net, "fake", queries, buckets,
      [](const QueryCase&) { return RegionCategory::kInRegion; },
      [&](const QueryCase& q) -> Result<Path> {
        if (call++ % 2 == 1) return Status::NotFound("x");
        Path p;
        p.vertices = q.gt_path;
        return p;
      });
  EXPECT_EQ(eval.overall.queries, 4u);
  EXPECT_EQ(eval.overall.failures, 2u);
  EXPECT_NEAR(eval.overall.mean_accuracy_eq1, 50.0, 1e-9);
  EXPECT_NEAR(eval.overall.mean_accuracy_eq4, 50.0, 1e-9);
  // Distance bucketing: query 0 (3 km) lands in the first bucket.
  EXPECT_EQ(eval.by_distance[0].queries, 1u);
  EXPECT_EQ(eval.by_distance[1].queries, 3u);
  // Region bucketing: all in InRegion.
  EXPECT_EQ(eval.by_region[0].queries, 4u);
  EXPECT_EQ(eval.by_region[2].queries, 0u);
}

TEST(DatasetSpecTest, PresetsAreSane) {
  const DatasetSpec metro = MetroDataset(0.5);
  EXPECT_EQ(metro.network.style, NetworkStyle::kMetro);
  EXPECT_EQ(metro.traj.num_trajectories, 6000u);
  EXPECT_GT(metro.buckets.size(), 2u);
  const DatasetSpec city = CityDataset(0.1);
  EXPECT_EQ(city.network.style, NetworkStyle::kCity);
  EXPECT_EQ(city.traj.num_trajectories, 1000u);
  EXPECT_GT(city.traj.sample_interval_s, metro.traj.sample_interval_s);
}

TEST(DatasetBuildTest, SmallCityDatasetEndToEnd) {
  DatasetSpec spec = CityDataset(0.03);
  spec.network.city_width_m = 6000;
  spec.network.city_height_m = 5000;
  auto built = BuildDataset(spec);
  ASSERT_TRUE(built.ok());
  EXPECT_GT(built->world.net.NumVertices(), 50u);
  EXPECT_GT(built->split.train.size(), 100u);
  EXPECT_GT(built->split.test.size(), 10u);
  // Train strictly precedes test in time.
  double max_train = 0;
  for (const auto& t : built->split.train) {
    max_train = std::max(max_train, t.departure_time);
  }
  for (const auto& t : built->split.test) {
    EXPECT_GT(t.departure_time, max_train - 1e-9);
  }
}

TEST(ComparisonTest, SmallCityEvaluatesFiveRoutersConsistently) {
  DatasetSpec spec = CityDataset(0.03);
  spec.network.city_width_m = 6000;
  spec.network.city_height_m = 5000;
  auto setup = BuildComparison(spec, 0);
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();
  const size_t num_queries = (*setup)->queries.size();
  ASSERT_GT(num_queries, 0u);

  const std::vector<RouterEval> evals = EvaluateAll(setup->get());
  ASSERT_EQ(evals.size(), 5u);
  const char* const kNames[] = {"L2R", "Shortest", "Fastest", "Dom", "TRIP"};
  for (size_t r = 0; r < evals.size(); ++r) {
    const RouterEval& ev = evals[r];
    EXPECT_EQ(ev.router, kNames[r]);
    EXPECT_EQ(ev.overall.queries, num_queries) << ev.router;
    for (const std::vector<BucketStats>* buckets :
         {&ev.by_distance, &ev.by_region}) {
      size_t sum = 0;
      for (const BucketStats& b : *buckets) {
        sum += b.queries;
        EXPECT_LE(b.mean_accuracy_eq4, b.mean_accuracy_eq1 + 1e-9)
            << ev.router << " " << b.label;
      }
      EXPECT_EQ(sum, num_queries) << ev.router;
    }
    EXPECT_LE(ev.overall.mean_accuracy_eq4,
              ev.overall.mean_accuracy_eq1 + 1e-9)
        << ev.router;
  }
}

}  // namespace
}  // namespace l2r
