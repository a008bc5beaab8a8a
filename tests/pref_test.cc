#include <gtest/gtest.h>

#include "pref/learner.h"
#include "pref/preference.h"
#include "pref/similarity.h"
#include "routing/preference_dijkstra.h"
#include "test_util.h"

namespace l2r {
namespace {

using testing::MakeLine;
using testing::ThreeCorridorNetwork;

// ---------- feature space / preference ----------

TEST(FeatureSpaceTest, DefaultLayout) {
  const auto space = PreferenceFeatureSpace::Default();
  EXPECT_EQ(space.num_master(), 3);
  EXPECT_EQ(space.num_slave(), 8);  // none + 6 types + highway combo
  EXPECT_EQ(space.num_features(), 11);
  EXPECT_EQ(space.slave_mask(0), 0);
  EXPECT_EQ(space.slave_mask(1), RoadTypeBit(RoadType::kMotorway));
  EXPECT_EQ(space.slave_mask(7),
            RoadTypeBit(RoadType::kMotorway) | RoadTypeBit(RoadType::kTrunk));
}

TEST(FeatureSpaceTest, PreferenceName) {
  const auto space = PreferenceFeatureSpace::Default();
  RoutingPreference p;
  p.master = CostFeature::kTravelTime;
  p.slave_index = 0;
  EXPECT_EQ(PreferenceName(p, space), "<TT, none>");
  p.master = CostFeature::kDistance;
  p.slave_index = 6;  // residential
  EXPECT_EQ(PreferenceName(p, space), "<DI, residential>");
}

TEST(PreferenceTest, JaccardCases) {
  RoutingPreference a{CostFeature::kDistance, 1};
  RoutingPreference b{CostFeature::kDistance, 1};
  EXPECT_DOUBLE_EQ(PreferenceJaccard(a, b), 1.0);
  b.slave_index = 2;  // same master, different slave: 1 shared of 3
  EXPECT_DOUBLE_EQ(PreferenceJaccard(a, b), 1.0 / 3);
  b.master = CostFeature::kFuel;  // nothing shared
  EXPECT_DOUBLE_EQ(PreferenceJaccard(a, b), 0.0);
  // No-slave preferences: sets of size 1.
  RoutingPreference c{CostFeature::kTravelTime, 0};
  RoutingPreference d{CostFeature::kTravelTime, 0};
  EXPECT_DOUBLE_EQ(PreferenceJaccard(c, d), 1.0);
  RoutingPreference e{CostFeature::kTravelTime, 3};
  EXPECT_DOUBLE_EQ(PreferenceJaccard(c, e), 0.5);  // 1 shared of 2
}

// ---------- similarity (Eq. 1 / Eq. 4) ----------

TEST(SimilarityTest, IdenticalPathsAreOne) {
  const RoadNetwork net = MakeLine(5, 100);
  const std::vector<VertexId> p = {0, 1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(PathSimilarity(net, p, p), 1.0);
  EXPECT_DOUBLE_EQ(PathSimilarityJaccard(net, p, p), 1.0);
}

TEST(SimilarityTest, DisjointPathsAreZero) {
  const RoadNetwork net = MakeLine(6, 100);
  EXPECT_DOUBLE_EQ(PathSimilarity(net, {0, 1, 2}, {3, 4, 5}), 0.0);
  EXPECT_DOUBLE_EQ(PathSimilarityJaccard(net, {0, 1, 2}, {3, 4, 5}), 0.0);
}

TEST(SimilarityTest, HandComputedOverlap) {
  // GT = 0-1-2-3 (300 m), candidate = 1-2-3-4 (300 m), shared = 200 m.
  const RoadNetwork net = MakeLine(6, 100);
  const std::vector<VertexId> gt = {0, 1, 2, 3};
  const std::vector<VertexId> cand = {1, 2, 3, 4};
  EXPECT_NEAR(PathSimilarity(net, gt, cand), 200.0 / 300, 1e-9);
  // Eq. 4: shared / union = 200 / 400.
  EXPECT_NEAR(PathSimilarityJaccard(net, gt, cand), 200.0 / 400, 1e-9);
}

TEST(SimilarityTest, DirectionInsensitive) {
  const RoadNetwork net = MakeLine(4, 100);
  EXPECT_DOUBLE_EQ(PathSimilarity(net, {0, 1, 2, 3}, {3, 2, 1, 0}), 1.0);
}

TEST(SimilarityTest, Eq1IsAsymmetricEq4Symmetric) {
  // Candidate covers GT fully but is longer.
  const RoadNetwork net = MakeLine(6, 100);
  const std::vector<VertexId> gt = {1, 2, 3};
  const std::vector<VertexId> cand = {0, 1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(PathSimilarity(net, gt, cand), 1.0);     // all GT covered
  EXPECT_NEAR(PathSimilarityJaccard(net, gt, cand), 0.5, 1e-9);
  EXPECT_NEAR(PathSimilarity(net, cand, gt), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(PathSimilarityJaccard(net, cand, gt),
                   PathSimilarityJaccard(net, gt, cand));
}

TEST(SimilarityTest, EmptyOrTrivialPaths) {
  const RoadNetwork net = MakeLine(4, 100);
  EXPECT_DOUBLE_EQ(PathSimilarity(net, {}, {0, 1}), 0.0);
  EXPECT_DOUBLE_EQ(PathSimilarity(net, {0}, {0, 1}), 0.0);
  EXPECT_DOUBLE_EQ(PathSimilarityJaccard(net, {}, {}), 0.0);
}

TEST(SimilarityTest, RepeatedEdgesCountOnce) {
  const RoadNetwork net = MakeLine(4, 100);
  // Candidate oscillates over edge {1,2}; it still counts once.
  EXPECT_NEAR(PathSimilarity(net, {0, 1, 2}, {1, 2, 1, 2}), 0.5, 1e-9);
}

// ---------- learner ----------

class LearnerTest : public ::testing::Test {
 protected:
  LearnerTest()
      : net_(ThreeCorridorNetwork()),
        ws_(net_, TimePeriod::kOffPeak),
        space_(PreferenceFeatureSpace::Default()) {}

  /// Generates the preference-optimal path for a planted preference.
  std::vector<VertexId> Plant(VertexId s, VertexId d,
                              const RoutingPreference& pref) {
    PreferenceDijkstra search(net_);
    auto routed =
        search.Route(s, d, ws_.Get(pref.master), space_.slave_mask(pref.slave_index));
    L2R_CHECK(routed.ok());
    return routed->path.vertices;
  }

  RoadNetwork net_;
  WeightSet ws_;
  PreferenceFeatureSpace space_;
};

TEST_F(LearnerTest, RecoversPlantedMasterTT) {
  PreferenceLearner learner(net_, ws_, space_);
  // Fastest 10->19... motorway row wins on time.
  RoutingPreference planted{CostFeature::kTravelTime, 0};
  const auto path = Plant(10, 19, planted);
  auto out = learner.LearnForPath(path);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->pref.master, CostFeature::kTravelTime);
  EXPECT_GT(out->similarity, 0.99);
}

TEST_F(LearnerTest, RecoversPlantedSlaveResidential) {
  PreferenceLearner learner(net_, ws_, space_);
  // Distance master alone already stays on row 1 (it is shortest), so
  // plant a preference whose slave genuinely matters: starting from the
  // motorway row, prefer residential.
  RoutingPreference planted{CostFeature::kDistance, 6};  // residential
  const auto path = Plant(0, 19, planted);
  auto out = learner.LearnForPath(path);
  ASSERT_TRUE(out.ok());
  // The learned preference must reproduce the path (behavioural match).
  PreferenceDijkstra search(net_);
  auto reproduced = search.Route(0, 19, ws_.Get(out->pref.master),
                                 space_.slave_mask(out->pref.slave_index));
  ASSERT_TRUE(reproduced.ok());
  EXPECT_GT(PathSimilarity(net_, path, reproduced->path.vertices), 0.95);
}

TEST_F(LearnerTest, LearnedPreferenceIsBehaviorallyOptimal) {
  PreferenceLearner learner(net_, ws_, space_);
  // For several planted preferences, the learner's choice must score at
  // least as well as the planted one (argmax property).
  const std::vector<RoutingPreference> planted = {
      {CostFeature::kTravelTime, 0},
      {CostFeature::kDistance, 6},
      {CostFeature::kTravelTime, 7},  // highway combo
      {CostFeature::kFuel, 4},        // secondary
  };
  PreferenceDijkstra search(net_);
  for (const auto& p : planted) {
    const auto path = Plant(0, 19, p);
    auto out = learner.LearnForPath(path);
    ASSERT_TRUE(out.ok());
    auto reproduced =
        search.Route(0, 19, ws_.Get(out->pref.master),
                     space_.slave_mask(out->pref.slave_index));
    ASSERT_TRUE(reproduced.ok());
    const double sim_learned =
        PathSimilarity(net_, path, reproduced->path.vertices);
    EXPECT_GT(sim_learned, 0.95) << PreferenceName(p, space_);
  }
}

TEST_F(LearnerTest, MultiplePathsWeighted) {
  PreferenceLearner learner(net_, ws_, space_);
  const auto fast = Plant(10, 19, {CostFeature::kTravelTime, 0});
  const auto quiet = Plant(10, 19, {CostFeature::kDistance, 6});
  // Heavily weighted quiet paths dominate the learned preference.
  auto out = learner.LearnForPaths({fast, quiet}, {1, 50});
  ASSERT_TRUE(out.ok());
  PreferenceDijkstra search(net_);
  auto reproduced =
      search.Route(10, 19, ws_.Get(out->pref.master),
                   space_.slave_mask(out->pref.slave_index));
  ASSERT_TRUE(reproduced.ok());
  EXPECT_GT(PathSimilarity(net_, quiet, reproduced->path.vertices), 0.9);
}

TEST_F(LearnerTest, RejectsEmptyInput) {
  PreferenceLearner learner(net_, ws_, space_);
  EXPECT_FALSE(learner.LearnForPaths({}, {}).ok());
  EXPECT_FALSE(learner.LearnForPaths({{5}}, {}).ok());  // degenerate path
}

TEST_F(LearnerTest, CountsMismatchRejected) {
  PreferenceLearner learner(net_, ws_, space_);
  const auto path = Plant(0, 9, {CostFeature::kTravelTime, 0});
  EXPECT_FALSE(learner.LearnForPaths({path}, {1, 2}).ok());
}

}  // namespace
}  // namespace l2r
