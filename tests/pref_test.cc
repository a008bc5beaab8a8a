#include <gtest/gtest.h>

#include <bit>

#include "common/rng.h"
#include "pref/learner.h"
#include "pref/preference.h"
#include "pref/similarity.h"
#include "routing/goal_potential.h"
#include "routing/preference_dijkstra.h"
#include "routing/slave_reachability.h"
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

// ---------- learner vs an exhaustive reference ----------

/// The plain coordinate descent LearnForPaths must agree with: one
/// Algorithm 2 search per (candidate, path), no bound and no reuse, under
/// the learner's tie rules (a master must beat the best so far, a slave
/// the best by more than 1e-9).
PreferenceLearner::LearnOutput ExhaustiveLearn(
    const RoadNetwork& net, const WeightSet& ws,
    const PreferenceFeatureSpace& space,
    const std::vector<std::vector<VertexId>>& paths,
    const std::vector<uint32_t>& counts) {
  PreferenceDijkstra search(net);
  auto weight = [&](size_t i) -> double {
    return counts.empty() ? 1.0 : counts[i];
  };
  auto score = [&](CostFeature master, int slave) {
    double total = 0;
    for (size_t i = 0; i < paths.size(); ++i) {
      const std::vector<VertexId>& gt = paths[i];
      if (gt.size() < 2) continue;
      auto routed = search.Route(gt.front(), gt.back(), ws.Get(master),
                                 space.slave_mask(slave));
      if (!routed.ok()) continue;
      total += weight(i) * PathSimilarity(net, gt, routed->path.vertices);
    }
    return total;
  };
  PreferenceLearner::LearnOutput out;
  double best_master_score = -1;
  for (int m = 0; m < kNumCostFeatures; ++m) {
    const double s = score(static_cast<CostFeature>(m), 0);
    if (s > best_master_score) {
      best_master_score = s;
      out.pref.master = static_cast<CostFeature>(m);
    }
  }
  double best = best_master_score;
  for (int slave = 1; slave < space.num_slave(); ++slave) {
    const double s = score(out.pref.master, slave);
    if (s > best + 1e-9) {
      best = s;
      out.pref.slave_index = slave;
    }
  }
  double weight_total = 0;
  for (size_t i = 0; i < paths.size(); ++i) {
    if (paths[i].size() >= 2) weight_total += weight(i);
  }
  out.similarity = best / weight_total;
  return out;
}

/// A learning input: ground-truth paths and their weights (empty =
/// uniform).
struct PathSet {
  std::vector<std::vector<VertexId>> paths;
  std::vector<uint32_t> counts;
};

/// A seeded n x n grid of two-way streets with random road types and
/// speeds plus one-way chords, so cost features and slave filters disagree
/// in many places. Vertex n * n has a single out-edge and no in-edge: no
/// search can reach it.
RoadNetwork MixedGrid(uint64_t seed, int n) {
  Rng rng(seed);
  RoadNetworkBuilder b;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      b.AddVertex(Point(i * 150.0 + rng.Uniform(-30, 30),
                        j * 150.0 + rng.Uniform(-30, 30)));
    }
  }
  auto type = [&] { return static_cast<RoadType>(rng.Index(kNumRoadTypes)); };
  auto id = [n](int i, int j) { return static_cast<VertexId>(j * n + i); };
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      if (i + 1 < n) {
        b.AddTwoWayEdge(id(i, j), id(i + 1, j), type(), rng.Uniform(20, 110),
                        rng.Uniform(15, 90));
      }
      if (j + 1 < n) {
        b.AddTwoWayEdge(id(i, j), id(i, j + 1), type(), rng.Uniform(20, 110),
                        rng.Uniform(15, 90));
      }
    }
  }
  for (int k = 0; k < n; ++k) {
    const int i = static_cast<int>(rng.Index(n - 1));
    const int j = static_cast<int>(rng.Index(n - 1));
    b.AddEdge(id(i, j), id(i + 1, j + 1), type(), rng.Uniform(20, 110),
              rng.Uniform(15, 90));
  }
  const VertexId sink_free = b.AddVertex(Point(-200, -200));
  b.AddEdge(sink_free, 0, RoadType::kResidential, 30, 25);
  auto built = b.Build();
  L2R_CHECK(built.ok());
  return std::move(built).value();
}

/// Checks LearnForPaths against ExhaustiveLearn on every set: the same
/// preference and the same similarity bits, and every path score of the
/// plain descent accounted for once. Adds the learner's counts to *total.
void ExpectMatchesExhaustive(const RoadNetwork& net, const WeightSet& ws,
                             const PreferenceFeatureSpace& space,
                             const SlaveReachability* reach,
                             const std::vector<PathSet>& sets,
                             LearnCounts* total) {
  PreferenceLearner learner(net, ws, space, reach);
  for (size_t k = 0; k < sets.size(); ++k) {
    const PathSet& set = sets[k];
    auto got = learner.LearnForPaths(set.paths, set.counts);
    ASSERT_TRUE(got.ok()) << "set " << k;
    const auto want = ExhaustiveLearn(net, ws, space, set.paths, set.counts);
    EXPECT_EQ(got->pref, want.pref)
        << "set " << k << ": " << PreferenceName(got->pref, space) << " vs "
        << PreferenceName(want.pref, space);
    EXPECT_EQ(std::bit_cast<uint64_t>(got->similarity),
              std::bit_cast<uint64_t>(want.similarity))
        << "set " << k << ": " << got->similarity << " vs "
        << want.similarity;
    const LearnCounts& c = got->counts;
    EXPECT_EQ(c.path_scores,
              (space.num_master() + space.num_slave() - 1) * set.paths.size())
        << "set " << k;
    EXPECT_EQ(c.searches + c.reused + c.pruned, c.path_scores)
        << "set " << k;
    *total += c;
  }
}

TEST(LearnerOracleTest, MatchesExhaustiveDescentOnThreeCorridors) {
  const RoadNetwork net = ThreeCorridorNetwork();
  const WeightSet ws(net, TimePeriod::kOffPeak);
  const auto space = PreferenceFeatureSpace::Default();
  PreferenceDijkstra plant(net);
  auto planted = [&](VertexId s, VertexId t, CostFeature m, int slave) {
    auto routed = plant.Route(s, t, ws.Get(m), space.slave_mask(slave));
    L2R_CHECK(routed.ok());
    return routed->path.vertices;
  };
  // Every planted preference between several corridor pairs (ties
  // between features abound here), alone and in weighted pairs.
  std::vector<PathSet> sets;
  const std::vector<std::pair<VertexId, VertexId>> ends = {
      {0, 19}, {10, 19}, {20, 9}, {29, 0}, {15, 5}, {3, 27}};
  for (const auto& [s, t] : ends) {
    for (int m = 0; m < kNumCostFeatures; ++m) {
      for (int slave = 0; slave < space.num_slave(); ++slave) {
        const auto path = planted(s, t, static_cast<CostFeature>(m), slave);
        sets.push_back({{path}, {}});
        const auto other =
            planted(t, s, static_cast<CostFeature>((m + 1) % 3),
                    (slave + 3) % space.num_slave());
        sets.push_back({{path, other}, {static_cast<uint32_t>(1 + slave),
                                        static_cast<uint32_t>(9 - m)}});
      }
    }
  }
  LearnCounts total;
  ExpectMatchesExhaustive(net, ws, space, nullptr, sets, &total);
  EXPECT_GT(total.reused, 0u);
  EXPECT_GT(total.pruned, 0u);
}

TEST(LearnerOracleTest, MatchesExhaustiveDescentOnMixedGrids) {
  const auto space = PreferenceFeatureSpace::Default();
  LearnCounts total;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const int n = 9;
    const RoadNetwork net = MixedGrid(seed, n);
    const VertexId unreachable = static_cast<VertexId>(n * n);
    // Goal-directed weights and the reachability oracle, as the router
    // learns with them.
    WeightSet ws(net, TimePeriod::kPeak);
    const std::vector<std::vector<EdgeWeights*>> groups = {
        {&ws.distance}, {&ws.time}, {&ws.fuel}};
    AttachGoalPotentials(net, groups, 2);
    const SlaveReachability reach =
        SlaveReachability::Build(net, space.slaves());

    Rng rng(seed * 7919);
    PreferenceDijkstra plant(net);
    auto vertex = [&] {
      return static_cast<VertexId>(rng.Index(unreachable));
    };
    auto planted = [&](VertexId s, VertexId t) {
      const auto m = static_cast<CostFeature>(rng.Index(kNumCostFeatures));
      const int slave = static_cast<int>(rng.Index(space.num_slave()));
      auto routed = plant.Route(s, t, ws.Get(m), space.slave_mask(slave));
      L2R_CHECK(routed.ok());
      return routed->path.vertices;
    };
    std::vector<PathSet> sets;
    for (int q = 0; q < 40; ++q) {
      PathSet set;
      const size_t num_paths = 1 + rng.Index(kMaxLearnPaths);
      for (size_t k = 0; k < num_paths; ++k) {
        const VertexId s = vertex();
        VertexId t = vertex();
        while (t == s) t = vertex();
        std::vector<VertexId> path = planted(s, t);
        if (rng.Bernoulli(0.5)) {
          // A detour through a third vertex under a second preference:
          // a path no single preference has to reproduce exactly.
          const VertexId via = vertex();
          if (via != s && via != t) {
            path = planted(s, via);
            const auto rest = planted(via, t);
            path.insert(path.end(), rest.begin() + 1, rest.end());
          }
        }
        set.paths.push_back(std::move(path));
        if (q % 3 != 0) {
          set.counts.push_back(static_cast<uint32_t>(1 + rng.Index(20)));
        }
      }
      if (q % 8 == 0) {
        // No search reaches this path's end, under any preference.
        std::vector<VertexId> lost = set.paths.front();
        lost.push_back(unreachable);
        set.paths.push_back(std::move(lost));
        if (!set.counts.empty()) set.counts.push_back(5);
      }
      sets.push_back(std::move(set));
    }
    // The unreachable path alone: every candidate scores 0.
    sets.push_back({{{0, 1, unreachable}}, {}});
    ExpectMatchesExhaustive(net, ws, space, &reach, sets, &total);
  }
  EXPECT_GT(total.reused, 0u);
  EXPECT_GT(total.pruned, 0u);
}

TEST(LearnerOracleTest, MatchesExhaustiveDescentWithParallelEdges) {
  // 0 -> 1 -> 2 -> 3 along a line; the hop 1 -> 2 has a long, slow
  // residential edge and a short motorway edge at the fuel-optimal speed
  // over the same vertices, and a residential detour 1 -> 4 -> 2 runs
  // beside them, shorter and quicker than the residential hop. Every
  // master takes the motorway hop; under the residential filter only
  // residential edges leave 1, so Algorithm 2 takes the detour. A reuse
  // check that read only one of the parallel edges could wrongly keep the
  // master's route.
  RoadNetworkBuilder b;
  for (const Point& p : {Point(0, 0), Point(200, 0), Point(400, 0),
                         Point(600, 0), Point(300, 60)}) {
    b.AddVertex(p);
  }
  b.AddTwoWayEdge(0, 1, RoadType::kResidential, 40, 35);
  b.AddTwoWayEdge(1, 2, RoadType::kResidential, 10, 10, /*length_m=*/300);
  b.AddTwoWayEdge(1, 2, RoadType::kMotorway, 60, 55);
  b.AddTwoWayEdge(2, 3, RoadType::kResidential, 40, 35);
  b.AddTwoWayEdge(1, 4, RoadType::kResidential, 40, 35);
  b.AddTwoWayEdge(4, 2, RoadType::kResidential, 40, 35);
  auto built = b.Build();
  ASSERT_TRUE(built.ok());
  const RoadNetwork net = std::move(built).value();
  const WeightSet ws(net, TimePeriod::kOffPeak);
  const auto space = PreferenceFeatureSpace::Default();
  const std::vector<PathSet> sets = {
      {{{0, 1, 4, 2, 3}}, {}},
      {{{0, 1, 2, 3}}, {}},
      {{{3, 2, 4, 1, 0}, {0, 1, 2, 3}}, {3, 1}},
      {{{0, 1, 2, 3}, {3, 2, 1, 0}, {0, 1, 4, 2}}, {2, 2, 3}},
  };
  LearnCounts total;
  ExpectMatchesExhaustive(net, ws, space, nullptr, sets, &total);
  // The detour is learned: the residential slave reproduces it exactly.
  PreferenceLearner learner(net, ws, space);
  auto out = learner.LearnForPaths(sets[0].paths, sets[0].counts);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->pref.slave_index, 6);  // residential
  EXPECT_EQ(out->similarity, 1.0);
}

}  // namespace
}  // namespace l2r
