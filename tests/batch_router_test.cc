#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/batch_router.h"
#include "core/l2r.h"
#include "eval/datasets.h"
#include "test_util.h"

namespace l2r {
namespace {

/// Small world shared by the suite; building the pipeline dominates the
/// test's cost, so do it once.
class BatchRouterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetSpec spec = CityDataset(0.08);
    spec.network.city_width_m = 8000;
    spec.network.city_height_m = 6000;
    auto built = BuildDataset(spec);
    L2R_CHECK(built.ok());
    dataset_ = new BuiltDataset(std::move(built).value());
    L2ROptions options;
    auto router = L2RRouter::Build(&dataset_->world.net,
                                   dataset_->split.train, options);
    L2R_CHECK(router.ok());
    router_ = router->release();
  }

  static void TearDownTestSuite() {
    delete router_;
    router_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  /// Query workload from the held-out split (plus one invalid query to
  /// check error slots stay aligned).
  static std::vector<BatchQuery> MakeQueries(size_t cap) {
    std::vector<BatchQuery> queries;
    for (const MatchedTrajectory& t : dataset_->split.test) {
      if (queries.size() >= cap) break;
      if (t.path.size() < 3 || t.path.front() == t.path.back()) continue;
      queries.push_back(
          BatchQuery{t.path.front(), t.path.back(), t.departure_time});
    }
    queries.push_back(BatchQuery{0, 0, 0});  // invalid: s == d
    return queries;
  }

  static void ExpectSameResult(const Result<RouteResult>& want,
                               const Result<RouteResult>& got, size_t i) {
    ASSERT_EQ(want.ok(), got.ok()) << "slot " << i;
    if (!want.ok()) {
      EXPECT_EQ(want.status().code(), got.status().code()) << "slot " << i;
      return;
    }
    EXPECT_EQ(want->path.vertices, got->path.vertices) << "slot " << i;
    EXPECT_EQ(want->path.cost, got->path.cost) << "slot " << i;
    EXPECT_EQ(want->method, got->method) << "slot " << i;
    // Catch-all for fields the per-field diagnostics above don't know
    // about yet (RouteResult::operator== is defaulted).
    EXPECT_TRUE(*want == *got) << "slot " << i;
  }

  static BuiltDataset* dataset_;
  static L2RRouter* router_;
};

BuiltDataset* BatchRouterTest::dataset_ = nullptr;
L2RRouter* BatchRouterTest::router_ = nullptr;

TEST_F(BatchRouterTest, MatchesSequentialRouteForAnyThreadCount) {
  const std::vector<BatchQuery> queries = MakeQueries(40);
  ASSERT_GT(queries.size(), 10u);

  // Sequential ground truth through the plain Route API.
  std::vector<Result<RouteResult>> want;
  L2RQueryContext ctx = router_->MakeContext();
  for (const BatchQuery& q : queries) {
    want.push_back(router_->Route(&ctx, q.s, q.d, q.departure_time));
  }

  for (const unsigned threads : {1u, 4u}) {
    BatchRouter batch(router_, threads);
    const auto got = batch.RouteAll(queries);
    ASSERT_EQ(got.size(), queries.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ExpectSameResult(want[i], got[i], i);
    }
  }
}

TEST_F(BatchRouterTest, ContextsArePooledAcrossBatches) {
  const std::vector<BatchQuery> queries = MakeQueries(30);
  {
    // Multi-threaded: the high-water mark is bounded by the thread count
    // no matter how many batches run (contexts are leased, not created,
    // once every participant is warm).
    BatchRouter batch(router_, 4);
    EXPECT_EQ(batch.ContextsCreated(), 0u);  // created lazily
    for (int rep = 0; rep < 6; ++rep) (void)batch.RouteAll(queries);
    EXPECT_GE(batch.ContextsCreated(), 1u);
    EXPECT_LE(batch.ContextsCreated(), 4u);
  }
  {
    // Single-threaded serving is exactly zero-alloc after warm-up: one
    // context, ever.
    BatchRouter batch(router_, 1);
    for (int rep = 0; rep < 3; ++rep) (void)batch.RouteAll(queries);
    EXPECT_EQ(batch.ContextsCreated(), 1u);
  }
}

TEST_F(BatchRouterTest, EmptyBatchIsFine) {
  BatchRouter batch(router_, 2);
  EXPECT_TRUE(batch.RouteAll({}).empty());
}

TEST_F(BatchRouterTest, DedupMatchesNonDedupByteForByte) {
  // Interleave three copies of the workload (plus the invalid query the
  // workload already carries, so duplicate *error* slots are exercised
  // too): dedup must collapse the copies and still fill every slot with
  // exactly what the undeduped run produces.
  const std::vector<BatchQuery> base = MakeQueries(20);
  std::vector<BatchQuery> batch;
  for (int rep = 0; rep < 3; ++rep) {
    batch.insert(batch.end(), base.begin(), base.end());
  }

  BatchRouter plain(router_, 1);
  const auto want = plain.RouteAll(batch);

  for (const unsigned threads : {1u, 4u}) {
    BatchRouter dedup(router_, BatchRouterOptions{threads, true});
    const auto got = dedup.RouteAll(batch);
    ASSERT_EQ(got.size(), batch.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ExpectSameResult(want[i], got[i], i);
    }
    // Each distinct (s, d, period) routed once; the two extra copies of
    // every base query were collapsed.
    EXPECT_EQ(dedup.DuplicatesCollapsed(), batch.size() - base.size());
  }
}

TEST_F(BatchRouterTest, DedupGroupsAcrossDepartureTimesWithinAPeriod) {
  // Two queries with the same (s, d) and different departure times in
  // the same period share a group: the route is a pure function of the
  // period, which is exactly what the dedup key quantizes.
  const std::vector<BatchQuery> base = MakeQueries(4);
  ASSERT_GT(base.size(), 1u);
  BatchQuery shifted = base.front();
  shifted.departure_time += 60;  // one minute later, same commute
  ASSERT_EQ(PeriodOf(base.front().departure_time),
            PeriodOf(shifted.departure_time));
  const std::vector<BatchQuery> batch{base.front(), shifted};

  BatchRouter plain(router_, 1);
  const auto want = plain.RouteAll(batch);
  BatchRouter dedup(router_, BatchRouterOptions{1, true});
  const auto got = dedup.RouteAll(batch);
  ASSERT_EQ(got.size(), 2u);
  for (size_t i = 0; i < got.size(); ++i) {
    ExpectSameResult(want[i], got[i], i);
  }
  EXPECT_EQ(dedup.DuplicatesCollapsed(), 1u);
}

TEST_F(BatchRouterTest, DedupEmptyBatchAndCounterAccumulation) {
  BatchRouter dedup(router_, BatchRouterOptions{2, true});
  EXPECT_TRUE(dedup.RouteAll({}).empty());
  EXPECT_EQ(dedup.DuplicatesCollapsed(), 0u);
  // The collapse counter accumulates across batches.
  const std::vector<BatchQuery> base = MakeQueries(6);
  const std::vector<BatchQuery> doubled = [&] {
    std::vector<BatchQuery> b = base;
    b.insert(b.end(), base.begin(), base.end());
    return b;
  }();
  (void)dedup.RouteAll(doubled);
  (void)dedup.RouteAll(doubled);
  EXPECT_EQ(dedup.DuplicatesCollapsed(), 2 * base.size());
}

}  // namespace
}  // namespace l2r
