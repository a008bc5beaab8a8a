// Dynamic-world subsystem suite: WorldUpdateChannel epoch/dirty-set
// publication, weight refresh consistency, closure/reopen semantics, the
// epoch read gate, selective invalidation end-to-end through the serving
// stack (including a deterministic ManualClock stream interleaving), and
// the RouteRepairer's byte-identity contract.
//
// The fixture shares one built city across tests (building dominates the
// runtime), so every test that mutates the world restores it with an
// exact inverse batch: speed scales are powers of two (s * 0.5 * 2 == s
// exactly in binary floating point) and closures are reopened.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/batch_router.h"
#include "core/l2r.h"
#include "eval/datasets.h"
#include "routing/preference_dijkstra.h"
#include "serve/clock.h"
#include "serve/serving_router.h"
#include "serve/stream_router.h"
#include "world/route_repairer.h"
#include "world/update_channel.h"

namespace l2r {
namespace {

class WorldTest : public ::testing::Test {
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

  /// The mutable network the update channel writes through.
  static RoadNetwork* net() { return &dataset_->world.net; }

  /// Routable queries only (no injected-invalid sentinel: these suites
  /// reason about cache hit/miss deltas, which error queries would skew).
  static std::vector<BatchQuery> MakeQueries(size_t cap) {
    std::vector<BatchQuery> queries;
    for (const MatchedTrajectory& t : dataset_->split.test) {
      if (queries.size() >= cap) break;
      if (t.path.size() < 3 || t.path.front() == t.path.back()) continue;
      queries.push_back(
          BatchQuery{t.path.front(), t.path.back(), t.departure_time});
    }
    L2R_CHECK(!queries.empty());
    return queries;
  }

  /// Up to `cap` random pairs whose Algorithm 2 run settles more than
  /// DeadlineBudget's 256-settle floor, so they degrade under it.
  static std::vector<BatchQuery> DegradingQueries(size_t cap) {
    L2RQueryContext ctx = router_->MakeContext();
    const size_t n = net()->NumVertices();
    Rng rng(5);
    std::vector<BatchQuery> out;
    for (int tries = 0; tries < 8000 && out.size() < cap; ++tries) {
      const BatchQuery q{static_cast<VertexId>(rng.Index(n)),
                         static_cast<VertexId>(rng.Index(n)),
                         tries % 2 == 0 ? 12 * 3600.0 : 8 * 3600.0};
      const auto capped =
          router_->Route(&ctx, QueryKeyOf(q.s, q.d, q.departure_time),
                         DeadlineBudget::kMinSettles);
      if (capped.ok() && capped->budget_degraded) out.push_back(q);
    }
    return out;
  }

  static Result<RouteResult> PlainRoute(const BatchQuery& q) {
    L2RQueryContext ctx = router_->MakeContext();
    return router_->Route(&ctx, q.s, q.d, q.departure_time);
  }

  /// Cold-path ground truth under the *current* world state.
  static std::vector<Result<RouteResult>> PlainResults(
      const std::vector<BatchQuery>& queries) {
    std::vector<Result<RouteResult>> out;
    L2RQueryContext ctx = router_->MakeContext();
    for (const BatchQuery& q : queries) {
      out.push_back(router_->Route(&ctx, q.s, q.d, q.departure_time));
    }
    return out;
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
    EXPECT_TRUE(*want == *got) << "slot " << i;
  }

  /// A middle edge of `path`, in traversal direction.
  static EdgeId MidEdge(const Path& path) {
    L2R_CHECK(path.vertices.size() >= 2);
    const size_t i = path.vertices.size() / 2 - (path.vertices.size() == 2);
    const EdgeId e =
        net()->FindEdge(path.vertices[i], path.vertices[i + 1]);
    L2R_CHECK(e != kInvalidEdge);
    return e;
  }

  static WorldUpdateBatch SlowdownBatch(EdgeId e, double scale) {
    WorldUpdateBatch batch;
    batch.deltas.push_back(EdgeDelta{e, scale});
    return batch;
  }

  static BuiltDataset* dataset_;
  static L2RRouter* router_;
};

BuiltDataset* WorldTest::dataset_ = nullptr;
L2RRouter* WorldTest::router_ = nullptr;

// ---------------------------------------------------------------------------
// WorldUpdateChannel: epoch publication and dirty-set discipline.

TEST_F(WorldTest, ApplyPublishesMonotoneEpochsWithExactDirtySets) {
  WorldUpdateChannel channel(net(), router_);
  EXPECT_EQ(channel.CurrentEpoch(), 0u);

  const auto queries = MakeQueries(1);
  const auto r0 = PlainRoute(queries[0]);
  ASSERT_TRUE(r0.ok());
  const EdgeId e = MidEdge(r0->path);

  // Cost-increasing delta: epoch 1, selective dirty sets, no wholesale.
  const auto rep1 = channel.Apply(SlowdownBatch(e, 0.5));
  EXPECT_EQ(rep1.epoch, 1u);
  EXPECT_EQ(channel.CurrentEpoch(), 1u);
  EXPECT_EQ(rep1.edges_touched, 1u);
  for (int p = 0; p < kNumTimePeriods; ++p) {
    EXPECT_FALSE(rep1.wholesale[p]) << "period " << p;
    ASSERT_FALSE(rep1.dirty_regions[p].empty()) << "period " << p;
    for (RegionId r : rep1.dirty_regions[p]) {
      EXPECT_EQ(channel.LastDirtyEpoch(p, r), 1u);
    }
    EXPECT_EQ(channel.LastDirtyEpoch(p, kAllRegionsBucket), 1u);
    // Every region the batch did not touch stays clean.
    const RegionGraph& graph =
        router_->region_graph(static_cast<TimePeriod>(p));
    size_t clean = 0;
    for (RegionId r = 0; r < graph.NumRegions(); ++r) {
      if (std::find(rep1.dirty_regions[p].begin(),
                    rep1.dirty_regions[p].end(),
                    r) != rep1.dirty_regions[p].end()) {
        continue;
      }
      EXPECT_EQ(channel.LastDirtyEpoch(p, r), 0u) << "region " << r;
      ++clean;
    }
    EXPECT_GT(clean, 0u) << "period " << p;
  }

  // Empty and all-no-op batches publish nothing.
  EXPECT_EQ(channel.Apply(WorldUpdateBatch{}).epoch, 1u);
  WorldUpdateBatch noop;
  noop.deltas.push_back(EdgeDelta{e, 1.0});  // identity scale
  noop.reopenings.push_back(e);              // already open
  noop.closures.push_back(kInvalidEdge);     // out of range
  EXPECT_EQ(channel.Apply(noop).epoch, 1u);
  EXPECT_EQ(channel.CurrentEpoch(), 1u);

  // Cost-decreasing delta (restores the speed exactly): wholesale — an
  // improvement can reroute paths that never touched its region.
  const auto rep2 = channel.Apply(SlowdownBatch(e, 2.0));
  EXPECT_EQ(rep2.epoch, 2u);
  for (int p = 0; p < kNumTimePeriods; ++p) {
    EXPECT_TRUE(rep2.wholesale[p]) << "period " << p;
    // The floor dirties even regions no batch ever touched directly.
    const RegionGraph& graph =
        router_->region_graph(static_cast<TimePeriod>(p));
    for (RegionId r = 0; r < graph.NumRegions(); ++r) {
      EXPECT_EQ(channel.LastDirtyEpoch(p, r), 2u);
    }
  }

  // A period transition dirties exactly the named period.
  WorldUpdateBatch transition;
  transition.period_transition = TimePeriod::kPeak;
  const auto rep3 = channel.Apply(transition);
  EXPECT_EQ(rep3.epoch, 3u);
  const int peak = static_cast<int>(TimePeriod::kPeak);
  const int off = static_cast<int>(TimePeriod::kOffPeak);
  EXPECT_TRUE(rep3.wholesale[peak]);
  EXPECT_FALSE(rep3.wholesale[off]);
  EXPECT_EQ(channel.LastDirtyEpoch(peak, 0), 3u);
  EXPECT_EQ(channel.LastDirtyEpoch(off, 0), 2u);
  EXPECT_EQ(channel.CurrentEpoch(), 3u);
}

TEST_F(WorldTest, RefreshKeepsRouterWeightsConsistentWithTheNet) {
  WorldUpdateChannel channel(net(), router_);
  const auto queries = MakeQueries(1);
  const auto r0 = PlainRoute(queries[0]);
  ASSERT_TRUE(r0.ok());
  const EdgeId e = MidEdge(r0->path);
  const double distance0 = router_->weights(TimePeriod::kOffPeak).distance[e];

  channel.Apply(SlowdownBatch(e, 0.5));
  for (int p = 0; p < kNumTimePeriods; ++p) {
    const TimePeriod period = static_cast<TimePeriod>(p);
    const WeightSet& w = router_->weights(period);
    EXPECT_EQ(w.time[e], net()->EdgeTravelTimeS(e, period));
    EXPECT_EQ(w.fuel[e], net()->EdgeFuelMl(e, period));
    EXPECT_EQ(w.distance[e], distance0);  // geometry is immutable
    EXPECT_TRUE(std::isfinite(w.time[e]));
  }

  // Closure poisons every feature to +inf (searches refuse the edge
  // under any master dimension), reopening restores finite weights.
  WorldUpdateBatch close;
  close.closures.push_back(e);
  channel.Apply(close);
  EXPECT_TRUE(net()->EdgeClosed(e));
  for (int p = 0; p < kNumTimePeriods; ++p) {
    const WeightSet& w = router_->weights(static_cast<TimePeriod>(p));
    EXPECT_TRUE(std::isinf(w.time[e]));
    EXPECT_TRUE(std::isinf(w.fuel[e]));
    EXPECT_TRUE(std::isinf(w.distance[e]));
  }

  WorldUpdateBatch restore;
  restore.reopenings.push_back(e);
  restore.deltas.push_back(EdgeDelta{e, 2.0});
  channel.Apply(restore);
  EXPECT_FALSE(net()->EdgeClosed(e));
  for (int p = 0; p < kNumTimePeriods; ++p) {
    const TimePeriod period = static_cast<TimePeriod>(p);
    const WeightSet& w = router_->weights(period);
    EXPECT_EQ(w.time[e], net()->EdgeTravelTimeS(e, period));
    EXPECT_TRUE(std::isfinite(w.time[e]));
    EXPECT_EQ(w.distance[e], distance0);
  }
}

TEST_F(WorldTest, ClosureReroutesAndReopeningRestoresTheExactBytes) {
  WorldUpdateChannel channel(net(), router_);
  const auto queries = MakeQueries(6);
  // Pick a query whose route has an interior edge to close.
  Result<RouteResult> r0 = Status::NotFound("no suitable query");
  BatchQuery query;
  for (const BatchQuery& q : queries) {
    auto r = PlainRoute(q);
    if (r.ok() && r->path.vertices.size() >= 4) {
      r0 = std::move(r);
      query = q;
      break;
    }
  }
  ASSERT_TRUE(r0.ok());
  const EdgeId e = MidEdge(r0->path);
  const EdgeRecord& rec = net()->edge(e);

  WorldUpdateBatch close;
  close.closures.push_back(e);
  channel.Apply(close);

  const auto detour = PlainRoute(query);
  ASSERT_TRUE(detour.ok());  // the grid city offers alternatives
  for (size_t i = 0; i + 1 < detour->path.vertices.size(); ++i) {
    EXPECT_FALSE(detour->path.vertices[i] == rec.from &&
                 detour->path.vertices[i + 1] == rec.to)
        << "detour traverses the closed edge at hop " << i;
  }
  // (No cost-monotonicity assertion: preference routes mimic drivers, so
  // a detour may legitimately have a *lower* travel-time cost.)

  WorldUpdateBatch reopen;
  reopen.reopenings.push_back(e);
  channel.Apply(reopen);
  ExpectSameResult(r0, PlainRoute(query), 0);
}

TEST_F(WorldTest, GoalDirectedRoutesMatchZeroPotentialAcrossUpdates) {
  WorldUpdateChannel channel(net(), router_);
  const auto queries = MakeQueries(60);
  // Every route must equal the one the same router returns with its
  // goal-directed potentials turned off (plain Dijkstra everywhere).
  auto expect_matches_reference = [&](const char* stage) {
    SCOPED_TRACE(stage);
    router_->SetGoalDirected(false);
    const auto want = PlainResults(queries);
    router_->SetGoalDirected(true);
    const auto got = PlainResults(queries);
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectSameResult(want[i], got[i], i);
    }
  };
  auto landmarks_on = [] {
    for (int p = 0; p < kNumTimePeriods; ++p) {
      if (router_->weights(static_cast<TimePeriod>(p)).time.landmarks() ==
          nullptr) {
        return false;
      }
    }
    return true;
  };
  // Three distinct route edges: slowed, closed, sped up.
  std::vector<EdgeId> mids;
  for (const BatchQuery& q : queries) {
    if (mids.size() == 3) break;
    const auto r = PlainRoute(q);
    if (!r.ok()) continue;
    const EdgeId e = MidEdge(r->path);
    if (std::find(mids.begin(), mids.end(), e) == mids.end()) {
      mids.push_back(e);
    }
  }
  ASSERT_EQ(mids.size(), 3u);
  ASSERT_TRUE(landmarks_on());
  expect_matches_reference("built");

  // Cost increases keep every landmark bound on.
  channel.Apply(SlowdownBatch(mids[0], 0.5));
  EXPECT_TRUE(landmarks_on());
  expect_matches_reference("slowdown");
  WorldUpdateBatch close;
  close.closures.push_back(mids[1]);
  channel.Apply(close);
  EXPECT_TRUE(landmarks_on());
  expect_matches_reference("closure");
  WorldUpdateBatch reopen;
  reopen.reopenings.push_back(mids[1]);
  channel.Apply(reopen);
  EXPECT_TRUE(landmarks_on());
  expect_matches_reference("reopening");
  channel.Apply(SlowdownBatch(mids[0], 2.0));  // back to the build speed
  EXPECT_TRUE(landmarks_on());

  // A speed-up above the build-time speed undercuts the tables' floor:
  // the landmark bound is off while it holds and back once it is undone.
  channel.Apply(SlowdownBatch(mids[2], 2.0));
  EXPECT_FALSE(landmarks_on());
  expect_matches_reference("speed-up");
  channel.Apply(SlowdownBatch(mids[2], 0.5));
  EXPECT_TRUE(landmarks_on());
  expect_matches_reference("speed-up undone");
}

TEST_F(WorldTest, SlaveOracleLeavesRoutesUnchangedAcrossUpdates) {
  // The oracle indexes the build-time topology. Live updates only change
  // speeds and closures, so every route must stay what the search without
  // the oracle returns, through a closure and its reopening.
  WorldUpdateChannel channel(net(), router_);
  const auto queries = MakeQueries(40);
  const SlaveReachability& reach = router_->slave_reachability();
  size_t shortcuts = 0;
  auto expect_identical = [&](const char* stage) {
    SCOPED_TRACE(stage);
    // The full router: contexts with and without the oracle.
    L2RQueryContext bare_ctx(router_->net());
    const auto want = PlainResults(queries);
    for (size_t i = 0; i < queries.size(); ++i) {
      const BatchQuery& q = queries[i];
      ExpectSameResult(
          want[i], router_->Route(&bare_ctx, q.s, q.d, q.departure_time), i);
    }
    // Algorithm 2 itself, for every period, master and slave mask.
    PreferenceDijkstra bare(router_->net());
    PreferenceDijkstra oracle(router_->net(), &reach);
    for (int p = 0; p < kNumTimePeriods; ++p) {
      const WeightSet& ws = router_->weights(static_cast<TimePeriod>(p));
      for (int f = 0; f < kNumCostFeatures; ++f) {
        const EdgeWeights& w = ws.Get(static_cast<CostFeature>(f));
        for (const RoadTypeMask mask : router_->feature_space().slaves()) {
          for (const BatchQuery& q : queries) {
            auto a = bare.Route(q.s, q.d, w, mask);
            auto b = oracle.Route(q.s, q.d, w, mask);
            ASSERT_EQ(a.ok(), b.ok()) << q.s << "->" << q.d;
            if (!a.ok()) {
              EXPECT_EQ(a.status().code(), b.status().code());
              continue;
            }
            EXPECT_EQ(a->path.vertices, b->path.vertices);
            EXPECT_EQ(a->path.cost, b->path.cost);
            EXPECT_EQ(a->fell_back_to_unfiltered, b->fell_back_to_unfiltered);
            shortcuts += reach.Unreachable(mask, q.s, q.d) ? 1 : 0;
          }
        }
      }
    }
  };
  // A route edge to close: the middle edge of the first routable query.
  EdgeId closed = kInvalidEdge;
  for (const BatchQuery& q : queries) {
    const auto r = PlainRoute(q);
    if (!r.ok()) continue;
    closed = MidEdge(r->path);
    break;
  }
  ASSERT_NE(closed, kInvalidEdge);
  expect_identical("built");
  WorldUpdateBatch close;
  close.closures.push_back(closed);
  channel.Apply(close);
  expect_identical("closure");
  WorldUpdateBatch reopen;
  reopen.reopenings.push_back(closed);
  channel.Apply(reopen);
  expect_identical("reopening");
  EXPECT_GT(shortcuts, 0u);
}

TEST_F(WorldTest, ApplyWaitsOutActiveReadPins) {
  WorldUpdateChannel channel(net(), router_);
  ASSERT_EQ(channel.AcquireRead(), 0u);  // pin the world

  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  WorldUpdateBatch batch;
  batch.period_transition = TimePeriod::kPeak;  // no net mutation needed
  std::thread writer([&] {
    started.store(true, std::memory_order_release);
    channel.Apply(batch);
    done.store(true, std::memory_order_release);
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  // The writer must stay blocked on the gate while the pin is held. (A
  // broken gate completes Apply promptly and trips the expectation.)
  for (int i = 0; i < 1000; ++i) {
    std::this_thread::yield();
    EXPECT_FALSE(done.load(std::memory_order_acquire));
  }
  EXPECT_EQ(channel.CurrentEpoch(), 0u);

  channel.ReleaseRead();
  writer.join();
  EXPECT_TRUE(done.load(std::memory_order_acquire));
  EXPECT_EQ(channel.CurrentEpoch(), 1u);
}

// ---------------------------------------------------------------------------
// Selective invalidation end-to-end through the serving stack.

TEST_F(WorldTest, ServingNeverAnswersFromAnInvalidatedEntry) {
  WorldUpdateChannel channel(net(), router_);
  ServingRouterOptions options;
  options.world = &channel;
  ServingRouter serving(router_, options);

  const auto queries = MakeQueries(24);
  auto serve_all = [&] {
    std::vector<Result<RouteResult>> out;
    L2RQueryContext ctx = router_->MakeContext();
    for (const BatchQuery& q : queries) {
      out.push_back(serving.Route(&ctx, q.s, q.d, q.departure_time));
    }
    return out;
  };

  // Warm pass on epoch 0: byte-identical to the plain cold path.
  const auto plain0 = PlainResults(queries);
  const auto warm = serve_all();
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameResult(plain0[i], warm[i], i);
  }
  ASSERT_TRUE(plain0[0].ok());
  EXPECT_EQ(serving.GetStats().epoch_serves.stale_valid_epoch, 0u);

  // Incident: slow an edge on query 0's route. Its cached entry is now
  // invalid; entries whose footprint misses the dirty regions are not.
  const EdgeId e = MidEdge(plain0[0]->path);
  const auto report = channel.Apply(SlowdownBatch(e, 0.5));
  ASSERT_EQ(report.epoch, 1u);

  const auto plain1 = PlainResults(queries);
  const auto after = serve_all();
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameResult(plain1[i], after[i], i);
  }
  // The incident really changed query 0's answer — the byte comparison
  // above had teeth, a stale serve could not have passed it.
  EXPECT_FALSE(*plain1[0] == *plain0[0]);

  const auto stats = serving.GetStats();
  EXPECT_GE(stats.cache.invalidated, 1u);
  // The payoff of selective invalidation: entries outside the dirty
  // regions kept serving on their epoch-0 stamp.
  EXPECT_GT(stats.epoch_serves.stale_valid_epoch, 0u);
  EXPECT_EQ(stats.epoch_serves.current_epoch +
                stats.epoch_serves.stale_valid_epoch,
            stats.queries);

  // Recovery (cost-decreasing): wholesale invalidation; every query must
  // recompute back to the original epoch-0 bytes.
  channel.Apply(SlowdownBatch(e, 2.0));
  const auto restored = serve_all();
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameResult(plain0[i], restored[i], i);
  }
  const auto stats2 = serving.GetStats();
  // Wholesale means no stale-but-valid serves were possible this pass.
  EXPECT_EQ(stats2.epoch_serves.stale_valid_epoch,
            stats.epoch_serves.stale_valid_epoch);
}

TEST_F(WorldTest, RepairerReinsertsByteIdenticalEntriesOnTheNewEpoch) {
  WorldUpdateChannel channel(net(), router_);
  ServingRouterOptions options;
  options.world = &channel;
  ServingRouter serving(router_, options);

  // Keep only routable queries so "all hits after repair" is exact
  // (error results are never cached and would recompute every pass).
  std::vector<BatchQuery> queries;
  for (const BatchQuery& q : MakeQueries(24)) {
    if (PlainRoute(q).ok()) queries.push_back(q);
  }
  ASSERT_GE(queries.size(), 8u);

  L2RQueryContext ctx = router_->MakeContext();
  std::vector<Result<RouteResult>> warm;
  for (const BatchQuery& q : queries) {
    warm.push_back(serving.Route(&ctx, q.s, q.d, q.departure_time));
  }
  ASSERT_TRUE(warm[0].ok());

  const EdgeId e = MidEdge(warm[0]->path);
  channel.Apply(SlowdownBatch(e, 0.5));

  // The synchronous all-shards pass; GetBackgroundStats() deltas are its
  // report.
  RouteRepairer repairer(&serving);
  const RouteRepairer::BackgroundStats before = repairer.GetBackgroundStats();
  EXPECT_TRUE(repairer.BackgroundTick(0, 1));
  const RouteRepairer::BackgroundStats after = repairer.GetBackgroundStats();
  EXPECT_EQ(channel.CurrentEpoch(), 1u);
  EXPECT_EQ(after.passes - before.passes, 1u);
  const uint64_t candidates = after.candidates - before.candidates;
  const uint64_t repaired = after.repaired - before.repaired;
  const uint64_t unroutable = after.unroutable - before.unroutable;
  EXPECT_GE(candidates, 1u);  // query 0's entry at minimum
  EXPECT_EQ(repaired + unroutable, candidates);
  EXPECT_EQ(unroutable, 0u);  // slowdowns never cut the graph
  EXPECT_GT(after.repair_settles - before.repair_settles, 0u);
  // A second pass finds nothing stale: every shard was already swept on
  // this epoch, whichever worker split asks.
  EXPECT_FALSE(repairer.BackgroundTick(0, 1));
  EXPECT_FALSE(repairer.BackgroundTick(1, 2));
  EXPECT_EQ(repairer.GetBackgroundStats().passes, after.passes);

  // Every repaired entry serves the exact bytes a cold recompute on the
  // new epoch produces, and serves them from the cache (zero misses).
  const auto plain1 = PlainResults(queries);
  const uint64_t misses_before = serving.GetStats().cache.misses;
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto got = serving.Route(&ctx, queries[i].s, queries[i].d,
                                   queries[i].departure_time);
    ExpectSameResult(plain1[i], got, i);
  }
  EXPECT_EQ(serving.GetStats().cache.misses, misses_before);

  channel.Apply(SlowdownBatch(e, 2.0));  // restore the shared world
}

TEST_F(WorldTest, RepairCostsOneServingCapRoutePerStaleKey) {
  // Repair is the serving cold path: after one slowdown batch its settle
  // count equals one bare Route at the serving cap per stale key on the
  // new epoch, and every reinserted entry holds that route's bytes,
  // budget_degraded included. Budget off, then the 256-settle floor cap,
  // under which preference searches degrade.
  std::vector<BatchQuery> queries = MakeQueries(24);
  const std::vector<BatchQuery> degrading = DegradingQueries(4);
  ASSERT_FALSE(degrading.empty());
  queries.insert(queries.end(), degrading.begin(), degrading.end());
  for (const double budget_us : {0.0, 0.01}) {
    SCOPED_TRACE(budget_us);
    WorldUpdateChannel channel(net(), router_);
    ServingRouterOptions options;
    options.world = &channel;
    options.deadline.fallback_budget_us = budget_us;
    ServingRouter serving(router_, options);
    RouteRepairer repairer(&serving);
    const size_t cap = serving.CurrentSettleCap();
    EXPECT_EQ(cap == 0, budget_us == 0);

    L2RQueryContext ctx = router_->MakeContext();
    std::vector<Result<RouteResult>> warm;
    for (const BatchQuery& q : queries) {
      warm.push_back(serving.Route(&ctx, q.s, q.d, q.departure_time));
    }
    // Slow an edge of a route that degraded under the cap (any route when
    // the budget is off), so a degraded entry goes stale.
    size_t victim = 0;
    while (victim < warm.size() &&
           !(warm[victim].ok() && warm[victim]->path.vertices.size() >= 2 &&
             (budget_us == 0 || warm[victim]->budget_degraded))) {
      ++victim;
    }
    ASSERT_LT(victim, warm.size());
    const EdgeId e = MidEdge(warm[victim]->path);
    ASSERT_EQ(channel.Apply(SlowdownBatch(e, 0.5)).epoch, 1u);

    const ServingRouter::Stats served = serving.GetStats();
    const RouteRepairer::BackgroundStats before =
        repairer.GetBackgroundStats();
    ASSERT_TRUE(repairer.BackgroundTick(0, 1));
    const RouteRepairer::BackgroundStats after =
        repairer.GetBackgroundStats();
    // A repair is not a served query.
    const ServingRouter::Stats repaired_stats = serving.GetStats();
    EXPECT_EQ(repaired_stats.queries, served.queries);
    EXPECT_EQ(repaired_stats.cache.misses, served.cache.misses);
    EXPECT_EQ(repaired_stats.epoch_serves.current_epoch,
              served.epoch_serves.current_epoch);
    EXPECT_EQ(repaired_stats.epoch_serves.stale_valid_epoch,
              served.epoch_serves.stale_valid_epoch);

    // The stale keys are exactly the entries now stamped with epoch 1
    // (slowdowns never cut the graph, so none was dropped).
    std::vector<QueryKey> seen;
    L2RQueryContext cold = router_->MakeContext();
    uint64_t cold_settles = 0;
    uint64_t stale = 0;
    uint64_t degraded = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!warm[i].ok()) continue;  // errors are never cached
      const BatchQuery& q = queries[i];
      const QueryKey key = QueryKeyOf(q.s, q.d, q.departure_time);
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
      seen.push_back(key);
      RouteResult hit;
      WorldEpoch hit_epoch = 0;
      ASSERT_TRUE(serving.route_cache()->Lookup(key, &hit, &hit_epoch));
      if (hit_epoch != 1) continue;
      ++stale;
      const uint64_t settles0 = cold.TotalSettles();
      const Result<RouteResult> want =
          router_->Route(&cold, key, cap);
      cold_settles += cold.TotalSettles() - settles0;
      ASSERT_TRUE(want.ok());
      EXPECT_TRUE(*want == hit);
      degraded += hit.budget_degraded;
    }
    EXPECT_GE(stale, 1u);  // the victim's entry at minimum
    EXPECT_EQ(after.unroutable - before.unroutable, 0u);
    EXPECT_EQ(after.candidates - before.candidates, stale);
    EXPECT_EQ(after.repaired - before.repaired, stale);
    EXPECT_EQ(after.repair_settles - before.repair_settles, cold_settles);
    EXPECT_EQ(repaired_stats.budget_degraded - served.budget_degraded,
              degraded);
    EXPECT_GE(degraded, budget_us > 0 ? 1u : 0u);

    channel.Apply(SlowdownBatch(e, 2.0));  // restore the shared world
  }
}

TEST_F(WorldTest, IdleDrainThreadsFoldBackgroundRepairIn) {
  // The scale-out folding: RouteRepairer::BackgroundTick wired to
  // StreamOptions::background_work, so idle drain threads sweep and
  // repair their pinned cache shards between batches — no dedicated
  // repair thread, no repair pass blocking the serving path.
  WorldUpdateChannel channel(net(), router_);
  ServingRouterOptions options;
  options.world = &channel;
  ServingRouter serving(router_, options);
  RouteRepairer repairer(&serving);

  ManualClock clock;
  StreamOptions sopts;
  sopts.clock = &clock;
  sopts.batch_deadline_us = 0;  // closes at once: no clock advance needed
  sopts.num_threads = 2;
  sopts.num_drain_threads = 2;
  // The incident below is the fresh channel's first batch: epoch 1. Each
  // worker owns different cache shards, so the test must wait for both
  // to finish repairing, not just for the first pass. A worker is done
  // once a tick that started on the incident epoch finds its shards
  // clean (a `false` return): its own earlier ticks did the repairs and
  // bumped the tallies. Release pairs with the acquire wait below.
  constexpr WorldEpoch kIncidentEpoch = 1;
  std::atomic<bool> worker_clean[2] = {false, false};
  sopts.background_work = [&](unsigned worker, unsigned num_workers) {
    const WorldEpoch epoch = channel.CurrentEpoch();
    const bool did_work = repairer.BackgroundTick(worker, num_workers);
    if (!did_work && epoch >= kIncidentEpoch) {
      worker_clean[worker].store(true, std::memory_order_release);
    }
    return did_work;
  };
  StreamRouter stream(&serving, sopts);

  // Keep only routable queries so the cached population is exact.
  std::vector<BatchQuery> queries;
  for (const BatchQuery& q : MakeQueries(24)) {
    if (PlainRoute(q).ok()) queries.push_back(q);
  }
  ASSERT_GE(queries.size(), 8u);

  // Warm pass on epoch 0 through the stream.
  const auto plain0 = PlainResults(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameResult(plain0[i], stream.SubmitWait(queries[i]).result, i);
  }

  // Incident. The drains are parked; the next submission wakes them, and
  // once its batch is drained the idle threads pick up the repair work.
  const EdgeId e = MidEdge(plain0[0]->path);
  ASSERT_EQ(channel.Apply(SlowdownBatch(e, 0.5)).epoch, kIncidentEpoch);
  const auto plain1 = PlainResults(queries);
  ExpectSameResult(plain1.back(), stream.SubmitWait(queries.back()).result,
                   queries.size() - 1);
  while (!worker_clean[0].load(std::memory_order_acquire) ||
         !worker_clean[1].load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  const RouteRepairer::BackgroundStats bg = repairer.GetBackgroundStats();
  EXPECT_GE(bg.passes, 1u);
  EXPECT_GE(bg.candidates, 1u);  // query 0's entry at minimum
  EXPECT_EQ(bg.repaired + bg.unroutable, bg.candidates);
  EXPECT_EQ(bg.unroutable, 0u);  // slowdowns never cut the graph
  EXPECT_GT(bg.repair_settles, 0u);

  // Every repaired entry serves the exact bytes the new epoch's cold
  // path produces — through the same stream that repaired them.
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameResult(plain1[i], stream.SubmitWait(queries[i]).result, i);
  }
  stream.Shutdown();
  EXPECT_GE(stream.GetStats().background_work_runs, bg.passes);

  channel.Apply(SlowdownBatch(e, 2.0));  // restore the shared world
}

// ---------------------------------------------------------------------------
// Deterministic interleaving on ManualClock: update batches land between
// stream batches, and no stream serve ever reflects a dead epoch.

TEST_F(WorldTest, StreamOnManualClockServesOnlyCurrentWorldBytes) {
  WorldUpdateChannel channel(net(), router_);
  ServingRouterOptions options;
  options.world = &channel;
  ServingRouter serving(router_, options);

  ManualClock clock;
  StreamOptions sopts;
  sopts.clock = &clock;
  sopts.batch_deadline_us = 0;  // closes at once: no clock advance needed
  sopts.num_threads = 2;
  StreamRouter stream(&serving, sopts);

  const auto queries = MakeQueries(12);
  auto stream_all = [&] {
    std::vector<Result<RouteResult>> out;
    for (const BatchQuery& q : queries) {
      out.push_back(stream.SubmitWait(q).result);
    }
    return out;
  };

  // Interleaving, fully determined by the submission sequence: warm pass
  // on epoch 0, one update batch (no stream query in flight — SubmitWait
  // returned, and Apply's gate would wait out stragglers), second pass.
  const auto plain0 = PlainResults(queries);
  const auto first = stream_all();
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameResult(plain0[i], first[i], i);
  }
  ASSERT_TRUE(plain0[0].ok());
  const EdgeId e = MidEdge(plain0[0]->path);
  channel.Apply(SlowdownBatch(e, 0.5));

  const auto plain1 = PlainResults(queries);
  const auto second = stream_all();
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameResult(plain1[i], second[i], i);
  }

  // The completed counter lands just after the callback fires; wait out
  // the batcher before sampling.
  while (stream.GetStats().completed < 2 * queries.size()) {
    std::this_thread::yield();
  }
  const auto stats = stream.GetStats();
  EXPECT_EQ(stats.completed, 2 * queries.size());
  // Every completed serve is classified on exactly one side of the epoch
  // split, sampled through the backing QueryService.
  EXPECT_EQ(stats.epoch_serves.current_epoch +
                stats.epoch_serves.stale_valid_epoch,
            stats.completed);
  // Entries outside the incident's regions kept serving across the bump.
  EXPECT_GT(stats.epoch_serves.stale_valid_epoch, 0u);

  channel.Apply(SlowdownBatch(e, 2.0));  // restore the shared world
}

}  // namespace
}  // namespace l2r
