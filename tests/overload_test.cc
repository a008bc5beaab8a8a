// Overload-control suite: the OverloadController's control law as a pure
// function of observation sequences, the kResourceExhausted shed status,
// ChaosService fault injection, and the full closed loop — StreamRouter
// admission shedding, adaptive deadline and budget scaling — driven on a
// ManualClock, so every control decision in here is a deterministic
// replay with no real sleeps.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/batch_router.h"
#include "core/l2r.h"
#include "eval/datasets.h"
#include "serve/clock.h"
#include "serve/deadline_budget.h"
#include "serve/overload_controller.h"
#include "serve/serving_router.h"
#include "serve/stream_router.h"
#include "chaos_service.h"
#include "test_util.h"

namespace l2r {
namespace {

// ---------------------------------------------------------------------------
// Status: the shed code.

TEST(StatusTest, ResourceExhaustedIsADistinctRetriableCode) {
  const Status s = Status::ResourceExhausted("shed under overload");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  // Shedding must be distinguishable from the kFail shutdown disposition:
  // a ResourceExhausted query was never attempted and is safe to retry, a
  // FailedPrecondition one raced a shutdown.
  EXPECT_NE(StatusCode::kResourceExhausted, StatusCode::kFailedPrecondition);
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_NE(s.ToString().find("ResourceExhausted"), std::string::npos);
  EXPECT_NE(s.ToString().find("shed under overload"), std::string::npos);
}

// ---------------------------------------------------------------------------
// OverloadController: control law on hand-fed observation sequences.

// The controller's constants: period 2 ms, SLO 50 ms, batch deadline
// 100..1000 us (cut x0.5, recover +100 us), trip after 1 overloaded tick,
// release after 3 calm ones, budget x0.25 from level 2. A shed depth of
// 8 puts the resume depth at 2 and the panic depth at 16.
constexpr size_t kShedDepth = 8;

OverloadObservation Obs(size_t depth, int64_t p99_us = -1) {
  OverloadObservation obs;
  obs.queue_depth = depth;
  obs.wait_p99_us = p99_us;
  return obs;
}

TEST(OverloadControllerTest, StartsCalmAtTheMaxDeadline) {
  OverloadController controller(kShedDepth);
  const OverloadController::Stats stats = controller.GetStats();
  EXPECT_EQ(stats.level, 0);
  EXPECT_EQ(stats.batch_deadline_us, 1'000);
  EXPECT_EQ(stats.ticks, 0u);
}

TEST(OverloadControllerTest, LadderClimbsOneLevelPerTripShedsBulkFirst) {
  OverloadController controller(kShedDepth);
  // Depth at the shed watermark: overloaded, but far from panic.
  auto overloaded_tick = [&] { return controller.Tick(Obs(kShedDepth)); };

  // One overloaded tick trips a level: bulk only, and the deadline cut.
  OverloadDecision d = overloaded_tick();
  EXPECT_EQ(d.level, 1);
  EXPECT_TRUE(d.shed_bulk);
  EXPECT_FALSE(d.shed_interactive);
  EXPECT_DOUBLE_EQ(d.budget_scale, 1.0);
  EXPECT_LT(d.batch_deadline_us, 1'000);

  d = overloaded_tick();  // level 2 — degrade the budget, keep serving
  EXPECT_EQ(d.level, 2);
  EXPECT_TRUE(d.shed_bulk);
  EXPECT_FALSE(d.shed_interactive);
  EXPECT_DOUBLE_EQ(d.budget_scale, 0.25);

  d = overloaded_tick();  // level 3 — interactive last
  EXPECT_EQ(d.level, 3);
  EXPECT_TRUE(d.shed_bulk);
  EXPECT_TRUE(d.shed_interactive);

  // The ladder never sheds interactive without already shedding bulk:
  // that ordering is the per-class QoS contract.
  d = overloaded_tick();
  EXPECT_EQ(d.level, 3);  // saturates
  EXPECT_TRUE(d.shed_bulk);

  const OverloadController::Stats stats = controller.GetStats();
  EXPECT_EQ(stats.ticks, 4u);
  EXPECT_EQ(stats.overloaded_ticks, 4u);
  EXPECT_EQ(stats.level_raises, 3u);
  EXPECT_EQ(stats.level_drops, 0u);
}

TEST(OverloadControllerTest, SloViolationAloneTripsWithoutDepth) {
  OverloadController controller(kShedDepth);
  // Depth is tiny but the interactive p99 broke the 50 ms SLO: still
  // overloaded.
  const OverloadDecision d = controller.Tick(Obs(1, 60'000));
  EXPECT_EQ(d.level, 1);
  EXPECT_TRUE(d.shed_bulk);
}

TEST(OverloadControllerTest, DeadlineAimdCutsToFloorAndRecoversToCap) {
  OverloadController controller(kShedDepth);
  // Multiplicative cuts: 1000 -> 500 -> 250 -> 125 -> 100 (floor).
  EXPECT_EQ(controller.Tick(Obs(8)).batch_deadline_us, 500);
  EXPECT_EQ(controller.Tick(Obs(8)).batch_deadline_us, 250);
  EXPECT_EQ(controller.Tick(Obs(8)).batch_deadline_us, 125);
  EXPECT_EQ(controller.Tick(Obs(8)).batch_deadline_us, 100);
  EXPECT_EQ(controller.Tick(Obs(8)).batch_deadline_us, 100);
  // Additive recovery, +100 per calm tick, capped at the max.
  int64_t deadline = 100;
  for (int i = 0; i < 12; ++i) {
    deadline = controller.Tick(Obs(0)).batch_deadline_us;
  }
  EXPECT_EQ(deadline, 1'000);
  const OverloadController::Stats stats = controller.GetStats();
  EXPECT_EQ(stats.deadline_cuts, 4u);      // the floor tick cut nothing
  EXPECT_EQ(stats.deadline_recoveries, 9u);  // 100 -> 1000 in 100s steps
}

TEST(OverloadControllerTest, PanicDepthJumpsStraightToTheTopLevel) {
  OverloadController controller(kShedDepth);
  // One short of the panic depth (2 x shed) climbs a single level.
  EXPECT_EQ(controller.Tick(Obs(2 * kShedDepth - 1)).level, 1);
  OverloadController panicked(kShedDepth);
  const OverloadDecision d = panicked.Tick(Obs(2 * kShedDepth));
  EXPECT_EQ(d.level, 3);
  EXPECT_TRUE(d.shed_bulk);
  EXPECT_TRUE(d.shed_interactive);
  EXPECT_DOUBLE_EQ(d.budget_scale, 0.25);
  EXPECT_EQ(panicked.GetStats().level_raises, 3u);
}

TEST(OverloadControllerTest, MiddleGroundHoldsTheLevelHysteresisReleases) {
  OverloadController controller(kShedDepth);
  ASSERT_EQ(controller.Tick(Obs(kShedDepth)).level, 1);
  // Depth between resume (shed/4 = 2) and shed (8): neither overloaded
  // nor calm — the level must hold indefinitely, not decay.
  for (const size_t depth : {3, 5, 7, 3, 5, 7}) {
    EXPECT_EQ(controller.Tick(Obs(depth)).level, 1);
  }
  // Three calm ticks (depth <= resume) drop exactly one level.
  EXPECT_EQ(controller.Tick(Obs(2)).level, 1);
  EXPECT_EQ(controller.Tick(Obs(0)).level, 1);
  const OverloadDecision d = controller.Tick(Obs(0));
  EXPECT_EQ(d.level, 0);
  EXPECT_FALSE(d.shed_bulk);
  EXPECT_EQ(controller.GetStats().level_drops, 1u);
}

TEST(OverloadControllerTest, DecisionTraceIsAPureFunctionOfObservations) {
  // Two controllers fed the same observation sequence must emit identical
  // decision traces — the property that makes scripted ManualClock
  // overload scenarios replay exactly.
  OverloadController a(kShedDepth);
  OverloadController b(kShedDepth);
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const OverloadObservation obs =
        Obs(rng.Index(20),
            rng.Bernoulli(0.3) ? static_cast<int64_t>(rng.Index(80'000)) : -1);
    const OverloadDecision da = a.Tick(obs);
    const OverloadDecision db = b.Tick(obs);
    ASSERT_EQ(da.level, db.level) << "tick " << i;
    ASSERT_EQ(da.batch_deadline_us, db.batch_deadline_us) << "tick " << i;
    ASSERT_EQ(da.shed_bulk, db.shed_bulk) << "tick " << i;
    ASSERT_EQ(da.shed_interactive, db.shed_interactive) << "tick " << i;
    ASSERT_DOUBLE_EQ(da.budget_scale, db.budget_scale) << "tick " << i;
  }
}

// ---------------------------------------------------------------------------
// DeadlineBudget: the overload scaling lever.

TEST(DeadlineBudgetTest, ScaledSettleCapScalesLinearlyWithFloor) {
  DeadlineBudgetOptions options;
  options.fallback_budget_us = 10;  // 80 settles/us: an 800-settle cap
  DeadlineBudget budget(options);
  EXPECT_EQ(budget.MaxPreferenceSettles(), 800u);
  EXPECT_EQ(budget.ScaledSettleCap(1.0), 800u);
  EXPECT_EQ(budget.ScaledSettleCap(2.0), 800u);  // never above the plain cap
  EXPECT_EQ(budget.ScaledSettleCap(0.5), 400u);
  EXPECT_EQ(budget.ScaledSettleCap(0.25), 256u);  // 200: the floor holds
  EXPECT_EQ(budget.ScaledSettleCap(0.01), 256u);
  // A disabled budget stays disabled (0 = unlimited) under any scale.
  DeadlineBudget off;
  EXPECT_EQ(off.ScaledSettleCap(0.25), 0u);
}

TEST(DeadlineBudgetTest, NanScalesAndHugeBudgetsGiveDefinedCaps) {
  DeadlineBudgetOptions options;
  options.fallback_budget_us = 10;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const DeadlineBudget budget(options);
  // A NaN or negative scale takes the kMinSettles floor.
  EXPECT_EQ(budget.ScaledSettleCap(nan), 256u);
  EXPECT_EQ(budget.ScaledSettleCap(-1.0), 256u);
  // A budget worth more than SIZE_MAX settles saturates there.
  for (const double huge : {1e300, std::numeric_limits<double>::infinity()}) {
    options.fallback_budget_us = huge;
    const DeadlineBudget big(options);
    EXPECT_EQ(big.MaxPreferenceSettles(), SIZE_MAX) << huge;
    EXPECT_EQ(big.ScaledSettleCap(0.5), SIZE_MAX) << huge;
    EXPECT_EQ(big.ScaledSettleCap(nan), 256u) << huge;
  }
}

// ---------------------------------------------------------------------------
// Pipeline fixture: ChaosService + the closed loop on a small built world.

class OverloadServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetSpec spec = CityDataset(0.04);
    spec.network.city_width_m = 7000;
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

  static std::vector<BatchQuery> MakeQueries(size_t cap) {
    std::vector<BatchQuery> queries;
    for (const MatchedTrajectory& t : dataset_->split.test) {
      if (queries.size() >= cap) break;
      if (t.path.size() < 3 || t.path.front() == t.path.back()) continue;
      queries.push_back(
          BatchQuery{t.path.front(), t.path.back(), t.departure_time});
    }
    return queries;
  }

  static void AwaitTicks(const OverloadController& controller, uint64_t n) {
    while (controller.GetStats().ticks < n) std::this_thread::yield();
  }

  static BuiltDataset* dataset_;
  static L2RRouter* router_;
};

BuiltDataset* OverloadServeTest::dataset_ = nullptr;
L2RRouter* OverloadServeTest::router_ = nullptr;

TEST_F(OverloadServeTest, ServingRouterAppliesTheBudgetScale) {
  ServingRouterOptions options;
  options.deadline.fallback_budget_us = 10;  // 80 settles/us: 800 settles
  ServingRouter serving(router_, options);
  EXPECT_EQ(serving.CurrentSettleCap(), 800u);
  serving.SetBudgetScale(0.5);
  EXPECT_EQ(serving.CurrentSettleCap(), 400u);
  serving.SetBudgetScale(5.0);  // scale is capped at the plain budget
  EXPECT_EQ(serving.CurrentSettleCap(), 800u);
  serving.SetBudgetScale(0.0);  // clamped into the kMinSettles floor
  EXPECT_EQ(serving.CurrentSettleCap(), 256u);
  serving.SetBudgetScale(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(serving.CurrentSettleCap(), 256u);  // NaN takes the floor too

  // Queries still serve under the tightest scale.
  const std::vector<BatchQuery> queries = MakeQueries(1);
  ASSERT_EQ(queries.size(), 1u);
  L2RQueryContext ctx = router_->MakeContext();
  const auto result = serving.Route(&ctx, queries[0].s, queries[0].d,
                                    queries[0].departure_time);
  EXPECT_TRUE(result.ok());

  // Without a budget the scale is a no-op: 0 = unlimited, stays 0.
  ServingRouter unbudgeted(router_);
  EXPECT_EQ(unbudgeted.CurrentSettleCap(), 0u);
  unbudgeted.SetBudgetScale(0.25);
  EXPECT_EQ(unbudgeted.CurrentSettleCap(), 0u);
}

TEST_F(OverloadServeTest, ServingRouterSaturatesAnInfiniteBudget) {
  ServingRouterOptions options;
  options.deadline.fallback_budget_us =
      std::numeric_limits<double>::infinity();
  ServingRouter unbounded(router_, options);
  EXPECT_EQ(unbounded.CurrentSettleCap(), SIZE_MAX);
  unbounded.SetBudgetScale(0.5);
  EXPECT_EQ(unbounded.CurrentSettleCap(), SIZE_MAX);

  // A saturated cap serves the undegraded cold-path answer.
  const std::vector<BatchQuery> queries = MakeQueries(1);
  ASSERT_EQ(queries.size(), 1u);
  L2RQueryContext ctx = router_->MakeContext();
  const auto got = unbounded.Route(&ctx, queries[0].s, queries[0].d,
                                   queries[0].departure_time);
  const auto want = router_->Route(&ctx, queries[0].s, queries[0].d,
                                   queries[0].departure_time);
  ASSERT_EQ(got.ok(), want.ok());
  if (got.ok()) {
    EXPECT_FALSE(got->budget_degraded);
    EXPECT_TRUE(*got == *want);
  }
}

TEST_F(OverloadServeTest, StreamShedsBulkFirstWithResourceExhausted) {
  const std::vector<BatchQuery> queries = MakeQueries(8);
  ASSERT_EQ(queries.size(), 8u);

  ManualClock clock;
  // Shed depth 4: resume at 1, panic at 8 — out of reach of the 6
  // queries below, so this test stays at level 1.
  OverloadController controller(4);

  ServingRouter serving(router_);
  // Fewer than kMaxBatch queries: only the (adaptive) deadline closes
  // batches.
  StreamOptions options;
  options.num_threads = 1;
  options.clock = &clock;
  options.overload = &controller;
  StreamRouter stream(&serving, options);

  // Six interactive queries pile up at t = 1500, in a batch due at
  // t = 2500: depth 6 >= shed depth 4 when the first tick comes.
  clock.AdvanceMicros(1'500);
  std::atomic<uint64_t> served{0};
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(stream.Submit(queries[i], [&served](const StreamResult& r) {
      if (r.result.ok()) served.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  EXPECT_EQ(stream.GetStats().completed, 0u);

  // t = 2000: the controller tick fires (depth 6 overloaded, one tick
  // trips level 1, deadline cut to 500). t = 2500: the batch closes by
  // its original deadline and drains.
  clock.AdvanceMicros(500);
  AwaitTicks(controller, 1);
  EXPECT_EQ(stream.GetStats().completed, 0u);
  clock.AdvanceMicros(500);
  while (stream.GetStats().completed < 6) std::this_thread::yield();
  EXPECT_EQ(served.load(std::memory_order_acquire), 6u);
  {
    const StreamRouter::Stats stats = stream.GetStats();
    EXPECT_EQ(stats.overload_level, 1);
    EXPECT_EQ(stats.batch_deadline_us, 500);
    EXPECT_GE(stats.controller_ticks, 1u);
  }

  // Bulk is now refused at admission: the callback fires synchronously on
  // this thread with kResourceExhausted and never joins a batch.
  BatchQuery bulk = queries[6];
  bulk.query_class = QueryClass::kBulk;
  StreamResult shed_result;
  bool shed_called = false;
  ASSERT_TRUE(stream.Submit(bulk, [&](const StreamResult& r) {
    shed_result = r;
    shed_called = true;
  }));
  ASSERT_TRUE(shed_called);
  EXPECT_TRUE(shed_result.shed);
  EXPECT_EQ(shed_result.result.status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(shed_result.batch_seq, 0u);
  EXPECT_EQ(shed_result.drain_wait_us, 0);

  // Interactive is still admitted at level 1 and serves under the *cut*
  // deadline: the batch opened at t = 2500 closes at t = 3000, before
  // the next tick at t = 4000.
  std::atomic<bool> interactive_done{false};
  ASSERT_TRUE(
      stream.Submit(queries[7], [&interactive_done](const StreamResult& r) {
        EXPECT_TRUE(r.result.ok());
        EXPECT_EQ(r.queue_wait_us, 500);
        interactive_done.store(true, std::memory_order_release);
      }));
  clock.AdvanceMicros(500);
  while (!interactive_done.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  const StreamRouter::Stats stats = stream.GetStats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.completed, 7u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.shed_by_class[static_cast<size_t>(QueryClass::kBulk)], 1u);
  EXPECT_EQ(
      stats.shed_by_class[static_cast<size_t>(QueryClass::kInteractive)], 0u);
  EXPECT_EQ(
      stats.submitted_by_class[static_cast<size_t>(QueryClass::kInteractive)],
      7u);
  EXPECT_EQ(stats.submitted_by_class[static_cast<size_t>(QueryClass::kBulk)],
            1u);
  EXPECT_EQ(
      stats.completed_by_class[static_cast<size_t>(QueryClass::kInteractive)],
      7u);
  // The invariant the whole shed design hangs on: nothing vanished.
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.shed + stats.failed_on_shutdown);
}

TEST_F(OverloadServeTest, PanicShedsInteractiveAndCalmTicksRecover) {
  const std::vector<BatchQuery> queries = MakeQueries(7);
  ASSERT_EQ(queries.size(), 7u);

  ManualClock clock;
  // Shed depth 2: resume at 0, panic at 4.
  OverloadController controller(2);

  ServingRouter serving(router_);
  std::atomic<int> scale_cents{100};  // budget_sink trace, in percent
  StreamOptions options;
  options.num_threads = 1;
  options.clock = &clock;
  options.overload = &controller;
  options.budget_sink = [&scale_cents](double scale) {
    scale_cents.store(static_cast<int>(scale * 100),
                      std::memory_order_release);
  };
  StreamRouter stream(&serving, options);

  // Five queries at t = 1500, due at t = 2500: the tick at t = 2000 sees
  // depth 5 >= panic depth 4 -> straight to level 3.
  clock.AdvanceMicros(1'500);
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(stream.Submit(queries[i], [](const StreamResult&) {}));
  }
  clock.AdvanceMicros(500);
  AwaitTicks(controller, 1);
  clock.AdvanceMicros(500);
  while (stream.GetStats().completed < 5) std::this_thread::yield();
  EXPECT_EQ(stream.GetStats().overload_level, 3);
  // Level >= 2 pushed the degraded budget scale through the sink.
  EXPECT_EQ(scale_cents.load(std::memory_order_acquire), 25);

  // At level 3 even interactive queries shed — queue protection of last
  // resort, still with an explicit callback.
  StreamResult shed_result;
  bool shed_called = false;
  ASSERT_TRUE(stream.Submit(queries[5], [&](const StreamResult& r) {
    shed_result = r;
    shed_called = true;
  }));
  ASSERT_TRUE(shed_called);
  EXPECT_TRUE(shed_result.shed);
  EXPECT_EQ(shed_result.result.status().code(),
            StatusCode::kResourceExhausted);

  // Idle calm ticks walk the ladder back down (three per level), even
  // with no arrivals — then admission and the full budget come back.
  uint64_t ticks = controller.GetStats().ticks;
  for (int i = 0; i < 30 && controller.GetStats().level > 0; ++i) {
    clock.AdvanceMicros(OverloadController::kControlPeriodUs);
    AwaitTicks(controller, ticks + 1);
    ticks = controller.GetStats().ticks;
  }
  EXPECT_EQ(controller.GetStats().level, 0);
  EXPECT_EQ(scale_cents.load(std::memory_order_acquire), 100);

  std::atomic<bool> done{false};
  ASSERT_TRUE(stream.Submit(queries[6], [&done](const StreamResult& r) {
    EXPECT_TRUE(r.result.ok());
    EXPECT_FALSE(r.shed);
    done.store(true, std::memory_order_release);
  }));
  const int64_t deadline_us = stream.GetStats().batch_deadline_us;
  EXPECT_GT(deadline_us, 0);
  clock.AdvanceMicros(deadline_us);
  while (!done.load(std::memory_order_acquire)) std::this_thread::yield();

  const StreamRouter::Stats stats = stream.GetStats();
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.shed + stats.failed_on_shutdown);
}

// ---------------------------------------------------------------------------
// ChaosService: seeded fault injection.

TEST_F(OverloadServeTest, ChaosWithZeroRatesIsAByteTransparentPassthrough) {
  const std::vector<BatchQuery> queries = MakeQueries(6);
  ASSERT_GE(queries.size(), 3u);
  ServingRouter serving(router_);
  ChaosService chaos(&serving);
  L2RQueryContext ctx = router_->MakeContext();
  for (const BatchQuery& q : queries) {
    const auto want = router_->Route(&ctx, q.s, q.d, q.departure_time);
    const auto got = chaos.Route(&ctx, q.s, q.d, q.departure_time);
    ASSERT_EQ(want.ok(), got.ok());
    if (want.ok()) {
      EXPECT_TRUE(*want == *got);
    }
  }
  const ChaosService::Stats stats = chaos.GetStats();
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_EQ(stats.injected_errors, 0u);
  EXPECT_EQ(stats.injected_spikes, 0u);
  EXPECT_EQ(stats.forced_degrades, 0u);
}

TEST_F(OverloadServeTest, ChaosErrorsAreSeededAndReproducible) {
  const std::vector<BatchQuery> queries = MakeQueries(4);
  ASSERT_GE(queries.size(), 1u);
  ChaosOptions options;
  options.seed = 41;
  options.error_rate = 0.5;
  constexpr size_t kCalls = 64;

  auto fault_pattern = [&]() {
    ServingRouter serving(router_);
    ChaosService chaos(&serving, options);
    L2RQueryContext ctx = router_->MakeContext();
    std::vector<bool> failed;
    for (size_t i = 0; i < kCalls; ++i) {
      const BatchQuery& q = queries[i % queries.size()];
      const auto r = chaos.Route(&ctx, q.s, q.d, q.departure_time);
      failed.push_back(!r.ok());
      if (!r.ok()) {
        EXPECT_EQ(r.status().code(), StatusCode::kInternal);
      }
    }
    EXPECT_EQ(chaos.GetStats().injected_errors,
              static_cast<uint64_t>(
                  std::count(failed.begin(), failed.end(), true)));
    return failed;
  };

  const std::vector<bool> first = fault_pattern();
  const std::vector<bool> second = fault_pattern();
  // Same seed, same arrival order -> the exact same fault trace.
  EXPECT_EQ(first, second);
  const size_t errors =
      static_cast<size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(errors, 0u);
  EXPECT_LT(errors, kCalls);  // rate 0.5 is neither none nor all

  // A different seed draws a different trace.
  options.seed = 42;
  EXPECT_NE(fault_pattern(), first);
}

TEST_F(OverloadServeTest, ChaosBurstWindowsGateFaultsByArrivalIndex) {
  const std::vector<BatchQuery> queries = MakeQueries(1);
  ASSERT_EQ(queries.size(), 1u);
  ChaosOptions options;
  options.error_rate = 1.0;
  options.burst_period = 8;
  options.burst_len = 3;
  ServingRouter serving(router_);
  ChaosService chaos(&serving, options);
  L2RQueryContext ctx = router_->MakeContext();
  for (uint64_t n = 0; n < 32; ++n) {
    const auto r = chaos.Route(&ctx, queries[0].s, queries[0].d,
                               queries[0].departure_time);
    // Faults fire only in the first 3 of every 8 arrivals: bursts, not a
    // uniform drizzle.
    EXPECT_EQ(r.ok(), n % 8 >= 3) << "arrival " << n;
  }
  EXPECT_EQ(chaos.GetStats().injected_errors, 12u);
}

TEST_F(OverloadServeTest, ChaosForcedDegradesTagSuccessfulResults) {
  const std::vector<BatchQuery> queries = MakeQueries(4);
  ASSERT_GE(queries.size(), 1u);
  ChaosOptions options;
  options.degrade_rate = 1.0;
  ServingRouter serving(router_);  // no budget: nothing degrades naturally
  ChaosService chaos(&serving, options);
  L2RQueryContext ctx = router_->MakeContext();
  uint64_t ok_count = 0;
  for (size_t i = 0; i < 16; ++i) {
    const BatchQuery& q = queries[i % queries.size()];
    const auto r = chaos.Route(&ctx, q.s, q.d, q.departure_time);
    if (r.ok()) {
      ++ok_count;
      EXPECT_TRUE(r->budget_degraded);
    }
  }
  EXPECT_GT(ok_count, 0u);
  EXPECT_EQ(chaos.GetStats().forced_degrades, ok_count);
}

TEST_F(OverloadServeTest, ChaosSpikesStallOnTheInjectedClock) {
  const std::vector<BatchQuery> queries = MakeQueries(1);
  ASSERT_EQ(queries.size(), 1u);
  ChaosOptions options;
  options.spike_rate = 1.0;
  options.spike_us = 50;  // real but tiny: a yield-spin on SystemClock
  ServingRouter serving(router_);
  ChaosService chaos(&serving, options);
  SystemClock clock;
  L2RQueryContext ctx = router_->MakeContext();
  const int64_t t0 = clock.NowMicros();
  for (int i = 0; i < 4; ++i) {
    const auto r = chaos.Route(&ctx, queries[0].s, queries[0].d,
                               queries[0].departure_time);
    EXPECT_TRUE(r.ok());
  }
  EXPECT_GE(clock.NowMicros() - t0, 4 * 50);
  EXPECT_EQ(chaos.GetStats().injected_spikes, 4u);
}

TEST_F(OverloadServeTest, ChaoticStreamNeverDropsACallback) {
  // The acceptance invariant under fault injection: every accepted query
  // gets exactly one callback — served, shed (kResourceExhausted), or
  // nothing else. Chaos errors surface as per-query kInternal results,
  // never as lost callbacks.
  const std::vector<BatchQuery> queries = MakeQueries(8);
  ASSERT_GE(queries.size(), 4u);

  ManualClock clock;
  // Shed depth 3: resume at 0, panic at 6, within reach of the paced
  // arrivals below (one per 300 us against a 1 ms batch deadline).
  OverloadController controller(3);

  ServingRouter serving(router_);
  ChaosOptions chaos_options;
  chaos_options.seed = 7;
  chaos_options.error_rate = 0.3;
  chaos_options.degrade_rate = 0.3;
  chaos_options.clock = &clock;  // no spikes: single-threaded advancer
  ChaosService chaos(&serving, chaos_options);

  StreamOptions options;
  options.num_threads = 1;
  options.dedup = false;  // every served slot reaches the chaos layer
  options.clock = &clock;
  options.overload = &controller;
  StreamRouter stream(&chaos, options);

  constexpr size_t kSlots = 48;
  std::vector<std::atomic<int>> callbacks(kSlots);
  std::atomic<uint64_t> shed_bad_status{0};
  std::atomic<uint64_t> served_errors{0};
  for (size_t i = 0; i < kSlots; ++i) {
    BatchQuery q = queries[i % queries.size()];
    q.query_class = i % 3 == 0 ? QueryClass::kBulk : QueryClass::kInteractive;
    ASSERT_TRUE(stream.Submit(
        q, [&callbacks, &shed_bad_status, &served_errors,
            i](const StreamResult& r) {
          callbacks[i].fetch_add(1, std::memory_order_relaxed);
          if (r.shed) {
            if (r.result.status().code() != StatusCode::kResourceExhausted) {
              shed_bad_status.fetch_add(1, std::memory_order_relaxed);
            }
          } else if (!r.result.ok()) {
            served_errors.fetch_add(1, std::memory_order_relaxed);
          }
        }));
    clock.AdvanceMicros(300);  // jittered virtual pacing across ticks
  }
  for (;;) {
    const StreamRouter::Stats s = stream.GetStats();
    if (s.completed + s.shed + s.failed_on_shutdown >= kSlots) break;
    clock.AdvanceMicros(500);
    std::this_thread::yield();
  }
  stream.Shutdown();

  for (size_t i = 0; i < kSlots; ++i) {
    EXPECT_EQ(callbacks[i].load(std::memory_order_acquire), 1)
        << "slot " << i;
  }
  EXPECT_EQ(shed_bad_status.load(std::memory_order_acquire), 0u);
  const StreamRouter::Stats stats = stream.GetStats();
  EXPECT_EQ(stats.submitted, kSlots);
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.shed + stats.failed_on_shutdown);
  // The chaos layer really was in the path and really did misbehave.
  const ChaosService::Stats chaos_stats = chaos.GetStats();
  EXPECT_EQ(chaos_stats.queries, stats.completed);
  EXPECT_EQ(chaos_stats.injected_errors,
            served_errors.load(std::memory_order_acquire));
  EXPECT_GT(chaos_stats.injected_errors, 0u);
}

}  // namespace
}  // namespace l2r
