// StreamRouter + Clock seam suite. Everything timing-related runs on a
// ManualClock: arrival patterns, batch deadlines and close races are
// driven by stepping virtual time, so the fast subset contains no real
// sleeps and no wall-clock dependence. The `stream_router_test_full`
// registration (L2R_STREAM_TEST_FULL, CTest label `slow`) runs the same
// assertions with a longer jittered arrival ladder.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "core/batch_router.h"
#include "core/l2r.h"
#include "eval/datasets.h"
#include "serve/clock.h"
#include "serve/deadline_budget.h"
#include "serve/overload_controller.h"
#include "serve/serving_router.h"
#include "serve/stream_router.h"
#include "test_util.h"

namespace l2r {
namespace {

#ifdef L2R_STREAM_TEST_FULL
constexpr size_t kLadderEvents = 480;
constexpr int kLadderSchedules = 3;
#else
constexpr size_t kLadderEvents = 96;
constexpr int kLadderSchedules = 1;
#endif

// ---------------------------------------------------------------------------
// Clock units (no dataset needed).

TEST(SystemClockTest, MonotonicAndPastDeadlineTimesOutImmediately) {
  SystemClock clock;
  const int64_t a = clock.NowMicros();
  const int64_t b = clock.NowMicros();
  EXPECT_GE(b, a);
  Mutex mu;
  CondVar cv;
  MutexLock lock(mu);
  // A deadline already in the past returns timeout without blocking.
  EXPECT_EQ(clock.WaitUntil(cv, mu, 0), std::cv_status::timeout);
}

TEST(ManualClockTest, TimeMovesOnlyOnAdvance) {
  ManualClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.AdvanceMicros(50);
  EXPECT_EQ(clock.NowMicros(), 150);
  clock.AdvanceTo(400);
  EXPECT_EQ(clock.NowMicros(), 400);
  clock.AdvanceTo(10);  // never goes backwards
  EXPECT_EQ(clock.NowMicros(), 400);
}

TEST(ManualClockTest, ReachedDeadlineTimesOutWithoutWaiting) {
  ManualClock clock(500);
  Mutex mu;
  CondVar cv;
  MutexLock lock(mu);
  EXPECT_EQ(clock.WaitUntil(cv, mu, 500), std::cv_status::timeout);
  EXPECT_EQ(clock.NumWaiters(), 0u);
}

TEST(ManualClockTest, AdvanceToDeadlineWakesWaiterWithTimeout) {
  ManualClock clock;
  Mutex mu;
  CondVar cv;
  std::atomic<bool> timed_out{false};
  std::thread waiter([&] {
    MutexLock lock(mu);
    // A real caller loops on its predicate; here the predicate is the
    // deadline itself.
    while (clock.WaitUntil(cv, mu, 100) != std::cv_status::timeout) {
    }
    timed_out.store(true, std::memory_order_release);
  });
  while (clock.NumWaiters() == 0) std::this_thread::yield();
  EXPECT_FALSE(timed_out.load(std::memory_order_acquire));
  clock.AdvanceMicros(60);  // below the deadline: must keep waiting
  EXPECT_FALSE(timed_out.load(std::memory_order_acquire));
  clock.AdvanceMicros(40);  // reaches it exactly
  waiter.join();
  EXPECT_TRUE(timed_out.load(std::memory_order_acquire));
  EXPECT_EQ(clock.NumWaiters(), 0u);
}

TEST(ManualClockTest, ExternalNotifyWakesWithoutTimeout) {
  ManualClock clock;
  Mutex mu;
  CondVar cv;
  std::atomic<int> status{-1};
  std::thread waiter([&] {
    MutexLock lock(mu);
    status.store(clock.WaitUntil(cv, mu, 1000) == std::cv_status::timeout
                     ? 1
                     : 0,
                 std::memory_order_release);
  });
  while (clock.NumWaiters() == 0) std::this_thread::yield();
  {
    MutexLock guard(mu);
    cv.NotifyAll();
  }
  waiter.join();
  // no_timeout: virtual now is still 0
  EXPECT_EQ(status.load(std::memory_order_acquire), 0);
}

// ---------------------------------------------------------------------------
// StreamRouter on a small built pipeline.

class StreamRouterTest : public ::testing::Test {
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

  /// Up to `cap` valid held-out queries (no invalid tail entry).
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

  static void AwaitCompleted(const StreamRouter& stream, uint64_t n) {
    while (stream.GetStats().completed < n) std::this_thread::yield();
  }

  static BuiltDataset* dataset_;
  static L2RRouter* router_;
};

BuiltDataset* StreamRouterTest::dataset_ = nullptr;
L2RRouter* StreamRouterTest::router_ = nullptr;

TEST_F(StreamRouterTest, DeadlineClosesPartialBatchWithExactQueueWaits) {
  const std::vector<BatchQuery> queries = MakeQueries(3);
  ASSERT_EQ(queries.size(), 3u);

  ManualClock clock;
  StreamOptions options;
  options.batch_deadline_us = 1000;
  options.num_threads = 1;
  options.clock = &clock;
  StreamRouter stream(router_, options);

  std::vector<StreamResult> got(queries.size());
  auto submit = [&](size_t i) {
    ASSERT_TRUE(stream.Submit(queries[i],
                              [&got, i](const StreamResult& r) { got[i] = r; }));
  };
  submit(0);                 // t = 0: opens the batch, deadline = 1000
  clock.AdvanceMicros(100);
  submit(1);                 // t = 100
  clock.AdvanceMicros(150);
  submit(2);                 // t = 250
  // Nothing can complete before the deadline: the batch is below
  // kMaxBatch and virtual time has not reached t = 1000.
  EXPECT_EQ(stream.GetStats().completed, 0u);
  clock.AdvanceMicros(750);  // t = 1000: exactly the deadline
  AwaitCompleted(stream, queries.size());

  // Queue waits are exact virtual durations (close time = the deadline),
  // independent of when the batcher thread got scheduled.
  EXPECT_EQ(got[0].queue_wait_us, 1000);
  EXPECT_EQ(got[1].queue_wait_us, 900);
  EXPECT_EQ(got[2].queue_wait_us, 750);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].batch_seq, 1u) << i;
    EXPECT_EQ(got[i].batch_size, 3u) << i;
    EXPECT_TRUE(got[i].closed_by_deadline) << i;
    EXPECT_TRUE(got[i].result.ok()) << i;
  }
  const StreamRouter::Stats stats = stream.GetStats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.closed_by_deadline, 1u);
  EXPECT_EQ(stats.closed_by_size, 0u);
  ASSERT_EQ(stats.batch_size_hist.size(), 1u);
  EXPECT_EQ(stats.batch_size_hist[0].first, 3u);
  EXPECT_EQ(stats.batch_size_hist[0].second, 1u);
}

TEST_F(StreamRouterTest, MaxBatchClosesEarlyWithoutReachingTheDeadline) {
  const std::vector<BatchQuery> pool = MakeQueries(4);
  ASSERT_EQ(pool.size(), 4u);
  constexpr size_t kSlots = StreamRouter::kMaxBatch;

  ManualClock clock;
  StreamOptions options;
  options.batch_deadline_us = 1'000'000;  // far away: size must win
  options.num_threads = 1;
  options.clock = &clock;
  StreamRouter stream(router_, options);

  std::vector<StreamResult> got(kSlots);
  for (size_t i = 0; i < kSlots; ++i) {
    if (i > 0) clock.AdvanceMicros(10);
    ASSERT_TRUE(stream.Submit(pool[i % pool.size()],
                              [&got, i](const StreamResult& r) { got[i] = r; }));
  }
  // The 64th submit closed the batch itself — no clock advance needed.
  AwaitCompleted(stream, kSlots);

  // Close time = the filling submit (t = 630).
  for (size_t i = 0; i < kSlots; ++i) {
    EXPECT_EQ(got[i].queue_wait_us, static_cast<int64_t>(10 * (63 - i))) << i;
    EXPECT_EQ(got[i].batch_seq, 1u) << i;
    EXPECT_EQ(got[i].batch_size, kSlots) << i;
    EXPECT_FALSE(got[i].closed_by_deadline) << i;
  }
  const StreamRouter::Stats stats = stream.GetStats();
  EXPECT_EQ(stats.closed_by_size, 1u);
  EXPECT_EQ(stats.closed_by_deadline, 0u);
}

TEST_F(StreamRouterTest, SubmissionsRacingAClosingBatchLandInTheNextBatch) {
  const std::vector<BatchQuery> pool = MakeQueries(4);
  ASSERT_EQ(pool.size(), 4u);
  constexpr size_t kBatch = StreamRouter::kMaxBatch;

  ManualClock clock;
  StreamOptions options;
  options.batch_deadline_us = 1'000'000;
  options.num_threads = 1;
  options.clock = &clock;
  StreamRouter stream(router_, options);

  std::atomic<bool> drain_started{false};
  std::atomic<bool> release_drain{false};
  std::vector<StreamResult> got(2 * kBatch);
  auto submit = [&](size_t i) {
    ASSERT_TRUE(stream.Submit(pool[i % pool.size()],
                              [&got, i](const StreamResult& r) { got[i] = r; }));
  };
  // Slot 0's callback parks the batcher mid-drain so the test can submit
  // while batch 1 is deterministically "closing".
  ASSERT_TRUE(stream.Submit(pool[0], [&](const StreamResult& r) {
    got[0] = r;
    drain_started.store(true);
    while (!release_drain.load()) std::this_thread::yield();
  }));
  for (size_t i = 1; i < kBatch; ++i) submit(i);  // the last closes #1
  while (!drain_started.load()) std::this_thread::yield();

  // Batch 1 is mid-drain: this submission must open batch 2, not join 1.
  submit(kBatch);
  release_drain.store(true);
  for (size_t i = kBatch + 1; i < 2 * kBatch; ++i) submit(i);  // closes #2
  AwaitCompleted(stream, 2 * kBatch);

  for (size_t i = 0; i < 2 * kBatch; ++i) {
    EXPECT_EQ(got[i].batch_seq, i < kBatch ? 1u : 2u) << i;
  }
  EXPECT_EQ(stream.GetStats().batches, 2u);
  EXPECT_EQ(stream.GetStats().closed_by_size, 2u);
}

TEST_F(StreamRouterTest, JitteredArrivalsMatchPreformedBatchAcrossLadder) {
  // The acceptance property: under a seeded jittered arrival schedule,
  // whatever batch boundaries form, every slot's result is byte-identical
  // to a pre-formed cold BatchRouter run of the same queries — at
  // t = 1/2/4/8, through the full serving stack (cache + single-flight +
  // batch dedup), with no real-time sleeps anywhere.
  std::vector<BatchQuery> pool = MakeQueries(24);
  ASSERT_GT(pool.size(), 8u);
  pool.push_back(BatchQuery{0, 0, 0});  // invalid: errors must fan out too

  for (int schedule = 0; schedule < kLadderSchedules; ++schedule) {
    Rng rng(2026 + 31 * schedule);
    std::vector<BatchQuery> slots;
    std::vector<int64_t> gaps;
    slots.reserve(kLadderEvents);
    gaps.reserve(kLadderEvents);
    for (size_t i = 0; i < kLadderEvents; ++i) {
      slots.push_back(pool[rng.Index(pool.size())]);
      // Exponential inter-arrival jitter, mean 6 µs against a 500 µs
      // batch deadline: 64 arrivals take ~384 µs on average, so some
      // batches close by size and some by deadline.
      gaps.push_back(static_cast<int64_t>(rng.Exponential(1.0 / 6.0)));
    }

    BatchRouter reference(router_, BatchRouterOptions{1, false});
    const std::vector<Result<RouteResult>> want = reference.RouteAll(slots);

    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      ManualClock clock;
      ServingRouter serving(router_);  // cache on
      StreamOptions options;
      options.batch_deadline_us = 500;
      options.num_threads = threads;
      options.dedup = true;
      options.clock = &clock;
      StreamRouter stream(&serving, options);

      std::vector<StreamResult> got(slots.size());
      for (size_t i = 0; i < slots.size(); ++i) {
        clock.AdvanceMicros(gaps[i]);
        ASSERT_TRUE(stream.Submit(
            slots[i], [&got, i](const StreamResult& r) { got[i] = r; }));
      }
      // Push virtual time past the last possible open deadline so the
      // tail batch closes by deadline, not by shutdown.
      clock.AdvanceMicros(options.batch_deadline_us + 1);
      AwaitCompleted(stream, slots.size());

      for (size_t i = 0; i < slots.size(); ++i) {
        ExpectSameResult(want[i], got[i].result, i);
      }
      const StreamRouter::Stats stats = stream.GetStats();
      EXPECT_EQ(stats.submitted, slots.size());
      EXPECT_EQ(stats.completed, slots.size());
      EXPECT_EQ(stats.closed_by_shutdown, 0u);
      EXPECT_EQ(stats.closed_by_size + stats.closed_by_deadline,
                stats.batches);
      uint64_t batches = 0, queries_in_batches = 0;
      for (const auto& [size, count] : stats.batch_size_hist) {
        batches += count;
        queries_in_batches += size * count;
        EXPECT_LE(size, StreamRouter::kMaxBatch);
      }
      EXPECT_EQ(batches, stats.batches);
      EXPECT_EQ(queries_in_batches, slots.size());
    }
  }
}

TEST_F(StreamRouterTest, DrainThreadLadderMatchesReferenceByteForByte) {
  // The scale-out acceptance property: the drain-thread count is a pure
  // throughput knob. Under one seeded jittered arrival schedule, every
  // slot's result at num_drain_threads = 1/2/4 is byte-identical to the
  // pre-formed cold BatchRouter run — overlapping drains may reorder
  // *when* batches complete, never what bytes a slot receives.
  std::vector<BatchQuery> pool = MakeQueries(24);
  ASSERT_GT(pool.size(), 8u);
  pool.push_back(BatchQuery{0, 0, 0});  // invalid: errors must fan out too

  Rng rng(7031);
  std::vector<BatchQuery> slots;
  std::vector<int64_t> gaps;
  for (size_t i = 0; i < kLadderEvents; ++i) {
    slots.push_back(pool[rng.Index(pool.size())]);
    gaps.push_back(static_cast<int64_t>(rng.Exponential(1.0 / 6.0)));
  }

  BatchRouter reference(router_, BatchRouterOptions{1, false});
  const std::vector<Result<RouteResult>> want = reference.RouteAll(slots);

  for (const unsigned drains : {1u, 2u, 4u}) {
    ManualClock clock;
    ServingRouter serving(router_);
    StreamOptions options;
    options.batch_deadline_us = 500;
    options.num_threads = 2;
    options.num_drain_threads = drains;
    options.dedup = true;
    options.clock = &clock;
    StreamRouter stream(&serving, options);
    ASSERT_EQ(stream.drain_threads(), drains);

    std::vector<StreamResult> got(slots.size());
    for (size_t i = 0; i < slots.size(); ++i) {
      clock.AdvanceMicros(gaps[i]);
      ASSERT_TRUE(stream.Submit(
          slots[i], [&got, i](const StreamResult& r) { got[i] = r; }));
    }
    clock.AdvanceMicros(options.batch_deadline_us + 1);
    AwaitCompleted(stream, slots.size());

    for (size_t i = 0; i < slots.size(); ++i) {
      ExpectSameResult(want[i], got[i].result, i);
    }
    const StreamRouter::Stats stats = stream.GetStats();
    EXPECT_EQ(stats.completed, slots.size());
    EXPECT_EQ(stats.drain_threads, drains);
  }
}

TEST_F(StreamRouterTest, OverlappingDrainsTickExactlyOncePerPeriod) {
  // 4 drain threads, one controller, virtual time: at every period
  // boundary exactly one thread wins the tick arbitration (the
  // next_tick_us_ advance under mu_), so controller ticks count periods,
  // not periods x drain threads. Idle ticks run with no queries at all —
  // that is also how a tripped stream recovers during a lull.
  ManualClock clock;
  StreamOptions options;
  options.num_threads = 1;
  options.num_drain_threads = 4;
  options.shed_depth = 256;
  options.clock = &clock;
  StreamRouter stream(router_, options);
  ASSERT_EQ(stream.drain_threads(), 4u);

  for (uint64_t period = 1; period <= 5; ++period) {
    // Exactly one boundary.
    clock.AdvanceMicros(OverloadController::kControlPeriodUs);
    // Wait for the winning thread's tick, then hold: virtual time is
    // frozen, so a duplicate tick (a second thread through the same
    // boundary) is the only way the count could move past period.
    while (stream.GetStats().controller.ticks < period) {
      std::this_thread::yield();
    }
    EXPECT_EQ(stream.GetStats().controller.ticks, period);
  }
  stream.Shutdown();
  EXPECT_EQ(stream.GetStats().controller.ticks, 5u);
}

TEST_F(StreamRouterTest, UncontrolledStreamNeverTicksAndClosesOnItsDeadline) {
  // shed_depth = 0: next_tick_us_ stays at kNoDeadline, so across a dozen
  // control periods of virtual time no thread ever ticks, and every batch
  // still closes at exactly the configured batch_deadline_us.
  const std::vector<BatchQuery> queries = MakeQueries(1);
  ASSERT_EQ(queries.size(), 1u);
  constexpr int64_t kDeadlineUs = 300;
  constexpr uint64_t kPeriods = 12;
  ManualClock clock;
  StreamOptions options;
  options.batch_deadline_us = kDeadlineUs;
  options.num_threads = 1;
  options.num_drain_threads = 2;
  options.clock = &clock;
  StreamRouter stream(router_, options);

  std::vector<StreamResult> got(kPeriods);
  for (uint64_t p = 0; p < kPeriods; ++p) {
    ASSERT_TRUE(stream.Submit(
        queries[0], [&got, p](const StreamResult& r) { got[p] = r; }));
    // A whole period at once: the close is stamped at its deadline.
    clock.AdvanceMicros(OverloadController::kControlPeriodUs);
    AwaitCompleted(stream, p + 1);
  }
  for (uint64_t p = 0; p < kPeriods; ++p) {
    EXPECT_TRUE(got[p].closed_by_deadline) << p;
    EXPECT_EQ(got[p].queue_wait_us, kDeadlineUs) << p;
    EXPECT_EQ(got[p].batch_seq, p + 1) << p;
  }
  const StreamRouter::Stats stats = stream.GetStats();
  EXPECT_EQ(stats.closed_by_deadline, kPeriods);
  EXPECT_EQ(stats.batch_deadline_us, kDeadlineUs);
  EXPECT_EQ(stats.controller.ticks, 0u);
  EXPECT_EQ(stats.controller.level, 0);
  EXPECT_EQ(stats.controller.batch_deadline_us, 0);
}

TEST_F(StreamRouterTest, ShutdownFlushesQueuedQueries) {
  const std::vector<BatchQuery> queries = MakeQueries(3);
  ASSERT_EQ(queries.size(), 3u);
  BatchRouter reference(router_, BatchRouterOptions{1, false});
  const std::vector<Result<RouteResult>> want = reference.RouteAll(queries);

  ManualClock clock;
  StreamOptions options;
  options.batch_deadline_us = 1'000'000;  // unreachable: shutdown flushes
  options.num_threads = 1;
  options.clock = &clock;
  StreamRouter stream(router_, options);
  std::vector<StreamResult> got(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(stream.Submit(queries[i],
                              [&got, i](const StreamResult& r) { got[i] = r; }));
  }
  stream.Shutdown();  // joins the batcher: all callbacks already fired

  const StreamRouter::Stats stats = stream.GetStats();
  EXPECT_EQ(stats.completed, queries.size());
  EXPECT_EQ(stats.failed_on_shutdown, 0u);
  EXPECT_EQ(stats.closed_by_shutdown, 1u);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameResult(want[i], got[i].result, i);
    EXPECT_EQ(got[i].batch_seq, 1u);
    EXPECT_FALSE(got[i].closed_by_deadline);
  }
}

TEST_F(StreamRouterTest, SubmitAfterShutdownIsRejectedWithoutCallback) {
  const std::vector<BatchQuery> queries = MakeQueries(1);
  ASSERT_EQ(queries.size(), 1u);

  ManualClock clock;
  StreamOptions options;
  options.clock = &clock;
  StreamRouter stream(router_, options);
  stream.Shutdown();

  std::atomic<bool> invoked{false};
  EXPECT_FALSE(stream.Submit(
      queries[0], [&invoked](const StreamResult&) { invoked.store(true); }));
  EXPECT_FALSE(invoked.load());
  EXPECT_EQ(stream.GetStats().rejected, 1u);

  const StreamResult r = stream.SubmitWait(queries[0]);
  ASSERT_FALSE(r.result.ok());
  EXPECT_EQ(r.result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(stream.GetStats().rejected, 2u);
}

TEST_F(StreamRouterTest, SubmitWaitRoundTripsThroughTheBatchPath) {
  const std::vector<BatchQuery> queries = MakeQueries(2);
  ASSERT_EQ(queries.size(), 2u);
  BatchRouter reference(router_, BatchRouterOptions{1, false});
  const std::vector<Result<RouteResult>> want = reference.RouteAll(queries);

  // batch_deadline_us = 0: the batcher observes an already-expired
  // deadline and closes every batch at once, so the blocking convenience
  // needs no clock advance and no real sleeps even on the default
  // SystemClock.
  StreamOptions options;
  options.batch_deadline_us = 0;
  options.num_threads = 1;
  StreamRouter stream(router_, options);
  for (size_t i = 0; i < queries.size(); ++i) {
    const StreamResult got = stream.SubmitWait(queries[i]);
    ExpectSameResult(want[i], got.result, i);
    EXPECT_EQ(got.batch_size, 1u);
    EXPECT_EQ(got.queue_wait_us, 0);
    EXPECT_TRUE(got.closed_by_deadline);
  }
  EXPECT_EQ(stream.GetStats().closed_by_deadline, queries.size());
}

TEST_F(StreamRouterTest, ServiceCountsEveryStreamedServeOnTheFrozenEpoch) {
  const std::vector<BatchQuery> queries = MakeQueries(4);
  ASSERT_GE(queries.size(), 2u);

  // The epoch split is the service's own count, read from the service.
  // With no world attached the world is frozen at epoch 0, so every
  // serve — cold inserts and warm hits alike — counts as current-epoch.
  ServingRouter serving(router_);
  StreamOptions options;
  options.batch_deadline_us = 0;  // every submit closes at once
  options.num_threads = 1;
  StreamRouter stream(&serving, options);
  for (int pass = 0; pass < 2; ++pass) {
    for (const BatchQuery& q : queries) {
      EXPECT_TRUE(stream.SubmitWait(q).result.ok());
    }
  }
  AwaitCompleted(stream, 2 * queries.size());
  const EpochServeCounts served = serving.GetEpochServeCounts();
  EXPECT_EQ(served.current_epoch, stream.GetStats().completed);
  EXPECT_EQ(served.stale_valid_epoch, 0u);
}

}  // namespace
}  // namespace l2r
