// Real-thread hammers for the serving stack's shared state (CTest label
// `tsan`): RouteCache, WorkspacePool, ManualClock's
// advance/wait protocol, the global ThreadPool, a ServingRouter racing
// identical cache misses, and a StreamRouter under genuinely concurrent
// submitters. Each test uses at least 8 threads and no sleeps — forward
// progress comes from joins, condition variables and yield-loops on
// observable state, so the suite is exactly as meaningful under TSan
// (where it is the main race-finder) as in the plain fast suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/parallel.h"
#include "common/workspace_pool.h"
#include "core/batch_router.h"
#include "core/l2r.h"
#include "eval/datasets.h"
#include "serve/clock.h"
#include "serve/overload_controller.h"
#include "serve/route_cache.h"
#include "serve/serving_router.h"
#include "serve/stream_router.h"
#include "chaos_service.h"
#include "test_util.h"

namespace l2r {
namespace {

constexpr int kThreads = 8;

RouteResult MakeResult(VertexId a, size_t hops) {
  RouteResult r;
  r.path.vertices.resize(hops + 1);
  for (size_t i = 0; i <= hops; ++i) {
    r.path.vertices[i] = a + static_cast<VertexId>(i);
  }
  r.path.cost = static_cast<double>(hops);
  r.method = RouteMethod::kRegionGraph;
  return r;
}

// ---------------------------------------------------------------------------
// WorkspacePool: leases checked out on one thread, returned on another.

TEST(WorkspacePoolStress, CrossThreadReturnContention) {
  // Producers acquire and stamp objects, consumers validate and release
  // them — every return happens on a different thread than its checkout,
  // under heavy Acquire/Return contention. A missing happens-before edge
  // shows up as a torn stamp; lost objects show up in the idle count.
  using Scratch = std::vector<uint64_t>;
  WorkspacePool<Scratch> pool(
      [] { return std::make_unique<Scratch>(64, 0); });
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kOpsPerProducer = 2000;
  Mutex mu;
  std::vector<WorkspacePool<Scratch>::Lease> handoff;
  std::atomic<int> produced{0};
  std::atomic<int> consumed{0};
  std::atomic<int> torn{0};
  std::atomic<uint64_t> next_stamp{1};
  std::atomic<bool> producers_done{false};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOpsPerProducer; ++i) {
        auto lease = pool.Acquire();
        const uint64_t stamp =
            next_stamp.fetch_add(1, std::memory_order_relaxed);
        for (uint64_t& slot : *lease) slot = stamp;
        {
          MutexLock lock(mu);
          handoff.push_back(std::move(lease));
        }
        produced.fetch_add(1, std::memory_order_release);
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (true) {
        WorkspacePool<Scratch>::Lease lease;
        {
          MutexLock lock(mu);
          if (!handoff.empty()) {
            lease = std::move(handoff.back());
            handoff.pop_back();
          }
        }
        if (!lease) {
          if (producers_done.load(std::memory_order_acquire) &&
              consumed.load(std::memory_order_acquire) ==
                  produced.load(std::memory_order_acquire)) {
            return;
          }
          std::this_thread::yield();
          continue;
        }
        const uint64_t stamp = (*lease)[0];
        for (const uint64_t slot : *lease) {
          if (slot != stamp) torn.fetch_add(1, std::memory_order_relaxed);
        }
        consumed.fetch_add(1, std::memory_order_release);
        // `lease` releases here — a thread that did not check it out.
      }
    });
  }
  for (size_t i = 0; i < static_cast<size_t>(kProducers); ++i) {
    threads[i].join();
  }
  producers_done.store(true, std::memory_order_release);
  for (size_t i = kProducers; i < threads.size(); ++i) threads[i].join();

  EXPECT_EQ(torn.load(std::memory_order_acquire), 0);
  EXPECT_EQ(consumed.load(std::memory_order_acquire),
            kProducers * kOpsPerProducer);
  // No object leaked or double-returned: everything created is idle again.
  EXPECT_EQ(pool.IdleCount(), pool.CreatedCount());
  EXPECT_GE(pool.CreatedCount(), 1u);
}

// ---------------------------------------------------------------------------
// RouteCache: concurrent Lookup/Insert churn across overlapping keys.

/// Eviction pressure for the cache hammers: inserts a key no one looks
/// up, unique per (thread, op), with a 4 KiB path. The hammers spend
/// every other op on it: 12k-16k such inserts, several times the 8 MiB
/// cache, so eviction runs throughout and evicts the looked-up keys too.
void InsertChurnKey(RouteCache& cache, int thread, int op,
                    WorldEpoch epoch = 0, std::vector<RegionId> regions = {}) {
  const VertexId s = static_cast<VertexId>(1000 + thread * 10'000 + op);
  cache.Insert(QueryKey{s, s + 1, 0}, MakeResult(s, 1000), epoch,
               std::move(regions));
}

TEST(RouteCacheStress, ConcurrentLookupInsertChurn) {
  // Every key has exactly one correct value (a pure function of the key),
  // mirroring the production contract that admission and eviction change
  // *which* keys hit, never the bytes a hit returns. Any torn read or
  // cross-key mixup is a hard failure; TSan additionally checks the
  // shard-striping locking underneath.
  RouteCache cache;
  constexpr VertexId kKeySpace = 64;
  constexpr int kOpsPerThread = 4000;
  std::atomic<uint64_t> wrong_bytes{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (i % 2 == 1) {
          InsertChurnKey(cache, t, i);
          continue;
        }
        const VertexId s =
            static_cast<VertexId>((i * 31 + t * 17) % kKeySpace);
        const QueryKey key{s, s + 1, static_cast<uint8_t>(s % 2)};
        const RouteResult want = MakeResult(s, 3 + s % 5);
        RouteResult got;
        if (cache.Lookup(key, &got)) {
          if (!(got == want)) {
            wrong_bytes.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          cache.Insert(key, want);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(wrong_bytes.load(std::memory_order_acquire), 0u);
  const RouteCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kOpsPerThread / 2);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, RouteCache::CapacityBytes());
}

// ---------------------------------------------------------------------------
// RouteCache same-key replace hammer on one shard.

TEST(RouteCacheStress, SameKeyReplaceNeverServesAMixedEntry) {
  // One key, hence one shard: the writer replaces it at rising epochs
  // with epoch-derived payloads (varying length, cost, vertices) while 7
  // readers hammer Lookup. A reader must observe a whole (stamp, payload)
  // pair — the payload a pure function of the returned stamp. A mixed
  // entry (fields from two inserts) is a hard failure here and a data
  // race under TSan.
  RouteCache cache;
  const QueryKey key{7, 9, 1};
  auto versioned = [](WorldEpoch v) {
    return MakeResult(static_cast<VertexId>(v % 997),
                      3 + static_cast<size_t>(v % 9));
  };
  constexpr WorldEpoch kVersions = 20000;
  cache.Insert(key, versioned(1), 1, {1});

  std::atomic<uint64_t> mixed{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<bool> done{false};
  // Start barrier: on a single-core box the insert loop below can run
  // to completion before any reader is ever scheduled, leaving the race
  // untested. Each reader checks in after its first lookup; the writer
  // holds off churning until all have.
  std::atomic<int> readers_started{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads - 1; ++t) {
    readers.emplace_back([&] {
      RouteResult got;
      WorldEpoch stamp = 0;
      bool started = false;
      while (!done.load(std::memory_order_acquire)) {
        if (!cache.Lookup(key, &got, &stamp)) {
          // The key is resident throughout — a lookup can never miss
          // it (no world, no eviction pressure).
          misses.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (!started) {
          started = true;
          readers_started.fetch_add(1, std::memory_order_relaxed);
        }
        if (!(got == versioned(stamp))) {
          mixed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  while (readers_started.load(std::memory_order_relaxed) < kThreads - 1) {
    std::this_thread::yield();
  }
  for (WorldEpoch v = 2; v <= kVersions; ++v) {
    cache.Insert(key, versioned(v), v, {1});
  }
  done.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();

  EXPECT_EQ(mixed.load(std::memory_order_acquire), 0u);
  EXPECT_EQ(misses.load(std::memory_order_acquire), 0u);
  // Quiesced, the cache serves exactly the final insert.
  RouteResult got;
  WorldEpoch stamp = 0;
  ASSERT_TRUE(cache.Lookup(key, &got, &stamp));
  EXPECT_EQ(stamp, kVersions);
  EXPECT_TRUE(got == versioned(kVersions));
}

// ---------------------------------------------------------------------------
// RouteCache: dirty-set invalidation racing Insert/Lookup under eviction
// pressure (dynamic world).

/// Scripted wait-free world view: bumper threads publish dirty epochs
/// while workers validate entries against them.
class AtomicWorld final : public WorldViewIface {
 public:
  static constexpr RegionId kRegions = 8;

  WorldEpoch CurrentEpoch() const override {
    // Acquire pairs with Bump's release store (documented order).
    return epoch_.load(std::memory_order_acquire);
  }
  WorldEpoch LastDirtyEpoch(int period_index,
                            RegionId region) const override {
    if (region == kAllRegionsBucket) {
      // Acquire pairs with Bump's release store (documented order).
      return max_dirty_[period_index].load(std::memory_order_acquire);
    }
    if (region >= kRegions) return 0;
    // Acquire pairs with Bump's release store (documented order).
    return dirty_[period_index][region].load(std::memory_order_acquire);
  }
  WorldEpoch AcquireRead() override { return CurrentEpoch(); }
  void ReleaseRead() override {}

  void Bump(int period_index, RegionId region) {
    // Relaxed RMW allots the number; the release stores below publish it.
    const WorldEpoch e = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
    // Release: pairs with the acquire loads in LastDirtyEpoch.
    dirty_[period_index][region].store(e, std::memory_order_release);
    WorldEpoch cur = max_dirty_[period_index].load(std::memory_order_relaxed);
    while (cur < e && !max_dirty_[period_index].compare_exchange_weak(
                          cur, e, std::memory_order_release,
                          std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<WorldEpoch> epoch_{0};
  std::atomic<WorldEpoch> dirty_[kNumTimePeriods][kRegions] = {};
  std::atomic<WorldEpoch> max_dirty_[kNumTimePeriods] = {};
};

TEST(RouteCacheStress, DirtySetInvalidationRacesChurnUnderEviction) {
  // 6 worker threads churn Insert/Lookup through a cache that evicts
  // constantly (InsertChurnKey) while 2 bumper threads dirty regions, so
  // selective invalidation races both hits and evictions. Two contracts
  // under fire, checked value-level here and lock-level under TSan:
  //  - a hit's bytes are a pure function of its key (no torn entries);
  //  - no hit is served from an entry whose footprint was already dirty
  //    past its stamp *before* the lookup began (monotone dirty epochs
  //    make the pre-sampled floor a sound race-free lower bound).
  RouteCache cache;
  AtomicWorld world;
  cache.SetWorld(&world);

  constexpr VertexId kKeySpace = 64;
  constexpr int kOpsPerThread = 4000;
  constexpr int kWorkers = kThreads - 2;
  constexpr int kBumpsPerThread = 2000;
  std::atomic<uint64_t> wrong_bytes{0};
  std::atomic<uint64_t> stale_serves{0};
  std::atomic<uint64_t> lookups{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (i % 2 == 1) {
          InsertChurnKey(cache, t, i, world.CurrentEpoch(),
                         {static_cast<RegionId>(i % AtomicWorld::kRegions)});
          continue;
        }
        const VertexId s =
            static_cast<VertexId>((i * 31 + t * 17) % kKeySpace);
        const QueryKey key{s, s + 1, static_cast<uint8_t>(s % 2)};
        const RegionId region = s % AtomicWorld::kRegions;
        const RouteResult want = MakeResult(s, 3 + s % 5);
        const WorldEpoch floor = world.LastDirtyEpoch(key.period, region);
        RouteResult got;
        WorldEpoch stamp = 0;
        lookups.fetch_add(1, std::memory_order_relaxed);
        if (cache.Lookup(key, &got, &stamp)) {
          if (!(got == want)) {
            wrong_bytes.fetch_add(1, std::memory_order_relaxed);
          }
          if (stamp < floor) {
            stale_serves.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          cache.Insert(key, want, world.CurrentEpoch(), {region});
        }
      }
    });
  }
  for (int b = 0; b < kThreads - kWorkers; ++b) {
    threads.emplace_back([&, b] {
      for (int i = 0; i < kBumpsPerThread; ++i) {
        world.Bump(i % kNumTimePeriods,
                   static_cast<RegionId>((i * 7 + b) % AtomicWorld::kRegions));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(wrong_bytes.load(std::memory_order_acquire), 0u);
  EXPECT_EQ(stale_serves.load(std::memory_order_acquire), 0u);
  RouteCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, RouteCache::CapacityBytes());

  // Quiesced: one eager sweep drains everything stale, after which every
  // resident entry is valid and a second sweep finds nothing.
  auto sweep = [&cache] {
    std::vector<QueryKey> stale;
    for (size_t i = 0; i < cache.NumShards(); ++i) {
      cache.ExtractInvalidShard(i, &stale);
    }
    return stale;
  };
  sweep();
  EXPECT_TRUE(sweep().empty());
}

// ---------------------------------------------------------------------------
// ManualClock: waiters on distinct mutexes racing a stream of advances.

TEST(ManualClockStress, AdvancesNeverLoseWaiters) {
  // Each waiter parks on its own Mutex/CondVar with a staggered deadline
  // while the main thread advances virtual time in small steps. The
  // protocol under test is the registration/notify handshake: a waiter
  // whose deadline has been crossed must always wake and observe timeout,
  // no matter how its registration interleaves with advances.
  ManualClock clock;
  struct WaiterState {
    Mutex mu;
    CondVar cv;
    std::atomic<bool> timed_out{false};
  };
  std::vector<std::unique_ptr<WaiterState>> states;
  for (int t = 0; t < kThreads; ++t) {
    states.push_back(std::make_unique<WaiterState>());
  }

  std::vector<std::thread> waiters;
  for (int t = 0; t < kThreads; ++t) {
    waiters.emplace_back([&, t] {
      WaiterState& st = *states[t];
      const int64_t deadline = 100 * (t + 1);
      MutexLock lock(st.mu);
      while (clock.WaitUntil(st.cv, st.mu, deadline) !=
             std::cv_status::timeout) {
      }
      st.timed_out.store(true, std::memory_order_release);
    });
  }

  // Wait until every thread is parked, then cross all deadlines in
  // deliberately small, frequent steps (each advance re-walks the waiter
  // list and skips the ones already gone).
  while (clock.NumWaiters() < static_cast<size_t>(kThreads)) {
    std::this_thread::yield();
  }
  for (int step = 0; step < 100; ++step) clock.AdvanceMicros(10);

  for (std::thread& th : waiters) th.join();
  for (const auto& st : states) {
    EXPECT_TRUE(st->timed_out.load(std::memory_order_acquire));
  }
  EXPECT_EQ(clock.NumWaiters(), 0u);
}

// ---------------------------------------------------------------------------
// ThreadPool: concurrent parallel sections from many external threads.

TEST(ThreadPoolStress, ConcurrentSectionsStayIsolated) {
  // 8 outer threads each run ParallelFor sections against the global
  // pool. Sections must serialize through admission without mixing
  // iterations across sections or losing any.
  std::vector<std::thread> threads;
  std::atomic<uint64_t> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        std::vector<int> out(128, -1);
        ParallelFor(
            out.size(),
            [&](size_t i) { out[i] = t; },
            /*num_threads=*/4);
        for (const int v : out) {
          if (v != t) bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(bad.load(std::memory_order_acquire), 0u);
}

// ---------------------------------------------------------------------------
// ServingRouter and StreamRouter on a real (small) pipeline.

class ServingStressTest : public ::testing::Test {
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

  static BuiltDataset* dataset_;
  static L2RRouter* router_;
};

BuiltDataset* ServingStressTest::dataset_ = nullptr;
L2RRouter* ServingStressTest::router_ = nullptr;

TEST_F(ServingStressTest, ConcurrentIdenticalMissesMatchTheColdPath) {
  // 8 threads route the same 4 keys through a cache-on ServingRouter with
  // no batch dedup in front, so identical misses race each other through
  // the cold path into RouteCache::Insert. Every result must be
  // byte-identical to the bare router's, the cache must end with one
  // entry per key, and every query must be exactly one lookup.
  std::vector<BatchQuery> keys;
  std::vector<QueryKey> seen;
  std::vector<RouteResult> want;
  {
    L2RQueryContext ctx = router_->MakeContext();
    for (const BatchQuery& q : MakeQueries(64)) {
      if (keys.size() == 4) break;
      const QueryKey key = QueryKeyOf(q.s, q.d, q.departure_time);
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
      Result<RouteResult> r = router_->Route(&ctx, key);
      if (!r.ok()) continue;  // errors are never cached
      keys.push_back(q);
      seen.push_back(key);
      want.push_back(std::move(r).value());
    }
  }
  ASSERT_EQ(keys.size(), 4u);

  ServingRouter serving(router_);
  constexpr int kOpsPerThread = 200;
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      L2RQueryContext ctx = router_->MakeContext();
      for (int i = 0; i < kOpsPerThread; ++i) {
        const size_t k = static_cast<size_t>(i + t) % keys.size();
        const Result<RouteResult> got = serving.Route(
            &ctx, keys[k].s, keys[k].d, keys[k].departure_time);
        if (!got.ok() || !(*got == want[k])) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(wrong.load(std::memory_order_acquire), 0u);
  const ServingRouter::Stats stats = serving.GetStats();
  EXPECT_EQ(stats.queries, static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(stats.cache.entries, keys.size());
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, stats.queries);
  EXPECT_EQ(stats.single_flight.leaders, stats.cache.misses);
  EXPECT_EQ(stats.single_flight.coalesced, 0u);
}

/// The stream hammers below are parameterized over the drain-thread
/// count (the DrainLadder instantiation: 1 and 4). With 4 batchers the
/// drains genuinely overlap, so the cache's shard locks, the
/// controller-tick arbitration and the shutdown paths race real batcher
/// threads.
class StreamDrainStressTest
    : public ServingStressTest,
      public ::testing::WithParamInterface<unsigned> {};

TEST_P(StreamDrainStressTest, ConcurrentSubmittersThroughServingStack) {
  // 8 submitter threads race Submit against deadline/size closes on the
  // system clock, through the full serving stack (cache on).
  // Every accepted query must complete exactly once with a result that is
  // byte-identical to the single-threaded cold answer for its key.
  const unsigned num_drains = GetParam();
  const std::vector<BatchQuery> queries = MakeQueries(24);
  ASSERT_GE(queries.size(), 8u);

  // Ground truth from the bare router, one query at a time.
  std::vector<Result<RouteResult>> want;
  {
    L2RQueryContext ctx = router_->MakeContext();
    for (const BatchQuery& q : queries) {
      want.push_back(router_->Route(&ctx, q.s, q.d, q.departure_time));
    }
  }

  ServingRouter serving(router_);
  StreamOptions options;
  // 8 submitters can outpace 64 queries per 200 us, so size closes and
  // deadline closes mix.
  options.batch_deadline_us = 200;
  options.num_threads = 2;
  options.num_drain_threads = num_drains;
  StreamRouter stream(&serving, options);

  constexpr int kRoundsPerThread = 25;
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        const size_t qi = (static_cast<size_t>(t) * kRoundsPerThread +
                           static_cast<size_t>(round)) %
                          queries.size();
        const Result<RouteResult>& expect = want[qi];
        const bool ok = stream.Submit(
            queries[qi], [&wrong, &expect](const StreamResult& r) {
              const bool same =
                  r.result.ok() == expect.ok() &&
                  (!r.result.ok() || *r.result == *expect);
              if (!same) wrong.fetch_add(1, std::memory_order_relaxed);
            });
        ASSERT_TRUE(ok);  // nothing shuts the stream down while we submit
        accepted.fetch_add(1, std::memory_order_release);
      }
    });
  }
  for (std::thread& th : submitters) th.join();

  const uint64_t total = accepted.load(std::memory_order_acquire);
  while (stream.GetStats().completed < total) std::this_thread::yield();
  stream.Shutdown();

  EXPECT_EQ(wrong.load(std::memory_order_acquire), 0u);
  const StreamRouter::Stats stats = stream.GetStats();
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(stats.completed, total);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.failed_on_shutdown, 0u);
  // The serving layer saw every query (dedup may collapse duplicates
  // inside a batch before they reach it, so <=), and caching actually
  // engaged across the concurrent submitters.
  const ServingRouter::Stats serve_stats = serving.GetStats();
  EXPECT_GT(serve_stats.queries, 0u);
  EXPECT_LE(serve_stats.queries, total);
  EXPECT_EQ(serve_stats.cache.hits + serve_stats.cache.misses,
            serve_stats.queries);
  EXPECT_EQ(stats.drain_threads, num_drains);
}

TEST_P(StreamDrainStressTest, OverloadShedConservesCallbacks) {
  // 8 submitter threads flood the stream on the system clock while the
  // overload controller (tiny shed depths, trip after one tick) flips
  // admission shedding and the budget scale under them, and a chaos layer
  // injects backend errors under the drain. With overlapping drains the
  // controller-tick arbitration, the shed bookkeeping, and the shutdown
  // flush all race each other. The invariants that must survive:
  // every accepted query gets exactly one callback, every shed callback
  // carries kResourceExhausted, and submitted == completed + shed +
  // failed_on_shutdown at any drain count.
  const unsigned num_drains = GetParam();
  const std::vector<BatchQuery> queries = MakeQueries(16);
  ASSERT_GE(queries.size(), 8u);

  // Shed depth 16 (panic at 32): small enough that the flood trips it
  // for real.
  OverloadController controller(16);

  // Cache off: every served query runs the cold path, so the flood lasts
  // across control periods instead of draining from the cache at once.
  ServingRouterOptions serve_options;
  serve_options.enable_cache = false;
  serve_options.deadline.fallback_budget_us = 25;
  ServingRouter serving(router_, serve_options);
  ChaosOptions chaos_options;
  chaos_options.seed = 11;
  chaos_options.error_rate = 0.2;
  chaos_options.degrade_rate = 0.2;
  ChaosService chaos(&serving, chaos_options);

  StreamOptions options;
  options.num_threads = 2;
  options.num_drain_threads = num_drains;
  options.dedup = false;  // every served slot must reach the chaos layer
  options.overload = &controller;
  options.budget_sink = [&serving](double scale) {
    serving.SetBudgetScale(scale);
  };
  StreamRouter stream(&chaos, options);

  constexpr int kRoundsPerThread = 40;
  constexpr size_t kTotal =
      static_cast<size_t>(kThreads) * kRoundsPerThread;
  std::vector<std::atomic<int>> callbacks(kTotal);
  std::atomic<uint64_t> shed_seen{0};
  std::atomic<uint64_t> shed_bad_status{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        const size_t slot = static_cast<size_t>(t) * kRoundsPerThread +
                            static_cast<size_t>(round);
        BatchQuery q = queries[slot % queries.size()];
        q.query_class =
            slot % 3 == 0 ? QueryClass::kBulk : QueryClass::kInteractive;
        const bool ok = stream.Submit(
            q, [&callbacks, &shed_seen, &shed_bad_status,
                slot](const StreamResult& r) {
              callbacks[slot].fetch_add(1, std::memory_order_relaxed);
              if (!r.shed) return;
              shed_seen.fetch_add(1, std::memory_order_relaxed);
              if (r.result.status().code() !=
                  StatusCode::kResourceExhausted) {
                shed_bad_status.fetch_add(1, std::memory_order_relaxed);
              }
            });
        ASSERT_TRUE(ok);
      }
    });
  }
  for (std::thread& th : submitters) th.join();

  for (;;) {
    const StreamRouter::Stats s = stream.GetStats();
    if (s.completed + s.shed + s.failed_on_shutdown >= kTotal) break;
    std::this_thread::yield();
  }
  // A fast host can serve the whole flood inside the first 2 ms period;
  // idle ticks still come, so wait for one before shutting down.
  while (controller.GetStats().ticks == 0) std::this_thread::yield();
  stream.Shutdown();

  for (size_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(callbacks[i].load(std::memory_order_acquire), 1)
        << "slot " << i;
  }
  EXPECT_EQ(shed_bad_status.load(std::memory_order_acquire), 0u);
  const StreamRouter::Stats stats = stream.GetStats();
  EXPECT_EQ(stats.submitted, kTotal);
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.shed + stats.failed_on_shutdown);
  EXPECT_EQ(stats.shed, shed_seen.load(std::memory_order_acquire));
  EXPECT_EQ(stats.shed_by_class[0] + stats.shed_by_class[1], stats.shed);
  EXPECT_EQ(stats.completed_by_class[0] + stats.completed_by_class[1],
            stats.completed);
  // The controller really ran and the chaos layer really misbehaved.
  EXPECT_GT(controller.GetStats().ticks, 0u);
  EXPECT_EQ(chaos.GetStats().queries, stats.completed);
  EXPECT_EQ(stats.drain_threads, num_drains);
}

INSTANTIATE_TEST_SUITE_P(DrainLadder, StreamDrainStressTest,
                         ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "Drains" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace l2r
