#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/batch_router.h"
#include "core/l2r.h"
#include "eval/datasets.h"
#include "serve/deadline_budget.h"
#include "serve/route_cache.h"
#include "serve/serving_router.h"
#include "test_util.h"

namespace l2r {
namespace {

// ---------------------------------------------------------------------------
// RouteCache units (no dataset needed).

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

RouteResult MakeDegradedResult(VertexId a, size_t hops) {
  RouteResult r = MakeResult(a, hops);
  r.budget_degraded = true;
  return r;
}

/// Hops of the largest MakeResult entry of which `n` fit in one cache
/// shard: n such entries fill the shard, and any further entry overflows
/// it.
size_t HopsFillingShard(const RouteCache& cache, size_t n) {
  const size_t entry_bytes =
      RouteCache::CapacityBytes() / cache.NumShards() / n;
  const size_t path_bytes = entry_bytes - RouteCache::EntryBytes({});
  return path_bytes / sizeof(VertexId) - 1;
}

/// `n` distinct off-peak keys that share one cache shard.
std::vector<QueryKey> SameShardKeys(const RouteCache& cache, size_t n) {
  std::vector<QueryKey> keys;
  const size_t shard = QueryKeyHash{}(QueryKey{1, 2, 0}) % cache.NumShards();
  for (VertexId s = 1; keys.size() < n; ++s) {
    const QueryKey key{s, s + 1, 0};
    if (QueryKeyHash{}(key) % cache.NumShards() == shard) keys.push_back(key);
  }
  return keys;
}

/// Every stale entry of every shard (RouteCache::ExtractInvalidShard).
std::vector<QueryKey> ExtractAllInvalid(RouteCache& cache) {
  std::vector<QueryKey> stale;
  for (size_t i = 0; i < cache.NumShards(); ++i) {
    cache.ExtractInvalidShard(i, &stale);
  }
  return stale;
}

TEST(RouteCacheTest, HitReturnsExactInsertedValue) {
  // A short path and a 101-vertex one: every size round-trips whole.
  for (const size_t hops : {size_t{5}, size_t{100}}) {
    RouteCache cache;
    const QueryKey key{7, 9, 1};
    const RouteResult want = MakeResult(7, hops);
    RouteResult got;
    EXPECT_FALSE(cache.Lookup(key, &got));
    cache.Insert(key, want);
    ASSERT_TRUE(cache.Lookup(key, &got));
    EXPECT_TRUE(got == want);
    const RouteCache::Stats stats = cache.GetStats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.inserts, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_GT(stats.bytes, 0u);
  }
}

TEST(RouteCacheTest, PeriodIsPartOfTheKey) {
  RouteCache cache;
  const RouteResult offpeak = MakeResult(1, 3);
  const RouteResult peak = MakeResult(100, 4);
  cache.Insert(QueryKey{1, 2, 0}, offpeak);
  cache.Insert(QueryKey{1, 2, 1}, peak);
  RouteResult got;
  ASSERT_TRUE(cache.Lookup(QueryKey{1, 2, 0}, &got));
  EXPECT_TRUE(got == offpeak);
  ASSERT_TRUE(cache.Lookup(QueryKey{1, 2, 1}, &got));
  EXPECT_TRUE(got == peak);
}

TEST(RouteCacheTest, LruEvictionRespectsByteCapacityAndRecency) {
  // Three entries fill one shard, so a fourth evicts exactly one.
  RouteCache cache;
  const size_t hops = HopsFillingShard(cache, 3);
  const std::vector<QueryKey> key = SameShardKeys(cache, 4);
  cache.Insert(key[0], MakeResult(1, hops));
  cache.Insert(key[1], MakeResult(2, hops));
  cache.Insert(key[2], MakeResult(3, hops));
  RouteResult got;
  ASSERT_TRUE(cache.Lookup(key[0], &got));  // touch 0: now 1 is LRU
  cache.Insert(key[3], MakeResult(4, hops));  // evicts 1
  EXPECT_TRUE(cache.Lookup(key[0], &got));
  EXPECT_FALSE(cache.Lookup(key[1], &got));
  EXPECT_TRUE(cache.Lookup(key[2], &got));
  EXPECT_TRUE(cache.Lookup(key[3], &got));
  const RouteCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_LE(stats.bytes, RouteCache::CapacityBytes() / cache.NumShards());
}

TEST(RouteCacheTest, ByteAccountingStaysExactUnderEvictionChurn) {
  // The byte budget is charged from the stored copy, so source vectors
  // carrying excess capacity must not leak phantom bytes into the shard
  // accounting as entries churn through eviction.
  RouteCache cache;
  const size_t hops = HopsFillingShard(cache, 3);
  const std::vector<QueryKey> keys = SameShardKeys(cache, 200);
  for (size_t i = 0; i < keys.size(); ++i) {
    RouteResult r = MakeResult(keys[i].s, hops);
    r.path.vertices.reserve(2 * (hops + 1));  // excess caller-side capacity
    cache.Insert(keys[i], r);
  }
  const RouteCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 3u);  // full occupancy survives the churn
  EXPECT_EQ(stats.bytes, 3 * RouteCache::EntryBytes(MakeResult(0, hops)));
  EXPECT_EQ(stats.evictions, 200u - 3u);
  // The most recent entries are still resident and intact.
  RouteResult got;
  ASSERT_TRUE(cache.Lookup(keys.back(), &got));
  EXPECT_TRUE(got == MakeResult(keys.back().s, hops));
}

TEST(RouteCacheTest, OversizeEntryIsNotCached) {
  RouteCache cache;
  // One entry larger than a whole shard.
  cache.Insert(QueryKey{1, 2, 0},
               MakeResult(1, 2 * HopsFillingShard(cache, 1)));
  RouteResult got;
  EXPECT_FALSE(cache.Lookup(QueryKey{1, 2, 0}, &got));
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(RouteCacheTest, ConcurrentMixedLoadStaysConsistent) {
  RouteCache cache;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  // Odd ops insert a key no one looks up again, 4 KiB each: 16k of them
  // overflow the cache several times, so eviction runs under the load.
  constexpr size_t kChurnHops = 1000;
  std::atomic<uint64_t> value_mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &value_mismatches, t] {
      RouteResult got;
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (i % 2 == 1) {
          const VertexId s =
              static_cast<VertexId>(1000 + t * kOpsPerThread + i);
          cache.Insert(QueryKey{s, s + 1, 0},
                       MakeResult(s, kChurnHops));
          continue;
        }
        const VertexId s = static_cast<VertexId>((t * 7 + i) % 97);
        const QueryKey key{s, s + 1, static_cast<uint8_t>(i % 4 / 2)};
        if (cache.Lookup(key, &got)) {
          // Values are keyed deterministically, so a hit must match what
          // any thread inserted for this key.
          if (got.path.vertices.front() != s) ++value_mismatches;
        } else {
          cache.Insert(key, MakeResult(s, 4));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(value_mismatches.load(), 0u);
  const RouteCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kOpsPerThread / 2);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, RouteCache::CapacityBytes());
}

TEST(RouteCacheTest, EveryHitRefreshesRecency) {
  // A small entry, then two that each fill half the shard. The hit on
  // the small one makes the first half-shard entry least recent, so the
  // third insert must evict that one, whatever the hit entry's size.
  RouteCache cache;
  const size_t half = HopsFillingShard(cache, 2);
  const std::vector<QueryKey> key = SameShardKeys(cache, 3);
  cache.Insert(key[0], MakeResult(1, 8));
  cache.Insert(key[1], MakeResult(2, half));
  RouteResult got;
  ASSERT_TRUE(cache.Lookup(key[0], &got));  // touch 0: now 1 is LRU
  cache.Insert(key[2], MakeResult(3, half));  // evicts 1
  EXPECT_TRUE(cache.Lookup(key[0], &got));
  EXPECT_TRUE(got == MakeResult(1, 8));
  EXPECT_FALSE(cache.Lookup(key[1], &got));
  EXPECT_TRUE(cache.Lookup(key[2], &got));
  EXPECT_EQ(cache.GetStats().evictions, 1u);
}

// ---------------------------------------------------------------------------
// RouteCache epoch validation (dynamic world). A scripted WorldViewIface
// stands in for the update channel so the invalidation predicate can be
// exercised one dirty event at a time.

class FakeWorld final : public WorldViewIface {
 public:
  WorldEpoch CurrentEpoch() const override { return epoch_; }
  WorldEpoch LastDirtyEpoch(int period_index,
                            RegionId region) const override {
    if (region == kAllRegionsBucket) return max_dirty_[period_index];
    const auto it = dirty_[period_index].find(region);
    return it == dirty_[period_index].end() ? 0 : it->second;
  }
  WorldEpoch AcquireRead() override { return epoch_; }
  void ReleaseRead() override {}

  void MarkDirty(int period_index, RegionId region, WorldEpoch epoch) {
    dirty_[period_index][region] = epoch;
    if (epoch > max_dirty_[period_index]) max_dirty_[period_index] = epoch;
    if (epoch > epoch_) epoch_ = epoch;
  }

 private:
  WorldEpoch epoch_ = 0;
  std::unordered_map<RegionId, WorldEpoch> dirty_[kNumTimePeriods];
  WorldEpoch max_dirty_[kNumTimePeriods] = {0, 0};
};

TEST(RouteCacheTest, EpochInvalidationIsSelectivePerFootprint) {
  FakeWorld world;
  RouteCache cache;
  cache.SetWorld(&world);
  const QueryKey touched{1, 2, 0};
  const QueryKey untouched{3, 4, 0};
  cache.Insert(touched, MakeResult(1, 4), 0, {1, 2});
  cache.Insert(untouched, MakeResult(3, 4), 0, {5});

  world.MarkDirty(0, 2, 1);  // region 2: touches only the first footprint
  RouteResult got;
  WorldEpoch epoch = 99;
  EXPECT_FALSE(cache.Lookup(touched, &got));  // erased, never served
  ASSERT_TRUE(cache.Lookup(untouched, &got, &epoch));
  EXPECT_TRUE(got == MakeResult(3, 4));
  EXPECT_EQ(epoch, 0u);  // stale-but-valid stamp, surfaced for accounting
  const RouteCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.invalidated, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // Reinserting on the new epoch makes the key servable again.
  cache.Insert(touched, MakeResult(9, 4), 1, {1, 2});
  ASSERT_TRUE(cache.Lookup(touched, &got, &epoch));
  EXPECT_TRUE(got == MakeResult(9, 4));
  EXPECT_EQ(epoch, 1u);
}

TEST(RouteCacheTest, PeriodsInvalidateIndependently) {
  FakeWorld world;
  RouteCache cache;
  cache.SetWorld(&world);
  cache.Insert(QueryKey{1, 2, 0}, MakeResult(1, 3), 0, {7});
  cache.Insert(QueryKey{1, 2, 1}, MakeResult(100, 3), 0, {7});
  world.MarkDirty(1, 7, 1);  // peak only
  RouteResult got;
  EXPECT_TRUE(cache.Lookup(QueryKey{1, 2, 0}, &got));
  EXPECT_FALSE(cache.Lookup(QueryKey{1, 2, 1}, &got));
}

TEST(RouteCacheTest, AllRegionsFootprintDiesOnAnyDirtyInItsPeriod) {
  FakeWorld world;
  RouteCache cache;
  cache.SetWorld(&world);
  const QueryKey key{1, 2, 0};
  // Degraded results carry the whole-period sentinel footprint (their
  // degrade bit depends on exploration, not just the final path).
  cache.Insert(key, MakeDegradedResult(1, 4), 0, {kAllRegionsBucket});
  world.MarkDirty(0, 42, 1);  // any region of the period suffices
  RouteResult got;
  EXPECT_FALSE(cache.Lookup(key, &got));
  EXPECT_EQ(cache.GetStats().invalidated, 1u);
}

TEST(RouteCacheTest, InsertPrefersTheNewestEpochStamp) {
  FakeWorld world;
  RouteCache cache;
  cache.SetWorld(&world);
  const QueryKey key{1, 2, 0};
  cache.Insert(key, MakeResult(1, 4), 2, {3});
  cache.Insert(key, MakeResult(50, 4), 1, {3});  // stale racer: ignored
  RouteResult got;
  WorldEpoch epoch = 0;
  ASSERT_TRUE(cache.Lookup(key, &got, &epoch));
  EXPECT_TRUE(got == MakeResult(1, 4));
  EXPECT_EQ(epoch, 2u);
  cache.Insert(key, MakeResult(70, 4), 3, {3});  // newer: replaces
  ASSERT_TRUE(cache.Lookup(key, &got, &epoch));
  EXPECT_TRUE(got == MakeResult(70, 4));
  EXPECT_EQ(epoch, 3u);
}

TEST(RouteCacheTest, ExtractInvalidSweepsExactlyTheStaleEntries) {
  FakeWorld world;
  RouteCache cache;
  cache.SetWorld(&world);
  cache.Insert(QueryKey{1, 2, 0}, MakeResult(1, 4), 0, {1});
  cache.Insert(QueryKey{3, 4, 0}, MakeResult(3, 4), 0, {2});
  cache.Insert(QueryKey{5, 6, 0}, MakeResult(5, 4), 0, {1, 9});
  world.MarkDirty(0, 1, 1);

  std::vector<QueryKey> stale = ExtractAllInvalid(cache);
  ASSERT_EQ(stale.size(), 2u);
  for (const QueryKey& key : stale) {
    EXPECT_TRUE(key == (QueryKey{1, 2, 0}) ||
                key == (QueryKey{5, 6, 0}));
  }
  const RouteCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.invalidated, 2u);
  EXPECT_EQ(stats.entries, 1u);
  RouteResult got;
  EXPECT_TRUE(cache.Lookup(QueryKey{3, 4, 0}, &got));
  // A second sweep finds nothing left to repair.
  EXPECT_TRUE(ExtractAllInvalid(cache).empty());
}

TEST(RouteCacheTest, DegradedEntriesParticipateInLruEviction) {
  // Degraded entries are ordinary residents: they occupy bytes,
  // age through the LRU list, and are evicted like full-fidelity ones.
  // Two locked-path entries to a shard, all in one shard (exact LRU).
  RouteCache cache;
  const size_t hops = HopsFillingShard(cache, 2);
  const std::vector<QueryKey> key = SameShardKeys(cache, 4);
  cache.Insert(key[0], MakeDegradedResult(1, hops));
  cache.Insert(key[1], MakeResult(2, hops));
  RouteResult got;
  ASSERT_TRUE(cache.Lookup(key[0], &got));
  EXPECT_TRUE(got.budget_degraded);
  // 1 is now LRU; a third insert evicts it and keeps the degraded entry.
  cache.Insert(key[2], MakeResult(3, hops));
  EXPECT_TRUE(cache.Lookup(key[0], &got));
  EXPECT_FALSE(cache.Lookup(key[1], &got));
  EXPECT_TRUE(cache.Lookup(key[2], &got));
  // And a degraded entry is itself evictable once least-recently used.
  cache.Insert(key[3], MakeResult(4, hops));  // evicts 0 (LRU after 2's hit)
  EXPECT_FALSE(cache.Lookup(key[0], &got));
  EXPECT_EQ(cache.GetStats().evictions, 2u);
}

// ---------------------------------------------------------------------------
// DeadlineBudget units.

TEST(DeadlineBudgetTest, DisabledBudgetMeansNoCap) {
  const DeadlineBudget budget{DeadlineBudgetOptions{}};
  EXPECT_FALSE(budget.enabled());
  EXPECT_EQ(budget.MaxPreferenceSettles(), 0u);
}

TEST(DeadlineBudgetTest, CapDerivesFromMicrosecondsAndFloor) {
  // 80 settles per microsecond, floored at 256 settles.
  DeadlineBudgetOptions options;
  options.fallback_budget_us = 100;
  EXPECT_EQ(DeadlineBudget(options).MaxPreferenceSettles(), 8000u);
  options.fallback_budget_us = 1;  // 80 settles, below the floor
  EXPECT_EQ(DeadlineBudget(options).MaxPreferenceSettles(), 256u);
  EXPECT_EQ(DeadlineBudget::kMinSettles, 256u);
}

// ---------------------------------------------------------------------------
// End-to-end serving-layer behavior on a small built pipeline.

class ServeTest : public ::testing::Test {
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

  /// Up to `cap` seeded random vertex pairs whose cold answer is an
  /// Algorithm 2 preference route that settles more than
  /// DeadlineBudget::kMinSettles vertices: the bare router degrades them
  /// under that settle cap. (Held-out trips in this small world are too
  /// short to need that many.)
  static std::vector<BatchQuery> LongPreferenceQueries(size_t cap) {
    L2RQueryContext ctx = router_->MakeContext();
    const size_t n = dataset_->world.net.NumVertices();
    Rng rng(5);
    std::vector<BatchQuery> out;
    for (int tries = 0; tries < 8000 && out.size() < cap; ++tries) {
      const BatchQuery q{static_cast<VertexId>(rng.Index(n)),
                         static_cast<VertexId>(rng.Index(n)),
                         tries % 2 == 0 ? 12 * 3600.0 : 8 * 3600.0};
      const auto plain = router_->Route(&ctx, q.s, q.d, q.departure_time);
      if (!plain.ok() || plain->method != RouteMethod::kPreferenceRoute) {
        continue;
      }
      const auto capped =
          router_->Route(&ctx, QueryKeyOf(q.s, q.d, q.departure_time),
                         DeadlineBudget::kMinSettles);
      if (capped.ok() && capped->budget_degraded) out.push_back(q);
    }
    return out;
  }

  /// Cold-path ground truth through the plain Route API.
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
    EXPECT_EQ(want->method, got->method) << "slot " << i;
    EXPECT_TRUE(*want == *got) << "slot " << i;
  }

  static BuiltDataset* dataset_;
  static L2RRouter* router_;
};

BuiltDataset* ServeTest::dataset_ = nullptr;
L2RRouter* ServeTest::router_ = nullptr;

TEST_F(ServeTest, CacheHitsAreByteIdenticalToColdRoutes) {
  const std::vector<BatchQuery> queries = MakeQueries(40);
  ASSERT_GT(queries.size(), 10u);
  const auto want = PlainResults(queries);

  ServingRouter serving(router_);
  L2RQueryContext ctx = router_->MakeContext();
  // Pass 1 populates the cache (all misses); pass 2 is all hits. Both
  // must equal the cold-path truth exactly.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto got = serving.Route(&ctx, queries[i].s, queries[i].d,
                                     queries[i].departure_time);
      ExpectSameResult(want[i], got, i);
    }
  }
  const ServingRouter::Stats stats = serving.GetStats();
  size_t ok_queries = 0;
  for (const auto& r : want) ok_queries += r.ok() ? 1 : 0;
  // Every ok query hits on the second pass; errors are never cached.
  EXPECT_EQ(stats.cache.hits, ok_queries);
  EXPECT_EQ(stats.queries, 2 * queries.size());
}

TEST_F(ServeTest, BatchServingMatchesPlainBatchFor1And4Threads) {
  const std::vector<BatchQuery> queries = MakeQueries(40);
  const auto want = PlainResults(queries);

  for (const unsigned threads : {1u, 4u}) {
    ServingRouter serving(router_);
    BatchRouter batch(&serving, threads);
    // Cold batch (misses) and warm batch (hits) both match the plain
    // sequential truth byte for byte.
    for (int pass = 0; pass < 2; ++pass) {
      const auto got = batch.RouteAll(queries);
      ASSERT_EQ(got.size(), queries.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ExpectSameResult(want[i], got[i], i);
      }
    }
    EXPECT_GT(serving.GetStats().cache.hits, 0u);
  }
}

TEST_F(ServeTest, BudgetDegradeIsDeterministicAndFlagged) {
  // The held-out queries plus some whose Algorithm 2 run settles more
  // than the smallest cap a budget can derive (DeadlineBudget's
  // 256-settle floor): those must degrade under it.
  std::vector<BatchQuery> queries = MakeQueries(40);
  const std::vector<BatchQuery> long_pref = LongPreferenceQueries(8);
  ASSERT_FALSE(long_pref.empty());
  queries.insert(queries.end(), long_pref.begin(), long_pref.end());
  const auto want = PlainResults(queries);

  ServingRouterOptions options;
  options.enable_cache = false;
  // 0.01 us is below one settle: the cap sits at the floor, so any
  // Algorithm-2 rebuild that settles more than 256 vertices degrades.
  options.deadline.fallback_budget_us = 0.01;
  ServingRouter serving(router_, options);
  ASSERT_EQ(serving.CurrentSettleCap(), DeadlineBudget::kMinSettles);

  L2RQueryContext ctx = router_->MakeContext();
  std::vector<Result<RouteResult>> first;
  for (const BatchQuery& q : queries) {
    first.push_back(serving.Route(&ctx, q.s, q.d, q.departure_time));
  }
  size_t degraded = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(first[i].ok(), want[i].ok()) << "slot " << i;
    if (!first[i].ok()) continue;
    if (first[i]->budget_degraded) {
      ++degraded;
      // Degrades land on the stitched path or the fastest fallback, never
      // on a (budget-blown) preference route.
      EXPECT_NE(first[i]->method, RouteMethod::kPreferenceRoute)
          << "slot " << i;
    } else {
      ExpectSameResult(want[i], first[i], i);
    }
  }
  // Every query whose Algorithm 2 run needs more than the floor must
  // have degraded (others may add more: a capped search can exhaust
  // before proving NotFound).
  EXPECT_GE(degraded, long_pref.size());
  EXPECT_EQ(serving.GetStats().budget_degraded, degraded);

  // Degrade decisions are result state, not timing: a re-run reproduces
  // every slot exactly.
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto again = serving.Route(&ctx, queries[i].s, queries[i].d,
                                     queries[i].departure_time);
    ExpectSameResult(first[i], again, i);
  }
}

TEST_F(ServeTest, AllDuplicateBatchesCoalesceByteIdentically) {
  // A batch that is one query repeated: the degenerate commute burst.
  const std::vector<BatchQuery> base = MakeQueries(8);
  ASSERT_GT(base.size(), 1u);
  constexpr size_t kCopies = 24;
  const std::vector<BatchQuery> batch(kCopies, base.front());
  const auto want = PlainResults(batch);

  for (const unsigned threads : {1u, 4u}) {
    ServingRouter serving(router_);  // cache on
    BatchRouter dedup(&serving, BatchRouterOptions{threads, true});
    const auto got = dedup.RouteAll(batch);
    ASSERT_EQ(got.size(), batch.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ExpectSameResult(want[i], got[i], i);
    }
    // One representative routed; every other slot was a copy.
    EXPECT_EQ(dedup.DuplicatesCollapsed(), kCopies - 1);
    EXPECT_EQ(serving.GetStats().queries, 1u);
  }
}

TEST_F(ServeTest, InterleavedDuplicateBatchesCoalesceByteIdentically) {
  // Duplicates spread across the batch (q0 q1 ... qN q0 q1 ...), the
  // shape the scenario suite's duplicate_heavy workload stresses.
  const std::vector<BatchQuery> base = MakeQueries(12);
  ASSERT_GT(base.size(), 4u);
  std::vector<BatchQuery> batch;
  for (int rep = 0; rep < 4; ++rep) {
    batch.insert(batch.end(), base.begin(), base.end());
  }
  const auto want = PlainResults(batch);

  for (const unsigned threads : {1u, 4u}) {
    // Dedup through the full serving stack: batch-level coalescing in
    // front, the cache behind.
    ServingRouter serving(router_);
    BatchRouter dedup(&serving, BatchRouterOptions{threads, true});
    const auto got = dedup.RouteAll(batch);
    ASSERT_EQ(got.size(), batch.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ExpectSameResult(want[i], got[i], i);
    }
    EXPECT_EQ(dedup.DuplicatesCollapsed(), batch.size() - base.size());
  }
}

TEST_F(ServeTest, UncachedServingRouterKeepsBatchResultsByteIdentical) {
  // Batch dedup and cache off: every duplicate slot runs the cold
  // path itself, concurrently at t=4. Results must still be byte-identical
  // to the bare router, and every query counts as a cold computation.
  const std::vector<BatchQuery> base = MakeQueries(12);
  std::vector<BatchQuery> batch;
  for (int rep = 0; rep < 4; ++rep) {
    batch.insert(batch.end(), base.begin(), base.end());
  }
  const auto want = PlainResults(batch);

  for (const unsigned threads : {1u, 4u}) {
    ServingRouterOptions options;
    options.enable_cache = false;
    ServingRouter serving(router_, options);
    BatchRouter batch_router(&serving, BatchRouterOptions{threads, false});
    const auto got = batch_router.RouteAll(batch);
    ASSERT_EQ(got.size(), batch.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ExpectSameResult(want[i], got[i], i);
    }
    const ServingRouter::Stats stats = serving.GetStats();
    EXPECT_EQ(stats.single_flight.leaders, batch.size());
    EXPECT_EQ(stats.single_flight.coalesced, 0u);
  }
}

TEST_F(ServeTest, DegradedRoutesAreCachedConsistently) {
  std::vector<BatchQuery> queries = MakeQueries(40);
  const std::vector<BatchQuery> long_pref = LongPreferenceQueries(8);
  queries.insert(queries.end(), long_pref.begin(), long_pref.end());
  ServingRouterOptions options;
  options.deadline.fallback_budget_us = 0.01;  // the 256-settle floor
  ServingRouter serving(router_, options);
  L2RQueryContext ctx = router_->MakeContext();
  std::vector<Result<RouteResult>> first;
  for (const BatchQuery& q : queries) {
    first.push_back(serving.Route(&ctx, q.s, q.d, q.departure_time));
  }
  EXPECT_GT(serving.GetStats().budget_degraded, 0u);
  // Warm pass: hits return the same (possibly degraded) results the miss
  // pass computed and cached.
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto again = serving.Route(&ctx, queries[i].s, queries[i].d,
                                     queries[i].departure_time);
    ExpectSameResult(first[i], again, i);
  }
}

}  // namespace
}  // namespace l2r
