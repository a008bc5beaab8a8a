#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/l2r.h"
#include "eval/datasets.h"
#include "pref/similarity.h"
#include "routing/dijkstra.h"
#include "serve/serving_router.h"
#include "test_util.h"

namespace l2r {
namespace {

// The end-to-end suite ships in two sizes built from the same source
// (tests/CMakeLists.txt): the default `core_test` binary runs a
// scaled-down world so the whole suite stays in the fast ctest subset,
// while `core_test_full` (compiled with L2R_CORE_TEST_FULL, ctest label
// `slow`) keeps the original paper-sized configuration.
#ifdef L2R_CORE_TEST_FULL
constexpr double kTrajScale = 0.5;  // ~5000 trajs
constexpr double kCityWidthM = 16000;
constexpr double kCityHeightM = 12000;
constexpr size_t kRouteCap = 60;  // RoutesAreValidPaths query budget
constexpr size_t kRouteMin = 30;  // ... and how many must succeed
constexpr size_t kSimCap = 150;   // BeatsFastest... sample budget
constexpr size_t kSimMin = 50;    // ... and minimum usable sample
#else
constexpr double kTrajScale = 0.35;  // ~3500 trajs
constexpr double kCityWidthM = 12000;
constexpr double kCityHeightM = 9000;
constexpr size_t kRouteCap = 40;
constexpr size_t kRouteMin = 20;
constexpr size_t kSimCap = 100;
constexpr size_t kSimMin = 30;
#endif

/// Shared small world: built once for the whole suite (building the full
/// pipeline is the expensive part).
class L2REndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetSpec spec = CityDataset(kTrajScale);
    spec.network.city_width_m = kCityWidthM;
    spec.network.city_height_m = kCityHeightM;
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

  const RoadNetwork& net() const { return dataset_->world.net; }

  static BuiltDataset* dataset_;
  static L2RRouter* router_;
};

BuiltDataset* L2REndToEndTest::dataset_ = nullptr;
L2RRouter* L2REndToEndTest::router_ = nullptr;

TEST_F(L2REndToEndTest, BuildReportIsPopulated) {
  const L2RBuildReport& report = router_->build_report();
  EXPECT_GT(report.total_seconds, 0);
  for (int p = 0; p < kNumTimePeriods; ++p) {
    const auto& rep = report.period[p];
    EXPECT_GT(rep.trajectories, 0u);
    EXPECT_GT(rep.num_regions, 0u);
    EXPECT_GT(rep.num_t_edges, 0u);
    // Transfer's split is reported and fits inside its total.
    EXPECT_GT(rep.transfer_adjacency_nnz, 0u);
    EXPECT_GT(rep.transfer_solver_iterations, 0);
    // Every column's CG solve met its tolerance.
    EXPECT_TRUE(rep.transfer_converged);
    EXPECT_GT(rep.transfer_build_seconds, 0);
    EXPECT_GT(rep.transfer_solve_seconds, 0);
    EXPECT_LE(rep.transfer_build_seconds + rep.transfer_solve_seconds,
              rep.transfer_seconds);
    // Every path score of the plain descent is searched, reused or
    // pruned, and both kinds of skip happen on a real build.
    EXPECT_GT(rep.learn_searches, 0u);
    EXPECT_GT(rep.learn_reused, 0u);
    EXPECT_GT(rep.learn_pruned, 0u);
    EXPECT_EQ(rep.learn_searches + rep.learn_reused + rep.learn_pruned,
              rep.learn_path_scores);
    // The plain descent scores each learned edge's paths once per master
    // and once per non-empty slave.
    const RegionGraph& graph =
        router_->region_graph(static_cast<TimePeriod>(p));
    const PreferenceFeatureSpace& space = router_->feature_space();
    size_t learnable = 0;
    uint64_t paths = 0;
    for (uint32_t e = 0; e < graph.NumTEdges(); ++e) {
      const size_t n = LearnPaths(graph.edge(e)).size();
      learnable += n > 0 ? 1 : 0;
      paths += n;
    }
    ASSERT_LE(learnable, kMaxLearnedTEdges);
    EXPECT_EQ(rep.learn_path_scores,
              paths * (space.num_master() + space.num_slave() - 1));
  }
}

TEST_F(L2REndToEndTest, RoutesAreValidPaths) {
  L2RQueryContext ctx = router_->MakeContext();
  size_t routed = 0;
  for (size_t i = 0; i < dataset_->split.test.size() && routed < kRouteCap;
       ++i) {
    const MatchedTrajectory& t = dataset_->split.test[i];
    if (t.path.size() < 3) continue;
    auto r = router_->Route(&ctx, t.path.front(), t.path.back(),
                            t.departure_time);
    ASSERT_TRUE(r.ok()) << r.status();
    ++routed;
    ASSERT_GE(r->path.vertices.size(), 2u);
    EXPECT_EQ(r->path.vertices.front(), t.path.front());
    EXPECT_EQ(r->path.vertices.back(), t.path.back());
    EXPECT_TRUE(PathIsConnected(net(), r->path.vertices));
    EXPECT_GT(r->path.cost, 0);  // travel time annotated
  }
  EXPECT_GT(routed, kRouteMin);
}

TEST_F(L2REndToEndTest, BeatsFastestOnDriverSimilarity) {
  L2RQueryContext ctx = router_->MakeContext();
  DijkstraSearch fastest(net());
  const EdgeWeights tt_off(net(), CostFeature::kTravelTime,
                           TimePeriod::kOffPeak);
  const EdgeWeights tt_peak(net(), CostFeature::kTravelTime,
                            TimePeriod::kPeak);
  double sum_l2r = 0;
  double sum_fast = 0;
  size_t n = 0;
  for (size_t i = 0; i < dataset_->split.test.size() && n < kSimCap; ++i) {
    const MatchedTrajectory& t = dataset_->split.test[i];
    if (t.path.size() < 5) continue;
    auto r = router_->Route(&ctx, t.path.front(), t.path.back(),
                            t.departure_time);
    const EdgeWeights& tt =
        PeriodOf(t.departure_time) == TimePeriod::kPeak ? tt_peak : tt_off;
    auto f = fastest.ShortestPath(t.path.front(), t.path.back(), tt);
    if (!r.ok() || !f.ok()) continue;
    sum_l2r += PathSimilarity(net(), t.path, r->path.vertices);
    sum_fast += PathSimilarity(net(), t.path, f->vertices);
    ++n;
  }
  ASSERT_GT(n, kSimMin);
  // The headline property: trajectory-based routing matches local drivers
  // better than cost-centric routing (paper Fig. 10).
  EXPECT_GT(sum_l2r / n, sum_fast / n);
}

TEST_F(L2REndToEndTest, SameRegionQueriesUseInnerPathsOrFastest) {
  L2RQueryContext ctx = router_->MakeContext();
  const RegionGraph& g = router_->region_graph(TimePeriod::kOffPeak);
  size_t tried = 0;
  for (RegionId r = 0; r < g.NumRegions() && tried < 20; ++r) {
    const RegionInfo& info = g.region(r);
    if (info.members.size() < 4) continue;
    const VertexId s = info.members.front();
    const VertexId d = info.members.back();
    if (s == d) continue;
    auto routed = router_->Route(&ctx, s, d, /*departure=*/12 * 3600);
    if (!routed.ok()) continue;
    ++tried;
    EXPECT_TRUE(routed->method == RouteMethod::kInnerRegionPopular ||
                routed->method == RouteMethod::kFastestFallback);
  }
  EXPECT_GT(tried, 5u);
}

TEST_F(L2REndToEndTest, DepartureTimeSelectsPeriodGraph) {
  // The same query at peak vs off-peak may route differently, but both
  // must be valid. The departure-time adapter answers exactly what the
  // key form answers for the period that time falls in.
  L2RQueryContext ctx = router_->MakeContext();
  const MatchedTrajectory& t = dataset_->split.test.front();
  const VertexId s = t.path.front();
  const VertexId d = t.path.back();
  auto off = router_->Route(&ctx, s, d, 12 * 3600);
  auto peak = router_->Route(&ctx, s, d, 8 * 3600);
  ASSERT_TRUE(off.ok() && peak.ok());
  EXPECT_TRUE(PathIsConnected(net(), off->path.vertices));
  EXPECT_TRUE(PathIsConnected(net(), peak->path.vertices));
  auto off_key = router_->Route(
      &ctx, QueryKey{s, d, static_cast<uint8_t>(TimePeriod::kOffPeak)});
  auto peak_key = router_->Route(
      &ctx, QueryKey{s, d, static_cast<uint8_t>(TimePeriod::kPeak)});
  ASSERT_TRUE(off_key.ok() && peak_key.ok());
  EXPECT_TRUE(*off == *off_key);
  EXPECT_TRUE(*peak == *peak_key);
}

TEST_F(L2REndToEndTest, InvalidQueriesRejected) {
  L2RQueryContext ctx = router_->MakeContext();
  EXPECT_FALSE(router_->Route(&ctx, 0, 0, 0).ok());
  EXPECT_FALSE(
      router_->Route(&ctx, 0, static_cast<VertexId>(net().NumVertices()), 0)
          .ok());
  EXPECT_FALSE(router_->Route(nullptr, 0, 1, 0).ok());
  // A period with no region graph is rejected like an out-of-range id.
  for (const uint8_t period : {static_cast<uint8_t>(kNumTimePeriods),
                               static_cast<uint8_t>(255)}) {
    EXPECT_EQ(router_->Route(&ctx, QueryKey{0, 1, period}).status().code(),
              StatusCode::kInvalidArgument);
  }
}

/// FNV-1a over what the offline build decides, per served period: every
/// region edge's preference, every B-edge's paths, and the build report's
/// counts (timings excluded).
uint64_t BuildDigest(const L2RRouter& router) {
  uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (int p = 0; p < kNumTimePeriods; ++p) {
    const TimePeriod period = static_cast<TimePeriod>(p);
    for (const auto& pref : router.edge_preferences(period)) {
      mix(pref.has_value() ? 1 + static_cast<uint64_t>(pref->master) * 64 +
                                 static_cast<uint64_t>(pref->slave_index)
                           : 0);
    }
    for (const RegionEdge& e : router.region_graph(period).edges()) {
      if (e.is_t_edge) continue;
      mix(e.b_paths.size());
      for (const std::vector<VertexId>& path : e.b_paths) {
        mix(path.size());
        for (const VertexId v : path) mix(v);
      }
    }
    const L2RBuildReport::PeriodReport& rep = router.build_report().period[p];
    mix(rep.trajectories);
    mix(rep.num_regions);
    mix(rep.num_t_edges);
    mix(rep.num_b_edges);
    mix(std::bit_cast<uint64_t>(rep.transfer_null_rate));
    mix(rep.transfer_adjacency_nnz);
    mix(static_cast<uint64_t>(rep.transfer_solver_iterations));
  }
  return h;
}

TEST_F(L2REndToEndTest, OfflineBuildIsPinned) {
  // Any change to the region graph, to which T-edges are learned and from
  // which paths, or to the transfer and apply steps changes the digest; a
  // change meant to alter the build re-pins it.
#ifdef L2R_CORE_TEST_FULL
  constexpr uint64_t kPinned = 0x32ae20b108e84ca3ULL;
#else
  constexpr uint64_t kPinned = 0x9c58da6dedc092a1ULL;
#endif
  const uint64_t digest = BuildDigest(*router_);
  EXPECT_EQ(digest, kPinned) << std::hex << digest;

  L2ROptions serial;
  serial.num_threads = 1;
  auto rebuilt =
      L2RRouter::Build(&dataset_->world.net, dataset_->split.train, serial);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(BuildDigest(**rebuilt), digest);
}

/// FNV-1a over every field of the routes `service` serves for the
/// fixture's held-out queries, each at an off-peak and a peak departure.
uint64_t ServedRoutesDigest(QueryService& service,
                            const std::vector<MatchedTrajectory>& queries) {
  uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  L2RQueryContext ctx = service.router().MakeContext();
  for (const MatchedTrajectory& t : queries) {
    for (const double departure : {12.0 * 3600, 8.0 * 3600}) {
      auto r = service.Route(&ctx, t.path.front(), t.path.back(), departure);
      mix(r.ok());
      if (!r.ok()) {
        mix(static_cast<uint64_t>(r.status().code()));
        continue;
      }
      mix(r->path.vertices.size());
      for (const VertexId v : r->path.vertices) mix(v);
      mix(std::bit_cast<uint64_t>(r->path.cost));
      mix(static_cast<uint64_t>(r->method));
      mix(r->budget_degraded);
    }
  }
  return h;
}

/// The router itself as a QueryService (the bare cold path), optionally
/// under a preference settle cap (0 = none). Counts the routes that the
/// cap degraded to their stitched region path.
class BareService final : public QueryService {
 public:
  explicit BareService(const L2RRouter* router, size_t settle_cap = 0)
      : router_(router), settle_cap_(settle_cap) {}
  const L2RRouter& router() const override { return *router_; }
  Result<RouteResult> Route(L2RQueryContext* ctx, VertexId s, VertexId d,
                            double departure_time) override {
    auto r = router_->Route(ctx, QueryKeyOf(s, d, departure_time),
                            settle_cap_);
    if (r.ok() && r->budget_degraded &&
        r->method == RouteMethod::kRegionGraph) {
      ++degraded_to_stitch_;
    }
    return r;
  }
  size_t degraded_to_stitch() const { return degraded_to_stitch_; }

 private:
  const L2RRouter* router_;
  size_t settle_cap_;
  size_t degraded_to_stitch_ = 0;
};

TEST_F(L2REndToEndTest, ServedRoutesArePinned) {
  // Any change to what a query returns changes the digest: the stitcher,
  // the preference fallback, or the serving layer around them. A change
  // meant to alter routes re-pins it.
#ifdef L2R_CORE_TEST_FULL
  constexpr uint64_t kPinned = 0xf9b58ca30c62bf75ULL;
#else
  constexpr uint64_t kPinned = 0x5bb1c7735dd8dce5ULL;
#endif
  const std::vector<MatchedTrajectory>& queries = dataset_->split.test;
  BareService bare(router_);
  const uint64_t digest = ServedRoutesDigest(bare, queries);
  EXPECT_EQ(digest, kPinned) << std::hex << digest;

  // A ServingRouter answers the same bytes cold and from its cache.
  ServingRouter serving(router_);
  EXPECT_EQ(ServedRoutesDigest(serving, queries), digest);
  EXPECT_EQ(ServedRoutesDigest(serving, queries), digest);
  EXPECT_GT(serving.GetStats().cache.hits, 0u);
}

TEST_F(L2REndToEndTest, CappedRoutesArePinned) {
  // Under a preference settle cap some rebuilds blow the budget and
  // degrade to the stitched region path or the fastest fallback; the
  // digest pins which, and what they return. Cap 64 degrades enough
  // routes to the stitched path that its construction is exercised.
#ifdef L2R_CORE_TEST_FULL
  constexpr uint64_t kPinned16 = 0xd7cabe45cc76e429ULL;
  constexpr uint64_t kPinned64 = 0x7e16569af1674d87ULL;
#else
  constexpr uint64_t kPinned16 = 0x5c83fe8446ef2c20ULL;
  constexpr uint64_t kPinned64 = 0xd80d352df739a07bULL;
#endif
  const std::vector<MatchedTrajectory>& queries = dataset_->split.test;
  BareService cap16(router_, 16);
  const uint64_t digest16 = ServedRoutesDigest(cap16, queries);
  EXPECT_EQ(digest16, kPinned16) << std::hex << digest16;
  BareService cap64(router_, 64);
  const uint64_t digest64 = ServedRoutesDigest(cap64, queries);
  EXPECT_EQ(digest64, kPinned64) << std::hex << digest64;
  EXPECT_GT(cap64.degraded_to_stitch(), 0u);
}

TEST_F(L2REndToEndTest, RouteSettlesPerMethodArePinned) {
  // Search work (settled vertices, both kernels) of the uncapped cold
  // path over the held-out queries at both periods, summed by the method
  // that answered. Settle counts are deterministic, so each total is exact.
  // A preference route pays for its Algorithm 2 search only: the
  // stitch-or-apply gate is decided before any connector search, so a
  // stitch the gate rejects costs no settles.
#ifdef L2R_CORE_TEST_FULL
  constexpr uint64_t kPinned[4] = {0, 5149, 40672, 1652};
#else
  constexpr uint64_t kPinned[4] = {0, 2597, 18634, 1702};
#endif
  L2RQueryContext ctx = router_->MakeContext();
  uint64_t settles[4] = {0, 0, 0, 0};
  for (const MatchedTrajectory& t : dataset_->split.test) {
    for (const double departure : {12.0 * 3600, 8.0 * 3600}) {
      const uint64_t before = ctx.TotalSettles();
      auto r = router_->Route(&ctx, t.path.front(), t.path.back(), departure);
      ASSERT_TRUE(r.ok()) << r.status();
      settles[static_cast<int>(r->method)] += ctx.TotalSettles() - before;
    }
  }
  for (int m = 0; m < 4; ++m) {
    EXPECT_EQ(settles[m], kPinned[m]) << "method " << m;
  }
}

TEST_F(L2REndToEndTest, EdgePreferencesExposed) {
  const auto& prefs = router_->edge_preferences(TimePeriod::kOffPeak);
  const RegionGraph& g = router_->region_graph(TimePeriod::kOffPeak);
  EXPECT_EQ(prefs.size(), g.NumEdges());
  size_t with_pref = 0;
  for (const auto& p : prefs) with_pref += p.has_value();
  EXPECT_GT(with_pref, g.NumEdges() / 2);
}

TEST(L2RBuildTest, RejectsBadInputs) {
  L2ROptions options;
  EXPECT_FALSE(L2RRouter::Build(nullptr, {}, options).ok());
  const RoadNetwork net = testing::MakeGrid(3, 3, 100);
  EXPECT_FALSE(L2RRouter::Build(&net, {}, options).ok());
}

}  // namespace
}  // namespace l2r
