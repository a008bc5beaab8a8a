// Online serving throughput of the batch query engine: drives BatchRouter
// on the generated city with a mixed workload (intra-region, cross-region
// and fallback queries), reports QPS plus per-query latency percentiles
// and multi-core scaling (t = 1, 2, 4, 8), measures the serving-cache
// layer on a skewed repeated-query workload (cache off vs on, hit rate,
// evictions, budget degrades), runs the named scenario suite
// (bench/workloads.h: uniform / zipf / commute_burst / adversarial_cold /
// duplicate_heavy) with batch-level dedup off vs on plus a
// single-flight determinism ladder at t = 1/2/4/8, replays the streaming
// arrival suite (bench/workloads.h: poisson / bursty inter-arrival
// jitter) through StreamRouter — deadline-batched admission over the
// full serving stack, reporting QPS, batch-size histogram and queue-wait
// percentiles — and writes BENCH_query_throughput.json so the perf
// trajectory accumulates across PRs (see README "Benchmarking" for the
// schema).
//
// Two serving-robustness blocks: a batch-deadline sweep
// ("deadline_sweep": queue-wait/throughput tradeoff across deadlines, the
// data the overload controller's min/max deadline bounds come from) and
// an offered-load overload sweep ("overload_sweep": OverloadController +
// per-class shedding at 0.5x-10x measured capacity, reporting goodput,
// shed split and interactive drain-wait percentiles).
//
// PR 8 adds the dynamic-world block ("dynamic_world"): live update
// batches through world/WorldUpdateChannel with incremental repair
// (world/RouteRepairer) across three scenarios — incident_injection
// (cumulative waves of mid-route slowdowns tracing the staleness-vs-
// recompute-cost curve), rush_hour_transition (period flip plus arterial
// congestion) and rolling_closures (a moving work zone of closures and
// reopenings). After every batch the repairer sweeps the invalidated
// entries, and every served result is byte-compared against a cold
// recompute on the new epoch (the no-stale-serve gate); each scenario
// ends by restoring the world exactly, checked against the epoch-0
// bytes. These scenarios run LAST because they mutate the until-then
// frozen world.
//
// PR 10 adds the scale-out block ("scale_out": the full serving stack —
// route cache with its seqlock hot read path + stitch memo +
// single-flight — at t = 1/2/4/8 batch threads, each rung byte-compared
// against the bare-router reference, plus a StreamRouter drain-thread
// audit at 1/2/4 overlapping drains with the same byte-identity gate;
// L2R_BENCH_SCALE_OUT=0 skips it) and a checksum-only trusted-image
// open timing per scale-ladder rung (SnapshotOpenMode::kChecksumOnly,
// skipping the O(n+m) structural pass).
//
// Environment knobs: L2R_BENCH_SCALE (default 0.3), L2R_BENCH_QUERIES
// (default 1200), L2R_BENCH_OUT (default BENCH_query_throughput.json),
// L2R_BENCH_CACHE (default 1; 0 skips the cache-on serving pass),
// L2R_BENCH_BUDGET_US (default 25; 0 disables the fallback budget),
// L2R_BENCH_STREAM (default 1; 0 skips the streaming pass),
// L2R_BENCH_STREAM_GAP_US (default 50; mean inter-arrival gap),
// L2R_BENCH_DEADLINE_SWEEP / L2R_BENCH_OVERLOAD (default 1; 0 skips the
// corresponding serving-robustness block),
// L2R_BENCH_DYNAMIC (default 1; 0 skips the dynamic-world block, which
// also needs the cache on).

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/timer.h"
#include "core/batch_router.h"
#include "roadnet/generator.h"
#include "roadnet/io.h"
#include "roadnet/snapshot.h"
#include "roadnet/weights.h"
#include "routing/dijkstra.h"
#include "routing/goal_potential.h"
#include "routing/preference_dijkstra.h"
#include "serve/overload_controller.h"
#include "serve/serving_router.h"
#include "serve/stream_router.h"
#include "workloads.h"
#include "world/route_repairer.h"
#include "world/update_channel.h"

using namespace l2r;

namespace {

size_t ThroughputQueries() {
  const char* env = std::getenv("L2R_BENCH_QUERIES");
  return env != nullptr ? static_cast<size_t>(std::atoll(env)) : 1200;
}

std::string OutPath() {
  const char* env = std::getenv("L2R_BENCH_OUT");
  return env != nullptr ? env : "BENCH_query_throughput.json";
}

bool CacheEnabled() {
  const char* env = std::getenv("L2R_BENCH_CACHE");
  return env == nullptr || std::atoi(env) != 0;
}

double FallbackBudgetUs() {
  const char* env = std::getenv("L2R_BENCH_BUDGET_US");
  return env != nullptr ? std::atof(env) : 25.0;
}

bool StreamEnabled() {
  const char* env = std::getenv("L2R_BENCH_STREAM");
  return env == nullptr || std::atoi(env) != 0;
}

double StreamGapUs() {
  const char* env = std::getenv("L2R_BENCH_STREAM_GAP_US");
  const double v = env != nullptr ? std::atof(env) : 50.0;
  return v > 0 ? v : 50.0;
}

bool DeadlineSweepEnabled() {
  const char* env = std::getenv("L2R_BENCH_DEADLINE_SWEEP");
  return env == nullptr || std::atoi(env) != 0;
}

bool OverloadSweepEnabled() {
  const char* env = std::getenv("L2R_BENCH_OVERLOAD");
  return env == nullptr || std::atoi(env) != 0;
}

bool DynamicWorldEnabled() {
  const char* env = std::getenv("L2R_BENCH_DYNAMIC");
  return env == nullptr || std::atoi(env) != 0;
}

bool ScaleLadderEnabled() {
  const char* env = std::getenv("L2R_BENCH_SCALE_LADDER");
  return env == nullptr || std::atoi(env) != 0;
}

bool ScaleOutEnabled() {
  const char* env = std::getenv("L2R_BENCH_SCALE_OUT");
  return env == nullptr || std::atoi(env) != 0;
}

/// Generator scales for the metro ladder, smallest first
/// (L2R_BENCH_LADDER_SCALES, comma-separated, default "0.3,1.0,3.0").
std::vector<double> LadderScales() {
  const char* env = std::getenv("L2R_BENCH_LADDER_SCALES");
  const std::string spec = env != nullptr ? env : "0.3,1.0,3.0";
  std::vector<double> scales;
  const char* p = spec.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p) break;
    if (v > 0) scales.push_back(v);
    p = *end == ',' ? end + 1 : end;
  }
  return scales;
}

/// One rung of the metro-scale ladder (see the snapshot format in
/// roadnet/snapshot.h): world size, steady-state footprint, cold-start
/// timings CSV-vs-mmap, and plain Dijkstra QPS on the generated world.
struct LadderPoint {
  double scale = 0;
  size_t num_vertices = 0;
  size_t num_edges = 0;
  size_t world_bytes = 0;     ///< steady-state CSR footprint
  size_t snapshot_bytes = 0;  ///< on-disk snapshot image
  double gen_seconds = 0;
  double csv_cold_start_seconds = 0;
  double mmap_cold_start_seconds = 0;
  /// Trusted-image open (SnapshotOpenMode::kChecksumOnly): header +
  /// checksum + section bounds, no O(n+m) structural pass.
  double checksum_only_open_seconds = 0;
  double cold_start_speedup = 0;
  bool zero_copy = false;
  size_t queries = 0;
  double qps = 0;
  double mean_query_us = 0;
  /// The same queries goal-directed (routing/goal_potential.h): landmark
  /// tables for the travel-time array, then mean time and settles per
  /// query for the fastest path and for Algorithm 2 under the highway
  /// slave preference, without (`plain_`) and with (`goal_`) the potential.
  double landmark_build_seconds = 0;
  size_t landmark_bytes = 0;
  double plain_mean_settles = 0;
  double goal_mean_query_us = 0;
  double goal_mean_settles = 0;
  double plain_pref_mean_query_us = 0;
  double plain_pref_mean_settles = 0;
  double goal_pref_mean_query_us = 0;
  double goal_pref_mean_settles = 0;
};

/// True when the two result slots are byte-equivalent routing outcomes.
bool SameResult(const Result<RouteResult>& a, const Result<RouteResult>& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) return a.status().code() == b.status().code();
  return *a == *b;
}

struct RunStats {
  unsigned threads = 0;
  double qps = 0;
  double best_batch_seconds = 0;
};

/// One rung of the scale-out serving ladder: the full serving stack
/// (route cache + seqlock hot path + stitch memo + single-flight) at a
/// fixed batch thread count, byte-compared against the bare-router
/// reference.
struct ScaleOutRun {
  unsigned threads = 0;
  double qps = 0;
  bool identical = true;  ///< every slot byte-matched the reference
};

/// One StreamRouter drain-thread audit point: N overlapping batcher
/// threads draining the same query stream, again gated on byte identity.
struct DrainAudit {
  unsigned drains = 0;
  double qps = 0;
  bool identical = true;   ///< every slot byte-matched the reference
  uint64_t hits = 0;       ///< route-cache hits during the replay
  uint64_t hot_hits = 0;   ///< subset served on the seqlock hot path
  uint64_t batches = 0;
};

/// Per-scenario measurements (bench/workloads.h suite).
struct ScenarioReport {
  std::string name;
  size_t slots = 0;
  size_t distinct_used = 0;
  double duplicate_fraction = 0;
  double off_qps = 0;
  double off_mean_us = 0;
  double on_qps = 0;
  double on_mean_us = 0;
  uint64_t unique_routed = 0;
  uint64_t duplicates_collapsed = 0;
  uint64_t sf_leaders = 0;
  uint64_t sf_coalesced = 0;
  bool coalesced_identical = true;  ///< dedup-on results == dedup-off
  bool deterministic = true;        ///< single-flight ladder == reference
};

struct LatencySummary {
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// Per-arrival-schedule streaming measurements (StreamRouter replay).
struct StreamReport {
  std::string name;
  size_t slots = 0;
  double mean_gap_us = 0;  ///< realized mean of the generated schedule
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t batches = 0;
  uint64_t closed_by_size = 0;
  uint64_t closed_by_deadline = 0;
  uint64_t closed_by_shutdown = 0;
  double qps = 0;
  double mean_batch = 0;
  LatencySummary queue_wait_us;
  std::vector<std::pair<size_t, uint64_t>> batch_size_hist;
};

/// One point of the batch-deadline sweep (streaming replay at a fixed
/// arrival schedule, varying only batch_deadline_us).
struct DeadlinePoint {
  int64_t deadline_us = 0;
  double qps = 0;
  double mean_batch = 0;
  uint64_t closed_by_size = 0;
  uint64_t closed_by_deadline = 0;
  LatencySummary queue_wait_us;
};

/// One offered-load point of the overload sweep.
struct OverloadPoint {
  double multiplier = 0;
  size_t slots = 0;
  double offered_qps = 0;  ///< submitted / elapsed (realized offered load)
  double goodput_qps = 0;  ///< completed / elapsed
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t submitted_by_class[kNumQueryClasses] = {0, 0};
  uint64_t shed_by_class[kNumQueryClasses] = {0, 0};
  LatencySummary interactive_drain_wait_us;  ///< served interactive only
  OverloadController::Stats controller;
  bool conserved = false;  ///< submitted == completed + shed
  bool shed_status_ok = true;  ///< every shed result was ResourceExhausted
};

/// One update batch of a dynamic-world scenario: how much of the warm
/// cache the batch invalidated (staleness) against the cost of the
/// incremental repair relative to a wholesale recompute, plus the
/// no-stale-serve audit of the post-repair serve pass.
struct DynamicPoint {
  const char* kind = "inject";  ///< inject | transition | wave | restore
  uint64_t epoch = 0;
  size_t edges_touched = 0;
  size_t cached_entries = 0;  ///< warm entries before the batch
  size_t invalidated = 0;     ///< entries swept stale (repair candidates)
  double staleness = 0;       ///< invalidated / cached_entries
  size_t repaired = 0;        ///< converged in a bounded repair round
  size_t full_recompute = 0;  ///< needed the serving-cap round
  size_t unroutable = 0;
  double convergence = 0;
  uint64_t repair_settles = 0;     ///< settled vertices the repair spent
  uint64_t wholesale_settles = 0;  ///< recomputing the whole pool cold
  double repair_cost_ratio = 0;    ///< repair / wholesale settles
  uint64_t stale_serves = 0;  ///< post-repair serves != cold recompute
  uint64_t serve_misses = 0;  ///< cache misses in the post-repair pass
};

/// One named dynamic-world scenario (a sequence of update batches).
struct DynamicReport {
  std::string name;
  std::vector<DynamicPoint> points;
  bool epochs_monotone = true;
  bool restored_identical = false;  ///< epoch-0 bytes back after restore
  uint64_t stale_serves = 0;        ///< total across points (gate: 0)
};

LatencySummary Summarize(const std::vector<double>& latency_us) {
  LatencySummary s;
  RunningStats acc;
  for (const double v : latency_us) acc.Add(v);
  s.mean = acc.mean();
  s.p50 = Percentile(latency_us, 0.50);
  s.p95 = Percentile(latency_us, 0.95);
  s.p99 = Percentile(latency_us, 0.99);
  return s;
}

/// Sequential per-query latency of `route(i)` over `order`. No warm-up
/// pass: the serving comparison measures cold caches by design, and a
/// warm-up through the serving router would skew its hit/miss counters
/// away from the declared workload. (The dataset pages are already hot
/// from the plain latency pass that runs first.)
template <typename RouteFn>
LatencySummary MeasureLatency(const std::vector<size_t>& order,
                              const RouteFn& route) {
  std::vector<double> latency_us(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    Timer t;
    (void)route(order[i]);
    latency_us[i] = t.ElapsedSeconds() * 1e6;
  }
  return Summarize(latency_us);
}

}  // namespace

int main() {
  const double scale = bench::BenchScale();
  const size_t want_queries = ThroughputQueries();
  std::printf("=== Query throughput (scale %.2f, %zu queries) ===\n", scale,
              want_queries);

  DatasetSpec spec = CityDataset(scale);
  auto built = BuildDataset(spec);
  if (!built.ok()) {
    std::fprintf(stderr, "dataset: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const RoadNetwork& net = built->world.net;
  std::printf("[world] %zu vertices, %zu edges, %zu train / %zu test\n",
              net.NumVertices(), net.NumEdges(), built->split.train.size(),
              built->split.test.size());

  L2ROptions options;
  auto router = L2RRouter::Build(&net, built->split.train, options);
  if (!router.ok()) {
    std::fprintf(stderr, "build: %s\n", router.status().ToString().c_str());
    return 1;
  }
  const L2RRouter& l2r = **router;

  // --- Workload: held-out trajectory queries (mostly region-covered)
  // topped up with uniform random pairs (fallback / out-region coverage).
  std::vector<BatchQuery> queries;
  std::vector<QueryCase> cases =
      BuildQueries(net, built->split.test, want_queries);
  size_t mix[kNumRegionCategories] = {0, 0, 0};
  for (const QueryCase& q : cases) {
    queries.push_back(BatchQuery{q.s, q.d, q.departure_time});
    ++mix[static_cast<int>(CategorizeQuery(l2r, q))];
  }
  Rng rng(127);
  while (queries.size() < want_queries) {
    const VertexId s = static_cast<VertexId>(rng.Index(net.NumVertices()));
    const VertexId d = static_cast<VertexId>(rng.Index(net.NumVertices()));
    if (s == d) continue;
    const double departure = rng.Bernoulli(0.5) ? 8 * 3600 : 13 * 3600;
    QueryCase q;
    q.s = s;
    q.d = d;
    q.departure_time = departure;
    ++mix[static_cast<int>(CategorizeQuery(l2r, q))];
    queries.push_back(BatchQuery{s, d, departure});
  }
  std::printf("[mix] in-region %zu, in/out %zu, out-region %zu\n", mix[0],
              mix[1], mix[2]);

  // --- Per-query latency: sequential pass, one reused context.
  std::vector<double> latency_us(queries.size());
  size_t failures = 0;
  size_t method_counts[4] = {0, 0, 0, 0};
  {
    L2RQueryContext ctx = l2r.MakeContext();
    // Warm-up pass so first-touch page faults don't skew percentiles.
    for (size_t i = 0; i < queries.size() && i < 64; ++i) {
      (void)l2r.Route(&ctx, queries[i].s, queries[i].d,
                      queries[i].departure_time);
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      Timer t;
      auto r = l2r.Route(&ctx, queries[i].s, queries[i].d,
                         queries[i].departure_time);
      latency_us[i] = t.ElapsedSeconds() * 1e6;
      if (r.ok()) {
        ++method_counts[static_cast<int>(r->method)];
      } else {
        ++failures;
      }
    }
  }
  const LatencySummary lat = Summarize(latency_us);
  std::printf(
      "[latency] mean %.1f us, p50 %.1f us, p95 %.1f us, p99 %.1f us "
      "(%zu failures)\n",
      lat.mean, lat.p50, lat.p95, lat.p99, failures);

  // --- Serving layer: a skewed repeated-query workload (popular OD pairs
  // dominate, as production traffic does), measured without and with the
  // route cache + stitch memo + fallback budget.
  const size_t distinct = queries.size();
  const size_t hot = distinct < 10 ? 1 : distinct / 10;
  std::vector<size_t> workload;
  {
    Rng srng(911);
    workload.reserve(3 * distinct);
    for (size_t i = 0; i < 3 * distinct; ++i) {
      // 80% of traffic lands on the hot 10% of distinct queries.
      workload.push_back(srng.Bernoulli(0.8) ? srng.Index(hot)
                                             : srng.Index(distinct));
    }
  }
  const bool cache_enabled = CacheEnabled();
  const double budget_us = FallbackBudgetUs();
  // The cache-off baseline runs through a ServingRouter with the cache
  // and memo disabled but the SAME fallback budget, so the off-vs-on
  // delta isolates the caching layers instead of conflating them with
  // budget-degraded (cheaper) routes.
  LatencySummary serve_off;
  uint64_t off_degraded = 0;
  {
    ServingRouterOptions off_options;
    off_options.enable_route_cache = false;
    off_options.enable_stitch_memo = false;
    off_options.deadline.fallback_budget_us = budget_us;
    ServingRouter off_serving(&l2r, off_options);
    L2RQueryContext ctx = l2r.MakeContext();
    serve_off = MeasureLatency(workload, [&](size_t i) {
      return off_serving.Route(&ctx, queries[i].s, queries[i].d,
                               queries[i].departure_time);
    });
    off_degraded = off_serving.GetStats().budget_degraded;
  }
  std::printf(
      "[serve cache-off] %zu queries (%zu distinct): mean %.1f us, "
      "p50 %.1f us, p95 %.1f us, p99 %.1f us, %llu budget degrades\n",
      workload.size(), distinct, serve_off.mean, serve_off.p50, serve_off.p95,
      serve_off.p99, static_cast<unsigned long long>(off_degraded));

  LatencySummary serve_on;
  ServingRouter::Stats serve_stats;
  double hit_rate = 0;
  if (cache_enabled) {
    ServingRouterOptions serving_options;
    serving_options.deadline.fallback_budget_us = budget_us;
    ServingRouter serving(&l2r, serving_options);
    L2RQueryContext ctx = l2r.MakeContext();
    serve_on = MeasureLatency(workload, [&](size_t i) {
      return serving.Route(&ctx, queries[i].s, queries[i].d,
                           queries[i].departure_time);
    });
    serve_stats = serving.GetStats();
    const uint64_t lookups = serve_stats.cache.hits + serve_stats.cache.misses;
    hit_rate = lookups == 0
                   ? 0
                   : static_cast<double>(serve_stats.cache.hits) /
                         static_cast<double>(lookups);
    std::printf(
        "[serve cache-on] mean %.1f us, p50 %.1f us, p95 %.1f us, "
        "p99 %.1f us; hit rate %.3f (%llu hits / %llu misses), "
        "%llu evictions, %llu budget degrades (budget %.1f us)\n",
        serve_on.mean, serve_on.p50, serve_on.p95, serve_on.p99, hit_rate,
        static_cast<unsigned long long>(serve_stats.cache.hits),
        static_cast<unsigned long long>(serve_stats.cache.misses),
        static_cast<unsigned long long>(serve_stats.cache.evictions),
        static_cast<unsigned long long>(serve_stats.budget_degraded),
        budget_us);
  } else {
    std::printf("[serve cache-on] skipped (L2R_BENCH_CACHE=0)\n");
  }

  // --- Batch throughput across thread counts (multi-core QPS scaling);
  // every run is checked against the t=1 reference, so the determinism
  // contract is verified across the whole ladder.
  const unsigned kThreadCounts[] = {1, 2, 4, 8};
  std::vector<RunStats> runs;
  std::vector<Result<RouteResult>> reference;
  bool deterministic = true;
  for (const unsigned threads : kThreadCounts) {
    BatchRouter batch(&l2r, threads);
    auto warm = batch.RouteAll(queries);  // contexts created here
    double best = kInfCost;
    for (int rep = 0; rep < 3; ++rep) {
      Timer t;
      auto out = batch.RouteAll(queries);
      best = std::min(best, t.ElapsedSeconds());
      if (reference.empty()) {
        reference = std::move(out);
      } else {
        for (size_t i = 0; i < out.size(); ++i) {
          if (!SameResult(reference[i], out[i])) {
            deterministic = false;
            break;
          }
        }
      }
    }
    RunStats rs;
    rs.threads = threads;
    rs.best_batch_seconds = best;
    rs.qps = static_cast<double>(queries.size()) / best;
    runs.push_back(rs);
    std::printf(
        "[batch t=%u] %.0f qps (best of 3, %.3f s/batch, %zu contexts)\n",
        threads, rs.qps, best, batch.ContextsCreated());
    (void)warm;
  }
  std::printf("[determinism] results across thread counts: %s\n",
              deterministic ? "identical" : "DIVERGED");

  // --- Scenario workload suite: named traffic shapes over the distinct
  // query pool. Each scenario is measured with batch-level dedup off and
  // on (bare router, t = 1, so the delta is pure dedup), cross-checked
  // for byte-identical results, and then raced through the single-flight
  // serving layer (cache and memo off, so every slot takes the coalescing
  // path) at t = 1/2/4/8 against the dedup-off reference.
  const size_t scenario_slots = 2 * distinct;
  const std::vector<bench::Scenario> scenarios =
      bench::BuildScenarios(distinct, scenario_slots, 4242);
  std::vector<ScenarioReport> scenario_reports;
  bool scenarios_ok = true;
  for (const bench::Scenario& sc : scenarios) {
    ScenarioReport rep;
    rep.name = sc.name;
    rep.slots = sc.order.size();
    rep.duplicate_fraction = bench::DuplicateFraction(sc.order);
    rep.distinct_used =
        std::unordered_set<size_t>(sc.order.begin(), sc.order.end()).size();
    std::vector<BatchQuery> sq;
    sq.reserve(sc.order.size());
    for (const size_t index : sc.order) sq.push_back(queries[index]);

    // Dedup off: reference results + timing.
    std::vector<Result<RouteResult>> sc_reference;
    {
      BatchRouter batch(&l2r, BatchRouterOptions{1, false});
      sc_reference = batch.RouteAll(sq);  // warm-up + reference
      double best = kInfCost;
      for (int rep_i = 0; rep_i < 2; ++rep_i) {
        Timer t;
        (void)batch.RouteAll(sq);
        best = std::min(best, t.ElapsedSeconds());
      }
      rep.off_qps = static_cast<double>(sq.size()) / best;
      rep.off_mean_us = best * 1e6 / static_cast<double>(sq.size());
    }

    // Dedup on: identical results, fewer routed queries.
    {
      BatchRouter batch(&l2r, BatchRouterOptions{1, true});
      const auto got = batch.RouteAll(sq);
      for (size_t i = 0; i < got.size(); ++i) {
        if (!SameResult(sc_reference[i], got[i])) {
          rep.coalesced_identical = false;
          break;
        }
      }
      rep.duplicates_collapsed = batch.DuplicatesCollapsed();
      rep.unique_routed = sq.size() - rep.duplicates_collapsed;
      double best = kInfCost;
      for (int rep_i = 0; rep_i < 2; ++rep_i) {
        Timer t;
        (void)batch.RouteAll(sq);
        best = std::min(best, t.ElapsedSeconds());
      }
      rep.on_qps = static_cast<double>(sq.size()) / best;
      rep.on_mean_us = best * 1e6 / static_cast<double>(sq.size());
    }

    // Single-flight determinism ladder: every duplicate is a coalescing
    // opportunity (no cache to soak them up), results must match the
    // bare-router reference at every thread count.
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      ServingRouterOptions sf_options;
      sf_options.enable_route_cache = false;
      sf_options.enable_stitch_memo = false;
      ServingRouter sf_serving(&l2r, sf_options);
      BatchRouter batch(&sf_serving, BatchRouterOptions{threads, false});
      const auto got = batch.RouteAll(sq);
      for (size_t i = 0; i < got.size(); ++i) {
        if (!SameResult(sc_reference[i], got[i])) {
          rep.deterministic = false;
          break;
        }
      }
      const SingleFlight::Stats sf = sf_serving.GetStats().single_flight;
      rep.sf_leaders += sf.leaders;
      rep.sf_coalesced += sf.coalesced;
    }

    scenarios_ok =
        scenarios_ok && rep.coalesced_identical && rep.deterministic;
    std::printf(
        "[scenario %-16s] %zu slots (%zu distinct, dup %.2f): "
        "dedup off %.0f qps / on %.0f qps (%llu collapsed), "
        "coalesced %s, ladder %s\n",
        sc.name.c_str(), rep.slots, rep.distinct_used,
        rep.duplicate_fraction, rep.off_qps, rep.on_qps,
        static_cast<unsigned long long>(rep.duplicates_collapsed),
        rep.coalesced_identical ? "identical" : "DIVERGED",
        rep.deterministic ? "identical" : "DIVERGED");
    scenario_reports.push_back(rep);
  }

  // --- Streaming front-end: replay the arrival suite (Poisson and
  // bursty jitter over a Zipf-skewed query order) through StreamRouter,
  // which forms batches by deadline/size and drains them through the
  // full serving stack (batch dedup + cache + single-flight + budget).
  // Queue waits are reported from the StreamResult close-time stamps,
  // batch shapes from the router's histogram.
  constexpr size_t kStreamMaxBatch = 64;
  constexpr int64_t kStreamDeadlineUs = 1000;
  const bool stream_enabled = StreamEnabled();
  const double stream_gap_us = StreamGapUs();
  std::vector<StreamReport> stream_reports;
  bool streaming_ok = true;
  if (stream_enabled) {
    const size_t stream_slots = 2 * distinct;
    const bench::Scenario stream_order =
        bench::ZipfScenario(distinct, stream_slots, 727);
    for (const bench::ArrivalSchedule& schedule :
         bench::BuildArrivalSchedules(stream_slots, stream_gap_us, 727)) {
      StreamReport rep;
      rep.name = schedule.name;
      rep.slots = stream_slots;
      rep.mean_gap_us = bench::MeanGapUs(schedule);

      ServingRouterOptions serving_options;
      serving_options.deadline.fallback_budget_us = budget_us;
      if (!cache_enabled) {
        serving_options.enable_route_cache = false;
        serving_options.enable_stitch_memo = false;
      }
      ServingRouter serving(&l2r, serving_options);
      StreamOptions stream_options;
      stream_options.max_batch = kStreamMaxBatch;
      stream_options.batch_deadline_us = kStreamDeadlineUs;
      stream_options.dedup = true;
      StreamRouter stream(&serving, stream_options);

      // Callbacks run on the batcher thread only; each writes its own
      // slot, and the acquire on `completed` below orders the reads.
      std::vector<double> waits(stream_slots, 0.0);
      Timer wall;
      int64_t due_us = 0;
      for (size_t i = 0; i < stream_slots; ++i) {
        due_us += schedule.gap_us[i];
        // Pace to the slot's arrival time: gaps are tens of µs, far
        // below what a sleep could honor. Yield inside the spin so the
        // batcher/drain thread still runs on a 1-core container —
        // otherwise the queue-wait tail measures scheduler starvation,
        // not batch formation.
        while (wall.ElapsedSeconds() * 1e6 < static_cast<double>(due_us)) {
          std::this_thread::yield();
        }
        stream.Submit(queries[stream_order.order[i]],
                      [&waits, i](const StreamResult& r) {
                        waits[i] = static_cast<double>(r.queue_wait_us);
                      });
      }
      while (stream.GetStats().completed < stream_slots) {
        std::this_thread::yield();
      }
      const double elapsed = wall.ElapsedSeconds();

      const StreamRouter::Stats stats = stream.GetStats();
      rep.submitted = stats.submitted;
      rep.completed = stats.completed;
      rep.batches = stats.batches;
      rep.closed_by_size = stats.closed_by_size;
      rep.closed_by_deadline = stats.closed_by_deadline;
      rep.closed_by_shutdown = stats.closed_by_shutdown;
      rep.qps = static_cast<double>(stream_slots) / elapsed;
      rep.mean_batch = stats.batches == 0
                           ? 0
                           : static_cast<double>(stream_slots) /
                                 static_cast<double>(stats.batches);
      rep.queue_wait_us = Summarize(waits);
      rep.batch_size_hist = stats.batch_size_hist;
      streaming_ok = streaming_ok && rep.submitted == stream_slots &&
                     rep.completed == stream_slots;
      std::printf(
          "[stream %-8s] %zu slots (mean gap %.1f us): %.0f qps, "
          "%llu batches (mean %.1f; %llu size / %llu deadline), "
          "queue wait p50 %.1f / p95 %.1f / p99 %.1f us\n",
          rep.name.c_str(), rep.slots, rep.mean_gap_us, rep.qps,
          static_cast<unsigned long long>(rep.batches), rep.mean_batch,
          static_cast<unsigned long long>(rep.closed_by_size),
          static_cast<unsigned long long>(rep.closed_by_deadline),
          rep.queue_wait_us.p50, rep.queue_wait_us.p95,
          rep.queue_wait_us.p99);
      stream_reports.push_back(rep);
    }
  } else {
    std::printf("[stream] skipped (L2R_BENCH_STREAM=0)\n");
  }

  // --- Batch-deadline sweep: the same arrival schedule replayed through
  // StreamRouter at a ladder of batch deadlines. This is the latency /
  // throughput tradeoff the overload controller walks at runtime — the
  // sweep is where its min/max_batch_deadline_us bounds come from.
  std::vector<DeadlinePoint> deadline_points;
  const bool deadline_sweep_enabled = DeadlineSweepEnabled();
  if (deadline_sweep_enabled) {
    const size_t sweep_slots = 2 * distinct;
    const bench::Scenario sweep_order =
        bench::ZipfScenario(distinct, sweep_slots, 929);
    const bench::ArrivalSchedule sweep_schedule =
        bench::PoissonArrivals(sweep_slots, stream_gap_us, 929);
    for (const int64_t deadline_us : {100, 250, 500, 1000, 2000}) {
      ServingRouterOptions serving_options;
      serving_options.deadline.fallback_budget_us = budget_us;
      if (!cache_enabled) {
        serving_options.enable_route_cache = false;
        serving_options.enable_stitch_memo = false;
      }
      ServingRouter serving(&l2r, serving_options);
      StreamOptions stream_options;
      stream_options.max_batch = kStreamMaxBatch;
      stream_options.batch_deadline_us = deadline_us;
      stream_options.dedup = true;
      StreamRouter stream(&serving, stream_options);

      std::vector<double> waits(sweep_slots, 0.0);
      Timer wall;
      int64_t due_us = 0;
      for (size_t i = 0; i < sweep_slots; ++i) {
        due_us += sweep_schedule.gap_us[i];
        while (wall.ElapsedSeconds() * 1e6 < static_cast<double>(due_us)) {
          std::this_thread::yield();
        }
        stream.Submit(queries[sweep_order.order[i]],
                      [&waits, i](const StreamResult& r) {
                        waits[i] = static_cast<double>(r.queue_wait_us);
                      });
      }
      while (stream.GetStats().completed < sweep_slots) {
        std::this_thread::yield();
      }
      const double elapsed = wall.ElapsedSeconds();
      const StreamRouter::Stats stats = stream.GetStats();
      DeadlinePoint point;
      point.deadline_us = deadline_us;
      point.qps = static_cast<double>(sweep_slots) / elapsed;
      point.mean_batch = stats.batches == 0
                             ? 0
                             : static_cast<double>(sweep_slots) /
                                   static_cast<double>(stats.batches);
      point.closed_by_size = stats.closed_by_size;
      point.closed_by_deadline = stats.closed_by_deadline;
      point.queue_wait_us = Summarize(waits);
      std::printf(
          "[deadline %5lld us] %.0f qps, mean batch %.1f "
          "(%llu size / %llu deadline), queue wait p50 %.1f / p99 %.1f us\n",
          static_cast<long long>(deadline_us), point.qps, point.mean_batch,
          static_cast<unsigned long long>(point.closed_by_size),
          static_cast<unsigned long long>(point.closed_by_deadline),
          point.queue_wait_us.p50, point.queue_wait_us.p99);
      deadline_points.push_back(point);
    }
  } else {
    std::printf("[deadline sweep] skipped (L2R_BENCH_DEADLINE_SWEEP=0)\n");
  }

  // --- Overload sweep: offered load stepped from half to ten times the
  // measured cache-off capacity, served by StreamRouter under the
  // OverloadController with a 70/30 interactive/bulk class mix. Cache and
  // memo stay off so capacity is flat across points and the controller —
  // not the hit rate — is what absorbs the excess.
  std::vector<OverloadPoint> overload_points;
  bool overload_ok = true;
  const bool overload_enabled = OverloadSweepEnabled();
  constexpr double kBulkFraction = 0.3;
  constexpr int64_t kOverloadSloUs = 50'000;
  const double capacity_qps = 1e6 / std::max(serve_off.mean, 1.0);
  if (overload_enabled) {
    for (const double multiplier : {0.5, 1.0, 2.0, 4.0, 10.0}) {
      // Fixed ~0.25 s of offered traffic per point, so every point spans
      // dozens of control periods regardless of the rate.
      const size_t ov_slots = std::min<size_t>(
          60'000, std::max<size_t>(2'000, static_cast<size_t>(
                                              capacity_qps * multiplier *
                                              0.25)));
      const bench::Scenario ov_order =
          bench::UniformScenario(distinct, ov_slots, 1331);
      const std::vector<QueryClass> classes =
          bench::ClassMix(ov_slots, kBulkFraction, 1332);
      const bench::ArrivalSchedule schedule = bench::OverloadArrivals(
          ov_slots, serve_off.mean, multiplier, 1333);

      ServingRouterOptions serving_options;
      serving_options.enable_route_cache = false;
      serving_options.enable_stitch_memo = false;
      serving_options.deadline.fallback_budget_us = budget_us;
      ServingRouter serving(&l2r, serving_options);

      OverloadControllerOptions oc;
      // The period bounds the flood a level drop can re-admit before the
      // next tick reacts (period x offered rate), and that flood is
      // served, late — so the period must be small next to the SLO.
      oc.control_period_us = 2'000;
      oc.slo_queue_wait_us = kOverloadSloUs;
      oc.min_batch_deadline_us = 100;
      oc.max_batch_deadline_us = 1000;
      oc.trip_ticks = 1;
      oc.release_ticks = 3;
      // Depth thresholds sized to the measured capacity: shed once the
      // backlog needs slo/8 to drain, panic at slo/4 — a served query's
      // backlog wait stays well inside the SLO even stacked on top of a
      // between-ticks admission flood.
      oc.shed_depth = std::max<size_t>(
          32, static_cast<size_t>(capacity_qps * kOverloadSloUs / 8e6));
      oc.resume_depth = oc.shed_depth / 4;
      oc.panic_depth = 2 * oc.shed_depth;
      OverloadController controller(oc);

      StreamOptions stream_options;
      stream_options.max_batch = kStreamMaxBatch;
      stream_options.dedup = false;
      stream_options.num_threads = 1;
      stream_options.overload = &controller;
      stream_options.budget_sink = [&serving](double scale) {
        serving.SetBudgetScale(scale);
      };
      StreamRouter stream(&serving, stream_options);

      std::vector<double> drain_waits(ov_slots, 0.0);
      std::vector<uint8_t> was_shed(ov_slots, 0);
      std::vector<uint8_t> bad_shed_status(ov_slots, 0);
      Timer wall;
      int64_t due_us = 0;
      for (size_t i = 0; i < ov_slots; ++i) {
        due_us += schedule.gap_us[i];
        while (wall.ElapsedSeconds() * 1e6 < static_cast<double>(due_us)) {
          std::this_thread::yield();
        }
        BatchQuery q = queries[ov_order.order[i]];
        q.query_class = classes[i];
        stream.Submit(q, [&drain_waits, &was_shed, &bad_shed_status,
                          i](const StreamResult& r) {
          drain_waits[i] = static_cast<double>(r.drain_wait_us);
          was_shed[i] = r.shed ? 1 : 0;
          if (r.shed && r.result.status().code() !=
                            StatusCode::kResourceExhausted) {
            bad_shed_status[i] = 1;
          }
        });
      }
      const double submit_elapsed = wall.ElapsedSeconds();
      for (;;) {
        const StreamRouter::Stats s = stream.GetStats();
        if (s.completed + s.shed + s.failed_on_shutdown >= ov_slots) break;
        std::this_thread::yield();
      }

      const StreamRouter::Stats stats = stream.GetStats();
      OverloadPoint point;
      point.multiplier = multiplier;
      point.slots = ov_slots;
      point.offered_qps = static_cast<double>(ov_slots) / submit_elapsed;
      point.goodput_qps =
          static_cast<double>(stats.completed) / wall.ElapsedSeconds();
      point.submitted = stats.submitted;
      point.completed = stats.completed;
      point.shed = stats.shed;
      for (size_t c = 0; c < kNumQueryClasses; ++c) {
        point.submitted_by_class[c] = stats.submitted_by_class[c];
        point.shed_by_class[c] = stats.shed_by_class[c];
      }
      std::vector<double> served_interactive_waits;
      served_interactive_waits.reserve(ov_slots);
      for (size_t i = 0; i < ov_slots; ++i) {
        if (bad_shed_status[i] != 0) point.shed_status_ok = false;
        if (was_shed[i] == 0 && classes[i] == QueryClass::kInteractive) {
          served_interactive_waits.push_back(drain_waits[i]);
        }
      }
      point.interactive_drain_wait_us = Summarize(served_interactive_waits);
      point.controller = controller.GetStats();
      point.conserved = stats.submitted == stats.completed + stats.shed;
      overload_ok =
          overload_ok && point.conserved && point.shed_status_ok;
      std::printf(
          "[overload x%-4.1f] offered %.0f qps -> goodput %.0f qps, "
          "shed %llu (bulk %llu / interactive %llu of %llu / %llu), "
          "interactive drain wait p99 %.0f us, level %d after %llu ticks\n",
          multiplier, point.offered_qps, point.goodput_qps,
          static_cast<unsigned long long>(point.shed),
          static_cast<unsigned long long>(
              point.shed_by_class[static_cast<size_t>(QueryClass::kBulk)]),
          static_cast<unsigned long long>(point.shed_by_class[
              static_cast<size_t>(QueryClass::kInteractive)]),
          static_cast<unsigned long long>(point.submitted_by_class[
              static_cast<size_t>(QueryClass::kBulk)]),
          static_cast<unsigned long long>(point.submitted_by_class[
              static_cast<size_t>(QueryClass::kInteractive)]),
          point.interactive_drain_wait_us.p99, point.controller.level,
          static_cast<unsigned long long>(point.controller.ticks));
      overload_points.push_back(point);
    }
    if (!overload_ok) {
      std::printf("[overload] ACCOUNTING VIOLATION (see points above)\n");
    }
  } else {
    std::printf("[overload sweep] skipped (L2R_BENCH_OVERLOAD=0)\n");
  }

  // --- Dynamic world: live weight updates, epoch-versioned invalidation
  // and incremental re-route (world/WorldUpdateChannel + RouteRepairer).
  // Runs last because these scenarios mutate the until-now frozen world;
  // every mutation is paired with an exact restore, but the ordering
  // keeps the earlier blocks trivially unaffected. Each update batch is
  // followed by a repair pass and audited two ways: every served result
  // is byte-compared against a cold recompute on the new epoch (the
  // no-stale-serve gate), and the repair's settle count is reported
  // relative to recomputing the whole warm pool (the staleness-vs-
  // recompute-cost curve).
  std::vector<DynamicReport> dynamic_reports;
  bool dynamic_ok = true;
  double incident_repair_cost_ratio = 0.0;
  double incident_convergence = 1.0;
  size_t dynamic_pool = 0;
  size_t dynamic_sites = 0;
  const bool dynamic_enabled = DynamicWorldEnabled() && cache_enabled;
  if (dynamic_enabled) {
    WorldUpdateChannel channel(&built->world.net, router->get());

    ServingRouterOptions dyn_options;
    // Budget off: the byte-identity gates compare exact routes, and the
    // repair convergence ladder is then independent of
    // L2R_BENCH_BUDGET_US.
    dyn_options.deadline.fallback_budget_us = 0;
    dyn_options.world = &channel;
    ServingRouter serving(&l2r, dyn_options);
    RouteRepairer repairer(&serving);
    L2RQueryContext serve_ctx = l2r.MakeContext();
    L2RQueryContext cold_ctx = l2r.MakeContext();

    const size_t pool = std::min<size_t>(distinct, 400);
    dynamic_pool = pool;

    // Warm pass: populates the cache and records the epoch-0 bytes the
    // conservation checks restore to.
    std::vector<Result<RouteResult>> baseline;
    baseline.reserve(pool);
    for (size_t i = 0; i < pool; ++i) {
      baseline.push_back(serving.Route(&serve_ctx, queries[i].s,
                                       queries[i].d,
                                       queries[i].departure_time));
    }

    // Incident sites: distinct mid-edges of the warm routes, so every
    // batch hits an edge some cached entry actually rides.
    std::vector<EdgeId> sites;
    {
      std::unordered_set<EdgeId> seen;
      for (size_t i = 0; i < pool; ++i) {
        if (!baseline[i].ok() || baseline[i]->path.vertices.size() < 2) {
          continue;
        }
        const std::vector<VertexId>& v = baseline[i]->path.vertices;
        size_t m = v.size() / 2;
        if (m + 1 >= v.size()) m = v.size() - 2;
        const EdgeId e = net.FindEdge(v[m], v[m + 1]);
        if (e != kInvalidEdge && seen.insert(e).second) sites.push_back(e);
      }
    }
    dynamic_sites = sites.size();
    size_t next_site = 0;
    auto take_sites = [&](size_t n) {
      std::vector<EdgeId> out;
      while (out.size() < n && next_site < sites.size()) {
        out.push_back(sites[next_site++]);
      }
      return out;
    };

    WorldEpoch prev_epoch = channel.CurrentEpoch();
    auto run_point = [&](const WorldUpdateBatch& batch, const char* kind,
                         DynamicReport* rep) {
      DynamicPoint p;
      p.kind = kind;
      p.cached_entries = serving.GetStats().cache.entries;
      const WorldUpdateChannel::ApplyReport applied = channel.Apply(batch);
      p.epoch = applied.epoch;
      p.edges_touched = applied.edges_touched;
      if (applied.epoch <= prev_epoch) rep->epochs_monotone = false;
      prev_epoch = applied.epoch;

      const RouteRepairer::Report rr = repairer.RepairAll();
      p.invalidated = rr.candidates;
      p.staleness = p.cached_entries == 0
                        ? 0
                        : static_cast<double>(rr.candidates) /
                              static_cast<double>(p.cached_entries);
      p.repaired = rr.repaired;
      p.full_recompute = rr.full_recompute;
      p.unroutable = rr.unroutable;
      p.convergence = rr.ConvergenceRate();
      p.repair_settles = rr.repair_settles;

      // Wholesale comparator: recompute the whole pool cold on the new
      // epoch. The settle count is the "just flush everything" price the
      // repair pass is up against, and the results are the oracle for
      // the no-stale-serve audit below.
      const uint64_t settles_before = cold_ctx.TotalSettles();
      std::vector<Result<RouteResult>> fresh;
      fresh.reserve(pool);
      for (size_t i = 0; i < pool; ++i) {
        fresh.push_back(l2r.Route(&cold_ctx, queries[i].s, queries[i].d,
                                  queries[i].departure_time));
      }
      p.wholesale_settles = cold_ctx.TotalSettles() - settles_before;
      p.repair_cost_ratio =
          p.wholesale_settles == 0
              ? 0
              : static_cast<double>(p.repair_settles) /
                    static_cast<double>(p.wholesale_settles);

      const uint64_t misses_before = serving.GetStats().cache.misses;
      for (size_t i = 0; i < pool; ++i) {
        const auto served = serving.Route(&serve_ctx, queries[i].s,
                                          queries[i].d,
                                          queries[i].departure_time);
        if (!SameResult(served, fresh[i])) ++p.stale_serves;
      }
      p.serve_misses = serving.GetStats().cache.misses - misses_before;
      rep->stale_serves += p.stale_serves;

      std::printf(
          "[dynamic %-20s] epoch %llu (%s, %zu edges): %zu/%zu stale, "
          "repaired %zu + full %zu + unroutable %zu (conv %.2f), settles "
          "%llu vs wholesale %llu (ratio %.3f), stale serves %llu\n",
          rep->name.c_str(), static_cast<unsigned long long>(p.epoch),
          kind, p.edges_touched, p.invalidated, p.cached_entries,
          p.repaired, p.full_recompute, p.unroutable, p.convergence,
          static_cast<unsigned long long>(p.repair_settles),
          static_cast<unsigned long long>(p.wholesale_settles),
          p.repair_cost_ratio,
          static_cast<unsigned long long>(p.stale_serves));
      rep->points.push_back(p);
    };
    auto check_restored = [&](DynamicReport* rep) {
      bool same = true;
      for (size_t i = 0; i < pool; ++i) {
        const auto served = serving.Route(&serve_ctx, queries[i].s,
                                          queries[i].d,
                                          queries[i].departure_time);
        if (!SameResult(served, baseline[i])) same = false;
      }
      rep->restored_identical = same;
    };

    // 1) incident_injection: cumulative waves of mid-route slowdowns
    // (speed x0.5: cost-increasing, so invalidation is selective), then
    // one recovery batch (x2.0, wholesale). The inject points trace the
    // staleness-vs-recompute-cost curve: repair wins decisively at low
    // staleness (the incident case the subsystem exists for) and loses
    // past the crossover where most of the cache is dirty — so the CI
    // gate (ratio < 0.3 at convergence >= 0.7) reads the single-incident
    // point, and the rest of the curve is the recorded tradeoff.
    // Power-of-two scales make the recovery restore the exact epoch-0
    // weight bytes.
    {
      DynamicReport rep;
      rep.name = "incident_injection";
      for (const size_t n : {1u, 2u, 4u, 8u, 16u}) {
        const std::vector<EdgeId> wave = take_sites(n);
        if (wave.empty()) break;
        WorldUpdateBatch batch;
        for (const EdgeId e : wave) batch.deltas.push_back({e, 0.5});
        run_point(batch, "inject", &rep);
      }
      if (!rep.points.empty()) {
        incident_repair_cost_ratio = rep.points.front().repair_cost_ratio;
        incident_convergence = rep.points.front().convergence;
      }
      WorldUpdateBatch restore;
      for (size_t i = 0; i < next_site; ++i) {
        restore.deltas.push_back({sites[i], 2.0});
      }
      run_point(restore, "restore", &rep);
      check_restored(&rep);
      dynamic_ok = dynamic_ok && !rep.points.empty() &&
                   rep.epochs_monotone && rep.stale_serves == 0 &&
                   rep.restored_identical &&
                   incident_repair_cost_ratio < 0.3 &&
                   incident_convergence >= 0.7;
      dynamic_reports.push_back(rep);
    }

    // 2) rush_hour_transition: the clock crosses into rush hour (peak
    // period dirtied wholesale) while a handful of arterials congest,
    // then the transition back out lifts the congestion exactly.
    {
      DynamicReport rep;
      rep.name = "rush_hour_transition";
      const std::vector<EdgeId> arterials = take_sites(4);
      WorldUpdateBatch begin;
      begin.period_transition = TimePeriod::kPeak;
      for (const EdgeId e : arterials) begin.deltas.push_back({e, 0.5});
      run_point(begin, "transition", &rep);
      WorldUpdateBatch end_batch;
      end_batch.period_transition = TimePeriod::kOffPeak;
      for (const EdgeId e : arterials) end_batch.deltas.push_back({e, 2.0});
      run_point(end_batch, "restore", &rep);
      check_restored(&rep);
      dynamic_ok = dynamic_ok && rep.epochs_monotone &&
                   rep.stale_serves == 0 && rep.restored_identical;
      dynamic_reports.push_back(rep);
    }

    // 3) rolling_closures: a moving work zone — each wave closes two
    // fresh edges and reopens the previous wave's, then the final batch
    // reopens the last pair, restoring the closure bitmap byte-exactly.
    {
      DynamicReport rep;
      rep.name = "rolling_closures";
      std::vector<EdgeId> open_next;
      for (int wave = 0; wave < 3; ++wave) {
        WorldUpdateBatch batch;
        batch.reopenings = open_next;
        open_next = take_sites(2);
        batch.closures = open_next;
        if (batch.empty()) break;
        run_point(batch, "wave", &rep);
      }
      if (!open_next.empty()) {
        WorldUpdateBatch fin;
        fin.reopenings = open_next;
        run_point(fin, "restore", &rep);
      }
      check_restored(&rep);
      dynamic_ok = dynamic_ok && !rep.points.empty() &&
                   rep.epochs_monotone && rep.stale_serves == 0 &&
                   rep.restored_identical;
      dynamic_reports.push_back(rep);
    }
    if (!dynamic_ok) {
      std::printf("[dynamic world] GATE VIOLATION (see points above)\n");
    }
  } else {
    std::printf(
        "[dynamic world] skipped (needs L2R_BENCH_DYNAMIC=1 and cache "
        "on)\n");
  }

  // --- Metro-scale ladder: generate at each scale, then compare cold
  // starts — parse-and-rebuild from CSV vs mmap of the binary snapshot —
  // and measure plain Dijkstra QPS on the generated world. This is the
  // serving story for large worlds: the snapshot maps in milliseconds
  // regardless of size, while the CSV rebuild grows linearly.
  const bool ladder_enabled = ScaleLadderEnabled();
  std::vector<LadderPoint> ladder_points;
  if (ladder_enabled) {
    for (const double ladder_scale : LadderScales()) {
      LadderPoint p;
      p.scale = ladder_scale;
      Timer gen_timer;
      auto metro = GenerateNetwork(MetroScaleConfig(ladder_scale));
      if (!metro.ok()) {
        std::fprintf(stderr, "[scale ladder] generate %.2f: %s\n",
                     ladder_scale, metro.status().ToString().c_str());
        return 1;
      }
      p.gen_seconds = gen_timer.ElapsedSeconds();
      const size_t n = metro->net.NumVertices();
      const size_t m = metro->net.NumEdges();
      p.num_vertices = n;
      p.num_edges = m;
      p.world_bytes = n * sizeof(Point) + m * sizeof(EdgeRecord) +
                      2 * (n + 1) * sizeof(uint32_t) +
                      2 * m * sizeof(EdgeId) + n * sizeof(uint8_t);

      const std::string snap_path =
          OutPath() + ".ladder.snap";  // next to the artifact
      const std::string csv_prefix = OutPath() + ".ladder";
      if (auto s = WorldSnapshot::Write(*metro, snap_path); !s.ok()) {
        std::fprintf(stderr, "[scale ladder] write: %s\n",
                     s.ToString().c_str());
        return 1;
      }
      if (auto s = ExportWorldCsv(*metro, csv_prefix); !s.ok()) {
        std::fprintf(stderr, "[scale ladder] csv: %s\n",
                     s.ToString().c_str());
        return 1;
      }

      Timer csv_timer;
      auto from_csv = ImportWorldCsv(csv_prefix);
      p.csv_cold_start_seconds = csv_timer.ElapsedSeconds();
      Timer mmap_timer;
      auto mapped = WorldSnapshot::Open(snap_path);
      p.mmap_cold_start_seconds = mmap_timer.ElapsedSeconds();
      if (!from_csv.ok() || !mapped.ok()) {
        std::fprintf(stderr, "[scale ladder] reload failed at %.2f\n",
                     ladder_scale);
        return 1;
      }
      p.snapshot_bytes = mapped->file_bytes();
      p.cold_start_speedup =
          p.csv_cold_start_seconds / p.mmap_cold_start_seconds;
      p.zero_copy = mapped->world().net.snapshot_backed();

      // Trusted-image open: checksum + bounds only, no structural pass.
      // The delta vs mmap_cold_start_seconds is what the O(n+m)
      // validation costs at this scale.
      Timer trusted_timer;
      auto trusted =
          WorldSnapshot::Open(snap_path, SnapshotOpenMode::kChecksumOnly);
      p.checksum_only_open_seconds = trusted_timer.ElapsedSeconds();
      if (!trusted.ok()) {
        std::fprintf(stderr, "[scale ladder] checksum-only open: %s\n",
                     trusted.status().ToString().c_str());
        return 1;
      }

      // QPS on the mapped image: plain Dijkstra on random pairs — the
      // number that shows the mapped world routes at full speed.
      const RoadNetwork& mnet = mapped->world().net;
      const EdgeWeights weights(mnet, CostFeature::kTravelTime,
                                TimePeriod::kOffPeak);
      DijkstraSearch dijkstra(mnet);
      Rng ladder_rng(0x5ca1eULL + static_cast<uint64_t>(ladder_scale * 100));
      p.queries = 24;
      const uint64_t plain_settles0 = dijkstra.LifetimeSettles();
      Timer qps_timer;
      for (size_t q = 0; q < p.queries; ++q) {
        const VertexId s = static_cast<VertexId>(ladder_rng.Index(n));
        const VertexId t = static_cast<VertexId>(ladder_rng.Index(n));
        (void)dijkstra.ShortestPath(s, t, weights);
      }
      const double qps_s = qps_timer.ElapsedSeconds();
      p.qps = static_cast<double>(p.queries) / qps_s;
      p.mean_query_us = qps_s * 1e6 / static_cast<double>(p.queries);
      p.plain_mean_settles =
          static_cast<double>(dijkstra.LifetimeSettles() - plain_settles0) /
          static_cast<double>(p.queries);

      // Goal-directed: the same query sequence with a landmark potential.
      EdgeWeights goal = weights;
      Timer landmark_timer;
      const std::vector<std::vector<EdgeWeights*>> goal_group = {{&goal}};
      AttachGoalPotentials(mnet, goal_group);
      p.landmark_build_seconds = landmark_timer.ElapsedSeconds();
      p.landmark_bytes = (goal.landmarks()->dist.size() +
                          goal.landmarks()->floor.size()) *
                         sizeof(double);
      PreferenceDijkstra pref(mnet);
      const RoadTypeMask highway =
          RoadTypeBit(RoadType::kMotorway) | RoadTypeBit(RoadType::kTrunk);
      // Mean (us, settles) per query of `route(s, t)` over the ladder's
      // query sequence; `settles()` reads a lifetime settle counter.
      auto per_query = [&](const auto& route, const auto& settles) {
        Rng rng(0x5ca1eULL + static_cast<uint64_t>(ladder_scale * 100));
        const uint64_t settles0 = settles();
        Timer timer;
        for (size_t q = 0; q < p.queries; ++q) {
          const VertexId s = static_cast<VertexId>(rng.Index(n));
          const VertexId t = static_cast<VertexId>(rng.Index(n));
          route(s, t);
        }
        const double nq = static_cast<double>(p.queries);
        return std::pair<double, double>(
            timer.ElapsedSeconds() * 1e6 / nq,
            static_cast<double>(settles() - settles0) / nq);
      };
      auto dijkstra_settles = [&] { return dijkstra.LifetimeSettles(); };
      auto pref_settles = [&] { return pref.LifetimeSettles(); };
      std::tie(p.goal_mean_query_us, p.goal_mean_settles) =
          per_query([&](VertexId s, VertexId t) {
            (void)dijkstra.ShortestPath(s, t, goal);
          }, dijkstra_settles);
      std::tie(p.plain_pref_mean_query_us, p.plain_pref_mean_settles) =
          per_query([&](VertexId s, VertexId t) {
            (void)pref.Route(s, t, weights, highway);
          }, pref_settles);
      std::tie(p.goal_pref_mean_query_us, p.goal_pref_mean_settles) =
          per_query([&](VertexId s, VertexId t) {
            (void)pref.Route(s, t, goal, highway);
          }, pref_settles);

      std::remove(snap_path.c_str());
      std::remove((csv_prefix + ".vertices.csv").c_str());
      std::remove((csv_prefix + ".edges.csv").c_str());
      std::printf(
          "[scale ladder] scale %.2f: %zu vertices, %zu edges, "
          "%.1f MB world, csv %.3fs vs mmap %.5fs (%.0fx, trusted "
          "%.5fs), %.1f qps\n",
          ladder_scale, n, m, static_cast<double>(p.world_bytes) / 1e6,
          p.csv_cold_start_seconds, p.mmap_cold_start_seconds,
          p.cold_start_speedup, p.checksum_only_open_seconds, p.qps);
      std::printf(
          "[scale ladder] scale %.2f goal-directed: landmarks %.2fs, "
          "%.1f MB; fastest %.0f -> %.0f us (%.0f -> %.0f settles); "
          "highway preference %.0f -> %.0f us (%.0f -> %.0f settles)\n",
          ladder_scale, p.landmark_build_seconds,
          static_cast<double>(p.landmark_bytes) / 1e6, p.mean_query_us,
          p.goal_mean_query_us, p.plain_mean_settles, p.goal_mean_settles,
          p.plain_pref_mean_query_us, p.goal_pref_mean_query_us,
          p.plain_pref_mean_settles, p.goal_pref_mean_settles);
      ladder_points.push_back(p);
    }
  } else {
    std::printf("[scale ladder] skipped (L2R_BENCH_SCALE_LADDER=0)\n");
  }

  // --- Scale-out serving: the FULL serving stack (route cache with its
  // seqlock hot read path + stitch memo + single-flight; no fallback
  // budget, so every result must byte-match the bare-router reference)
  // at t = 1/2/4/8 batch threads, then a StreamRouter drain-thread audit
  // at 1/2/4 overlapping drains. Both ladders gate on byte identity —
  // the determinism contract the seqlock and tick-arbitration work must
  // preserve — and the QPS rungs record how the stack scales (gated by
  // bench_check.py, with a single_core escape hatch for 1-core CI).
  const bool scale_out_enabled = ScaleOutEnabled();
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const bool single_core = hw_threads <= 1;
  std::vector<ScaleOutRun> scale_out_runs;
  std::vector<DrainAudit> drain_audits;
  bool scale_out_ok = true;
  if (scale_out_enabled) {
    for (const unsigned threads : kThreadCounts) {
      ServingRouterOptions so_options;  // cache + memo on, no budget
      ServingRouter so_serving(&l2r, so_options);
      BatchRouter batch(&so_serving, BatchRouterOptions{threads, false});
      auto warm = batch.RouteAll(queries);  // cold pass fills the cache
      ScaleOutRun run;
      run.threads = threads;
      double best = kInfCost;
      for (int rep = 0; rep < 3; ++rep) {
        Timer t;
        auto out = batch.RouteAll(queries);
        best = std::min(best, t.ElapsedSeconds());
        for (size_t i = 0; i < out.size(); ++i) {
          if (!SameResult(reference[i], out[i])) {
            run.identical = false;
            break;
          }
        }
      }
      run.qps = static_cast<double>(queries.size()) / best;
      scale_out_ok = scale_out_ok && run.identical;
      const ServingRouter::Stats so_stats = so_serving.GetStats();
      std::printf(
          "[scale-out t=%u] %.0f qps warm, %s (%llu hits, %llu on the "
          "hot path)\n",
          threads, run.qps, run.identical ? "identical" : "DIVERGED",
          static_cast<unsigned long long>(so_stats.cache.hits),
          static_cast<unsigned long long>(so_stats.cache.hot_hits));
      scale_out_runs.push_back(run);
      (void)warm;
    }

    // Drain audit: same queries streamed through N overlapping batcher
    // threads (fresh cache per rung, so cold-path and hot-path serves
    // both participate). Byte identity must hold at every drain count.
    constexpr size_t kScaleOutMaxBatch = 64;
    constexpr int64_t kScaleOutDeadlineUs = 200;
    for (const unsigned drains : {1u, 2u, 4u}) {
      ServingRouterOptions so_options;
      ServingRouter so_serving(&l2r, so_options);
      StreamOptions stream_options;
      stream_options.max_batch = kScaleOutMaxBatch;
      stream_options.batch_deadline_us = kScaleOutDeadlineUs;
      stream_options.num_threads = 2;
      stream_options.num_drain_threads = drains;
      stream_options.dedup = true;
      StreamRouter stream(&so_serving, stream_options);

      // Callbacks may run on any of the `drains` batcher threads, but
      // each writes only its own slot; the completed-counter spin below
      // orders the reads.
      std::vector<Result<RouteResult>> got(
          queries.size(), Result<RouteResult>(Status::Internal("unrun")));
      Timer wall;
      for (size_t i = 0; i < queries.size(); ++i) {
        stream.Submit(queries[i], [&got, i](const StreamResult& r) {
          got[i] = r.result;
        });
      }
      while (stream.GetStats().completed < queries.size()) {
        std::this_thread::yield();
      }
      const double elapsed = wall.ElapsedSeconds();
      stream.Shutdown();

      DrainAudit audit;
      audit.drains = drains;
      audit.qps = static_cast<double>(queries.size()) / elapsed;
      for (size_t i = 0; i < got.size(); ++i) {
        if (!SameResult(reference[i], got[i])) {
          audit.identical = false;
          break;
        }
      }
      const StreamRouter::Stats stats = stream.GetStats();
      const ServingRouter::Stats so_stats = so_serving.GetStats();
      audit.hits = so_stats.cache.hits;
      audit.hot_hits = so_stats.cache.hot_hits;
      audit.batches = stats.batches;
      scale_out_ok = scale_out_ok && audit.identical &&
                     stats.drain_threads == drains;
      std::printf(
          "[scale-out drains=%u] %.0f qps, %llu batches, %s (%llu hits, "
          "%llu on the hot path)\n",
          drains, audit.qps,
          static_cast<unsigned long long>(audit.batches),
          audit.identical ? "identical" : "DIVERGED",
          static_cast<unsigned long long>(audit.hits),
          static_cast<unsigned long long>(audit.hot_hits));
      drain_audits.push_back(audit);
    }
    if (!scale_out_ok) {
      std::printf("[scale-out] GATE VIOLATION (see rungs above)\n");
    }
  } else {
    std::printf("[scale-out] skipped (L2R_BENCH_SCALE_OUT=0)\n");
  }

  // --- JSON artifact.
  const std::string out_path = OutPath();
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"query_throughput\",\n");
  std::fprintf(f, "  \"unix_time\": %lld,\n",
               static_cast<long long>(std::time(nullptr)));
  std::fprintf(f, "  \"dataset\": \"%s\",\n", spec.name.c_str());
  std::fprintf(f, "  \"scale\": %.3f,\n", scale);
  std::fprintf(f, "  \"num_vertices\": %zu,\n", net.NumVertices());
  std::fprintf(f, "  \"num_edges\": %zu,\n", net.NumEdges());
  std::fprintf(f, "  \"num_queries\": %zu,\n", queries.size());
  std::fprintf(f, "  \"failures\": %zu,\n", failures);
  std::fprintf(f,
               "  \"mix\": {\"in_region\": %zu, \"in_out_region\": %zu, "
               "\"out_region\": %zu},\n",
               mix[0], mix[1], mix[2]);
  std::fprintf(f,
               "  \"methods\": {\"inner_popular\": %zu, \"region_graph\": "
               "%zu, \"preference\": %zu, \"fastest_fallback\": %zu},\n",
               method_counts[0], method_counts[1], method_counts[2],
               method_counts[3]);
  std::fprintf(f,
               "  \"latency_us\": {\"mean\": %.2f, \"p50\": %.2f, "
               "\"p95\": %.2f, \"p99\": %.2f},\n",
               lat.mean, lat.p50, lat.p95, lat.p99);
  std::fprintf(f, "  \"serving\": {\n");
  std::fprintf(f, "    \"workload_queries\": %zu,\n", workload.size());
  std::fprintf(f, "    \"distinct_queries\": %zu,\n", distinct);
  std::fprintf(f, "    \"hot_fraction\": 0.1,\n");
  std::fprintf(f, "    \"hot_traffic\": 0.8,\n");
  std::fprintf(f, "    \"budget_us\": %.2f,\n", budget_us);
  std::fprintf(f,
               "    \"cache_off\": {\"mean\": %.2f, \"p50\": %.2f, "
               "\"p95\": %.2f, \"p99\": %.2f, \"budget_degraded\": %llu},\n",
               serve_off.mean, serve_off.p50, serve_off.p95, serve_off.p99,
               static_cast<unsigned long long>(off_degraded));
  if (cache_enabled) {
    std::fprintf(f,
                 "    \"cache_on\": {\"mean\": %.2f, \"p50\": %.2f, "
                 "\"p95\": %.2f, \"p99\": %.2f,\n",
                 serve_on.mean, serve_on.p50, serve_on.p95, serve_on.p99);
    std::fprintf(
        f,
        "      \"hit_rate\": %.4f, \"hits\": %llu, \"misses\": %llu, "
        "\"evictions\": %llu, \"cache_entries\": %zu, "
        "\"cache_bytes\": %zu,\n",
        hit_rate, static_cast<unsigned long long>(serve_stats.cache.hits),
        static_cast<unsigned long long>(serve_stats.cache.misses),
        static_cast<unsigned long long>(serve_stats.cache.evictions),
        serve_stats.cache.entries, serve_stats.cache.bytes);
    std::fprintf(
        f,
        "      \"memo_edge_hits\": %llu, \"memo_connector_hits\": %llu, "
        "\"memo_entries\": %zu, \"budget_degraded\": %llu}\n",
        static_cast<unsigned long long>(serve_stats.memo.edge_hits),
        static_cast<unsigned long long>(serve_stats.memo.connector_hits),
        serve_stats.memo.entries,
        static_cast<unsigned long long>(serve_stats.budget_degraded));
  } else {
    std::fprintf(f, "    \"cache_on\": null\n");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"scenarios\": {\n");
  for (size_t i = 0; i < scenario_reports.size(); ++i) {
    const ScenarioReport& rep = scenario_reports[i];
    std::fprintf(f, "    \"%s\": {\n", rep.name.c_str());
    std::fprintf(f,
                 "      \"slots\": %zu, \"distinct_used\": %zu, "
                 "\"duplicate_fraction\": %.4f,\n",
                 rep.slots, rep.distinct_used, rep.duplicate_fraction);
    std::fprintf(f,
                 "      \"dedup_off\": {\"qps\": %.1f, \"mean_us\": %.2f},\n",
                 rep.off_qps, rep.off_mean_us);
    std::fprintf(
        f,
        "      \"dedup_on\": {\"qps\": %.1f, \"mean_us\": %.2f, "
        "\"unique_routed\": %llu, \"duplicates_collapsed\": %llu},\n",
        rep.on_qps, rep.on_mean_us,
        static_cast<unsigned long long>(rep.unique_routed),
        static_cast<unsigned long long>(rep.duplicates_collapsed));
    std::fprintf(
        f,
        "      \"single_flight\": {\"leaders\": %llu, \"coalesced\": "
        "%llu},\n",
        static_cast<unsigned long long>(rep.sf_leaders),
        static_cast<unsigned long long>(rep.sf_coalesced));
    std::fprintf(f,
                 "      \"coalesced_identical\": %s, "
                 "\"deterministic_t1248\": %s\n",
                 rep.coalesced_identical ? "true" : "false",
                 rep.deterministic ? "true" : "false");
    std::fprintf(f, "    }%s\n",
                 i + 1 == scenario_reports.size() ? "" : ",");
  }
  std::fprintf(f, "  },\n");
  if (stream_enabled) {
    std::fprintf(f, "  \"streaming\": {\n");
    std::fprintf(f,
                 "    \"max_batch\": %zu, \"batch_deadline_us\": %lld, "
                 "\"mean_gap_us\": %.2f,\n",
                 kStreamMaxBatch, static_cast<long long>(kStreamDeadlineUs),
                 stream_gap_us);
    for (size_t i = 0; i < stream_reports.size(); ++i) {
      const StreamReport& rep = stream_reports[i];
      std::fprintf(f, "    \"%s\": {\n", rep.name.c_str());
      std::fprintf(
          f,
          "      \"slots\": %zu, \"submitted\": %llu, \"completed\": %llu, "
          "\"schedule_mean_gap_us\": %.2f,\n",
          rep.slots, static_cast<unsigned long long>(rep.submitted),
          static_cast<unsigned long long>(rep.completed), rep.mean_gap_us);
      std::fprintf(
          f,
          "      \"qps\": %.1f, \"batches\": %llu, \"mean_batch\": %.2f, "
          "\"closed_by_size\": %llu, \"closed_by_deadline\": %llu, "
          "\"closed_by_shutdown\": %llu,\n",
          rep.qps, static_cast<unsigned long long>(rep.batches),
          rep.mean_batch, static_cast<unsigned long long>(rep.closed_by_size),
          static_cast<unsigned long long>(rep.closed_by_deadline),
          static_cast<unsigned long long>(rep.closed_by_shutdown));
      std::fprintf(f,
                   "      \"queue_wait_us\": {\"mean\": %.2f, \"p50\": %.2f, "
                   "\"p95\": %.2f, \"p99\": %.2f},\n",
                   rep.queue_wait_us.mean, rep.queue_wait_us.p50,
                   rep.queue_wait_us.p95, rep.queue_wait_us.p99);
      std::fprintf(f, "      \"batch_size_hist\": {");
      for (size_t h = 0; h < rep.batch_size_hist.size(); ++h) {
        std::fprintf(f, "%s\"%zu\": %llu", h == 0 ? "" : ", ",
                     rep.batch_size_hist[h].first,
                     static_cast<unsigned long long>(
                         rep.batch_size_hist[h].second));
      }
      std::fprintf(f, "}\n");
      std::fprintf(f, "    }%s\n",
                   i + 1 == stream_reports.size() ? "" : ",");
    }
    std::fprintf(f, "  },\n");
  } else {
    std::fprintf(f, "  \"streaming\": null,\n");
  }
  if (deadline_sweep_enabled) {
    std::fprintf(f, "  \"deadline_sweep\": {\n");
    std::fprintf(f, "    \"max_batch\": %zu, \"mean_gap_us\": %.2f,\n",
                 kStreamMaxBatch, stream_gap_us);
    std::fprintf(f, "    \"points\": [\n");
    for (size_t i = 0; i < deadline_points.size(); ++i) {
      const DeadlinePoint& p = deadline_points[i];
      std::fprintf(
          f,
          "      {\"deadline_us\": %lld, \"qps\": %.1f, "
          "\"mean_batch\": %.2f, \"closed_by_size\": %llu, "
          "\"closed_by_deadline\": %llu,\n",
          static_cast<long long>(p.deadline_us), p.qps, p.mean_batch,
          static_cast<unsigned long long>(p.closed_by_size),
          static_cast<unsigned long long>(p.closed_by_deadline));
      std::fprintf(f,
                   "       \"queue_wait_us\": {\"mean\": %.2f, "
                   "\"p50\": %.2f, \"p95\": %.2f, \"p99\": %.2f}}%s\n",
                   p.queue_wait_us.mean, p.queue_wait_us.p50,
                   p.queue_wait_us.p95, p.queue_wait_us.p99,
                   i + 1 == deadline_points.size() ? "" : ",");
    }
    std::fprintf(f, "    ]\n  },\n");
  } else {
    std::fprintf(f, "  \"deadline_sweep\": null,\n");
  }
  if (overload_enabled) {
    std::fprintf(f, "  \"overload_sweep\": {\n");
    std::fprintf(
        f,
        "    \"capacity_qps\": %.1f, \"bulk_fraction\": %.2f, "
        "\"slo_us\": %lld, \"ok\": %s,\n",
        capacity_qps, kBulkFraction, static_cast<long long>(kOverloadSloUs),
        overload_ok ? "true" : "false");
    std::fprintf(f, "    \"points\": [\n");
    for (size_t i = 0; i < overload_points.size(); ++i) {
      const OverloadPoint& p = overload_points[i];
      std::fprintf(
          f,
          "      {\"multiplier\": %.2f, \"slots\": %zu, "
          "\"offered_qps\": %.1f, \"goodput_qps\": %.1f,\n",
          p.multiplier, p.slots, p.offered_qps, p.goodput_qps);
      std::fprintf(
          f,
          "       \"submitted\": %llu, \"completed\": %llu, "
          "\"shed\": %llu, \"conserved\": %s, \"shed_status_ok\": %s,\n",
          static_cast<unsigned long long>(p.submitted),
          static_cast<unsigned long long>(p.completed),
          static_cast<unsigned long long>(p.shed),
          p.conserved ? "true" : "false",
          p.shed_status_ok ? "true" : "false");
      std::fprintf(
          f,
          "       \"interactive\": {\"submitted\": %llu, \"shed\": %llu}, "
          "\"bulk\": {\"submitted\": %llu, \"shed\": %llu},\n",
          static_cast<unsigned long long>(p.submitted_by_class[
              static_cast<size_t>(QueryClass::kInteractive)]),
          static_cast<unsigned long long>(p.shed_by_class[
              static_cast<size_t>(QueryClass::kInteractive)]),
          static_cast<unsigned long long>(
              p.submitted_by_class[static_cast<size_t>(QueryClass::kBulk)]),
          static_cast<unsigned long long>(
              p.shed_by_class[static_cast<size_t>(QueryClass::kBulk)]));
      std::fprintf(
          f,
          "       \"interactive_drain_wait_us\": {\"mean\": %.2f, "
          "\"p50\": %.2f, \"p95\": %.2f, \"p99\": %.2f},\n",
          p.interactive_drain_wait_us.mean, p.interactive_drain_wait_us.p50,
          p.interactive_drain_wait_us.p95, p.interactive_drain_wait_us.p99);
      std::fprintf(
          f,
          "       \"controller\": {\"ticks\": %llu, "
          "\"overloaded_ticks\": %llu, \"deadline_cuts\": %llu, "
          "\"deadline_recoveries\": %llu, \"level_raises\": %llu, "
          "\"level_drops\": %llu, \"final_level\": %d, "
          "\"final_deadline_us\": %lld}}%s\n",
          static_cast<unsigned long long>(p.controller.ticks),
          static_cast<unsigned long long>(p.controller.overloaded_ticks),
          static_cast<unsigned long long>(p.controller.deadline_cuts),
          static_cast<unsigned long long>(p.controller.deadline_recoveries),
          static_cast<unsigned long long>(p.controller.level_raises),
          static_cast<unsigned long long>(p.controller.level_drops),
          p.controller.level,
          static_cast<long long>(p.controller.batch_deadline_us),
          i + 1 == overload_points.size() ? "" : ",");
    }
    std::fprintf(f, "    ]\n  },\n");
  } else {
    std::fprintf(f, "  \"overload_sweep\": null,\n");
  }
  if (dynamic_enabled) {
    std::fprintf(f, "  \"dynamic_world\": {\n");
    std::fprintf(f,
                 "    \"pool_queries\": %zu, \"incident_sites\": %zu, "
                 "\"ok\": %s,\n",
                 dynamic_pool, dynamic_sites, dynamic_ok ? "true" : "false");
    std::fprintf(f,
                 "    \"incident_repair_cost_ratio\": %.4f, "
                 "\"incident_convergence\": %.4f,\n",
                 incident_repair_cost_ratio, incident_convergence);
    std::fprintf(f, "    \"scenarios\": [\n");
    for (size_t s = 0; s < dynamic_reports.size(); ++s) {
      const DynamicReport& rep = dynamic_reports[s];
      std::fprintf(
          f,
          "      {\"name\": \"%s\", \"epochs_monotone\": %s, "
          "\"stale_serves\": %llu, \"restored_identical\": %s,\n",
          rep.name.c_str(), rep.epochs_monotone ? "true" : "false",
          static_cast<unsigned long long>(rep.stale_serves),
          rep.restored_identical ? "true" : "false");
      std::fprintf(f, "       \"points\": [\n");
      for (size_t i = 0; i < rep.points.size(); ++i) {
        const DynamicPoint& p = rep.points[i];
        std::fprintf(
            f,
            "        {\"kind\": \"%s\", \"epoch\": %llu, "
            "\"edges_touched\": %zu, \"cached_entries\": %zu, "
            "\"invalidated\": %zu, \"staleness\": %.4f,\n",
            p.kind, static_cast<unsigned long long>(p.epoch),
            p.edges_touched, p.cached_entries, p.invalidated, p.staleness);
        std::fprintf(
            f,
            "         \"repaired\": %zu, \"full_recompute\": %zu, "
            "\"unroutable\": %zu, \"convergence\": %.4f,\n",
            p.repaired, p.full_recompute, p.unroutable, p.convergence);
        std::fprintf(
            f,
            "         \"repair_settles\": %llu, \"wholesale_settles\": "
            "%llu, \"repair_cost_ratio\": %.4f, \"stale_serves\": %llu, "
            "\"serve_misses\": %llu}%s\n",
            static_cast<unsigned long long>(p.repair_settles),
            static_cast<unsigned long long>(p.wholesale_settles),
            p.repair_cost_ratio,
            static_cast<unsigned long long>(p.stale_serves),
            static_cast<unsigned long long>(p.serve_misses),
            i + 1 == rep.points.size() ? "" : ",");
      }
      std::fprintf(f, "       ]}%s\n",
                   s + 1 == dynamic_reports.size() ? "" : ",");
    }
    std::fprintf(f, "    ]\n  },\n");
  } else {
    std::fprintf(f, "  \"dynamic_world\": null,\n");
  }
  if (ladder_enabled) {
    std::fprintf(f, "  \"scale_ladder\": {\n");
    std::fprintf(f, "    \"scales\": [\n");
    for (size_t i = 0; i < ladder_points.size(); ++i) {
      const LadderPoint& p = ladder_points[i];
      std::fprintf(f,
                   "      {\"scale\": %.2f, \"num_vertices\": %zu, "
                   "\"num_edges\": %zu, \"world_bytes\": %zu, "
                   "\"snapshot_bytes\": %zu,\n",
                   p.scale, p.num_vertices, p.num_edges, p.world_bytes,
                   p.snapshot_bytes);
      std::fprintf(f,
                   "       \"gen_seconds\": %.3f, "
                   "\"csv_cold_start_seconds\": %.4f, "
                   "\"mmap_cold_start_seconds\": %.6f, "
                   "\"checksum_only_open_seconds\": %.6f, "
                   "\"cold_start_speedup\": %.1f, \"zero_copy\": %s,\n",
                   p.gen_seconds, p.csv_cold_start_seconds,
                   p.mmap_cold_start_seconds, p.checksum_only_open_seconds,
                   p.cold_start_speedup, p.zero_copy ? "true" : "false");
      std::fprintf(f,
                   "       \"queries\": %zu, \"qps\": %.1f, "
                   "\"mean_query_us\": %.1f,\n",
                   p.queries, p.qps, p.mean_query_us);
      std::fprintf(f,
                   "       \"landmark_build_seconds\": %.3f, "
                   "\"landmark_bytes\": %zu, "
                   "\"plain_mean_settles\": %.1f, "
                   "\"goal_mean_query_us\": %.1f, "
                   "\"goal_mean_settles\": %.1f,\n",
                   p.landmark_build_seconds, p.landmark_bytes,
                   p.plain_mean_settles, p.goal_mean_query_us,
                   p.goal_mean_settles);
      std::fprintf(f,
                   "       \"plain_pref_mean_query_us\": %.1f, "
                   "\"plain_pref_mean_settles\": %.1f, "
                   "\"goal_pref_mean_query_us\": %.1f, "
                   "\"goal_pref_mean_settles\": %.1f}%s\n",
                   p.plain_pref_mean_query_us, p.plain_pref_mean_settles,
                   p.goal_pref_mean_query_us, p.goal_pref_mean_settles,
                   i + 1 == ladder_points.size() ? "" : ",");
    }
    std::fprintf(f, "    ]\n  },\n");
  } else {
    std::fprintf(f, "  \"scale_ladder\": null,\n");
  }
  if (scale_out_enabled) {
    std::fprintf(f, "  \"scale_out\": {\n");
    std::fprintf(f, "    \"hw_threads\": %u, \"single_core\": %s,\n",
                 hw_threads, single_core ? "true" : "false");
    std::fprintf(f, "    \"serving_runs\": [\n");
    for (size_t i = 0; i < scale_out_runs.size(); ++i) {
      const ScaleOutRun& run = scale_out_runs[i];
      std::fprintf(f,
                   "      {\"threads\": %u, \"qps\": %.1f, "
                   "\"identical\": %s}%s\n",
                   run.threads, run.qps, run.identical ? "true" : "false",
                   i + 1 == scale_out_runs.size() ? "" : ",");
    }
    std::fprintf(f, "    ],\n");
    std::fprintf(f, "    \"drain_audits\": [\n");
    for (size_t i = 0; i < drain_audits.size(); ++i) {
      const DrainAudit& audit = drain_audits[i];
      std::fprintf(
          f,
          "      {\"drains\": %u, \"qps\": %.1f, \"identical\": %s, "
          "\"hits\": %llu, \"hot_hits\": %llu, \"batches\": %llu}%s\n",
          audit.drains, audit.qps, audit.identical ? "true" : "false",
          static_cast<unsigned long long>(audit.hits),
          static_cast<unsigned long long>(audit.hot_hits),
          static_cast<unsigned long long>(audit.batches),
          i + 1 == drain_audits.size() ? "" : ",");
    }
    std::fprintf(f, "    ]\n  },\n");
  } else {
    std::fprintf(f, "  \"scale_out\": null,\n");
  }
  std::fprintf(f, "  \"deterministic_across_threads\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    std::fprintf(f,
                 "    {\"threads\": %u, \"qps\": %.1f, "
                 "\"best_batch_seconds\": %.4f}%s\n",
                 runs[i].threads, runs[i].qps, runs[i].best_batch_seconds,
                 i + 1 == runs.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("[json] wrote %s\n", out_path.c_str());
  return deterministic && scenarios_ok && streaming_ok && overload_ok &&
                 dynamic_ok && scale_out_ok
             ? 0
             : 2;
}
