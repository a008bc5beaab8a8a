// Serving-path throughput bench: writes BENCH_query_throughput.json, the
// repo's perf trajectory (see README "Benchmarking" for the schema and
// scripts/bench_check.py for its gates).
//
// The bench is a fixture plus a table of blocks. The fixture holds only
// what more than one block reads: the generated city and the L2R router
// built on it, the query set (held-out trajectory queries topped up with
// uniform random pairs) and its region mix, the bare-router reference
// results every byte audit compares against, and the cache-off serving
// pass whose mean latency sizes the overload sweep. Each block is a
// `{name, selectable, run}` entry in kBlocks; `run` returns the block's
// JSON, which lands under `name` in the artifact, and clears `*ok` when
// an in-bench gate trips (the process then exits 2).
//
// Always-on blocks: offline_build (the fixture router's build report per
// period), latency_us (sequential per-query latency), serving
// (cache-off vs cache-on over a skewed repeated-query workload), runs
// (cold batch QPS at t = 1/2/4/8) and scenarios (bench/workloads.h traffic
// shapes with batch dedup off/on and an uncached thread ladder). Selectable
// blocks: streaming, deadline_sweep, overload_sweep, dynamic_world,
// scale_ladder and scale_out. Blocks run in table order; dynamic_world
// updates the fixture's world in place and restores it byte-exactly (an
// audited gate), so the blocks after it see the same world.
//
// Environment: L2R_BENCH_SCALE (default 0.3), L2R_BENCH_QUERIES (default
// 1200), L2R_BENCH_OUT (default BENCH_query_throughput.json) and
// L2R_BENCH_ONLY, a comma-separated subset of the selectable blocks to run
// (every other selectable block is written as null).
//
// Adding a block: write `Json MyBlock(const Fixture&, bool* ok)`, add one
// kBlocks entry, and declare its key paths and checks in
// scripts/bench_check.py.

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/timer.h"
#include "core/batch_router.h"
#include "pref/preference.h"
#include "roadnet/generator.h"
#include "roadnet/snapshot.h"
#include "roadnet/weights.h"
#include "routing/dijkstra.h"
#include "routing/goal_potential.h"
#include "routing/preference_dijkstra.h"
#include "routing/slave_reachability.h"
#include "serve/overload_controller.h"
#include "serve/serving_router.h"
#include "serve/stream_router.h"
#include "workloads.h"
#include "world/route_repairer.h"
#include "world/update_channel.h"

using namespace l2r;

namespace {

/// Serving fallback budget and mean streaming arrival gap (microseconds).
constexpr double kBudgetUs = 25;
constexpr double kStreamGapUs = 50;
constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

size_t ThroughputQueries() {
  const char* env = std::getenv("L2R_BENCH_QUERIES");
  return env != nullptr ? static_cast<size_t>(std::atoll(env)) : 1200;
}

std::string OutPath() {
  const char* env = std::getenv("L2R_BENCH_OUT");
  return env != nullptr ? env : "BENCH_query_throughput.json";
}

/// Minimal ordered JSON tree. Numbers print with a fixed number of
/// decimals (integers with none); strings are bench-made names and are
/// written unescaped.
class Json {
 public:
  Json() = default;  // null
  Json(bool b) : kind_(Kind::kBool), num_(b ? 1 : 0) {}
  template <std::integral T>
  Json(T v) : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}
  Json(double v, int decimals = 2)
      : kind_(Kind::kNumber), num_(v), decimals_(decimals) {}
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  Json(const char* s) : Json(std::string(s)) {}

  static Json Object(
      std::initializer_list<std::pair<const char*, Json>> members = {}) {
    Json j;
    j.kind_ = Kind::kObject;
    for (const auto& [key, value] : members) j.Set(key, value);
    return j;
  }
  static Json Array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  Json& Set(std::string key, Json value) {
    keys_.push_back(std::move(key));
    items_.push_back(std::move(value));
    return *this;
  }
  Json& Push(Json value) {
    items_.push_back(std::move(value));
    return *this;
  }
  size_t size() const { return items_.size(); }

  /// Objects and arrays holding only scalars print on one line.
  void Dump(std::string* out, int indent = 0) const {
    switch (kind_) {
      case Kind::kNull: *out += "null"; return;
      case Kind::kBool: *out += num_ != 0 ? "true" : "false"; return;
      case Kind::kString: *out += '"' + str_ + '"'; return;
      case Kind::kNumber: {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.*f", decimals_, num_);
        *out += buf;
        return;
      }
      default: break;
    }
    const bool object = kind_ == Kind::kObject;
    const bool flat = std::none_of(items_.begin(), items_.end(), [](auto& j) {
      return j.kind_ == Kind::kObject || j.kind_ == Kind::kArray;
    });
    const std::string pad =
        flat ? " " : "\n" + std::string(static_cast<size_t>(indent) + 2, ' ');
    *out += object ? '{' : '[';
    for (size_t i = 0; i < items_.size(); ++i) {
      *out += i == 0 ? (flat ? "" : pad) : "," + pad;
      if (object) *out += '"' + keys_[i] + "\": ";
      items_[i].Dump(out, indent + 2);
    }
    if (!flat) *out += "\n" + std::string(static_cast<size_t>(indent), ' ');
    *out += object ? '}' : ']';
  }

 private:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind_ = Kind::kNull;
  double num_ = 0;
  int decimals_ = 0;
  std::string str_;
  std::vector<std::string> keys_;
  std::vector<Json> items_;
};

/// Everything more than one block reads. Blocks get it const; the world
/// and the router sit behind pointers because dynamic_world updates them
/// in place (and restores them byte-exactly).
struct Fixture {
  double scale = 0;
  DatasetSpec spec;
  std::unique_ptr<BuiltDataset> data;
  std::unique_ptr<L2RRouter> router;
  std::vector<BatchQuery> queries;
  size_t mix[kNumRegionCategories] = {};
  /// BatchRouter at t = 1 over `queries`: the byte-audit reference.
  std::vector<Result<RouteResult>> reference;
  /// Cache-off serving pass over SkewedWorkload: the serving block
  /// reports it, and its mean service time is the capacity estimate the
  /// overload sweep sizes its offered load from.
  std::vector<double> serve_off_us;
  uint64_t serve_off_degraded = 0;
  double capacity_gap_us = 0;
};

/// A registered block: artifact key and L2R_BENCH_ONLY name, whether
/// L2R_BENCH_ONLY can leave it out, and its run function.
struct Block {
  const char* name;
  bool selectable;
  Json (*run)(const Fixture&, bool* ok);
};

[[noreturn]] void Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

template <typename Router>
Result<RouteResult> RouteQuery(Router& router, L2RQueryContext* ctx,
                               const BatchQuery& q) {
  return router.Route(ctx, q.s, q.d, q.departure_time);
}

/// Slots of `got` that are not byte-equivalent to `want`'s.
size_t Mismatches(const std::vector<Result<RouteResult>>& want,
                  const std::vector<Result<RouteResult>>& got) {
  size_t bad = want.size() == got.size() ? 0 : 1;
  for (size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    const auto& a = want[i];
    const auto& b = got[i];
    const bool same = a.ok() == b.ok() &&
                      (a.ok() ? *a == *b
                              : a.status().code() == b.status().code());
    if (!same) ++bad;
  }
  return bad;
}

/// {mean, p50, p95, p99} of a latency sample in microseconds.
Json Summary(const std::vector<double>& us) {
  RunningStats acc;
  for (const double v : us) acc.Add(v);
  return Json::Object({{"mean", acc.mean()},
                       {"p50", Percentile(us, 0.50)},
                       {"p95", Percentile(us, 0.95)},
                       {"p99", Percentile(us, 0.99)}});
}

/// Wall time of each `route(i)`, i < n, in microseconds.
template <typename Fn>
std::vector<double> TimeEach(size_t n, const Fn& route) {
  std::vector<double> us(n);
  for (size_t i = 0; i < n; ++i) {
    Timer t;
    (void)route(i);
    us[i] = t.ElapsedSeconds() * 1e6;
  }
  return us;
}

std::vector<BatchQuery> Pick(const std::vector<BatchQuery>& pool,
                             const std::vector<size_t>& order) {
  std::vector<BatchQuery> out;
  out.reserve(order.size());
  for (const size_t i : order) out.push_back(pool[i]);
  return out;
}

/// Best-of-`reps` wall time of `batch.RouteAll(queries)`; when `want` is
/// given, every pass is byte-audited against it and `*identical` cleared
/// on a mismatch.
double BestOf(int reps, BatchRouter& batch,
              const std::vector<BatchQuery>& queries,
              const std::vector<Result<RouteResult>>* want = nullptr,
              bool* identical = nullptr) {
  double best = kInfCost;
  for (int rep = 0; rep < reps; ++rep) {
    Timer t;
    const auto out = batch.RouteAll(queries);
    best = std::min(best, t.ElapsedSeconds());
    if (want != nullptr && Mismatches(*want, out) != 0) *identical = false;
  }
  return best;
}

ServingRouterOptions Serving(bool cache, double budget_us) {
  ServingRouterOptions options;
  options.enable_cache = cache;
  options.deadline.fallback_budget_us = budget_us;
  return options;
}

/// The serving workload: 3x the distinct pool, 80% of it on the hot 10%
/// of distinct queries, the way popular pairs dominate real traffic.
std::vector<size_t> SkewedWorkload(size_t distinct) {
  const size_t hot = distinct < 10 ? 1 : distinct / 10;
  Rng rng(911);
  std::vector<size_t> order;
  order.reserve(3 * distinct);
  for (size_t i = 0; i < 3 * distinct; ++i) {
    order.push_back(rng.Bernoulli(0.8) ? rng.Index(hot) : rng.Index(distinct));
  }
  return order;
}

/// Submits queries[i] at the cumulative time gap_us[0..i] (back to back
/// when `gap_us` is empty) and waits until every query resolved. Gaps are
/// tens of µs, below what a sleep honors, so pacing spins; it yields so
/// the batcher still runs on a 1-core host. `record(i, result)` runs on a
/// batcher thread (or inside Submit for a shed query) and may write only
/// slot i. Returns {seconds to submit, seconds to resolve}.
template <typename Record>
std::pair<double, double> Replay(StreamRouter& stream,
                                 const std::vector<BatchQuery>& queries,
                                 const std::vector<int64_t>& gap_us,
                                 const Record& record) {
  Timer wall;
  int64_t due_us = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!gap_us.empty()) due_us += gap_us[i];
    while (wall.ElapsedSeconds() * 1e6 < static_cast<double>(due_us)) {
      std::this_thread::yield();
    }
    stream.Submit(queries[i],
                  [&record, i](const StreamResult& r) { record(i, r); });
  }
  const double submit_seconds = wall.ElapsedSeconds();
  for (;;) {
    const StreamRouter::Stats s = stream.GetStats();
    if (s.completed + s.shed + s.failed_on_shutdown >= queries.size()) break;
    std::this_thread::yield();
  }
  return {submit_seconds, wall.ElapsedSeconds()};
}

/// A paced replay through StreamRouter (dedup on) over a fresh cache-on
/// serving stack: the streaming and deadline-sweep measurement.
struct QueueWaitRun {
  StreamRouter::Stats stats;
  std::vector<double> queue_wait_us;
  double qps = 0;
};
QueueWaitRun ReplayQueueWaits(const Fixture& fx,
                              const std::vector<BatchQuery>& queries,
                              const std::vector<int64_t>& gap_us,
                              int64_t deadline_us) {
  ServingRouter serving(fx.router.get(), Serving(true, kBudgetUs));
  StreamOptions options;
  options.batch_deadline_us = deadline_us;
  options.dedup = true;
  StreamRouter stream(&serving, options);
  QueueWaitRun run;
  run.queue_wait_us.resize(queries.size());
  const double seconds =
      Replay(stream, queries, gap_us, [&run](size_t i, const StreamResult& r) {
        run.queue_wait_us[i] = static_cast<double>(r.queue_wait_us);
      }).second;
  run.stats = stream.GetStats();
  run.qps = static_cast<double>(queries.size()) / seconds;
  return run;
}

// ---------------------------------------------------------------- blocks

/// The fixture router's offline build (L2RRouter::build_report), the
/// process cold-start path: per period the region graph's size, the
/// learn, transfer adjacency, transfer solve and apply seconds, M's
/// off-diagonal nnz, the most CG iterations a column took and whether
/// every column converged; then the whole build's seconds.
Json OfflineBuildBlock(const Fixture& fx, bool*) {
  const L2RBuildReport& report = fx.router->build_report();
  Json periods = Json::Array();
  for (int p = 0; p < kNumTimePeriods; ++p) {
    const L2RBuildReport::PeriodReport& rep = report.period[p];
    periods.Push(Json::Object(
        {{"period", p == 0 ? "off_peak" : "peak"},
         {"regions", rep.num_regions},
         {"t_edges", rep.num_t_edges},
         {"b_edges", rep.num_b_edges},
         {"learn_seconds", Json(rep.learn_seconds, 4)},
         {"adjacency_seconds", Json(rep.transfer_build_seconds, 4)},
         {"solve_seconds", Json(rep.transfer_solve_seconds, 4)},
         {"apply_seconds", Json(rep.apply_seconds, 4)},
         {"m_nnz", rep.transfer_adjacency_nnz},
         {"cg_iterations", rep.transfer_solver_iterations},
         {"transfer_converged", rep.transfer_converged}}));
  }
  return Json::Object({{"periods", periods},
                       {"total_seconds", Json(report.total_seconds, 4)}});
}

/// Sequential per-query latency, one reused context, after a 64-query
/// warm-up so first-touch page faults do not skew the percentiles.
Json LatencyBlock(const Fixture& fx, bool*) {
  L2RQueryContext ctx = fx.router->MakeContext();
  auto route = [&](size_t i) {
    return RouteQuery(*fx.router, &ctx, fx.queries[i]);
  };
  for (size_t i = 0; i < std::min<size_t>(64, fx.queries.size()); ++i) {
    (void)route(i);
  }
  return Summary(TimeEach(fx.queries.size(), route));
}

/// The skewed workload without (fixture) and with the route cache, under
/// the same fallback budget so the delta isolates the cache. No warm-up:
/// the pass measures a cold cache by design.
Json ServingBlock(const Fixture& fx, bool*) {
  const std::vector<size_t> workload = SkewedWorkload(fx.queries.size());
  ServingRouter serving(fx.router.get(), Serving(true, kBudgetUs));
  L2RQueryContext ctx = fx.router->MakeContext();
  Json on = Summary(TimeEach(workload.size(), [&](size_t i) {
    return RouteQuery(serving, &ctx, fx.queries[workload[i]]);
  }));
  const ServingRouter::Stats s = serving.GetStats();
  on.Set("hit_rate", Json(Ratio(static_cast<double>(s.cache.hits),
                                static_cast<double>(s.cache.hits +
                                                    s.cache.misses)),
                          4))
      .Set("hits", s.cache.hits)
      .Set("misses", s.cache.misses)
      .Set("evictions", s.cache.evictions)
      .Set("cache_entries", s.cache.entries)
      .Set("cache_bytes", s.cache.bytes)
      .Set("budget_degraded", s.budget_degraded);
  Json off = Summary(fx.serve_off_us);
  off.Set("budget_degraded", fx.serve_off_degraded);
  return Json::Object({{"workload_queries", workload.size()},
                       {"distinct_queries", fx.queries.size()},
                       {"hot_fraction", 0.1},
                       {"hot_traffic", 0.8},
                       {"budget_us", kBudgetUs},
                       {"cache_off", off},
                       {"cache_on", on}});
}

/// Cold batch throughput through BatchRouter at each thread count, best of
/// 3, every pass byte-audited against the reference (the verdict is the
/// artifact's deterministic_across_threads).
Json RunsBlock(const Fixture& fx, bool* ok) {
  Json runs = Json::Array();
  for (const unsigned threads : kThreadCounts) {
    BatchRouter batch(fx.router.get(), threads);
    (void)batch.RouteAll(fx.queries);  // creates the contexts
    const double best = BestOf(3, batch, fx.queries, &fx.reference, ok);
    runs.Push(Json::Object(
        {{"threads", threads},
         {"qps", static_cast<double>(fx.queries.size()) / best},
         {"best_batch_seconds", Json(best, 4)}}));
  }
  return runs;
}

/// Named traffic shapes over the distinct pool (bench/workloads.h), each
/// with batch dedup off and on (bare router, t = 1, so the delta is pure
/// dedup), then raced through an uncached ServingRouter (cache off, so
/// every duplicate reaches the cold path) at t = 1/2/4/8 against
/// the dedup-off results.
Json ScenariosBlock(const Fixture& fx, bool* ok) {
  const size_t distinct = fx.queries.size();
  Json out = Json::Object();
  for (const bench::Scenario& sc :
       bench::BuildScenarios(distinct, 2 * distinct, 4242)) {
    const std::vector<BatchQuery> sq = Pick(fx.queries, sc.order);
    const double n = static_cast<double>(sq.size());
    BatchRouter off(fx.router.get(), BatchRouterOptions{1, false});
    const auto want = off.RouteAll(sq);  // warm-up and slot reference
    const double off_best = BestOf(2, off, sq);
    BatchRouter on(fx.router.get(), BatchRouterOptions{1, true});
    const bool coalesced = Mismatches(want, on.RouteAll(sq)) == 0;
    const uint64_t collapsed = on.DuplicatesCollapsed();
    const double on_best = BestOf(2, on, sq);

    bool deterministic = true;
    for (const unsigned threads : kThreadCounts) {
      ServingRouter uncached(fx.router.get(), Serving(false, 0));
      BatchRouter batch(&uncached, BatchRouterOptions{threads, false});
      deterministic &= Mismatches(want, batch.RouteAll(sq)) == 0;
    }
    *ok &= coalesced && deterministic;
    const size_t distinct_used =
        std::unordered_set<size_t>(sc.order.begin(), sc.order.end()).size();
    out.Set(sc.name,
            Json::Object(
                {{"slots", sq.size()},
                 {"distinct_used", distinct_used},
                 {"duplicate_fraction",
                  Json(bench::DuplicateFraction(sc.order), 4)},
                 {"dedup_off", Json::Object({{"qps", n / off_best},
                                             {"mean_us", off_best * 1e6 / n}})},
                 {"dedup_on",
                  Json::Object({{"qps", n / on_best},
                                {"mean_us", on_best * 1e6 / n},
                                {"unique_routed", sq.size() - collapsed},
                                {"duplicates_collapsed", collapsed}})},
                 {"coalesced_identical", coalesced},
                 {"deterministic_t1248", deterministic}}));
  }
  return out;
}

/// Poisson and bursty arrivals over a Zipf-skewed order through
/// StreamRouter, which closes batches by size or deadline and drains them
/// through the full serving stack.
Json StreamingBlock(const Fixture& fx, bool* ok) {
  constexpr int64_t kDeadlineUs = 1000;
  const size_t slots = 2 * fx.queries.size();
  const std::vector<BatchQuery> order = Pick(
      fx.queries, bench::ZipfScenario(fx.queries.size(), slots, 727).order);
  Json out = Json::Object({{"max_batch", StreamRouter::kMaxBatch},
                           {"batch_deadline_us", kDeadlineUs},
                           {"mean_gap_us", kStreamGapUs}});
  for (const bench::ArrivalSchedule& schedule :
       bench::BuildArrivalSchedules(slots, kStreamGapUs, 727)) {
    const QueueWaitRun run =
        ReplayQueueWaits(fx, order, schedule.gap_us, kDeadlineUs);
    const StreamRouter::Stats& s = run.stats;
    *ok &= s.submitted == slots && s.completed == slots;
    Json hist = Json::Object();
    for (const auto& [size, count] : s.batch_size_hist) {
      hist.Set(std::to_string(size), count);
    }
    out.Set(schedule.name,
            Json::Object(
                {{"slots", slots},
                 {"submitted", s.submitted},
                 {"completed", s.completed},
                 {"schedule_mean_gap_us", bench::MeanGapUs(schedule)},
                 {"qps", run.qps},
                 {"batches", s.batches},
                 {"mean_batch", Ratio(static_cast<double>(slots),
                                      static_cast<double>(s.batches))},
                 {"closed_by_size", s.closed_by_size},
                 {"closed_by_deadline", s.closed_by_deadline},
                 {"closed_by_shutdown", s.closed_by_shutdown},
                 {"queue_wait_us", Summary(run.queue_wait_us)},
                 {"batch_size_hist", hist}}));
  }
  return out;
}

/// One Poisson schedule replayed at a ladder of batch deadlines: the
/// latency/throughput tradeoff the overload controller walks at runtime,
/// and where its min/max deadline bounds come from.
Json DeadlineSweepBlock(const Fixture& fx, bool*) {
  const size_t slots = 2 * fx.queries.size();
  const std::vector<BatchQuery> order = Pick(
      fx.queries, bench::ZipfScenario(fx.queries.size(), slots, 929).order);
  const bench::ArrivalSchedule schedule =
      bench::PoissonArrivals(slots, kStreamGapUs, 929);
  Json points = Json::Array();
  for (const int64_t deadline_us : {100, 250, 500, 1000, 2000}) {
    const QueueWaitRun run =
        ReplayQueueWaits(fx, order, schedule.gap_us, deadline_us);
    points.Push(Json::Object(
        {{"deadline_us", deadline_us},
         {"qps", run.qps},
         {"mean_batch", Ratio(static_cast<double>(slots),
                              static_cast<double>(run.stats.batches))},
         {"closed_by_size", run.stats.closed_by_size},
         {"closed_by_deadline", run.stats.closed_by_deadline},
         {"queue_wait_us", Summary(run.queue_wait_us)}}));
  }
  return Json::Object({{"max_batch", StreamRouter::kMaxBatch},
                       {"mean_gap_us", kStreamGapUs},
                       {"points", points}});
}

/// Offered load from half to ten times the cache-off capacity, served by
/// StreamRouter under the OverloadController with a 70/30 interactive/bulk
/// mix. The cache stays off so capacity is flat across points and the
/// controller, not the hit rate, absorbs the excess.
Json OverloadSweepBlock(const Fixture& fx, bool* ok) {
  constexpr double kBulkFraction = 0.3;
  constexpr int64_t kSloUs = OverloadController::kSloQueueWaitUs;
  const double capacity_qps = 1e6 / std::max(fx.capacity_gap_us, 1.0);
  bool sweep_ok = true;
  Json points = Json::Array();
  for (const double multiplier : {0.5, 1.0, 2.0, 4.0, 10.0}) {
    // ~0.25 s of offered traffic, so every point spans dozens of control
    // periods whatever the rate.
    const size_t slots = std::min<size_t>(
        60'000, std::max<size_t>(2'000, static_cast<size_t>(
                                            capacity_qps * multiplier * 0.25)));
    std::vector<BatchQuery> order = Pick(
        fx.queries,
        bench::UniformScenario(fx.queries.size(), slots, 1331).order);
    const std::vector<QueryClass> classes =
        bench::ClassMix(slots, kBulkFraction, 1332);
    for (size_t i = 0; i < slots; ++i) order[i].query_class = classes[i];
    const bench::ArrivalSchedule schedule =
        bench::OverloadArrivals(slots, fx.capacity_gap_us, multiplier, 1333);

    ServingRouter serving(fx.router.get(), Serving(false, kBudgetUs));
    // Shed once the backlog needs slo/8 to drain, panic (2 x shed) at
    // slo/4: a served query's wait stays well inside the SLO even on top
    // of a flood.
    OverloadController controller(std::max<size_t>(
        32, static_cast<size_t>(capacity_qps * kSloUs / 8e6)));
    StreamOptions options;
    options.dedup = false;
    options.num_threads = 1;
    options.overload = &controller;
    options.budget_sink = [&serving](double s) { serving.SetBudgetScale(s); };
    StreamRouter stream(&serving, options);

    std::vector<double> drain_wait_us(slots, 0.0);
    std::vector<uint8_t> shed(slots, 0);
    std::vector<uint8_t> bad_shed(slots, 0);
    const auto [submit_s, total_s] = Replay(
        stream, order, schedule.gap_us, [&](size_t i, const StreamResult& r) {
          drain_wait_us[i] = static_cast<double>(r.drain_wait_us);
          shed[i] = r.shed ? 1 : 0;
          bad_shed[i] = r.shed && r.result.status().code() !=
                                      StatusCode::kResourceExhausted;
        });
    const StreamRouter::Stats s = stream.GetStats();
    bool shed_status_ok = true;
    std::vector<double> served_interactive_us;
    for (size_t i = 0; i < slots; ++i) {
      shed_status_ok &= bad_shed[i] == 0;
      if (shed[i] == 0 && classes[i] == QueryClass::kInteractive) {
        served_interactive_us.push_back(drain_wait_us[i]);
      }
    }
    const bool conserved = s.submitted == s.completed + s.shed;
    sweep_ok &= conserved && shed_status_ok;
    auto by_class = [&s](QueryClass c) {
      const size_t k = static_cast<size_t>(c);
      return Json::Object({{"submitted", s.submitted_by_class[k]},
                           {"shed", s.shed_by_class[k]}});
    };
    const OverloadController::Stats c = controller.GetStats();
    points.Push(Json::Object(
        {{"multiplier", multiplier},
         {"slots", slots},
         {"offered_qps", static_cast<double>(slots) / submit_s},
         {"goodput_qps", static_cast<double>(s.completed) / total_s},
         {"submitted", s.submitted},
         {"completed", s.completed},
         {"shed", s.shed},
         {"conserved", conserved},
         {"shed_status_ok", shed_status_ok},
         {"interactive", by_class(QueryClass::kInteractive)},
         {"bulk", by_class(QueryClass::kBulk)},
         {"interactive_drain_wait_us", Summary(served_interactive_us)},
         {"controller",
          Json::Object({{"ticks", c.ticks},
                        {"overloaded_ticks", c.overloaded_ticks},
                        {"deadline_cuts", c.deadline_cuts},
                        {"deadline_recoveries", c.deadline_recoveries},
                        {"level_raises", c.level_raises},
                        {"level_drops", c.level_drops},
                        {"final_level", c.level},
                        {"final_deadline_us", c.batch_deadline_us}})}}));
  }
  *ok &= sweep_ok;
  return Json::Object({{"capacity_qps", capacity_qps},
                       {"bulk_fraction", kBulkFraction},
                       {"slo_us", kSloUs},
                       {"ok", sweep_ok},
                       {"points", points}});
}

/// Live weight updates through WorldUpdateChannel with cache repair
/// (RouteRepairer) in three scenarios. After each update batch the
/// synchronous repair pass runs (BackgroundTick(0, 1), reported through
/// GetBackgroundStats() deltas), the whole pool is recomputed cold on the
/// new epoch (the wholesale cost the repair is up against, and the
/// oracle), and every served result is byte-compared against it: the
/// no-stale-serve gate.
/// Each scenario ends by restoring the world exactly, checked against the
/// epoch-0 bytes.
Json DynamicWorldBlock(const Fixture& fx, bool* ok) {
  const L2RRouter& l2r = *fx.router;
  WorldUpdateChannel channel(&fx.data->world.net, fx.router.get());
  // Budget off: the byte audits compare exact routes.
  ServingRouterOptions options = Serving(true, 0);
  options.world = &channel;
  ServingRouter serving(&l2r, options);
  RouteRepairer repairer(&serving);
  L2RQueryContext serve_ctx = l2r.MakeContext();
  L2RQueryContext cold_ctx = l2r.MakeContext();
  const size_t pool = std::min<size_t>(fx.queries.size(), 400);
  auto route_pool = [&](auto& router, L2RQueryContext* ctx) {
    std::vector<Result<RouteResult>> out;
    out.reserve(pool);
    for (size_t i = 0; i < pool; ++i) {
      out.push_back(RouteQuery(router, ctx, fx.queries[i]));
    }
    return out;
  };
  // The warm pass fills the cache and records the epoch-0 bytes.
  const std::vector<Result<RouteResult>> baseline =
      route_pool(serving, &serve_ctx);

  // Incident sites: distinct mid-edges of the warm routes, so every batch
  // hits an edge some cached entry rides.
  std::vector<EdgeId> sites;
  std::unordered_set<EdgeId> seen;
  for (const auto& r : baseline) {
    if (!r.ok() || r->path.vertices.size() < 2) continue;
    const std::vector<VertexId>& v = r->path.vertices;
    const size_t m = std::min(v.size() / 2, v.size() - 2);
    const EdgeId e = fx.data->world.net.FindEdge(v[m], v[m + 1]);
    if (e != kInvalidEdge && seen.insert(e).second) sites.push_back(e);
  }
  size_t next_site = 0;
  auto take_sites = [&](size_t n) {
    std::vector<EdgeId> out;
    while (out.size() < n && next_site < sites.size()) {
      out.push_back(sites[next_site++]);
    }
    return out;
  };

  // Per-scenario state, reset by finish().
  Json points = Json::Array();
  bool monotone = true;
  uint64_t stale = 0;
  WorldEpoch prev_epoch = channel.CurrentEpoch();
  double incident_ratio = 0;
  auto run_point = [&](const WorldUpdateBatch& batch, const char* kind) {
    const size_t cached = serving.GetStats().cache.entries;
    const WorldUpdateChannel::ApplyReport applied = channel.Apply(batch);
    monotone &= applied.epoch > prev_epoch;
    prev_epoch = applied.epoch;
    const RouteRepairer::BackgroundStats before =
        repairer.GetBackgroundStats();
    repairer.BackgroundTick(0, 1);
    const RouteRepairer::BackgroundStats after =
        repairer.GetBackgroundStats();
    const uint64_t candidates = after.candidates - before.candidates;
    const uint64_t repair_settles =
        after.repair_settles - before.repair_settles;
    const uint64_t settles0 = cold_ctx.TotalSettles();
    const auto fresh = route_pool(l2r, &cold_ctx);
    const uint64_t wholesale = cold_ctx.TotalSettles() - settles0;
    const uint64_t misses0 = serving.GetStats().cache.misses;
    const uint64_t stale_serves =
        Mismatches(fresh, route_pool(serving, &serve_ctx));
    stale += stale_serves;
    const double ratio = Ratio(static_cast<double>(repair_settles),
                               static_cast<double>(wholesale));
    points.Push(Json::Object(
        {{"kind", kind},
         {"epoch", applied.epoch},
         {"edges_touched", applied.edges_touched},
         {"cached_entries", cached},
         {"invalidated", candidates},
         {"staleness", Json(Ratio(static_cast<double>(candidates),
                                  static_cast<double>(cached)),
                            4)},
         {"repaired", after.repaired - before.repaired},
         {"unroutable", after.unroutable - before.unroutable},
         {"repair_settles", repair_settles},
         {"wholesale_settles", wholesale},
         {"repair_cost_ratio", Json(ratio, 4)},
         {"stale_serves", stale_serves},
         {"serve_misses", serving.GetStats().cache.misses - misses0}}));
    return ratio;
  };
  Json scenarios = Json::Array();
  bool world_ok = true;
  auto finish = [&](const char* name) {
    const bool restored =
        Mismatches(baseline, route_pool(serving, &serve_ctx)) == 0;
    world_ok &= points.size() > 0 && monotone && stale == 0 && restored;
    scenarios.Push(Json::Object({{"name", name},
                                 {"epochs_monotone", monotone},
                                 {"stale_serves", stale},
                                 {"restored_identical", restored},
                                 {"points", points}}));
    points = Json::Array();
    monotone = true;
    stale = 0;
  };

  // incident_injection: cumulative waves of mid-route slowdowns (x0.5:
  // cost-increasing, so invalidation is selective), then one x2.0
  // recovery batch (wholesale) that restores the exact epoch-0 weights.
  // The inject points trace the staleness-vs-recompute-cost curve; the
  // gate reads the single-incident point.
  for (const size_t n : {1u, 2u, 4u, 8u, 16u}) {
    const std::vector<EdgeId> wave = take_sites(n);
    if (wave.empty()) break;
    WorldUpdateBatch batch;
    for (const EdgeId e : wave) batch.deltas.push_back({e, 0.5});
    const double ratio = run_point(batch, "inject");
    if (n == 1) incident_ratio = ratio;
  }
  WorldUpdateBatch recover;
  for (size_t i = 0; i < next_site; ++i) {
    recover.deltas.push_back({sites[i], 2.0});
  }
  run_point(recover, "restore");
  world_ok &= incident_ratio < 0.3;
  finish("incident_injection");

  // rush_hour_transition: the clock enters rush hour (peak period dirtied
  // wholesale) while a few arterials congest; leaving lifts it exactly.
  const std::vector<EdgeId> arterials = take_sites(4);
  WorldUpdateBatch begin;
  begin.period_transition = TimePeriod::kPeak;
  for (const EdgeId e : arterials) begin.deltas.push_back({e, 0.5});
  run_point(begin, "transition");
  WorldUpdateBatch end;
  end.period_transition = TimePeriod::kOffPeak;
  for (const EdgeId e : arterials) end.deltas.push_back({e, 2.0});
  run_point(end, "restore");
  finish("rush_hour_transition");

  // rolling_closures: a moving work zone; each wave closes two fresh edges
  // and reopens the previous pair, the last batch reopens the final pair.
  std::vector<EdgeId> open_next;
  for (int wave = 0; wave < 3; ++wave) {
    WorldUpdateBatch batch;
    batch.reopenings = open_next;
    open_next = take_sites(2);
    batch.closures = open_next;
    if (batch.empty()) break;
    run_point(batch, "wave");
  }
  if (!open_next.empty()) {
    WorldUpdateBatch fin;
    fin.reopenings = open_next;
    run_point(fin, "restore");
  }
  finish("rolling_closures");

  *ok &= world_ok;
  return Json::Object({{"pool_queries", pool},
                       {"incident_sites", sites.size()},
                       {"ok", world_ok},
                       {"incident_repair_cost_ratio", Json(incident_ratio, 4)},
                       {"scenarios", scenarios}});
}

/// Metro worlds at the bench scale x {1, 10/3, 10} (0.3/1.0/3.0 at the
/// default; rounded to 3 decimals so each rung is exactly the printed
/// one): footprint, snapshot mmap cold start, the slave reachability
/// oracle over the default feature space's masks, and fastest /
/// Algorithm 2 (highway slave, through the oracle) queries on the mapped
/// image, plain and goal-directed.
Json ScaleLadderBlock(const Fixture& fx, bool*) {
  const std::string snap_path = OutPath() + ".ladder.snap";
  constexpr size_t kQueries = 24;
  Json rungs = Json::Array();
  for (const double factor : {1.0, 10.0 / 3.0, 10.0}) {
    const double scale = std::round(fx.scale * factor * 1000) / 1000;
    Timer gen_timer;
    auto metro = GenerateNetwork(MetroScaleConfig(scale));
    if (!metro.ok()) Fail("scale ladder: generate", metro.status());
    const double gen_seconds = gen_timer.ElapsedSeconds();
    const size_t n = metro->net.NumVertices();
    const size_t m = metro->net.NumEdges();
    const size_t world_bytes = n * sizeof(Point) + m * sizeof(EdgeRecord) +
                               2 * (n + 1) * sizeof(uint32_t) +
                               2 * m * sizeof(EdgeId) + n * sizeof(uint8_t);
    if (auto s = WorldSnapshot::Write(*metro, snap_path); !s.ok()) {
      Fail("scale ladder: write", s);
    }
    Timer mmap_timer;
    auto mapped = WorldSnapshot::Open(snap_path);
    const double mmap_seconds = mmap_timer.ElapsedSeconds();
    if (!mapped.ok()) Fail("scale ladder: open", mapped.status());

    const RoadNetwork& mnet = mapped->world().net;
    const EdgeWeights weights(mnet, CostFeature::kTravelTime,
                              TimePeriod::kOffPeak);
    DijkstraSearch dijkstra(mnet);
    Timer reach_timer;
    const SlaveReachability reach = SlaveReachability::Build(
        mnet, PreferenceFeatureSpace::Default().slaves());
    const double reach_seconds = reach_timer.ElapsedSeconds();
    PreferenceDijkstra pref(mnet, &reach);
    const RoadTypeMask highway =
        RoadTypeBit(RoadType::kMotorway) | RoadTypeBit(RoadType::kTrunk);
    // Mean {us, settles} per query of `route(s, t)` over the rung's fixed
    // query sequence; `settles()` reads a lifetime settle counter.
    auto per_query = [&](const auto& route, const auto& settles) {
      Rng rng(0x5ca1eULL + static_cast<uint64_t>(scale * 100));
      const uint64_t settles0 = settles();
      Timer timer;
      for (size_t q = 0; q < kQueries; ++q) {
        const VertexId s = static_cast<VertexId>(rng.Index(n));
        const VertexId t = static_cast<VertexId>(rng.Index(n));
        route(s, t);
      }
      const double nq = static_cast<double>(kQueries);
      return std::pair<double, double>(
          timer.ElapsedSeconds() * 1e6 / nq,
          static_cast<double>(settles() - settles0) / nq);
    };
    auto dijkstra_settles = [&] { return dijkstra.LifetimeSettles(); };
    auto pref_settles = [&] { return pref.LifetimeSettles(); };
    const auto [plain_us, plain_settles] = per_query(
        [&](VertexId s, VertexId t) {
          (void)dijkstra.ShortestPath(s, t, weights);
        },
        dijkstra_settles);
    EdgeWeights goal = weights;
    Timer landmark_timer;
    const std::vector<std::vector<EdgeWeights*>> goal_group = {{&goal}};
    AttachGoalPotentials(mnet, goal_group);
    const double landmark_seconds = landmark_timer.ElapsedSeconds();
    const auto [goal_us, goal_settles] = per_query(
        [&](VertexId s, VertexId t) {
          (void)dijkstra.ShortestPath(s, t, goal);
        },
        dijkstra_settles);
    const auto [plain_pref_us, plain_pref_settles] = per_query(
        [&](VertexId s, VertexId t) {
          (void)pref.Route(s, t, weights, highway);
        },
        pref_settles);
    const auto [goal_pref_us, goal_pref_settles] = per_query(
        [&](VertexId s, VertexId t) { (void)pref.Route(s, t, goal, highway); },
        pref_settles);
    std::remove(snap_path.c_str());

    rungs.Push(Json::Object(
        {{"scale", Json(scale, 3)},
         {"num_vertices", n},
         {"num_edges", m},
         {"world_bytes", world_bytes},
         {"snapshot_bytes", mapped->file_bytes()},
         {"gen_seconds", Json(gen_seconds, 3)},
         {"mmap_cold_start_seconds", Json(mmap_seconds, 6)},
         {"snapshot_backed", mnet.snapshot_backed()},
         {"queries", kQueries},
         {"qps", 1e6 / plain_us},
         {"mean_query_us", plain_us},
         {"landmark_build_seconds", Json(landmark_seconds, 3)},
         {"landmark_bytes", (goal.landmarks()->dist.size() +
                             goal.landmarks()->floor.size()) *
                                sizeof(double)},
         {"reach_build_seconds", Json(reach_seconds, 3)},
         {"reach_bytes", reach.MemoryBytes()},
         {"plain_mean_settles", Json(plain_settles, 1)},
         {"goal_mean_query_us", goal_us},
         {"goal_mean_settles", Json(goal_settles, 1)},
         {"plain_pref_mean_query_us", plain_pref_us},
         {"plain_pref_mean_settles", Json(plain_pref_settles, 1)},
         {"goal_pref_mean_query_us", goal_pref_us},
         {"goal_pref_mean_settles", Json(goal_pref_settles, 1)}}));
  }
  return Json::Object({{"scales", rungs}});
}

/// The full serving stack (route cache on; no budget, so every result
/// must byte-match the reference)
/// warm at t = 1/2/4/8 batch threads, then a StreamRouter audit at 1/2/4
/// overlapping drain threads. Both ladders gate on byte identity.
Json ScaleOutBlock(const Fixture& fx, bool* ok) {
  const double n = static_cast<double>(fx.queries.size());
  const unsigned hw_threads = std::thread::hardware_concurrency();
  Json runs = Json::Array();
  for (const unsigned threads : kThreadCounts) {
    ServingRouter serving(fx.router.get(), Serving(true, 0));
    BatchRouter batch(&serving, BatchRouterOptions{threads, false});
    (void)batch.RouteAll(fx.queries);  // the cold pass fills the cache
    bool identical = true;
    const double best = BestOf(3, batch, fx.queries, &fx.reference, &identical);
    *ok &= identical;
    runs.Push(Json::Object(
        {{"threads", threads}, {"qps", n / best}, {"identical", identical}}));
  }
  Json audits = Json::Array();
  for (const unsigned drains : {1u, 2u, 4u}) {
    // A fresh cache per rung, so cold-path serves and cache hits both occur.
    ServingRouter serving(fx.router.get(), Serving(true, 0));
    StreamOptions options;
    options.batch_deadline_us = 200;
    options.num_threads = 2;
    options.num_drain_threads = drains;
    options.dedup = true;
    StreamRouter stream(&serving, options);
    std::vector<Result<RouteResult>> got(
        fx.queries.size(), Result<RouteResult>(Status::Internal("unrun")));
    const double seconds =
        Replay(stream, fx.queries, {}, [&got](size_t i, const StreamResult& r) {
          got[i] = r.result;
        }).second;
    stream.Shutdown();
    const StreamRouter::Stats s = stream.GetStats();
    const ServingRouter::Stats ss = serving.GetStats();
    const bool identical = Mismatches(fx.reference, got) == 0;
    *ok &= identical && s.drain_threads == drains;
    audits.Push(Json::Object({{"drains", drains},
                              {"qps", n / seconds},
                              {"identical", identical},
                              {"hits", ss.cache.hits},
                              {"batches", s.batches}}));
  }
  return Json::Object({{"hw_threads", hw_threads},
                       {"single_core", hw_threads <= 1},
                       {"serving_runs", runs},
                       {"drain_audits", audits}});
}

const Block kBlocks[] = {
    {"offline_build", false, OfflineBuildBlock},
    {"latency_us", false, LatencyBlock},
    {"serving", false, ServingBlock},
    {"runs", false, RunsBlock},
    {"scenarios", false, ScenariosBlock},
    {"streaming", true, StreamingBlock},
    {"deadline_sweep", true, DeadlineSweepBlock},
    {"overload_sweep", true, OverloadSweepBlock},
    {"dynamic_world", true, DynamicWorldBlock},
    {"scale_ladder", true, ScaleLadderBlock},
    {"scale_out", true, ScaleOutBlock},
};

/// Which blocks run: all of them, or the always-on ones plus the
/// selectable blocks L2R_BENCH_ONLY lists. Exits on an unknown name.
std::vector<bool> SelectedBlocks() {
  const char* env = std::getenv("L2R_BENCH_ONLY");
  const bool all = env == nullptr || *env == '\0';
  std::vector<bool> selected;
  for (const Block& b : kBlocks) selected.push_back(all || !b.selectable);
  if (all) return selected;
  const std::string only = env;
  for (size_t start = 0; start <= only.size();) {
    const size_t end = std::min(only.find(',', start), only.size());
    const std::string_view name(only.data() + start, end - start);
    start = end + 1;
    bool known = false;
    for (size_t i = 0; i < std::size(kBlocks); ++i) {
      if (kBlocks[i].selectable && name == kBlocks[i].name) {
        selected[i] = known = true;
      }
    }
    if (!known) {
      std::string names;
      for (const Block& b : kBlocks) {
        if (!b.selectable) continue;
        names += (names.empty() ? "" : ", ") + std::string(b.name);
      }
      std::fprintf(stderr,
                   "L2R_BENCH_ONLY: '%.*s' is not a selectable block (one of: "
                   "%s)\n",
                   static_cast<int>(name.size()), name.data(), names.c_str());
      std::exit(1);
    }
  }
  return selected;
}

std::unique_ptr<Fixture> MakeFixture() {
  auto fx = std::make_unique<Fixture>();
  fx->scale = bench::BenchScale();
  const size_t want = ThroughputQueries();
  std::printf("=== Query throughput (scale %.2f, %zu queries) ===\n",
              fx->scale, want);
  fx->spec = CityDataset(fx->scale);
  auto built = BuildDataset(fx->spec);
  if (!built.ok()) Fail("dataset", built.status());
  fx->data = std::make_unique<BuiltDataset>(std::move(built).value());
  const RoadNetwork& net = fx->data->world.net;
  auto router = L2RRouter::Build(&net, fx->data->split.train, L2ROptions{});
  if (!router.ok()) Fail("build", router.status());
  fx->router = std::move(router).value();
  const L2RRouter& l2r = *fx->router;

  // Held-out trajectory queries (mostly region-covered) topped up with
  // uniform random pairs (fallback and out-region coverage).
  std::vector<QueryCase> cases =
      BuildQueries(net, fx->data->split.test, want);
  Rng rng(127);
  while (cases.size() < want) {
    QueryCase q;
    q.s = static_cast<VertexId>(rng.Index(net.NumVertices()));
    q.d = static_cast<VertexId>(rng.Index(net.NumVertices()));
    if (q.s == q.d) continue;
    q.departure_time = rng.Bernoulli(0.5) ? 8 * 3600 : 13 * 3600;
    cases.push_back(q);
  }
  for (const QueryCase& q : cases) {
    fx->queries.push_back(BatchQuery{q.s, q.d, q.departure_time});
    ++fx->mix[static_cast<int>(CategorizeQuery(l2r, q))];
  }
  std::printf("[world] %zu vertices, %zu edges; mix %zu / %zu / %zu\n",
              net.NumVertices(), net.NumEdges(), fx->mix[0], fx->mix[1],
              fx->mix[2]);

  fx->reference = BatchRouter(&l2r, 1u).RouteAll(fx->queries);
  const std::vector<size_t> workload = SkewedWorkload(fx->queries.size());
  ServingRouter off(&l2r, Serving(false, kBudgetUs));
  L2RQueryContext ctx = l2r.MakeContext();
  fx->serve_off_us = TimeEach(workload.size(), [&](size_t i) {
    return RouteQuery(off, &ctx, fx->queries[workload[i]]);
  });
  fx->serve_off_degraded = off.GetStats().budget_degraded;
  RunningStats off_mean;
  for (const double us : fx->serve_off_us) off_mean.Add(us);
  fx->capacity_gap_us = off_mean.mean();
  return fx;
}

}  // namespace

int main() {
  const std::vector<bool> selected = SelectedBlocks();
  const std::unique_ptr<Fixture> fx = MakeFixture();
  size_t failures = 0;
  size_t methods[4] = {0, 0, 0, 0};
  for (const auto& r : fx->reference) {
    if (r.ok()) {
      ++methods[static_cast<int>(r->method)];
    } else {
      ++failures;
    }
  }
  Json top = Json::Object(
      {{"bench", "query_throughput"},
       {"unix_time", static_cast<int64_t>(std::time(nullptr))},
       {"dataset", fx->spec.name},
       {"scale", Json(fx->scale, 3)},
       {"num_vertices", fx->data->world.net.NumVertices()},
       {"num_edges", fx->data->world.net.NumEdges()},
       {"num_queries", fx->queries.size()},
       {"failures", failures},
       {"mix", Json::Object({{"in_region", fx->mix[0]},
                             {"in_out_region", fx->mix[1]},
                             {"out_region", fx->mix[2]}})},
       {"methods", Json::Object({{"inner_popular", methods[0]},
                                 {"region_graph", methods[1]},
                                 {"preference", methods[2]},
                                 {"fastest_fallback", methods[3]}})}});
  bool all_ok = true;
  for (size_t i = 0; i < std::size(kBlocks); ++i) {
    const Block& block = kBlocks[i];
    if (!selected[i]) {
      top.Set(block.name, Json());
      continue;
    }
    bool ok = true;
    Timer timer;
    Json value = block.run(*fx, &ok);
    std::string text;
    value.Dump(&text);
    std::printf("[%s] %.1f s%s\n%s\n", block.name, timer.ElapsedSeconds(),
                ok ? "" : " GATE VIOLATION", text.c_str());
    // The thread ladder's verdict is a top-level key of the artifact.
    if (std::string_view(block.name) == "runs") {
      top.Set("deterministic_across_threads", ok);
    }
    top.Set(block.name, std::move(value));
    all_ok &= ok;
  }

  const std::string out_path = OutPath();
  std::string text;
  top.Dump(&text);
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr || std::fputs((text + "\n").c_str(), f) < 0) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fclose(f);
  std::printf("[json] wrote %s\n", out_path.c_str());
  return all_ok ? 0 : 2;
}
