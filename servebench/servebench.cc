// servebench: end-to-end and per-layer benchmark of the L2R serving path.
//
//   servebench --workload {cold_miss|zipf_hot} --seed N --seconds S
//              --trace {0|1} [--work-dir DIR]
//
// Input generation (not timed): the City dataset at scale 0.3 is generated,
// its world written as a binary snapshot under --work-dir, and the
// workload's request stream drawn from --seed. The dataset, the key pools
// and their popularity ranking are fixed by the workload; the seed chooses
// which requests arrive, and when.
//
// A run sets up kSetups serving stacks one after another. Each set-up —
// open the snapshot through WorldSource, L2RRouter::Build, build the
// serving stack, run the workload's warm-up pass — is timed, and setup_s
// is their median. After each set-up the stack serves one measured part
// of S / kSetups seconds, cut into one-second slices; qps and the latency
// percentiles are medians across all slices. Spreading the measurement
// over the run and taking medians keeps a burst of noise from other work
// on the host out of the numbers.
//
// With --trace 1 each stack also serves a traced part after its timed
// one. A zipf_hot run then sets up a fourth, live stack for the stream
// phase: StreamRouter over a world taking incident waves, with cache
// repair on idle drains. The last stack runs a single-client pass over
// the bare router. The run reports the per-layer metrics, the timed
// parts' end-to-end numbers, the traced parts' numbers and their
// difference (the tracing overhead). Every per-layer number is taken from outside the library:
// by timing calls into a module's public functions, or by reading its
// public stats.
//
// Output checks run in the same process. A failed check prints
// "correct": false and exits 1. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/batch_router.h"
#include "core/l2r.h"
#include "eval/datasets.h"
#include "eval/harness.h"
#include "histogram.h"
#include "pref/similarity.h"
#include "roadnet/snapshot.h"
#include "roadnet/world_source.h"
#include "serve/serving_router.h"
#include "serve/stream_router.h"
#include "traj/trajectory.h"
#include "world/route_repairer.h"
#include "world/update_channel.h"

namespace servebench {
namespace {

using namespace l2r;  // NOLINT: a benchmark driver over the whole library

// ---------------------------------------------------------------- knobs
// Constants of the workloads. Changing any of them changes the benchmark,
// so they live here and nowhere else.

constexpr double kDatasetScale = 0.3;   ///< City preset, bench scale
constexpr int kSetups = 3;              ///< set-ups per run; median reported
constexpr double kSliceSeconds = 1.0;   ///< e2e numbers: median of slices
/// Closed-loop clients, at most nproc/2. zipf_hot runs one: with two, its
/// warm-hit p99 read 2.0-3.0 us across ten seeds (spread 0.36), moved by
/// how the host placed the two clients.
constexpr unsigned kColdClients = 2;
constexpr unsigned kZipfClients = 1;
constexpr uint64_t kHeldoutEvery = 8;   ///< cold_miss: held-out key per slot
constexpr uint64_t kSampleOneIn = 512;  ///< cold_miss: byte-checked share
constexpr size_t kZipfPool = 20000;     ///< zipf_hot keys (fit 8 MB cache)
constexpr size_t kZipfDraws = size_t{1} << 22;  ///< per-client cycle
constexpr size_t kZipfSamples = 256;    ///< zipf_hot byte-checked keys
constexpr size_t kStreamPool = 512;     ///< stream phase: top-ranked keys
constexpr double kStreamRate = 10000;   ///< stream phase: offered req/s
constexpr double kStreamSeconds = 6;    ///< stream phase length
constexpr unsigned kStreamDrains = 2;
constexpr size_t kIncidentEdges = 4;    ///< edges slowed per incident wave
constexpr double kSlowdown = 0.5;       ///< exact power of two: restorable
constexpr size_t kStreamHotRefs = 32;   ///< top-rank keys re-checked
constexpr size_t kStreamRandomRefs = 32;
/// The open loop is valid while the generator keeps to its schedule on
/// average: a mean lateness above one batch deadline means it could not.
/// (Its p99 is reported; on a shared host it reads milliseconds from
/// scheduling stalls the generator recovers from.)
constexpr double kMaxLateUsMean = 1000;
constexpr int kCorePasses = 4;          ///< single-client traced passes
constexpr size_t kCoreRandom = 1024;    ///< random keys in that pass
constexpr uint64_t kFixedKeySeed = 0x5a17;  ///< key pools are seed-free
constexpr double kPeakDeparture = 8 * 3600;
constexpr double kOffPeakDeparture = 13 * 3600;

// ---------------------------------------------------------------- time

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t t_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t_ns)));
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------- inputs

enum class Workload { kColdMiss, kZipfHot };

struct Args {
  Workload workload = Workload::kColdMiss;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string work_dir = ".";
};

/// One request: the (s, d, departure) triple the serving stack sees.
struct Req {
  VertexId s = kInvalidVertex;
  VertexId d = kInvalidVertex;
  double departure = 0;
};

uint64_t PackKey(const Req& r) {
  const uint64_t period = PeriodOf(r.departure) == TimePeriod::kPeak ? 1 : 0;
  return (static_cast<uint64_t>(r.s) << 33) |
         (static_cast<uint64_t>(r.d) << 1) | period;
}

/// Seeded bijection from request index j to a distinct (s, d, period)
/// triple over the strongly connected vertex set: a 4-round Feistel
/// network over the next even power-of-two domain, cycle-walked into
/// [0, n * n * 2). Distinct j give distinct keys with no memory held, so
/// cold_miss never repeats a key however long it runs.
class RandomKeys {
 public:
  RandomKeys(std::vector<VertexId> vertices, uint64_t seed)
      : vertices_(std::move(vertices)) {
    const uint64_t n = vertices_.size();
    domain_ = n * n * 2;
    half_bits_ = (std::bit_width(domain_ - 1) + 1) / 2;
    mask_ = (uint64_t{1} << half_bits_) - 1;
    for (int r = 0; r < 4; ++r) round_keys_[r] = Mix64(seed * 4 + r + 1);
  }

  uint64_t domain() const { return domain_; }

  /// The j-th key; false when it is degenerate (s == d).
  bool Key(uint64_t j, Req* out) const {
    uint64_t x = j % domain_;
    do {
      x = Permute(x);
    } while (x >= domain_);
    const uint64_t n = vertices_.size();
    const bool peak = (x & 1) != 0;
    x >>= 1;
    out->s = vertices_[x / n];
    out->d = vertices_[x % n];
    out->departure = peak ? kPeakDeparture : kOffPeakDeparture;
    return out->s != out->d;
  }

 private:
  uint64_t Permute(uint64_t x) const {
    uint64_t l = x >> half_bits_;
    uint64_t r = x & mask_;
    for (const uint64_t k : round_keys_) {
      const uint64_t next_r = l ^ (Mix64(r ^ k) & mask_);
      l = r;
      r = next_r;
    }
    return (l << half_bits_) | r;
  }

  std::vector<VertexId> vertices_;
  uint64_t domain_ = 0;
  int half_bits_ = 0;
  uint64_t mask_ = 0;
  uint64_t round_keys_[4] = {};
};

/// The vertices strongly connected with `root`: every pair is routable, so
/// random keys drawn from it never fail.
std::vector<VertexId> StronglyConnected(const RoadNetwork& net,
                                        VertexId root) {
  const size_t n = net.NumVertices();
  auto reach = [&](bool forward) {
    std::vector<uint8_t> seen(n, 0);
    std::vector<VertexId> stack = {root};
    seen[root] = 1;
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (const EdgeId e : forward ? net.OutEdges(v) : net.InEdges(v)) {
        const VertexId u = forward ? net.edge(e).to : net.edge(e).from;
        if (!seen[u]) {
          seen[u] = 1;
          stack.push_back(u);
        }
      }
    }
    return seen;
  };
  const std::vector<uint8_t> fwd = reach(true);
  const std::vector<uint8_t> bwd = reach(false);
  std::vector<VertexId> out;
  for (VertexId v = 0; v < n; ++v) {
    if (fwd[v] && bwd[v]) out.push_back(v);
  }
  return out;
}

/// Everything the program receives, generated before any timing starts.
struct Inputs {
  std::vector<MatchedTrajectory> train;
  std::vector<QueryCase> heldout;
  std::string snapshot_path;
  std::unique_ptr<RandomKeys> keys;        ///< seeded: cold_miss requests
  std::unique_ptr<RandomKeys> fixed_keys;  ///< key pools, core pass
  /// Distinct held-out keys; heldout_of[k] lists the held-out queries
  /// (indices into `heldout`) that share key heldout_keys[k].
  std::vector<Req> heldout_keys;
  std::vector<std::vector<uint32_t>> heldout_of;
  std::unordered_set<uint64_t> heldout_set;
  /// The zipf_hot key pool and its popularity ranking; the pool starts
  /// with heldout_keys.
  std::vector<Req> pool;
  std::vector<uint32_t> rank_to_pool;
};

bool MakeInputs(const Args& args, Inputs* in) {
  auto built = BuildDataset(CityDataset(kDatasetScale));
  if (!built.ok()) {
    std::fprintf(stderr, "dataset: %s\n", built.status().ToString().c_str());
    return false;
  }
  const RoadNetwork& net = built->world.net;
  in->heldout = BuildQueries(net, built->split.test);
  if (in->heldout.empty()) return false;
  in->train = std::move(built->split.train);
  in->snapshot_path = args.work_dir + "/world-" +
                      std::to_string(static_cast<long>(getpid())) +
                      ".l2rsnap";
  if (Status s = WorldSnapshot::Write(built->world, in->snapshot_path);
      !s.ok()) {
    std::fprintf(stderr, "snapshot write: %s\n", s.ToString().c_str());
    return false;
  }
  const std::vector<VertexId> routable =
      StronglyConnected(net, in->heldout.front().s);
  in->keys = std::make_unique<RandomKeys>(routable, args.seed);
  in->fixed_keys = std::make_unique<RandomKeys>(routable, kFixedKeySeed);

  for (uint32_t q = 0; q < in->heldout.size(); ++q) {
    const QueryCase& c = in->heldout[q];
    const Req r{c.s, c.d, c.departure_time};
    if (in->heldout_set.insert(PackKey(r)).second) {
      in->heldout_keys.push_back(r);
      in->heldout_of.push_back({q});
      continue;
    }
    // Rare: two held-out trips with one key share the served route.
    for (size_t k = 0; k < in->heldout_keys.size(); ++k) {
      if (PackKey(in->heldout_keys[k]) == PackKey(r)) {
        in->heldout_of[k].push_back(q);
        break;
      }
    }
  }

  if (args.workload == Workload::kZipfHot) {
    // Every held-out key, so accuracy covers the whole held-out set, then
    // random keys.
    in->pool = in->heldout_keys;
    Req r;
    for (uint64_t j = 0; in->pool.size() < kZipfPool; ++j) {
      if (in->fixed_keys->Key(j, &r) && !in->heldout_set.count(PackKey(r))) {
        in->pool.push_back(r);
      }
    }
    // The pool and its popularity ranking are part of the workload, not
    // of the seed: which keys are cached and hot decides what a miss or a
    // repair costs, and that must not vary from run to run.
    in->rank_to_pool.resize(in->pool.size());
    for (uint32_t i = 0; i < in->pool.size(); ++i) in->rank_to_pool[i] = i;
    Rng rng(kFixedKeySeed);
    rng.Shuffle(&in->rank_to_pool);
  }
  return true;
}

/// Zipf(1.0) over ranks [0, n) by inverse CDF; rank r has weight 1/(r+1).
class ZipfSampler {
 public:
  explicit ZipfSampler(size_t n) : cdf_(n) {
    double h = 0;
    for (size_t r = 0; r < n; ++r) {
      h += 1.0 / static_cast<double>(r + 1);
      cdf_[r] = h;
    }
  }
  size_t Draw(Rng& rng) const {
    const double u = rng.NextDouble() * cdf_.back();
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(r, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------- set-up

/// Decorator counting the ServingRouter::Route calls StreamRouter's drains
/// make; against the submitted count it gives the batch dedup ratio.
class CountingService final : public QueryService {
 public:
  explicit CountingService(ServingRouter* inner) : inner_(inner) {}
  const L2RRouter& router() const override { return inner_->router(); }
  Result<RouteResult> Route(L2RQueryContext* ctx, VertexId s, VertexId d,
                            double departure_time) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_->Route(ctx, s, d, departure_time);
  }
  EpochServeCounts GetEpochServeCounts() const override {
    return inner_->GetEpochServeCounts();
  }
  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  ServingRouter* inner_;
  std::atomic<uint64_t> calls_{0};
};

struct SetupTimes {
  double setup_s = 0;
  double snapshot_open_s = 0;
  double region_build_s = 0;
  double learn_s = 0;
  double transfer_s = 0;
  double apply_s = 0;
  double warmup_s = 0;
};

/// One serving stack. A live stack attaches a WorldUpdateChannel and a
/// RouteRepairer. Members are declared in dependency order, so the world
/// is destroyed last.
struct Stack {
  World world;
  std::unique_ptr<L2RRouter> router;
  std::unique_ptr<WorldUpdateChannel> channel;  ///< live stacks only
  std::unique_ptr<ServingRouter> serving;
  std::unique_ptr<RouteRepairer> repairer;      ///< live stacks only
  ConcurrentHistogram repair_ticks;             ///< live stacks only
  SetupTimes times;
};

/// Library defaults plus two overlapping drains whose idle time runs
/// RouteRepairer::BackgroundTick on their own cache shards; each tick that
/// did work is timed.
StreamOptions MakeStreamOptions(Stack* stack) {
  StreamOptions options;
  options.num_drain_threads = kStreamDrains;
  RouteRepairer* repairer = stack->repairer.get();
  ConcurrentHistogram* ticks = &stack->repair_ticks;
  options.background_work = [repairer, ticks](unsigned worker,
                                              unsigned num_workers) {
    const int64_t t0 = NowNs();
    const bool did = repairer->BackgroundTick(worker, num_workers);
    if (did) ticks->RecordNs(static_cast<uint64_t>(NowNs() - t0));
    return did;
  };
  return options;
}

/// Opens the world, builds the router and serving stack, and pre-routes
/// `warm` through it; everything between the first and last clock read
/// is set-up time.
std::unique_ptr<Stack> Setup(const Inputs& in, bool live,
                             const std::vector<BatchQuery>& warm) {
  std::vector<MatchedTrajectory> train = in.train;  // Build consumes it

  auto stack = std::make_unique<Stack>();
  const int64_t t0 = NowNs();
  auto world = WorldSource::FromSnapshot(in.snapshot_path).Acquire();
  if (!world.ok()) {
    std::fprintf(stderr, "snapshot open: %s\n",
                 world.status().ToString().c_str());
    return nullptr;
  }
  stack->world = std::move(world).value();
  const int64_t t_open = NowNs();
  auto router = L2RRouter::Build(&stack->world.net, std::move(train));
  if (!router.ok()) {
    std::fprintf(stderr, "build: %s\n", router.status().ToString().c_str());
    return nullptr;
  }
  stack->router = std::move(router).value();
  ServingRouterOptions serving_options;
  if (live) {
    stack->channel = std::make_unique<WorldUpdateChannel>(
        &stack->world.net, stack->router.get());
    serving_options.world = stack->channel.get();
  }
  stack->serving =
      std::make_unique<ServingRouter>(stack->router.get(), serving_options);
  if (live) {
    stack->repairer = std::make_unique<RouteRepairer>(stack->serving.get());
  }
  const int64_t t_warm = NowNs();
  if (!warm.empty()) {
    BatchRouter batch(static_cast<QueryService*>(stack->serving.get()));
    for (const Result<RouteResult>& r : batch.RouteAll(warm)) {
      if (!r.ok()) {
        std::fprintf(stderr, "warm-up: %s\n", r.status().ToString().c_str());
        return nullptr;
      }
    }
  }
  const int64_t t1 = NowNs();

  SetupTimes& t = stack->times;
  t.setup_s = Seconds(t1 - t0);
  t.snapshot_open_s = Seconds(t_open - t0);
  t.warmup_s = Seconds(t1 - t_warm);
  for (const auto& p : stack->router->build_report().period) {
    t.region_build_s += p.cluster_seconds + p.region_graph_seconds;
    t.learn_s += p.learn_seconds;
    t.transfer_s += p.transfer_seconds;
    t.apply_s += p.apply_seconds;
  }
  return stack;
}

// ---------------------------------------------------------------- windows

/// A served route kept for the output checks and the accuracy metrics.
struct Captured {
  Req req;
  uint32_t heldout_key = UINT32_MAX;  ///< index into Inputs::heldout_keys
  RouteResult result;
};

/// ServingRouter::GetStats deltas over the measured parts.
struct ServeDelta {
  double hits = 0, misses = 0, hot_hits = 0, invalidated = 0;
  double memo_hits = 0, memo_lookups = 0, leaders = 0, coalesced = 0;

  void Add(const ServingRouter::Stats& a, const ServingRouter::Stats& b) {
    auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(y - x); };
    hits += d(a.cache.hits, b.cache.hits);
    misses += d(a.cache.misses, b.cache.misses);
    hot_hits += d(a.cache.hot_hits, b.cache.hot_hits);
    invalidated += d(a.cache.invalidated, b.cache.invalidated);
    const double edge_hits = d(a.memo.edge_hits, b.memo.edge_hits);
    const double conn_hits = d(a.memo.connector_hits, b.memo.connector_hits);
    memo_hits += edge_hits + conn_hits;
    memo_lookups += edge_hits + conn_hits +
                    d(a.memo.edge_misses, b.memo.edge_misses) +
                    d(a.memo.connector_misses, b.memo.connector_misses);
    leaders += d(a.single_flight.leaders, b.single_flight.leaders);
    coalesced += d(a.single_flight.coalesced, b.single_flight.coalesced);
  }
  void Merge(const ServeDelta& o) {
    hits += o.hits;
    misses += o.misses;
    hot_hits += o.hot_hits;
    invalidated += o.invalidated;
    memo_hits += o.memo_hits;
    memo_lookups += o.memo_lookups;
    leaders += o.leaders;
    coalesced += o.coalesced;
  }
};

/// What the measured parts of one kind (timed or traced) produced.
struct Window {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;  ///< failed, shed and rejected requests
  Histogram latency;    ///< every request
  std::vector<Histogram> slice_latency;
  std::vector<uint64_t> slice_ok;
  std::vector<double> slice_s;
  std::vector<Captured> captured;
  ServeDelta serve;
  // The stream phase only.
  Histogram late, queue_wait, drain_wait, apply, repair_tick;
  uint64_t submitted = 0, batches = 0, deadline_closes = 0, route_calls = 0;
  double batch_slots = 0, dirty_regions = 0;
  uint64_t applies = 0;
  double repair_candidates = 0, repair_repaired = 0, repair_settles = 0;

  /// Appends one part's slices.
  void AddSlices(std::vector<Histogram> latency_by_slice,
                 const std::vector<uint64_t>& ok_by_slice,
                 const std::vector<double>& seconds_by_slice) {
    for (size_t i = 0; i < latency_by_slice.size(); ++i) {
      latency.Merge(latency_by_slice[i]);
      slice_latency.push_back(std::move(latency_by_slice[i]));
      slice_ok.push_back(ok_by_slice[i]);
      slice_s.push_back(seconds_by_slice[i]);
      succeeded += ok_by_slice[i];
    }
  }
};

double Qps(const Window& w) {
  std::vector<double> v;
  for (size_t i = 0; i < w.slice_ok.size(); ++i) {
    v.push_back(Ratio(static_cast<double>(w.slice_ok[i]), w.slice_s[i]));
  }
  return Median(std::move(v));
}

double LatencyUs(const Window& w, double q) {
  std::vector<double> v;
  for (const Histogram& h : w.slice_latency) v.push_back(h.PercentileUs(q));
  return Median(std::move(v));
}

size_t NumSlices(double seconds) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::lround(seconds / kSliceSeconds)));
}

/// Closed loop: each client sends its next request when the previous one
/// returns. `next(client, &req, &heldout_key, &capture)` yields requests;
/// returns false when the source is exhausted.
template <typename Next>
void RunClosedLoop(Stack* stack, unsigned clients, double seconds,
                   Next&& next, Window* w) {
  const size_t slices = NumSlices(seconds);
  const int64_t slice_ns = static_cast<int64_t>(kSliceSeconds * 1e9);
  struct Client {
    std::vector<Histogram> latency;
    std::vector<uint64_t> ok;
    uint64_t failed = 0;
    int64_t end_ns = 0;
    std::vector<Captured> captured;
  };
  std::vector<Client> out(clients);
  std::vector<L2RQueryContext> contexts;
  for (unsigned c = 0; c < clients; ++c) {
    out[c].latency.resize(slices);
    out[c].ok.assign(slices, 0);
    contexts.push_back(stack->router->MakeContext());
  }
  const ServingRouter::Stats before = stack->serving->GetStats();
  std::atomic<bool> go{false};
  int64_t start_ns = 0;
  int64_t deadline_ns = 0;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      Client& me = out[c];
      L2RQueryContext* ctx = &contexts[c];
      ServingRouter* serving = stack->serving.get();
      Req q;
      uint32_t heldout_key = UINT32_MAX;
      bool capture = false;
      int64_t t1 = start_ns;
      while (next(c, &q, &heldout_key, &capture)) {
        const int64_t t0 = NowNs();
        Result<RouteResult> r = serving->Route(ctx, q.s, q.d, q.departure);
        t1 = NowNs();
        const size_t slice = std::min<size_t>(
            slices - 1, static_cast<size_t>((t1 - start_ns) / slice_ns));
        me.latency[slice].RecordNs(static_cast<uint64_t>(t1 - t0));
        if (r.ok()) {
          ++me.ok[slice];
          if (capture) {
            me.captured.push_back({q, heldout_key, std::move(r).value()});
          }
        } else {
          ++me.failed;
        }
        if (t1 >= deadline_ns) break;
      }
      me.end_ns = t1;
    });
  }
  start_ns = NowNs();
  deadline_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  go.store(true, std::memory_order_release);
  int64_t end_ns = start_ns;
  for (unsigned c = 0; c < clients; ++c) {
    threads[c].join();
    end_ns = std::max(end_ns, out[c].end_ns);
  }
  w->serve.Add(before, stack->serving->GetStats());

  std::vector<Histogram> latency(slices);
  std::vector<uint64_t> ok(slices, 0);
  std::vector<double> slice_s(slices, kSliceSeconds);
  slice_s.back() = std::max(1e-3, Seconds(end_ns - start_ns) -
                                      kSliceSeconds * (slices - 1));
  for (Client& c : out) {
    for (size_t i = 0; i < slices; ++i) {
      latency[i].Merge(c.latency[i]);
      ok[i] += c.ok[i];
      w->attempted += c.ok[i];
    }
    w->failed += c.failed;
    w->attempted += c.failed;
    for (Captured& k : c.captured) w->captured.push_back(std::move(k));
  }
  w->AddSlices(std::move(latency), ok, slice_s);
}

/// cold_miss: request j is held-out key j/8 on every 8th slot until they
/// run out, else the j-th key of the seeded permutation — never repeated.
/// `next_j` persists across parts, so no stack ever sees a repeated key.
void RunColdMiss(Stack* stack, const Inputs& in, uint64_t seed,
                 unsigned clients, double seconds,
                 std::atomic<uint64_t>* next_j, Window* w) {
  const uint64_t held = in.heldout_keys.size();
  auto next = [&](unsigned, Req* q, uint32_t* heldout_key, bool* capture) {
    for (;;) {
      const uint64_t j = next_j->fetch_add(1, std::memory_order_relaxed);
      if (j >= in.keys->domain()) return false;
      if (j % kHeldoutEvery == 0 && j / kHeldoutEvery < held) {
        *q = in.heldout_keys[j / kHeldoutEvery];
        *heldout_key = static_cast<uint32_t>(j / kHeldoutEvery);
        *capture = true;
        return true;
      }
      if (in.keys->Key(j, q) && !in.heldout_set.count(PackKey(*q))) {
        *heldout_key = UINT32_MAX;
        *capture = Mix64(j ^ Mix64(seed)) % kSampleOneIn == 0;
        return true;
      }
    }
  };
  RunClosedLoop(stack, clients, seconds, next, w);
}

/// zipf_hot: each client cycles through its own seeded Zipf(1.0) draw
/// sequence over the pre-routed pool, and captures the first route served
/// for each held-out and each sampled key.
struct ZipfClients {
  std::vector<std::vector<uint32_t>> draws;  ///< pool indices
  std::vector<size_t> cursor;
  std::vector<std::vector<uint8_t>> seen;
  std::vector<uint8_t> sampled;  ///< per pool index
};

ZipfClients MakeZipfClients(const Inputs& in, uint64_t seed,
                            unsigned clients) {
  ZipfClients z;
  const ZipfSampler zipf(in.pool.size());
  for (unsigned c = 0; c < clients; ++c) {
    Rng rng(Mix64(seed * 131 + c + 1));
    std::vector<uint32_t> d(kZipfDraws);
    for (uint32_t& x : d) x = in.rank_to_pool[zipf.Draw(rng)];
    z.draws.push_back(std::move(d));
    z.seen.emplace_back(in.pool.size(), 0);
  }
  z.cursor.assign(clients, 0);
  z.sampled.assign(in.pool.size(), 0);
  Rng rng(Mix64(seed ^ 0x5eed));
  for (size_t i = 0; i < kZipfSamples; ++i) {
    z.sampled[rng.Index(in.pool.size())] = 1;
  }
  return z;
}

void RunZipfHot(Stack* stack, const Inputs& in, ZipfClients* z,
                unsigned clients, double seconds, Window* w) {
  const uint32_t held = static_cast<uint32_t>(in.heldout_keys.size());
  auto next = [&](unsigned c, Req* q, uint32_t* heldout_key, bool* capture) {
    const uint32_t k = z->draws[c][z->cursor[c]++ & (kZipfDraws - 1)];
    *q = in.pool[k];
    *heldout_key = k < held ? k : UINT32_MAX;
    *capture = false;
    if ((k < held || z->sampled[k]) && !z->seen[c][k]) {
      z->seen[c][k] = 1;
      *capture = true;
    }
    return true;
  };
  for (auto& s : z->seen) std::fill(s.begin(), s.end(), 0);
  RunClosedLoop(stack, clients, seconds, next, w);
}

/// The stream phase of a traced zipf_hot run: a Poisson arrival schedule
/// at kStreamRate with Zipf keys over the pool's top kStreamPool ranks,
/// and the incident sites (mid-edges of the hottest keys' routes) the
/// updater slows and restores.
struct StreamPlan {
  std::vector<int64_t> due_ns;  ///< offsets from the phase's start
  std::vector<uint32_t> key;    ///< pool index per arrival
  std::vector<uint32_t> refs;   ///< pool indices re-checked after it
  std::vector<Result<RouteResult>> ref_routes;  ///< epoch-0 bytes
  std::vector<EdgeId> sites;
};

/// The stream's keys: the zipf_hot pool's kStreamPool most popular.
std::vector<BatchQuery> StreamKeys(const Inputs& in) {
  std::vector<BatchQuery> out;
  for (size_t r = 0; r < kStreamPool; ++r) {
    const Req& q = in.pool[in.rank_to_pool[r]];
    out.push_back({q.s, q.d, q.departure});
  }
  return out;
}

StreamPlan MakeStreamPlan(const Inputs& in, uint64_t seed, double seconds) {
  StreamPlan p;
  Rng rng(Mix64(seed * 7919 + 3));
  const ZipfSampler zipf(kStreamPool);
  const double mean_gap_ns = 1e9 / kStreamRate;
  for (double t = rng.Exponential(1.0 / mean_gap_ns); t < seconds * 1e9;
       t += rng.Exponential(1.0 / mean_gap_ns)) {
    p.due_ns.push_back(static_cast<int64_t>(t));
    p.key.push_back(in.rank_to_pool[zipf.Draw(rng)]);
  }
  for (size_t r = 0; r < kStreamHotRefs; ++r) {
    p.refs.push_back(in.rank_to_pool[r]);
  }
  for (size_t i = 0; i < kStreamRandomRefs; ++i) {
    p.refs.push_back(in.rank_to_pool[rng.Index(kStreamPool)]);
  }
  return p;
}

/// Records the epoch-0 reference bytes and picks the incident sites.
void PrepareStreamPlan(const Stack& stack, const Inputs& in, StreamPlan* p) {
  L2RQueryContext ctx = stack.router->MakeContext();
  std::unordered_set<EdgeId> seen;
  for (const uint32_t k : p->refs) {
    const Req& q = in.pool[k];
    p->ref_routes.push_back(stack.router->Route(&ctx, q.s, q.d, q.departure));
    const Result<RouteResult>& r = p->ref_routes.back();
    if (!r.ok() || r->path.vertices.size() < 2) continue;
    const std::vector<VertexId>& v = r->path.vertices;
    const size_t m = std::min(v.size() / 2, v.size() - 2);
    const EdgeId e = stack.world.net.FindEdge(v[m], v[m + 1]);
    if (e != kInvalidEdge && seen.insert(e).second) p->sites.push_back(e);
  }
}

/// Open loop: one generator thread submits the plan's arrivals on their
/// absolute due times; latency runs from each request's due time to its
/// callback. One updater thread applies one incident wave per slice: it
/// slows kIncidentEdges edges at a tenth of the slice, which raises costs
/// and so invalidates only the regions it touches, and restores them at
/// six tenths, which lowers costs and so invalidates the whole period.
/// The phase ends on the epoch-0 weights. Returns false when a request
/// never called back or the stream's books do not balance.
bool RunStreamLive(Stack* stack, const Inputs& in, const StreamPlan& plan,
                   StreamRouter* stream, const CountingService& counter,
                   double seconds, Window* w) {
  // Latencies fall into slices by due time, so each slice holds one wave;
  // completions count toward qps in the slice they finish in, so a
  // backlog shows as a dip.
  const size_t slices = NumSlices(seconds);
  const int64_t slice_ns = static_cast<int64_t>(kSliceSeconds * 1e9);
  struct Shared {
    explicit Shared(size_t slices)
        : latency(slices), ok(new std::atomic<uint64_t>[slices]()) {}
    int64_t start_ns = 0;
    std::vector<ConcurrentHistogram> latency;
    std::unique_ptr<std::atomic<uint64_t>[]> ok;
    std::atomic<uint64_t> failed{0};
    ConcurrentHistogram queue_wait, drain_wait;
  };
  Shared sh(slices);
  const ServingRouter::Stats before = stack->serving->GetStats();
  const RouteRepairer::BackgroundStats bg_before =
      stack->repairer->GetBackgroundStats();

  auto on_done = [&](size_t i, const StreamResult& r) {
    const int64_t now = NowNs();
    const int64_t due = sh.start_ns + plan.due_ns[i];
    const size_t slice = std::min<size_t>(
        slices - 1, static_cast<size_t>(plan.due_ns[i] / slice_ns));
    sh.latency[slice].RecordNs(
        static_cast<uint64_t>(std::max<int64_t>(0, now - due)));
    if (!r.shed) {
      sh.queue_wait.RecordUs(static_cast<double>(r.queue_wait_us));
      sh.drain_wait.RecordUs(static_cast<double>(r.drain_wait_us));
    }
    if (!r.result.ok()) {
      sh.failed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const size_t done_slice = std::min<size_t>(
        slices - 1, static_cast<size_t>(
                        std::max<int64_t>(0, now - sh.start_ns) / slice_ns));
    sh.ok[done_slice].fetch_add(1, std::memory_order_relaxed);
  };

  const size_t n = plan.due_ns.size();
  std::atomic<bool> go{false};
  std::thread generator([&] {
#ifdef __linux__
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // wake on schedule, not +50us
#endif
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (size_t i = 0; i < n; ++i) {
      const int64_t due = sh.start_ns + plan.due_ns[i];
      int64_t now = NowNs();
      if (now < due) {
        SleepUntilNs(due);
        now = NowNs();
      }
      w->late.RecordNs(static_cast<uint64_t>(std::max<int64_t>(0, now - due)));
      const Req& q = in.pool[plan.key[i]];
      if (!stream->Submit(BatchQuery{q.s, q.d, q.departure},
                          [&on_done, i](const StreamResult& r) {
                            on_done(i, r);
                          })) {
        sh.failed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  std::thread updater([&] {
#ifdef __linux__
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
#endif
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    auto apply = [&](const WorldUpdateBatch& batch) {
      const int64_t t0 = NowNs();
      const WorldUpdateChannel::ApplyReport rep = stack->channel->Apply(batch);
      w->apply.RecordNs(static_cast<uint64_t>(NowNs() - t0));
      w->dirty_regions += static_cast<double>(rep.dirty_regions[0].size() +
                                              rep.dirty_regions[1].size());
      ++w->applies;
    };
    for (size_t k = 0; k < slices; ++k) {
      WorldUpdateBatch slow, restore;
      for (size_t e = 0; e < kIncidentEdges && e < plan.sites.size(); ++e) {
        const EdgeId edge =
            plan.sites[(k * kIncidentEdges + e) % plan.sites.size()];
        slow.deltas.push_back({edge, kSlowdown});
        restore.deltas.push_back({edge, 1.0 / kSlowdown});
      }
      const int64_t slice_start =
          sh.start_ns + static_cast<int64_t>(k) * slice_ns;
      SleepUntilNs(slice_start + slice_ns / 10);
      apply(slow);
      SleepUntilNs(slice_start + slice_ns * 6 / 10);
      apply(restore);
    }
  });

  sh.start_ns = NowNs() + 1000000;  // first arrival 1 ms out
  go.store(true, std::memory_order_release);
  generator.join();
  updater.join();

  // Every submitted request must call back.
  bool ok = true;
  const int64_t give_up = NowNs() + static_cast<int64_t>(30e9);
  for (;;) {
    const StreamRouter::Stats s = stream->GetStats();
    if (s.completed + s.shed + s.failed_on_shutdown >= s.submitted) break;
    if (NowNs() > give_up) {
      std::fprintf(stderr, "stream: requests never called back\n");
      ok = false;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stream->Shutdown();
  const StreamRouter::Stats s = stream->GetStats();
  w->serve.Add(before, stack->serving->GetStats());
  const RouteRepairer::BackgroundStats bg_after =
      stack->repairer->GetBackgroundStats();
  w->repair_candidates +=
      static_cast<double>(bg_after.candidates - bg_before.candidates);
  w->repair_repaired +=
      static_cast<double>(bg_after.repaired - bg_before.repaired);
  w->repair_settles +=
      static_cast<double>(bg_after.repair_settles - bg_before.repair_settles);
  w->repair_tick.Merge(stack->repair_ticks);

  std::vector<Histogram> latency(slices);
  std::vector<uint64_t> completed(slices, 0);
  for (size_t i = 0; i < slices; ++i) {
    latency[i].Merge(sh.latency[i]);
    completed[i] = sh.ok[i].load();
  }
  w->AddSlices(std::move(latency), completed,
               std::vector<double>(slices, kSliceSeconds));
  w->failed += sh.failed.load() + s.rejected;
  w->attempted += n;
  w->queue_wait.Merge(sh.queue_wait);
  w->drain_wait.Merge(sh.drain_wait);
  w->submitted += s.submitted;
  w->batches += s.batches;
  w->deadline_closes += s.closed_by_deadline;
  for (const auto& [size, count] : s.batch_size_hist) {
    w->batch_slots += static_cast<double>(size) * static_cast<double>(count);
  }
  w->route_calls += counter.calls();
  if (s.submitted != s.completed + s.shed + s.failed_on_shutdown ||
      s.submitted != n) {
    std::fprintf(stderr,
                 "stream: submitted %llu != completed %llu + shed %llu + "
                 "failed_on_shutdown %llu (planned %zu)\n",
                 static_cast<unsigned long long>(s.submitted),
                 static_cast<unsigned long long>(s.completed),
                 static_cast<unsigned long long>(s.shed),
                 static_cast<unsigned long long>(s.failed_on_shutdown), n);
    ok = false;
  }
  return ok;
}

// ---------------------------------------------------------------- checks

bool SameResult(const Result<RouteResult>& a, const Result<RouteResult>& b) {
  if (a.ok() != b.ok()) return false;
  return !a.ok() || *a == *b;
}

/// Byte-compares captured routes [from, end) against the bare router.
size_t CountMismatches(const Stack& stack, const Window& w, size_t from) {
  L2RQueryContext ctx = stack.router->MakeContext();
  size_t bad = 0;
  for (size_t i = from; i < w.captured.size(); ++i) {
    const Captured& c = w.captured[i];
    const Result<RouteResult> bare =
        stack.router->Route(&ctx, c.req.s, c.req.d, c.req.departure);
    if (!bare.ok() || !(*bare == c.result)) ++bad;
  }
  return bad;
}

/// After the final restore the world is back on epoch-0 weights: a
/// re-route, served or bare, must reproduce the pre-run bytes.
size_t CountRestoreMismatches(Stack* stack, const Inputs& in,
                              const StreamPlan& plan) {
  L2RQueryContext ctx = stack->router->MakeContext();
  size_t bad = 0;
  for (size_t i = 0; i < plan.refs.size(); ++i) {
    const Req& q = in.pool[plan.refs[i]];
    if (!SameResult(plan.ref_routes[i],
                    stack->serving->Route(&ctx, q.s, q.d, q.departure)) ||
        !SameResult(plan.ref_routes[i],
                    stack->router->Route(&ctx, q.s, q.d, q.departure))) {
      ++bad;
    }
  }
  return bad;
}

struct Accuracy {
  double eq1_pct = 0;
  double eq4_pct = 0;
  size_t queries = 0;
};

/// Mean Eq. 1 / Eq. 4 similarity of the first route served for each
/// held-out key, against every held-out trip with that key.
Accuracy MeasureAccuracy(const RoadNetwork& net, const Inputs& in,
                         const Window& w) {
  std::vector<const RouteResult*> first(in.heldout_keys.size(), nullptr);
  for (const Captured& c : w.captured) {
    if (c.heldout_key != UINT32_MAX && first[c.heldout_key] == nullptr) {
      first[c.heldout_key] = &c.result;
    }
  }
  Accuracy a;
  for (size_t k = 0; k < first.size(); ++k) {
    if (first[k] == nullptr) continue;
    for (const uint32_t q : in.heldout_of[k]) {
      const std::vector<VertexId>& gt = in.heldout[q].gt_path;
      a.eq1_pct += PathSimilarity(net, gt, first[k]->path.vertices);
      a.eq4_pct += PathSimilarityJaccard(net, gt, first[k]->path.vertices);
      ++a.queries;
    }
  }
  if (a.queries > 0) {
    a.eq1_pct *= 100.0 / static_cast<double>(a.queries);
    a.eq4_pct *= 100.0 / static_cast<double>(a.queries);
  }
  return a;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;  ///< sample count behind the number; 0 = not a sample
};

using Report = std::vector<Metric>;

void Add(Report* r, std::string name, double value, std::string unit,
         uint64_t samples = 0) {
  r->push_back({std::move(name), value, std::move(unit), samples});
}

/// The eight end-to-end numbers, under `prefix`.
void AddEndToEnd(Report* r, const std::string& prefix, double setup_s,
                 double rss_mb, const Window& w, const Accuracy& acc) {
  Add(r, prefix + "setup_s", setup_s, "s", kSetups);
  Add(r, prefix + "peak_rss_mb", rss_mb, "MB");
  Add(r, prefix + "qps", Qps(w), "1/s", w.succeeded);
  Add(r, prefix + "latency_p50_us", LatencyUs(w, 0.50), "us",
      w.latency.count());
  Add(r, prefix + "latency_p99_us", LatencyUs(w, 0.99), "us",
      w.latency.count());
  Add(r, prefix + "success_pct",
      100.0 * Ratio(static_cast<double>(w.succeeded),
                    static_cast<double>(w.attempted)),
      "%", w.attempted);
  Add(r, prefix + "accuracy_eq1_pct", acc.eq1_pct, "%", acc.queries);
  Add(r, prefix + "accuracy_eq4_pct", acc.eq4_pct, "%", acc.queries);
}

void PrintResult(const Args& args, const Report& report, bool correct,
                 uint64_t attempted, uint64_t failed) {
  for (const Metric& m : report) {
    std::printf("%-12s %-40s %18.6f %-8s", args.workload_name.c_str(),
                m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) {
      std::printf(" n=%llu", static_cast<unsigned long long>(m.samples));
    }
    std::printf("\n");
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.size(); ++i) {
    const Metric& m = report[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += i == 0 ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------- traced

/// Single-client pass over the bare router: per-method latency, share
/// and settles, each call classified by RouteResult::method.
void AddCorePass(const Stack& stack, const Inputs& in, Report* r) {
  static constexpr const char* kMethods[] = {"inner", "region", "preference",
                                             "fastest"};
  std::vector<Req> queries;
  for (const QueryCase& q : in.heldout) {
    queries.push_back({q.s, q.d, q.departure_time});
  }
  Req q;
  for (uint64_t j = in.fixed_keys->domain() / 2;
       queries.size() < in.heldout.size() + kCoreRandom; ++j) {
    if (in.fixed_keys->Key(j, &q)) queries.push_back(q);
  }
  Histogram lat[4];
  uint64_t settles[4] = {0, 0, 0, 0};
  uint64_t calls = 0;
  L2RQueryContext ctx = stack.router->MakeContext();
  for (int pass = 0; pass < kCorePasses; ++pass) {
    for (const Req& x : queries) {
      const uint64_t s0 = ctx.TotalSettles();
      const int64_t t0 = NowNs();
      const Result<RouteResult> res =
          stack.router->Route(&ctx, x.s, x.d, x.departure);
      const int64_t t1 = NowNs();
      if (!res.ok()) continue;
      const int m = static_cast<int>(res->method);
      lat[m].RecordNs(static_cast<uint64_t>(t1 - t0));
      settles[m] += ctx.TotalSettles() - s0;
      ++calls;
    }
  }
  for (int m = 0; m < 4; ++m) {
    const std::string base = std::string("core.route_us.") + kMethods[m];
    Add(r, base + ".p50", lat[m].PercentileUs(0.50), "us", lat[m].count());
    Add(r, base + ".p99", lat[m].PercentileUs(0.99), "us", lat[m].count());
  }
  for (int m = 0; m < 4; ++m) {
    Add(r, std::string("core.method_share.") + kMethods[m],
        Ratio(static_cast<double>(lat[m].count()), static_cast<double>(calls)),
        "ratio", calls);
  }
  for (int m = 0; m < 4; ++m) {
    Add(r, std::string("routing.settles.") + kMethods[m] + ".mean",
        Ratio(static_cast<double>(settles[m]),
              static_cast<double>(lat[m].count())),
        "settles", lat[m].count());
  }
}

/// Per-layer numbers. `closed` holds the traced closed-loop parts;
/// `stream` the stream phase, which only a traced zipf_hot run has (its
/// layers read 0 on cold_miss). The serve.* counters sum both: each ratio
/// is made by the phase where that layer does its work.
void AddLayers(const SetupTimes& t, const Window& closed, const Window& w,
               Report* r) {
  Add(r, "roadnet.snapshot_open_s", t.snapshot_open_s, "s", kSetups);
  Add(r, "region.build_s", t.region_build_s, "s", kSetups);
  Add(r, "pref.learn_s", t.learn_s, "s", kSetups);
  Add(r, "transfer.transfer_s", t.transfer_s, "s", kSetups);
  Add(r, "transfer.apply_s", t.apply_s, "s", kSetups);
  Add(r, "core.warmup_s", t.warmup_s, "s", kSetups);

  // In the closed loops a request is one ServingRouter::Route call.
  const Histogram& route = closed.latency;
  Add(r, "serve.route_us.p50", route.PercentileUs(0.50), "us", route.count());
  Add(r, "serve.route_us.p99", route.PercentileUs(0.99), "us", route.count());
  ServeDelta s = closed.serve;
  s.Merge(w.serve);
  Add(r, "serve.cache.hit_ratio", Ratio(s.hits, s.hits + s.misses), "ratio",
      static_cast<uint64_t>(s.hits + s.misses));
  Add(r, "serve.cache.hot_hit_ratio", Ratio(s.hot_hits, s.hits), "ratio",
      static_cast<uint64_t>(s.hits));
  Add(r, "serve.cache.invalidated", s.invalidated, "count");
  Add(r, "serve.stitch_memo.hit_ratio", Ratio(s.memo_hits, s.memo_lookups),
      "ratio", static_cast<uint64_t>(s.memo_lookups));
  Add(r, "serve.single_flight.coalesced_ratio",
      Ratio(s.coalesced, s.leaders + s.coalesced), "ratio",
      static_cast<uint64_t>(s.leaders + s.coalesced));

  const bool streamed = !w.slice_latency.empty();
  Add(r, "stream.latency_p50_us", streamed ? LatencyUs(w, 0.50) : 0, "us",
      w.latency.count());
  Add(r, "stream.latency_p99_us", streamed ? LatencyUs(w, 0.99) : 0, "us",
      w.latency.count());
  Add(r, "core.batch.dedup_ratio",
      w.submitted == 0 ? 0
                       : 1.0 - Ratio(static_cast<double>(w.route_calls),
                                     static_cast<double>(w.submitted)),
      "ratio", w.submitted);
  Add(r, "serve.stream.queue_wait_us.p50", w.queue_wait.PercentileUs(0.50),
      "us", w.queue_wait.count());
  Add(r, "serve.stream.queue_wait_us.p99", w.queue_wait.PercentileUs(0.99),
      "us", w.queue_wait.count());
  Add(r, "serve.stream.drain_wait_us.p99", w.drain_wait.PercentileUs(0.99),
      "us", w.drain_wait.count());
  Add(r, "serve.stream.batch_size.mean",
      Ratio(w.batch_slots, static_cast<double>(w.batches)), "queries",
      w.batches);
  Add(r, "serve.stream.deadline_close_ratio",
      Ratio(static_cast<double>(w.deadline_closes),
            static_cast<double>(w.batches)),
      "ratio", w.batches);
  Add(r, "world.apply_us.p50", w.apply.PercentileUs(0.50), "us",
      w.apply.count());
  Add(r, "world.apply_us.p99", w.apply.PercentileUs(0.99), "us",
      w.apply.count());
  Add(r, "world.dirty_regions.mean",
      Ratio(w.dirty_regions, static_cast<double>(w.applies)), "regions",
      w.applies);
  Add(r, "world.repair.tick_us.p99", w.repair_tick.PercentileUs(0.99), "us",
      w.repair_tick.count());
  Add(r, "world.repair.convergence",
      Ratio(w.repair_repaired, w.repair_candidates), "ratio",
      static_cast<uint64_t>(w.repair_candidates));
  Add(r, "world.repair.settles", w.repair_settles, "settles");
  Add(r, "loadgen.late_us.p99", w.late.PercentileUs(0.99), "us",
      w.late.count());
}

// ---------------------------------------------------------------- main

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc % 2 == 0) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload_name = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--work-dir") {
      a->work_dir = v;
    } else {
      return false;
    }
  }
  if (a->workload_name == "cold_miss") {
    a->workload = Workload::kColdMiss;
  } else if (a->workload_name == "zipf_hot") {
    a->workload = Workload::kZipfHot;
  } else {
    return false;
  }
  return a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload {cold_miss|zipf_hot} "
                 "--seed N --seconds S --trace {0|1} [--work-dir DIR]\n");
    return 2;
  }
  const unsigned clients = std::max(
      1u, std::min(args.workload == Workload::kZipfHot ? kZipfClients
                                                        : kColdClients,
                   std::thread::hardware_concurrency() / 2));
  const double part_seconds = args.seconds / kSetups;

  Inputs in;
  if (!MakeInputs(args, &in)) return 1;
  struct RemoveSnapshot {
    const std::string& path;
    ~RemoveSnapshot() { std::remove(path.c_str()); }
  } remove_snapshot{in.snapshot_path};
  std::optional<ZipfClients> zipf;
  if (args.workload == Workload::kZipfHot) {
    zipf = MakeZipfClients(in, args.seed, clients);
  }
  bool correct = true;
  auto fail = [&](const char* what, size_t n) {
    std::fprintf(stderr, "check failed: %s (%zu)\n", what, n);
    correct = false;
  };

  // One measured part on `stack`, with its output checks.
  std::atomic<uint64_t> next_j{0};
  auto run_part = [&](Stack* stack, Window* w) {
    const size_t checked_from = w->captured.size();
    if (args.workload == Workload::kColdMiss) {
      const double hits = w->serve.hits;
      RunColdMiss(stack, in, args.seed, clients, part_seconds, &next_j, w);
      if (w->serve.hits != hits) {
        fail("cold_miss served a cache hit",
             static_cast<size_t>(w->serve.hits - hits));
      }
    } else {
      RunZipfHot(stack, in, &*zipf, clients, part_seconds, w);
    }
    if (const size_t bad = CountMismatches(*stack, *w, checked_from)) {
      fail("served route differs from the bare router", bad);
    }
  };

  std::vector<BatchQuery> warm;
  for (const Req& r : in.pool) warm.push_back({r.s, r.d, r.departure});
  Window timed, traced;
  std::vector<SetupTimes> times;
  std::unique_ptr<Stack> stack;
  for (int k = 0; k < kSetups; ++k) {
    stack.reset();
    stack = Setup(in, /*live=*/false, warm);
    if (stack == nullptr) return 1;
    times.push_back(stack->times);
    run_part(stack.get(), &timed);
    if (args.trace) run_part(stack.get(), &traced);
  }
  const double rss_mb = PeakRssMb();
  const Accuracy acc = MeasureAccuracy(stack->world.net, in, timed);
  if (acc.queries == 0) fail("no held-out query served", 0);

  SetupTimes median;
  for (auto field : {&SetupTimes::setup_s, &SetupTimes::snapshot_open_s,
                     &SetupTimes::region_build_s, &SetupTimes::learn_s,
                     &SetupTimes::transfer_s, &SetupTimes::apply_s,
                     &SetupTimes::warmup_s}) {
    std::vector<double> v;
    for (const SetupTimes& t : times) v.push_back(t.*field);
    median.*field = Median(std::move(v));
  }

  // The stream phase (traced zipf_hot runs): a live stack of its own
  // serves the pool's most popular keys through StreamRouter while
  // incident waves land and idle drains repair the cache.
  Window streamed;
  if (args.trace && args.workload == Workload::kZipfHot) {
    stack.reset();
    stack = Setup(in, /*live=*/true, StreamKeys(in));
    if (stack == nullptr) return 1;
    StreamPlan plan = MakeStreamPlan(in, args.seed, kStreamSeconds);
    PrepareStreamPlan(*stack, in, &plan);
    CountingService counter(stack->serving.get());
    StreamRouter router(&counter, MakeStreamOptions(stack.get()));
    if (!RunStreamLive(stack.get(), in, plan, &router, counter,
                       kStreamSeconds, &streamed)) {
      fail("stream requests unaccounted for", 0);
    }
    if (streamed.late.MeanUs() > kMaxLateUsMean) {
      fail("generator fell behind its schedule",
           static_cast<size_t>(streamed.late.MeanUs()));
    }
    if (const size_t bad = CountRestoreMismatches(stack.get(), in, plan)) {
      fail("route after the final restore differs", bad);
    }
  }

  uint64_t attempted = timed.attempted;
  uint64_t failed = timed.failed;
  Report report;
  if (!args.trace) {
    AddEndToEnd(&report, "", median.setup_s, rss_mb, timed, acc);
  } else {
    attempted += traced.attempted + streamed.attempted;
    failed += traced.failed + streamed.failed;
    AddLayers(median, traced, streamed, &report);
    AddCorePass(*stack, in, &report);
    AddEndToEnd(&report, "e2e.", median.setup_s, rss_mb, timed, acc);
    Add(&report, "trace.qps", Qps(traced), "1/s", traced.succeeded);
    Add(&report, "trace.latency_p50_us", LatencyUs(traced, 0.50), "us",
        traced.latency.count());
    Add(&report, "trace.latency_p99_us", LatencyUs(traced, 0.99), "us",
        traced.latency.count());
    Add(&report, "trace.overhead.qps", Qps(traced) - Qps(timed), "1/s");
    Add(&report, "trace.overhead.latency_p50_us",
        LatencyUs(traced, 0.50) - LatencyUs(timed, 0.50), "us");
    Add(&report, "trace.overhead.latency_p99_us",
        LatencyUs(traced, 0.99) - LatencyUs(timed, 0.99), "us");
  }
  if (failed > 0) fail("requests failed", failed);

  PrintResult(args, report, correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
