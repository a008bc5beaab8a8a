#ifndef L2R_SERVE_STREAM_ROUTER_H_
#define L2R_SERVE_STREAM_ROUTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/batch_router.h"
#include "core/l2r.h"
#include "serve/clock.h"
#include "serve/overload_controller.h"

namespace l2r {

struct StreamOptions {
  /// Close the open batch once its first query is this old (microseconds
  /// on the injected clock), even when below StreamRouter::kMaxBatch. 0
  /// closes a batch as soon as the batcher observes any queued query.
  /// Ignored when `shed_depth` is set: the controller owns the deadline
  /// then, starting from OverloadController::kMaxBatchDeadlineUs.
  int64_t batch_deadline_us = 1000;
  /// Drain parallelism (BatchRouter threads); 0 = DefaultThreadCount().
  unsigned num_threads = 0;
  /// Batcher/drain threads running overlapping drains (scale-out
  /// serving); >= 1. With N > 1 the controller still ticks exactly once
  /// per control period (the tick is arbitrated under the stream mutex:
  /// whichever thread observes the period boundary first ticks and
  /// advances the next-tick anchor before unlocking), but cross-batch
  /// callback order is no longer guaranteed — see the class Threading
  /// section.
  unsigned num_drain_threads = 1;
  /// Batch-level dedup on the drain (BatchRouterOptions::dedup): batches
  /// formed from bursty arrivals concentrate identical queries, the case
  /// dedup exists for.
  bool dedup = true;
  /// Time + wakeup seam (serve/clock.h); null = SystemClock::Shared().
  /// Must outlive the StreamRouter.
  Clock* clock = nullptr;
  /// Closed-loop overload control (serve/overload_controller.h): the
  /// shed depth of the stream's own OverloadController; 0 = fixed knobs,
  /// no shedding. A batcher thread feeds the controller one observation
  /// per OverloadController::kControlPeriodUs on the injected clock and
  /// applies each decision: the batch deadline (to subsequently opened
  /// batches), admission shedding per QueryClass, and budget_scale
  /// through `budget_sink`.
  size_t shed_depth = 0;
  /// Receives each tick's OverloadDecision::budget_scale — wire it to
  /// ServingRouter::SetBudgetScale so level >= 2 trades route fidelity
  /// for capacity. Called on a batcher thread with no StreamRouter
  /// lock held (it may call GetStats); must outlive the StreamRouter.
  std::function<void(double)> budget_sink;
  /// Background maintenance seam: an idle drain thread (no closed batch
  /// to drain, no open batch of its own concern) calls
  /// background_work(worker, num_drain_threads) with no stream lock held
  /// before sleeping; a `true` return means work was done and the thread
  /// re-polls instead of waiting. Wire it to
  /// RouteRepairer::BackgroundTick so cache repair overlaps serving,
  /// partitioned by worker index (each worker owns the cache shards with
  /// shard % num_drain_threads == worker, so workers never sweep the
  /// same stripe). Runs opportunistically: only when a drain thread goes
  /// idle, and re-polled on every wakeup (with a shed depth set, the idle
  /// tick cadence doubles as the repair poll). Must not call back
  /// into this StreamRouter; must outlive it.
  std::function<bool(unsigned worker, unsigned num_workers)> background_work;
};

/// What a stream callback receives: the routing result plus the identity
/// and shape of the batch that served it, so callers can reason about
/// admission latency without side channels.
struct StreamResult {
  Result<RouteResult> result{Status::Internal("not routed")};
  /// 1-based sequence number of the closed batch (0 for shed queries,
  /// which never joined a batch).
  uint64_t batch_seq = 0;
  size_t batch_size = 0;
  bool closed_by_deadline = false;
  /// True when admission-level load shedding refused this query: the
  /// result status is kResourceExhausted, the query was never routed,
  /// and the callback ran synchronously on the submitting thread.
  bool shed = false;
  /// Submit -> batch close on the injected clock, clamped at 0. Close
  /// times are *logical*: a deadline close stamps the deadline itself and
  /// a size close stamps the submit that filled the batch, so the value
  /// is exact under ManualClock regardless of batcher scheduling.
  int64_t queue_wait_us = 0;
  /// Submit -> drain start on the injected clock, clamped at 0. Unlike
  /// queue_wait_us this includes time the closed batch spent queued
  /// behind earlier drains — the backlog signal the overload controller
  /// watches. 0 for shed callbacks.
  int64_t drain_wait_us = 0;
};

using StreamCallback = std::function<void(const StreamResult&)>;

/// Streaming front-end over the batch serving stack: accepts queries
/// continuously via Submit, accumulates them into batches closed by
/// whichever comes first of kMaxBatch or the batch deadline, and drains
/// each closed batch through a BatchRouter (dedup) into the configured
/// QueryService (cache + budget) — so all the batch-path machinery
/// composes with arrival jitter.
///
/// Overload control (opt-in via StreamOptions::shed_depth): the batcher
/// additionally runs its OverloadController once per control period on
/// the injected clock, feeding it pending depth and the interactive
/// drain-wait p99, and applying its decision — adaptive batch deadline,
/// per-class admission shedding (bulk first), and the budget scale via
/// budget_sink. A shed query's
/// callback fires synchronously inside Submit with kResourceExhausted:
/// the shutdown invariant (every accepted callback fires exactly once)
/// extends to shedding, so submitted == completed + shed always
/// reconciles.
///
/// Shutdown (explicit or from the destructor) stops accepting queries,
/// routes whatever is still queued as one final shutdown-closed batch,
/// and joins the drain threads: it never hangs and never drops a
/// callback.
///
/// Threading: Submit is safe from any thread and never blocks on
/// routing; size-triggered closes happen inside Submit (so batch
/// composition is a pure function of the submission sequence), while
/// deadline closes, controller ticks and all draining happen on
/// StreamOptions::num_drain_threads internal batcher threads with
/// overlapping drains (each thread pops one closed batch and drains it
/// with the lock released). Exactly one thread ticks the controller per
/// control period: the tick is arbitrated under the stream mutex and
/// the winner advances the next-tick anchor before unlocking, so the
/// deterministic control trace is preserved at any drain count.
/// Callbacks run on whichever drain thread drained the batch (shed
/// callbacks on the submitting thread), in slot order within a batch;
/// cross-batch callback order is guaranteed only with one drain thread.
/// Callbacks may Submit (pipelines) but must not call SubmitWait or
/// Shutdown (self-deadlock).
///
/// Determinism: a slot's result is a pure function of its query through
/// the BatchRouter/QueryService contracts, so results are byte-identical
/// to a pre-formed BatchRouter run of the same queries — whatever batch
/// boundaries the arrival jitter produced, for any num_threads, and for
/// any num_drain_threads (drains only ever reorder *which thread* runs
/// a batch, never a slot's bytes). With
/// overload control, the control trace itself is deterministic under
/// ManualClock (controller decisions are pure functions of the
/// observation sequence), so scripted overload scenarios replay exactly.
class StreamRouter {
 public:
  /// A batch closes as soon as it holds this many queries.
  static constexpr size_t kMaxBatch = 64;

  struct Stats {
    uint64_t submitted = 0;  ///< accepted Submits, shed included
    uint64_t completed = 0;  ///< callbacks invoked with a routed result
    uint64_t rejected = 0;   ///< Submits refused after shutdown began
    /// Always 0: shutdown flushes every queued query. Kept for readers
    /// that reconcile submitted == completed + shed + failed_on_shutdown.
    uint64_t failed_on_shutdown = 0;
    uint64_t shed = 0;  ///< callbacks refused with kResourceExhausted
    uint64_t submitted_by_class[kNumQueryClasses] = {0, 0};
    uint64_t completed_by_class[kNumQueryClasses] = {0, 0};
    uint64_t shed_by_class[kNumQueryClasses] = {0, 0};
    uint64_t batches = 0;
    uint64_t closed_by_size = 0;
    uint64_t closed_by_deadline = 0;
    uint64_t closed_by_shutdown = 0;
    /// (batch size -> batches closed at that size), ascending by size.
    std::vector<std::pair<size_t, uint64_t>> batch_size_hist;
    /// Drain threads this stream runs (num_drain_threads).
    unsigned drain_threads = 0;
    /// Idle-thread background_work invocations that reported work done.
    uint64_t background_work_runs = 0;
    /// The controller's own tallies (zeros when shed_depth is 0).
    OverloadController::Stats controller;
    /// The deadline currently applied to newly opened batches (the
    /// configured constant without a controller).
    int64_t batch_deadline_us = 0;
  };

  /// `router`/`service` must outlive the StreamRouter.
  explicit StreamRouter(const L2RRouter* router,
                        const StreamOptions& options = {});
  explicit StreamRouter(QueryService* service,
                        const StreamOptions& options = {});
  /// Shutdown()s, flushing queued queries.
  ~StreamRouter();

  StreamRouter(const StreamRouter&) = delete;
  StreamRouter& operator=(const StreamRouter&) = delete;

  /// Enqueues one query; `done` fires exactly once — on the batcher
  /// thread when its batch drains (the final shutdown batch included),
  /// or on the calling thread with kResourceExhausted when admission
  /// sheds it. Returns false — without invoking or keeping `done` — once
  /// shutdown began.
  bool Submit(const BatchQuery& query, StreamCallback done)
      L2R_EXCLUDES(mu_);

  /// Blocking convenience: Submit + wait for the callback. After
  /// shutdown, returns a FailedPrecondition StreamResult. Never call it
  /// from a stream callback, and under ManualClock only from a thread
  /// other than the one advancing the clock (the batch must be able to
  /// close while this blocks).
  StreamResult SubmitWait(const BatchQuery& query);

  /// Stops accepting queries, routes queued ones as a final batch, and
  /// joins every batcher thread. Idempotent; must not be called from a
  /// stream callback.
  void Shutdown() L2R_EXCLUDES(mu_);

  Stats GetStats() const L2R_EXCLUDES(mu_);
  unsigned drain_threads() const { return options_.num_drain_threads; }

 private:
  struct Pending {
    BatchQuery query;
    StreamCallback done;
    int64_t submit_us = 0;
  };
  enum class CloseReason : uint8_t { kSize, kDeadline, kShutdown };
  struct ClosedBatch {
    std::vector<Pending> queries;
    uint64_t seq = 0;
    CloseReason reason = CloseReason::kSize;
    int64_t close_us = 0;
  };
  /// What one drained batch contributes to the controller's next
  /// observation; carried back under mu_ by the batcher.
  struct DrainOutcome {
    size_t queries = 0;
    std::vector<int64_t> interactive_waits;
  };

  /// Moves the open batch onto the closed queue and records the close
  /// accounting.
  void CloseOpenLocked(CloseReason reason, int64_t close_us)
      L2R_REQUIRES(mu_);
  /// Feeds the controller one observation and makes its decision the
  /// stream's. Advances next_tick_us_ before returning, which is the
  /// whole tick arbitration: with N drain threads, the first to observe
  /// the period boundary under mu_ ticks, and every other thread then
  /// sees now < next_tick_us_.
  void ControllerTickLocked() L2R_REQUIRES(mu_);
  /// Body of drain thread `worker` (of drain_threads()). All threads run
  /// the same loop; the worker index only parameterizes background_work
  /// shard pinning.
  void BatcherLoop(unsigned worker) L2R_EXCLUDES(mu_);
  /// The constructors' shared body: checks the options, anchors the
  /// first controller tick when controlled and starts the drain threads.
  void Start();
  /// Runs with mu_ released: routing and callbacks never hold the lock.
  DrainOutcome DrainBatch(ClosedBatch batch) L2R_EXCLUDES(mu_);

  const StreamOptions options_;
  Clock* const clock_ = options_.clock != nullptr ? options_.clock
                                                  : SystemClock::Shared();
  BatchRouter batch_router_;

  mutable Mutex mu_;
  CondVar cv_;
  std::vector<Pending> open_ L2R_GUARDED_BY(mu_);  ///< accumulating batch
  /// first submit + the then-current batch deadline
  int64_t open_deadline_us_ L2R_GUARDED_BY(mu_) = 0;
  /// Awaiting drain, FIFO.
  std::deque<ClosedBatch> closed_ L2R_GUARDED_BY(mu_);
  /// Queries closed but not yet drained (depth signal, with open_).
  size_t undrained_ L2R_GUARDED_BY(mu_) = 0;
  bool stopping_ L2R_GUARDED_BY(mu_) = false;
  bool batchers_joined_ L2R_GUARDED_BY(mu_) = false;
  // --- Overload control. Engaged exactly when options_.shed_depth > 0;
  // an uncontrolled stream's next_tick_us_ stays at Clock::kNoDeadline,
  // so it never ticks.
  std::optional<OverloadController> controller_ L2R_GUARDED_BY(mu_);
  /// The decision in force: its deadline applies to newly opened batches
  /// (the configured constant without a controller), its shed flags to
  /// admission.
  OverloadDecision decision_ L2R_GUARDED_BY(mu_);
  int64_t next_tick_us_ L2R_GUARDED_BY(mu_) = Clock::kNoDeadline;
  // Per-tick accumulator, reset by every controller tick.
  std::vector<int64_t> tick_waits_ L2R_GUARDED_BY(mu_);
  /// The counters guarded by mu_; GetStats fills in the rest (completed*,
  /// batch_size_hist, controller, batch_deadline_us).
  Stats stats_ L2R_GUARDED_BY(mu_);
  std::map<size_t, uint64_t> batch_size_hist_ L2R_GUARDED_BY(mu_);
  // Updated by the drain path outside the lock (release order pairs with
  // the acquire load in GetStats, so a caller that observed completed ==
  // submitted also observes every callback's side effects).
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> completed_by_class_[kNumQueryClasses];

  /// Last member: threads start after the rest of the state is ready.
  std::vector<std::thread> batchers_;
};

}  // namespace l2r

#endif  // L2R_SERVE_STREAM_ROUTER_H_
