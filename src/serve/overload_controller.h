#ifndef L2R_SERVE_OVERLOAD_CONTROLLER_H_
#define L2R_SERVE_OVERLOAD_CONTROLLER_H_

#include <cstddef>
#include <cstdint>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace l2r {

/// One control tick's worth of serving-stack signals, all on the
/// injected clock so a scripted sequence reproduces bit-identical
/// control decisions under ManualClock.
struct OverloadObservation {
  /// Pending depth at tick time: open batch + closed-but-undrained.
  size_t queue_depth = 0;
  /// p99 of interactive drain waits observed during the tick; -1 when no
  /// interactive query completed (depth alone drives the decision then).
  int64_t wait_p99_us = -1;
};

/// What the serving stack should do until the next tick. Levels compose
/// cumulatively — each keeps everything the previous level did:
///   0  nominal: full deadline recovery toward kMaxBatchDeadlineUs;
///   1  shed kBulk at admission;
///   2  + scale the DeadlineBudget settle cap down (serve degraded);
///   3  + shed kInteractive too (queue protection of last resort).
struct OverloadDecision {
  int level = 0;
  int64_t batch_deadline_us = 0;
  bool shed_bulk = false;
  bool shed_interactive = false;
  /// Multiplier for the DeadlineBudget settle cap, in (0, 1].
  double budget_scale = 1.0;
};

/// Closed-loop overload control for the streaming serving stack. PR 5
/// measured queue-wait p99 sitting exactly on the hand-set
/// batch_deadline_us; this controller closes that loop: it watches
/// pending depth and the interactive drain-wait p99 (one
/// OverloadObservation per tick) and decides the batch deadline, the shed
/// set, and the budget scale for the next tick.
///
/// Control law: AIMD on the batch deadline (multiplicative cut while
/// overloaded, additive recovery while calm) plus a hysteresis ladder of
/// shed levels — kTripTicks consecutive overloaded ticks raise the
/// level, kReleaseTicks calm ticks lower it, and the panic depth jumps
/// straight to the top. Bulk always sheds a full level before
/// interactive, which is the per-class QoS contract.
///
/// The one setting is the shed depth: the pending-queue depth (open +
/// closed-but-undrained queries) that marks a tick overloaded even before
/// waits blow past the SLO. It is the value that depends on the host's
/// measured capacity. A tick at or below shed/4 (the resume depth) counts
/// as calm, and 2 x shed (the panic depth) escalates straight to level 3.
/// Every other parameter is a constant below.
///
/// Determinism: Tick is a pure function of the observation sequence (no
/// clock reads, no randomness), so any arrival script replayed on
/// ManualClock reproduces the exact decision trace — every control
/// decision is unit-testable on virtual time.
///
/// Thread-safety: Tick/Current/GetStats are safe from any thread; mu_ is
/// a leaf mutex (the controller never calls out while holding it), so
/// callers may hold their own locks across these calls.
class OverloadController {
 public:
  struct Stats {
    uint64_t ticks = 0;
    uint64_t overloaded_ticks = 0;
    uint64_t deadline_cuts = 0;
    uint64_t deadline_recoveries = 0;
    uint64_t level_raises = 0;
    uint64_t level_drops = 0;
    int level = 0;
    int64_t batch_deadline_us = 0;
  };

  /// Tick length on the injected clock; the stream batcher feeds one
  /// OverloadObservation per tick. Small next to the SLO, because it
  /// bounds the flood a level drop can re-admit before the next tick.
  static constexpr int64_t kControlPeriodUs = 2'000;
  /// SLO bound on the interactive drain-wait p99 (submit -> drain start,
  /// backlog included). A tick whose observed p99 exceeds it is
  /// overloaded; one at or under half of it may count as calm.
  static constexpr int64_t kSloQueueWaitUs = 50'000;
  /// Adaptive batch-deadline range. The max is also the starting (calm)
  /// deadline; the min is where batches stop amortizing dispatch (the
  /// deadline_sweep bench block).
  static constexpr int64_t kMinBatchDeadlineUs = 100;
  static constexpr int64_t kMaxBatchDeadlineUs = 1'000;
  /// Multiplicative deadline cut on an overloaded tick.
  static constexpr double kDeadlineBackoff = 0.5;
  /// Additive deadline recovery per calm tick.
  static constexpr int64_t kDeadlineRecoverUs = 100;
  /// Consecutive overloaded ticks before the shed level rises one step.
  static constexpr int kTripTicks = 1;
  /// Consecutive calm ticks before the shed level drops one step.
  static constexpr int kReleaseTicks = 3;
  /// DeadlineBudget settle-cap multiplier applied at level >= 2 (see
  /// ServingRouter::SetBudgetScale): degraded-but-correct answers buy
  /// capacity before interactive queries are shed.
  static constexpr double kDegradedBudgetScale = 0.25;

  /// `shed_depth` >= 1 (see the class comment).
  explicit OverloadController(size_t shed_depth);

  /// Consumes one tick's observation and returns the decision to apply
  /// until the next tick.
  OverloadDecision Tick(const OverloadObservation& obs) L2R_EXCLUDES(mu_);

  Stats GetStats() const L2R_EXCLUDES(mu_);

 private:
  OverloadDecision DecisionLocked() const L2R_REQUIRES(mu_);

  const size_t shed_depth_;
  const size_t resume_depth_;
  const size_t panic_depth_;

  mutable Mutex mu_;
  int level_ L2R_GUARDED_BY(mu_) = 0;
  int64_t batch_deadline_us_ L2R_GUARDED_BY(mu_) = kMaxBatchDeadlineUs;
  int overload_streak_ L2R_GUARDED_BY(mu_) = 0;
  int calm_streak_ L2R_GUARDED_BY(mu_) = 0;
  uint64_t ticks_ L2R_GUARDED_BY(mu_) = 0;
  uint64_t overloaded_ticks_ L2R_GUARDED_BY(mu_) = 0;
  uint64_t deadline_cuts_ L2R_GUARDED_BY(mu_) = 0;
  uint64_t deadline_recoveries_ L2R_GUARDED_BY(mu_) = 0;
  uint64_t level_raises_ L2R_GUARDED_BY(mu_) = 0;
  uint64_t level_drops_ L2R_GUARDED_BY(mu_) = 0;
};

}  // namespace l2r

#endif  // L2R_SERVE_OVERLOAD_CONTROLLER_H_
