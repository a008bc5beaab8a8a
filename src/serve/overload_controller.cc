#include "serve/overload_controller.h"

#include <algorithm>

#include "common/check.h"

namespace l2r {

OverloadController::OverloadController(size_t shed_depth)
    : shed_depth_(shed_depth),
      resume_depth_(shed_depth / 4),
      panic_depth_(2 * shed_depth) {
  L2R_CHECK(shed_depth > 0);
}

OverloadDecision OverloadController::Tick(const OverloadObservation& obs) {
  MutexLock guard(mu_);
  ++ticks_;

  // A tick is overloaded when interactive waits broke the SLO or the
  // pending queue is deep enough that the *next* tick's waits will; it is
  // calm only when both signals sit comfortably inside their bounds
  // (half the SLO, the resume watermark). The middle ground advances
  // neither streak, which is what keeps the ladder from oscillating.
  const bool overloaded = (obs.wait_p99_us > kSloQueueWaitUs) ||
                          obs.queue_depth >= shed_depth_;
  const bool calm = obs.queue_depth <= resume_depth_ &&
                    (obs.wait_p99_us < 0 ||
                     2 * obs.wait_p99_us <= kSloQueueWaitUs);

  if (overloaded) {
    ++overloaded_ticks_;
    overload_streak_ += 1;
    calm_streak_ = 0;
    const int64_t cut = static_cast<int64_t>(
        static_cast<double>(batch_deadline_us_) * kDeadlineBackoff);
    const int64_t next = std::max(kMinBatchDeadlineUs, cut);
    if (next < batch_deadline_us_) {
      batch_deadline_us_ = next;
      ++deadline_cuts_;
    }
  } else if (calm) {
    calm_streak_ += 1;
    overload_streak_ = 0;
    const int64_t next = std::min(kMaxBatchDeadlineUs,
                                  batch_deadline_us_ + kDeadlineRecoverUs);
    if (next > batch_deadline_us_) {
      batch_deadline_us_ = next;
      ++deadline_recoveries_;
    }
  } else {
    overload_streak_ = 0;
    calm_streak_ = 0;
  }

  if (obs.queue_depth >= panic_depth_ && level_ < 3) {
    // Waits this deep are already lost; jump to queue protection rather
    // than walking the ladder one trip window at a time.
    level_raises_ += static_cast<uint64_t>(3 - level_);
    level_ = 3;
    overload_streak_ = 0;
  } else if (overload_streak_ >= kTripTicks && level_ < 3) {
    ++level_;
    ++level_raises_;
    overload_streak_ = 0;
  } else if (calm_streak_ >= kReleaseTicks && level_ > 0) {
    --level_;
    ++level_drops_;
    calm_streak_ = 0;
  }

  return DecisionLocked();
}

OverloadDecision OverloadController::DecisionLocked() const {
  OverloadDecision d;
  d.level = level_;
  d.batch_deadline_us = batch_deadline_us_;
  d.shed_bulk = level_ >= 1;
  d.budget_scale = level_ >= 2 ? kDegradedBudgetScale : 1.0;
  d.shed_interactive = level_ >= 3;
  return d;
}

OverloadController::Stats OverloadController::GetStats() const {
  MutexLock guard(mu_);
  Stats stats;
  stats.ticks = ticks_;
  stats.overloaded_ticks = overloaded_ticks_;
  stats.deadline_cuts = deadline_cuts_;
  stats.deadline_recoveries = deadline_recoveries_;
  stats.level_raises = level_raises_;
  stats.level_drops = level_drops_;
  stats.level = level_;
  stats.batch_deadline_us = batch_deadline_us_;
  return stats;
}

}  // namespace l2r
