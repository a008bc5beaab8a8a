#include "serve/stream_router.h"

#include <algorithm>
#include <future>
#include <memory>

#include "common/check.h"

namespace l2r {

namespace {

/// Deadline for a batch opened at `now`; saturates below the kNoDeadline
/// sentinel so an enormous batch_deadline_us still means "some day", not
/// "never".
int64_t BatchDeadline(int64_t now, int64_t batch_deadline_us) {
  if (batch_deadline_us >= Clock::kNoDeadline - now) {
    return Clock::kNoDeadline - 1;
  }
  return now + batch_deadline_us;
}

}  // namespace

StreamRouter::StreamRouter(const L2RRouter* router,
                           const StreamOptions& options)
    : options_(options),
      batch_router_(router,
                    BatchRouterOptions{options.num_threads, options.dedup}) {
  Start();
}

StreamRouter::StreamRouter(QueryService* service,
                           const StreamOptions& options)
    : options_(options),
      batch_router_(service,
                    BatchRouterOptions{options.num_threads, options.dedup}) {
  Start();
}

void StreamRouter::Start() {
  L2R_CHECK(options_.num_drain_threads >= 1);
  L2R_CHECK(options_.batch_deadline_us >= 0);
  {
    MutexLock guard(mu_);
    stats_.drain_threads = options_.num_drain_threads;
    decision_.batch_deadline_us = options_.batch_deadline_us;
    if (options_.shed_depth > 0) {
      controller_.emplace(options_.shed_depth);
      decision_.batch_deadline_us = OverloadController::kMaxBatchDeadlineUs;
      // The first tick is anchored to construction time, before any
      // batcher starts: anchoring it on a batcher thread instead would
      // race thread startup against the first clock advance under
      // ManualClock, making the first tick's timing scheduling-dependent.
      next_tick_us_ =
          clock_->NowMicros() + OverloadController::kControlPeriodUs;
    }
  }
  // Batcher threads read drain_threads() (the immutable option), never
  // batchers_, which this loop is still appending to while they run.
  const unsigned n = options_.num_drain_threads;
  batchers_.reserve(n);
  for (unsigned w = 0; w < n; ++w) {
    batchers_.emplace_back([this, w] { BatcherLoop(w); });
  }
}

StreamRouter::~StreamRouter() { Shutdown(); }

bool StreamRouter::Submit(const BatchQuery& query, StreamCallback done) {
  const size_t cls = static_cast<size_t>(query.query_class);
  {
    MutexLock guard(mu_);
    if (stopping_) {
      ++stats_.rejected;
      return false;
    }
    ++stats_.submitted;
    ++stats_.submitted_by_class[cls];
    const bool shed = query.query_class == QueryClass::kBulk
                          ? decision_.shed_bulk
                          : decision_.shed_interactive;
    if (!shed) {
      const int64_t now = clock_->NowMicros();
      const bool opened = open_.empty();
      if (opened) {
        open_deadline_us_ = BatchDeadline(now, decision_.batch_deadline_us);
      }
      open_.push_back(Pending{query, std::move(done), now});
      bool closed = false;
      if (open_.size() >= kMaxBatch) {
        // Size closes happen here, not on the batcher, so batch
        // composition is a pure function of the submission sequence: the
        // submit that fills a batch always closes it, and the next submit
        // always opens the next one — no race against a batcher observing
        // "full".
        CloseOpenLocked(CloseReason::kSize, now);
        closed = true;
      }
      // The batcher only needs a wake when the state it is waiting on
      // changed: a new batch (new deadline to arm) or a closed one (work
      // to drain). Appending to a batch whose deadline the batcher
      // already holds needs none — that keeps the hot path at one wakeup
      // per batch-state change instead of one per query.
      if (opened || closed) cv_.NotifyAll();
      return true;
    }
    ++stats_.shed;
    ++stats_.shed_by_class[cls];
  }
  // Shed: the query was *accepted* (true return, counted in submitted)
  // but refused service — its callback fires right here, synchronously on
  // the submitting thread with no lock held, so overload never silently
  // drops a callback and never queues work it has decided not to do.
  StreamResult out;
  out.result = Result<RouteResult>(Status::ResourceExhausted(
      "stream router shed query under overload"));
  out.shed = true;
  done(out);
  return true;
}

StreamResult StreamRouter::SubmitWait(const BatchQuery& query) {
  auto promise = std::make_shared<std::promise<StreamResult>>();
  std::future<StreamResult> future = promise->get_future();
  const bool accepted = Submit(
      query, [promise](const StreamResult& r) { promise->set_value(r); });
  if (!accepted) {
    StreamResult rejected;
    rejected.result = Result<RouteResult>(
        Status::FailedPrecondition("stream router is shut down"));
    return rejected;
  }
  return future.get();
}

void StreamRouter::Shutdown() {
  bool join = false;
  {
    MutexLock guard(mu_);
    stopping_ = true;
    if (!batchers_joined_) {
      batchers_joined_ = true;
      join = true;
    }
    cv_.NotifyAll();
  }
  if (join) {
    for (std::thread& t : batchers_) {
      if (t.joinable()) t.join();
    }
  }
}

void StreamRouter::CloseOpenLocked(CloseReason reason, int64_t close_us) {
  ClosedBatch batch;
  batch.queries = std::move(open_);
  open_.clear();
  batch.seq = ++stats_.batches;
  batch.reason = reason;
  batch.close_us = close_us;
  switch (reason) {
    case CloseReason::kSize: ++stats_.closed_by_size; break;
    case CloseReason::kDeadline: ++stats_.closed_by_deadline; break;
    case CloseReason::kShutdown: ++stats_.closed_by_shutdown; break;
  }
  ++batch_size_hist_[batch.queries.size()];
  undrained_ += batch.queries.size();
  closed_.push_back(std::move(batch));
}

void StreamRouter::ControllerTickLocked() {
  const int64_t now_us = clock_->NowMicros();
  OverloadObservation obs;
  obs.queue_depth = open_.size() + undrained_;
  if (!tick_waits_.empty()) {
    std::sort(tick_waits_.begin(), tick_waits_.end());
    const size_t idx =
        std::min(tick_waits_.size() - 1, (tick_waits_.size() * 99) / 100);
    obs.wait_p99_us = tick_waits_[idx];
  }
  tick_waits_.clear();
  decision_ = controller_->Tick(obs);
  // Anchor the next tick at "now", not at next_tick + period: after a
  // long drain the clock may be many periods ahead, and one fresh
  // observation is worth more than a burst of catch-up ticks over the
  // same starved accumulators.
  next_tick_us_ = now_us + OverloadController::kControlPeriodUs;
}

void StreamRouter::BatcherLoop(unsigned worker) {
  MutexLock lock(mu_);  // next_tick_us_ was anchored by the constructor
  for (;;) {
    // The tick outranks draining: under sustained overload closed_ never
    // empties, and the tick is exactly the thing that decides to shed —
    // starving it would wedge the stream at full queues and no relief.
    // With N drain threads this check is the tick arbitration: the first
    // thread through here at the period boundary ticks, and
    // ControllerTickLocked advances next_tick_us_ before mu_ is
    // released, so every other thread observes now < next_tick_us_ —
    // exactly one tick per control period at any drain count. An
    // uncontrolled stream's next_tick_us_ is kNoDeadline: it never ticks.
    if (clock_->NowMicros() >= next_tick_us_) {
      ControllerTickLocked();
      if (options_.budget_sink) {
        // Sink runs unlocked: it calls into the serving layer (and may
        // read our stats), neither of which may happen under mu_.
        const double budget_scale = decision_.budget_scale;
        lock.Unlock();
        options_.budget_sink(budget_scale);
        lock.Lock();
      }
      continue;
    }
    if (!closed_.empty()) {
      // Overlapping drains: each thread takes exactly one closed batch
      // and routes it with the lock released, so N threads drain N
      // batches concurrently. Slot results are pure functions of their
      // queries, so which thread drains a batch never changes bytes.
      ClosedBatch batch = std::move(closed_.front());
      closed_.pop_front();
      lock.Unlock();
      DrainOutcome outcome = DrainBatch(std::move(batch));
      lock.Lock();
      undrained_ -= outcome.queries;
      tick_waits_.insert(tick_waits_.end(), outcome.interactive_waits.begin(),
                         outcome.interactive_waits.end());
      continue;
    }
    if (open_.empty()) {
      if (stopping_) return;
      if (options_.background_work) {
        // Idle: overlap cache repair (or any maintenance) with serving.
        // Runs unlocked — it calls into the serving stack, which must
        // never happen under mu_.
        lock.Unlock();
        const bool did_work =
            options_.background_work(worker, drain_threads());
        lock.Lock();
        if (did_work) {
          ++stats_.background_work_runs;
          continue;  // re-poll: drains may have queued up meanwhile
        }
        if (!closed_.empty() || !open_.empty() || stopping_) continue;
      }
      // Idle ticks still run on a controlled stream — that is how a
      // tripped stream recovers (deadline growth, level drops) during a
      // lull with no arrivals to drain.
      clock_->WaitUntil(cv_, mu_, next_tick_us_);
      continue;
    }
    if (stopping_) {
      CloseOpenLocked(CloseReason::kShutdown, clock_->NowMicros());
      continue;
    }
    if (clock_->NowMicros() >= open_deadline_us_) {
      // The logical close time is the deadline itself (not the later
      // instant the batcher observed it), so queue waits are exact under
      // virtual clocks and scheduling-independent under real ones.
      CloseOpenLocked(CloseReason::kDeadline, open_deadline_us_);
      continue;
    }
    clock_->WaitUntil(cv_, mu_, std::min(open_deadline_us_, next_tick_us_));
  }
}

StreamRouter::DrainOutcome StreamRouter::DrainBatch(ClosedBatch batch) {
  // Stamped before routing begins: close-to-drain lag is backlog time the
  // batch spent queued behind earlier drains, which queue_wait_us (bounded
  // by the deadline even under overload) cannot see.
  const int64_t drain_start_us = clock_->NowMicros();
  DrainOutcome outcome;
  outcome.queries = batch.queries.size();
  std::vector<BatchQuery> queries;
  queries.reserve(batch.queries.size());
  for (const Pending& p : batch.queries) queries.push_back(p.query);
  // RouteAll invokes `done` on this thread in slot order after the
  // parallel routing finishes, so the outcome accumulation below needs no
  // synchronization (BatchRouter::Completion contract).
  batch_router_.RouteAll(
      queries,
      [this, &batch, &outcome, drain_start_us](size_t slot,
                                               Result<RouteResult> result) {
        Pending& pending = batch.queries[slot];
        StreamResult out;
        out.result = std::move(result);
        out.batch_seq = batch.seq;
        out.batch_size = batch.queries.size();
        out.closed_by_deadline = batch.reason == CloseReason::kDeadline;
        out.queue_wait_us =
            std::max<int64_t>(0, batch.close_us - pending.submit_us);
        out.drain_wait_us =
            std::max<int64_t>(0, drain_start_us - pending.submit_us);
        if (pending.query.query_class == QueryClass::kInteractive) {
          outcome.interactive_waits.push_back(out.drain_wait_us);
        }
        pending.done(out);
        completed_by_class_[static_cast<size_t>(pending.query.query_class)]
            .fetch_add(1, std::memory_order_relaxed);
        completed_.fetch_add(1, std::memory_order_release);
      });
  return outcome;
}

StreamRouter::Stats StreamRouter::GetStats() const {
  // completed_* are loaded before mu_ is taken, so a snapshot never counts
  // a completion whose submit it does not also count.
  const uint64_t completed = completed_.load(std::memory_order_acquire);
  uint64_t completed_by_class[kNumQueryClasses] = {};
  for (size_t c = 0; c < kNumQueryClasses; ++c) {
    completed_by_class[c] =
        completed_by_class_[c].load(std::memory_order_relaxed);
  }
  MutexLock guard(mu_);
  Stats stats = stats_;
  stats.completed = completed;
  std::copy(completed_by_class, completed_by_class + kNumQueryClasses,
            stats.completed_by_class);
  stats.batch_size_hist.assign(batch_size_hist_.begin(),
                               batch_size_hist_.end());
  if (controller_.has_value()) stats.controller = controller_->GetStats();
  stats.batch_deadline_us = decision_.batch_deadline_us;
  return stats;
}

}  // namespace l2r
