#ifndef L2R_COMMON_THREAD_POOL_H_
#define L2R_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace l2r {

/// Persistent worker-thread pool. Workers are spawned lazily on first use
/// and parked on a condition variable between jobs, so repeated
/// ParallelFor calls reuse the same threads instead of paying a
/// spawn/join per invocation (the old behavior).
///
/// One process-wide instance serves all ParallelFor/ParallelForWorker
/// calls (see Global()); independent instances can be created for tests.
/// A call into Run from inside a pool worker executes the job inline on
/// the calling thread — nested parallel sections serialize instead of
/// deadlocking.
///
/// Lock order: admission_mu_ before mu_ (Run acquires admission first;
/// nothing acquires admission_mu_ while holding mu_).
class ThreadPool {
 public:
  /// The process-wide pool. Created (empty) on first use; workers appear
  /// as jobs request them. Destroyed — joining all workers — at exit.
  static ThreadPool& Global();

  ThreadPool() = default;
  /// Joins all workers; pending none (Run is synchronous).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs `work(rank)` on up to `helpers` pool workers concurrently with
  /// the calling thread, which executes work(0); helper ranks are
  /// 1..helpers. Blocks until every participant returns. The pool grows
  /// (up to kMaxWorkers) to satisfy `helpers`. Work must not throw — a
  /// throw terminates the process (matching the old spawn-per-call
  /// behavior), never corrupts the pool.
  /// One pool job runs at a time: a Run from a second thread while a job
  /// is active keeps its parallelism via ephemeral spawn-per-call helper
  /// threads for that section (never blocks behind the active job); a
  /// nested Run from inside a job executes inline on the calling thread.
  void Run(unsigned helpers, const std::function<void(unsigned rank)>& work)
      L2R_EXCLUDES(admission_mu_, mu_);

  /// Workers currently alive (grows lazily; never shrinks before
  /// destruction).
  size_t NumWorkers() const L2R_EXCLUDES(mu_);

  /// Upper bound on pool size, chosen to bound memory for per-thread
  /// search workspaces even when callers ask for absurd thread counts.
  static constexpr unsigned kMaxWorkers = 64;

 private:
  void WorkerLoop() L2R_EXCLUDES(mu_);

  /// Serializes whole jobs: held for the full extent of a pool-backed
  /// Run. No data is guarded by it — it is the job-slot token whose
  /// TryLock failure routes a concurrent Run onto ephemeral threads.
  Mutex admission_mu_;
  mutable Mutex mu_;
  CondVar job_cv_;   ///< workers wait here for a job
  CondVar done_cv_;  ///< Run waits here for helpers
  std::vector<std::thread> workers_ L2R_GUARDED_BY(mu_);

  /// Current job, valid while accepting_ or helpers are still running.
  const std::function<void(unsigned)>* job_ L2R_GUARDED_BY(mu_) = nullptr;
  /// Bumped per job; wakes parked workers.
  uint64_t generation_ L2R_GUARDED_BY(mu_) = 0;
  /// Claims allowed for the current job.
  bool accepting_ L2R_GUARDED_BY(mu_) = false;
  unsigned target_helpers_ L2R_GUARDED_BY(mu_) = 0;
  /// Helpers that entered the current job.
  unsigned claimed_ L2R_GUARDED_BY(mu_) = 0;
  /// Helpers that finished it.
  unsigned done_ L2R_GUARDED_BY(mu_) = 0;
  bool stopping_ L2R_GUARDED_BY(mu_) = false;
};

}  // namespace l2r

#endif  // L2R_COMMON_THREAD_POOL_H_
