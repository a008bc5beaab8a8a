#include "common/thread_pool.h"

#include <exception>
#include <mutex>

namespace l2r {

namespace {
/// True while this thread participates in a pool job: set permanently on
/// worker threads, and around the caller's own work(0) in Run. Nested
/// Run calls from such threads execute inline (serially) instead of
/// deadlocking on the job slot.
thread_local bool tl_in_parallel_section = false;
}  // namespace

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  job_cv_.NotifyAll();
  // Joining outside mu_ is safe: workers_ only grows under mu_ inside
  // Run, and no Run may overlap destruction (analysis is off in
  // destructors, but the invariant still holds by contract).
  for (std::thread& t : workers_) t.join();
}

size_t ThreadPool::NumWorkers() const {
  MutexLock lock(mu_);
  return workers_.size();
}

void ThreadPool::Run(unsigned helpers,
                     const std::function<void(unsigned)>& work) {
  if (helpers == 0 || tl_in_parallel_section) {
    // Degenerate or nested parallel section: run inline on this thread.
    work(0);
    return;
  }
  if (helpers > kMaxWorkers) helpers = kMaxWorkers;
  // One pool job at a time. A concurrent Run from another thread keeps
  // its parallelism by spawning ephemeral helpers for just this section
  // (the pre-pool behavior) — no convoying behind the active job, no
  // silent serial degradation. std::unique_lock (not MutexLock) so the
  // job slot is released even if a spawn throws below; admission_mu_
  // guards no data, so the acquisition being invisible to the
  // thread-safety analysis loses nothing.
  std::unique_lock<Mutex> admission(admission_mu_, std::try_to_lock);
  if (!admission.owns_lock()) {
    std::vector<std::thread> extras;
    extras.reserve(helpers);
    for (unsigned r = 1; r <= helpers; ++r) {
      extras.emplace_back([&work, r] {
        tl_in_parallel_section = true;
        work(r);  // a throw terminates (uncaught in thread), per contract
      });
    }
    tl_in_parallel_section = true;
    try {
      work(0);
    } catch (...) {
      std::terminate();
    }
    tl_in_parallel_section = false;
    for (std::thread& t : extras) t.join();
    return;
  }
  {
    MutexLock lock(mu_);
    while (workers_.size() < helpers) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
    job_ = &work;
    target_helpers_ = helpers;
    claimed_ = 0;
    done_ = 0;
    accepting_ = true;
    ++generation_;
  }
  job_cv_.NotifyAll();

  tl_in_parallel_section = true;
  // The no-throw contract is enforced: letting an exception unwind this
  // frame while helpers still reference it would be use-after-scope UB
  // (the old spawn-per-call code also terminated, via the joinable
  // std::thread destructor).
  try {
    work(0);
  } catch (...) {
    std::terminate();
  }
  tl_in_parallel_section = false;

  {
    MutexLock lock(mu_);
    accepting_ = false;  // late-waking workers no longer join this job
    while (done_ != claimed_) done_cv_.Wait(mu_);
    job_ = nullptr;
  }
}

void ThreadPool::WorkerLoop() {
  tl_in_parallel_section = true;
  uint64_t seen_generation = 0;
  MutexLock lock(mu_);
  while (true) {
    while (!stopping_ && generation_ == seen_generation) job_cv_.Wait(mu_);
    if (stopping_) return;  // MutexLock releases mu_
    seen_generation = generation_;
    if (!accepting_ || claimed_ >= target_helpers_) continue;
    const unsigned rank = ++claimed_;
    const std::function<void(unsigned)>* job = job_;
    lock.Unlock();
    (*job)(rank);
    lock.Lock();
    ++done_;
    if (done_ == claimed_) done_cv_.NotifyAll();
  }
}

}  // namespace l2r
