#ifndef L2R_COMMON_PARALLEL_H_
#define L2R_COMMON_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>

#include "common/thread_pool.h"

namespace l2r {

/// Number of worker threads to use by default (hardware concurrency,
/// clamped to [1, 16]).
inline unsigned DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return 1;
  return hw > 16 ? 16 : hw;
}

/// Runs fn(worker, i) for i in [0, n) on up to `num_threads` threads from
/// the persistent global ThreadPool (no per-call thread spawn). Work items
/// are claimed via an atomic counter. Each participating thread gets its
/// own worker object created by `make_worker()` (e.g. a Dijkstra
/// workspace), only after the thread claims its first item, so helpers
/// that wake too late to get work cost nothing. Determinism contract:
/// fn(worker, i) must write only to slot i of pre-sized output arrays (and
/// derive any randomness from i), so results are independent of
/// scheduling.
template <typename MakeWorker, typename Fn>
void ParallelForWorker(size_t n, MakeWorker make_worker, Fn fn,
                       unsigned num_threads = 0) {
  if (n == 0) return;
  if (num_threads == 0) num_threads = DefaultThreadCount();
  if (num_threads <= 1 || n == 1) {
    auto worker = make_worker();
    for (size_t i = 0; i < n; ++i) fn(worker, i);
    return;
  }
  // Relaxed claim counter: the RMW alone makes claims unique, and the
  // results written by fn are published to the caller by the pool's
  // job-completion handshake (mu_), not by this counter.
  std::atomic<size_t> next{0};
  const unsigned helpers =
      static_cast<unsigned>(n < num_threads ? n : num_threads) - 1;
  ThreadPool::Global().Run(helpers, [&](unsigned /*rank*/) {
    size_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    auto worker = make_worker();
    do {
      fn(worker, i);
      i = next.fetch_add(1, std::memory_order_relaxed);
    } while (i < n);
  });
}

/// ParallelForWorker with no per-thread worker: runs fn(i) for i in
/// [0, n) under the same claim loop and slot-i determinism contract.
inline void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                        unsigned num_threads = 0) {
  struct NoWorker {};
  ParallelForWorker(
      n, [] { return NoWorker{}; }, [&fn](NoWorker&, size_t i) { fn(i); },
      num_threads);
}

}  // namespace l2r

#endif  // L2R_COMMON_PARALLEL_H_
