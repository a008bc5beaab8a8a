#ifndef L2R_CORE_BATCH_ROUTER_H_
#define L2R_CORE_BATCH_ROUTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/workspace_pool.h"
#include "core/l2r.h"

namespace l2r {

/// One routing request of a batch.
struct BatchQuery {
  VertexId s = kInvalidVertex;
  VertexId d = kInvalidVertex;
  double departure_time = 0;
  /// Priority class for admission-level load shedding (serve_hooks.h).
  /// Routing itself ignores it: the answer is a pure function of
  /// (s, d, period), so batch-level dedup collapses duplicates across
  /// classes and results stay byte-identical either way.
  QueryClass query_class = QueryClass::kInteractive;
};

struct BatchRouterOptions {
  /// 0 = DefaultThreadCount().
  unsigned num_threads = 0;
  /// Batch-level dedup: collapse queries with identical (s, d, period) —
  /// the QueryKey identity of core/serve_hooks.h — before dispatch, route
  /// one representative per group, and copy its result into every
  /// duplicate slot. Bursty production traffic concentrates identical
  /// queries inside a batch (commute peaks), so this skips whole searches
  /// rather than merely serving them from cache. Results are
  /// byte-identical to the non-deduped run: Route's answer depends on the
  /// departure time only through the period, which is exactly what the
  /// group key quantizes.
  bool dedup = false;
};

/// High-throughput batch front-end for L2RRouter: serves N queries across
/// the persistent thread pool using pooled L2RQueryContexts. Contexts are
/// created once at warm-up and reused for every subsequent query and
/// batch, so steady-state serving does no per-query workspace allocation.
///
/// Determinism: result slot i depends only on query i and the immutable
/// router, so RouteAll output is byte-identical to calling
/// L2RRouter::Route sequentially, for any thread count. Routing through a
/// QueryService (e.g. serve/ServingRouter) preserves this: the service
/// contract requires cache/memo hits to be byte-identical to
/// recomputation, so results stay independent of hit/miss interleaving.
/// Batch-level dedup preserves it too: a duplicate slot receives a copy
/// of its representative's result, and the representative has the same
/// (s, d, period) identity the answer is a pure function of.
class BatchRouter {
 public:
  /// `router` must outlive the BatchRouter. `num_threads` 0 means
  /// DefaultThreadCount().
  explicit BatchRouter(const L2RRouter* router, unsigned num_threads = 0);

  /// Routes every query through `service` (the serving layer) instead of
  /// the bare router. `service` must outlive the BatchRouter.
  explicit BatchRouter(QueryService* service, unsigned num_threads = 0);

  /// Full-option constructors (thread count + batch-level dedup).
  BatchRouter(const L2RRouter* router, const BatchRouterOptions& options);
  BatchRouter(QueryService* service, const BatchRouterOptions& options);

  /// Routes every query; results are index-aligned with `queries`.
  std::vector<Result<RouteResult>> RouteAll(
      const std::vector<BatchQuery>& queries);

  /// Per-slot completion hook: `done(slot, result)` receives ownership of
  /// slot's result. Invoked on the calling thread, in slot order, after
  /// the (parallel) routing of the whole batch finishes — so invocation
  /// order is deterministic and `done` needs no synchronization of its
  /// own. This is how streaming front-ends (serve/StreamRouter) fan a
  /// drained batch back out to per-query callbacks.
  using Completion = std::function<void(size_t slot, Result<RouteResult>)>;

  /// Routes every query, then feeds each result to `done`.
  void RouteAll(const std::vector<BatchQuery>& queries,
                const Completion& done);

  /// Query contexts created so far (the warm-up high-water mark; stays
  /// flat across repeated RouteAll calls).
  size_t ContextsCreated() const { return contexts_.CreatedCount(); }

  unsigned num_threads() const { return num_threads_; }
  /// Queries across all batches served by copying a representative's
  /// result instead of routing (0 unless dedup is enabled).
  uint64_t DuplicatesCollapsed() const {
    return duplicates_collapsed_.load(std::memory_order_relaxed);
  }

 private:
  /// Routes `queries[indices[g]]` for every g into slot g of the result.
  std::vector<Result<RouteResult>> RouteIndices(
      const std::vector<BatchQuery>& queries,
      const std::vector<uint32_t>& indices);

  const L2RRouter* router_;
  QueryService* service_ = nullptr;  ///< null = route on the bare router
  unsigned num_threads_;
  bool dedup_ = false;
  std::atomic<uint64_t> duplicates_collapsed_{0};
  WorkspacePool<L2RQueryContext> contexts_;
};

}  // namespace l2r

#endif  // L2R_CORE_BATCH_ROUTER_H_
