#ifndef L2R_SERVE_SERVING_ROUTER_H_
#define L2R_SERVE_SERVING_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/l2r.h"
#include "serve/deadline_budget.h"
#include "serve/route_cache.h"

namespace l2r {

struct ServingRouterOptions {
  /// The RouteCache in front of the cold path; false serves every query
  /// cold.
  bool enable_cache = true;
  DeadlineBudgetOptions deadline;
  /// Dynamic world view (world/WorldUpdateChannel), or null for the
  /// frozen-world seed behavior. When set, every query runs under a read
  /// pin (start-to-finish on one epoch), cache entries are stamped with
  /// epoch + region footprint and validated on lookup. Must outlive the
  /// ServingRouter.
  WorldViewIface* world = nullptr;
};

/// The serving layer: sits between BatchRouter (or any front-end) and
/// L2RRouter. A query first consults the sharded RouteCache keyed on its
/// QueryKey (s, d, period); a miss runs the cold path under the deadline
/// budget's settle cap, then populates the cache. Duplicates are
/// suppressed upstream by BatchRouter's batch dedup and here by the
/// cache: two concurrent identical misses both compute the same bytes on
/// the same pinned epoch, and the second RouteCache::Insert just
/// refreshes the key.
///
/// Determinism guarantees (all required by BatchRouter's contract):
///  - cache hits return byte-identical copies of cold-path results;
///  - the budget is a settle-count cap, so degrade decisions are
///    reproducible — RouteResult::budget_degraded is part of the result,
///    not an observability side channel.
/// Errors (invalid queries, unreachable pairs) are never cached.
class ServingRouter final : public QueryService {
 public:
  struct Stats {
    RouteCache::Stats cache;
    /// Stitch-memo tallies under the names servebench reads
    /// (`serve.stitch_memo.hit_ratio`): always 0, because the stitcher
    /// scores stored paths in place and no memo exists.
    struct {
      uint64_t edge_hits = 0;
      uint64_t edge_misses = 0;
      uint64_t connector_hits = 0;
      uint64_t connector_misses = 0;
    } memo;
    /// Cold-path tallies under the names servebench reads
    /// (`serve.single_flight.coalesced_ratio`): `leaders` is the number
    /// of cold computations, queries - cache.hits, and `coalesced` is
    /// always 0 because no in-flight coalescing layer exists.
    struct {
      uint64_t leaders = 0;
      uint64_t coalesced = 0;
    } single_flight;
    uint64_t queries = 0;
    /// Cold-path computations (misses and repairs) that degraded.
    uint64_t budget_degraded = 0;
    /// Per-epoch serve split (dynamic world; all-current when frozen).
    EpochServeCounts epoch_serves;
  };

  /// `router` must outlive the ServingRouter.
  explicit ServingRouter(const L2RRouter* router,
                         const ServingRouterOptions& options = {});

  const L2RRouter& router() const override { return *router_; }

  Result<RouteResult> Route(L2RQueryContext* ctx, VertexId s, VertexId d,
                            double departure_time) override;

  Stats GetStats() const;
  EpochServeCounts GetEpochServeCounts() const override;

  /// Overload-control seam: rescales the deadline budget's settle cap to
  /// `scale` (see DeadlineBudget::ScaledSettleCap: above 1 is the plain
  /// cap, NaN or <= 0 the kMinSettles floor; no-op when the budget is
  /// disabled).
  /// Wire it to StreamOptions::budget_sink so the controller can trade
  /// route fidelity for capacity at level >= 2. Safe from any thread;
  /// applies to cold computations that start after the call. Degrade
  /// decisions remain settle-count-based (never wall-clock), so a fixed
  /// decision trace still reproduces results exactly — what changes
  /// under overload is *which* queries degrade, recorded per result in
  /// RouteResult::budget_degraded as always.
  void SetBudgetScale(double scale);
  /// The settle cap cold computations currently run under (0 = no cap).
  size_t CurrentSettleCap() const {
    return settle_cap_.load(std::memory_order_relaxed);
  }

  /// The cold path, the only code that computes a cache entry: routes
  /// `key` at the current settle cap, counts a degrade, and caches an ok
  /// result stamped with `pin`'s epoch and its region footprint. `pin` is
  /// the caller's: pins are not reentrant, so this one does not pin
  /// again.
  /// Route's miss path and the repair pass (world/RouteRepairer) both
  /// call it; it bumps no serve tally (queries, cache misses, epoch
  /// serves), so a repair is not counted as a served query.
  Result<RouteResult> ColdRoute(L2RQueryContext* ctx, const QueryKey& key,
                                const WorldReadPin& pin);

  WorldViewIface* world() const { return world_; }
  /// The repair pass (world/RouteRepairer) sweeps stale entries out of
  /// here; null when the cache is disabled.
  RouteCache* route_cache() { return cache_.get(); }

 private:
  const L2RRouter* router_;
  std::unique_ptr<RouteCache> cache_;  ///< null when disabled
  DeadlineBudget budget_;
  /// Dynamic world view; immutable after construction (null = frozen).
  WorldViewIface* world_ = nullptr;
  /// Live settle cap (budget_'s cap under the current overload scale).
  /// Relaxed everywhere: a pure knob read once per cold computation,
  /// nothing is published through it (common/thread_annotations.h).
  std::atomic<size_t> settle_cap_{0};
  /// Pure tallies (relaxed everywhere): nothing is published through
  /// them, and RMW atomicity alone keeps the counts exact — see
  /// common/thread_annotations.h for the full memory-order rationale.
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> budget_degraded_{0};
  /// Per-epoch serve tallies (relaxed: pure counters, like the above;
  /// this comment is the documented order for the lint's epoch rule).
  std::atomic<uint64_t> current_epoch_serves_{0};
  std::atomic<uint64_t> stale_valid_epoch_serves_{0};
};

}  // namespace l2r

#endif  // L2R_SERVE_SERVING_ROUTER_H_
