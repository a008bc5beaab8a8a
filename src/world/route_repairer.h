#ifndef L2R_WORLD_ROUTE_REPAIRER_H_
#define L2R_WORLD_ROUTE_REPAIRER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "serve/route_cache.h"
#include "serve/serving_router.h"
#include "world/update_channel.h"

namespace l2r {

/// Incremental ripup-and-reroute repair pass (the global-routing loop of
/// rip-up/re-route, transplanted to serving): after an update batch,
/// sweeps the stale entries out of the route cache and re-routes each on
/// the new epoch under a bounded settle cap seeded from the stale route's
/// length. A route whose detour is local converges in a cheap early
/// round; rounds double the cap, and the final round runs at *exactly*
/// the serving settle cap — never beyond it — so every reinserted result
/// is byte-identical to what ServingRouter's cold path would produce for
/// the same query on the same epoch (a bounded round that converges
/// without degrading equals the uncapped search, which equals the
/// serving-cap search; the final round is the serving-cap search).
///
/// Both entry points run one sweep: worker w of n sweeps the cache shards
/// with index % n == w whose swept-epoch lags the current world epoch,
/// then repairs what it swept.
///  - RepairAll(): worker 0 of 1, i.e. every shard — the synchronous pass
///    one caller runs after an update batch (the update/maintenance
///    thread). Not safe to overlap with itself.
///  - BackgroundTick(worker, num_workers): the scale-out folding — wire
///    it to StreamOptions::background_work so idle drain threads repair
///    the cache *while serving continues*. Shard ownership is pinned per
///    worker, so concurrent workers never sweep the same stripe, and the
///    per-shard swept-epoch table makes the no-work poll a handful of
///    relaxed loads. Safe to call concurrently from distinct workers.
/// Either way, cost is measured in settled vertices (deterministic), so
/// repair-vs-recompute ratios are stable across machines and
/// CI-gateable, and every reinserted result is byte-identical to the
/// serving cold path on the same epoch.
class RouteRepairer {
 public:
  struct Report {
    WorldEpoch epoch = 0;       ///< epoch the repairs were computed on
    size_t candidates = 0;      ///< stale entries swept from the cache
    size_t repaired = 0;        ///< converged within a bounded round
    size_t full_recompute = 0;  ///< needed the final serving-cap round
    size_t unroutable = 0;      ///< no longer routable (e.g. closed off)
    uint64_t repair_settles = 0;  ///< total settled vertices spent

    double ConvergenceRate() const {
      return candidates == 0
                 ? 1.0
                 : static_cast<double>(repaired) /
                       static_cast<double>(candidates);
    }
  };

  /// `serving` must have the route cache enabled and a world attached;
  /// must outlive the repairer.
  explicit RouteRepairer(ServingRouter* serving);

  /// Sweeps every invalidated cache entry and re-routes it on the current
  /// epoch, reinserting the repaired result with its new stamp +
  /// footprint. Holds a world read pin throughout, so the epoch cannot
  /// move mid-pass. Shards a BackgroundTick already swept on this epoch
  /// hold nothing stale and are skipped.
  Report RepairAll();

  /// Background-drain variant (see the class comment): sweeps and
  /// repairs only the cache shards owned by `worker` (of `num_workers`)
  /// whose swept-epoch lags the current world epoch. Returns true when
  /// it repaired at least one entry — the StreamRouter re-polls then —
  /// and false when there was nothing to do (a cheap no-work poll).
  bool BackgroundTick(unsigned worker, unsigned num_workers);

  /// Totals across every BackgroundTick that found work (thread-safe
  /// snapshot). A tick bumps `passes` last, with release, and the
  /// snapshot loads it first, with acquire: every other field includes
  /// all `passes` ticks in full (plus, with several workers, possibly
  /// part of a tick still publishing).
  struct BackgroundStats {
    uint64_t passes = 0;  ///< ticks that repaired at least one entry
    uint64_t candidates = 0;
    uint64_t repaired = 0;
    uint64_t full_recompute = 0;
    uint64_t unroutable = 0;
    uint64_t repair_settles = 0;
  };
  BackgroundStats GetBackgroundStats() const;

 private:
  /// The one sweep (see the class comment): extracts the stale entries
  /// of worker `worker`'s lagging shards under a world read pin and
  /// repairs them.
  Report Sweep(unsigned worker, unsigned num_workers);
  /// Re-routes `stale` on `report->epoch` (the sweep's pinned epoch) and
  /// reinserts, accumulating into `report`.
  void RepairEntries(std::vector<RouteCache::StaleEntry>& stale,
                     Report* report);

  ServingRouter* serving_;
  /// Background coordination: the world epoch each cache shard was last
  /// swept at. Pure coordination values (a stale read just means one
  /// redundant — still correct — sweep), so all accesses are relaxed;
  /// see common/thread_annotations.h for the rationale convention.
  std::unique_ptr<std::atomic<WorldEpoch>[]> shard_swept_epoch_;
  size_t num_shards_ = 0;
  /// Background totals; pure tallies, relaxed (common/thread_annotations.h)
  /// except bg_passes_, the release/acquire publication point above.
  std::atomic<uint64_t> bg_passes_{0};
  std::atomic<uint64_t> bg_candidates_{0};
  std::atomic<uint64_t> bg_repaired_{0};
  std::atomic<uint64_t> bg_full_recompute_{0};
  std::atomic<uint64_t> bg_unroutable_{0};
  std::atomic<uint64_t> bg_settles_{0};
};

}  // namespace l2r

#endif  // L2R_WORLD_ROUTE_REPAIRER_H_
