#ifndef L2R_WORLD_ROUTE_REPAIRER_H_
#define L2R_WORLD_ROUTE_REPAIRER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "serve/serving_router.h"
#include "world/update_channel.h"

namespace l2r {

/// Cache repair after a world update: sweeps the stale entries of a
/// worker's cache shards and recomputes each once through the serving
/// cold path (ServingRouter::ColdRoute) on the swept epoch. Every
/// reinserted entry is therefore the result a cache miss on that epoch
/// would compute and cache, by construction: the same code, the same
/// settle cap, the same degrade bit, epoch stamp and footprint.
///
/// BackgroundTick(worker, num_workers) is the one entry point. Worker w
/// of n sweeps the cache shards with index % n == w whose swept-epoch
/// lags the current world epoch, then recomputes what it swept.
///  - BackgroundTick(0, 1) sweeps every shard: the synchronous pass one
///    caller runs after an update batch. GetBackgroundStats() deltas
///    around it are its report.
///  - Wired to StreamOptions::background_work, idle drain threads repair
///    the cache *while serving continues*. Shard ownership is pinned per
///    worker, so concurrent workers never sweep the same stripe, and the
///    per-shard swept-epoch table makes the no-work poll a handful of
///    relaxed loads. Safe to call concurrently from distinct workers.
/// Cost is measured in settled vertices (deterministic), so
/// repair-vs-recompute ratios are stable across machines and
/// CI-gateable.
class RouteRepairer {
 public:
  /// `serving` must have the route cache enabled and a world attached;
  /// must outlive the repairer.
  explicit RouteRepairer(ServingRouter* serving);

  /// Sweeps the stale entries of the cache shards owned by `worker` (of
  /// `num_workers`, 0 meaning 1) whose swept-epoch lags the current world
  /// epoch, and recomputes each through the serving cold path. Holds a
  /// world read pin throughout, so the epoch cannot move mid-pass.
  /// Returns true when it swept at least one entry (the StreamRouter
  /// re-polls then) and false when there was nothing to do (a cheap
  /// no-work poll).
  bool BackgroundTick(unsigned worker, unsigned num_workers);

  /// Totals across every BackgroundTick that found work (thread-safe
  /// snapshot). A tick bumps `passes` last, with release, and the
  /// snapshot loads it first, with acquire: every other field includes
  /// all `passes` ticks in full (plus, with several workers, possibly
  /// part of a tick still publishing). repaired + unroutable ==
  /// candidates once no tick is publishing.
  struct BackgroundStats {
    uint64_t passes = 0;      ///< ticks that swept at least one entry
    uint64_t candidates = 0;  ///< stale entries swept from the cache
    uint64_t repaired = 0;    ///< re-routed and reinserted
    uint64_t unroutable = 0;  ///< no longer routable, dropped
    uint64_t repair_settles = 0;  ///< settled vertices spent re-routing
  };
  BackgroundStats GetBackgroundStats() const;

 private:
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
  std::atomic<uint64_t> bg_unroutable_{0};
  std::atomic<uint64_t> bg_settles_{0};
};

}  // namespace l2r

#endif  // L2R_WORLD_ROUTE_REPAIRER_H_
