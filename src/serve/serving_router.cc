#include "serve/serving_router.h"

#include "common/check.h"

namespace l2r {

ServingRouter::ServingRouter(const L2RRouter* router,
                             const ServingRouterOptions& options)
    : router_(router), budget_(options.deadline), world_(options.world) {
  L2R_CHECK(router != nullptr);
  if (options.enable_cache) {
    cache_ = std::make_unique<RouteCache>();
    cache_->SetWorld(world_);
  }
  settle_cap_.store(budget_.MaxPreferenceSettles(),
                    std::memory_order_relaxed);
}

void ServingRouter::SetBudgetScale(double scale) {
  if (!budget_.enabled()) return;
  settle_cap_.store(budget_.ScaledSettleCap(scale),
                    std::memory_order_relaxed);
}

Result<RouteResult> ServingRouter::Route(L2RQueryContext* ctx, VertexId s,
                                         VertexId d, double departure_time) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  // Pin the world for the whole query: lookups, the cold computation and
  // the cache insert all run on pin.epoch() — no update batch can land in
  // between, so "in-flight queries finish on the epoch they started on"
  // holds structurally. Null world = frozen epoch 0, no locking.
  WorldReadPin pin(world_);
  const WorldEpoch epoch = pin.epoch();
  const QueryKey key = QueryKeyOf(s, d, departure_time);
  if (cache_ != nullptr) {
    RouteResult hit;
    WorldEpoch hit_epoch = 0;
    if (cache_->Lookup(key, &hit, &hit_epoch)) {
      // Valid hit: stamped either on this epoch or on an older epoch no
      // later batch dirtied (the payoff of selective invalidation).
      // Relaxed: pure serve tallies, documented order in the header.
      if (hit_epoch == epoch) {
        current_epoch_serves_.fetch_add(1, std::memory_order_relaxed);
      } else {
        stale_valid_epoch_serves_.fetch_add(1, std::memory_order_relaxed);
      }
      return hit;
    }
  }
  // Every cold/error dispatch runs on the pinned (current) epoch.
  // Relaxed: pure serve tally, documented order in the header.
  current_epoch_serves_.fetch_add(1, std::memory_order_relaxed);
  return ColdRoute(ctx, key, pin);
}

Result<RouteResult> ServingRouter::ColdRoute(L2RQueryContext* ctx,
                                             const QueryKey& key,
                                             const WorldReadPin& pin) {
  Result<RouteResult> result = router_->Route(
      ctx, key, settle_cap_.load(std::memory_order_relaxed));
  if (result.ok()) {
    if (result->budget_degraded) {
      budget_degraded_.fetch_add(1, std::memory_order_relaxed);
    }
    if (cache_ != nullptr) {
      cache_->Insert(key, *result, pin.epoch(),
                     world_ != nullptr
                         ? RouteRegionFootprint(
                               *router_, *result,
                               static_cast<TimePeriod>(key.period))
                         : std::vector<RegionId>{});
    }
  }
  return result;
}

ServingRouter::Stats ServingRouter::GetStats() const {
  Stats stats;
  if (cache_ != nullptr) stats.cache = cache_->GetStats();
  stats.queries = queries_.load(std::memory_order_relaxed);
  // Every query that missed the cache computed; the saturation covers a
  // relaxed snapshot taken while queries are in flight.
  stats.single_flight.leaders = stats.queries > stats.cache.hits
                                    ? stats.queries - stats.cache.hits
                                    : 0;
  stats.budget_degraded = budget_degraded_.load(std::memory_order_relaxed);
  stats.epoch_serves = GetEpochServeCounts();
  return stats;
}

EpochServeCounts ServingRouter::GetEpochServeCounts() const {
  EpochServeCounts counts;
  // Relaxed loads: pure tallies, nothing is published through them (this
  // comment is the documented memory order for the epoch counters).
  counts.current_epoch =
      current_epoch_serves_.load(std::memory_order_relaxed);
  counts.stale_valid_epoch =
      stale_valid_epoch_serves_.load(std::memory_order_relaxed);
  return counts;
}

}  // namespace l2r
