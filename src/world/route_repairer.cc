#include "world/route_repairer.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "traj/trajectory.h"

namespace l2r {

namespace {

/// Floor of the seeded settle cap, so tiny stale paths still get a useful
/// first round.
constexpr size_t kMinInitialRepairCap = 512;
/// Initial cap = max(kMinInitialRepairCap, this * |stale path vertices|):
/// the bounded-radius re-search is sized by the route it replaces.
constexpr double kRepairCapPerStaleVertex = 8.0;
/// Cap-doubling rounds before falling back to the full serving-cap
/// recompute.
constexpr int kMaxRepairRounds = 3;

/// A departure time mapping to `period` under PeriodOf (noon is off-peak,
/// 08:00 is morning rush) — the cache key stores only the period, so the
/// repairer reconstructs a representative departure time to route with.
double DepartureTimeFor(uint8_t period) {
  return period == static_cast<uint8_t>(TimePeriod::kPeak) ? 8 * 3600.0
                                                           : 12 * 3600.0;
}

}  // namespace

RouteRepairer::RouteRepairer(ServingRouter* serving) : serving_(serving) {
  L2R_CHECK(serving != nullptr);
  L2R_CHECK(serving->route_cache() != nullptr);
  L2R_CHECK(serving->world() != nullptr);
  num_shards_ = serving->route_cache()->NumShards();
  shard_swept_epoch_ =
      std::make_unique<std::atomic<WorldEpoch>[]>(num_shards_);
  for (size_t i = 0; i < num_shards_; ++i) {
    // Epoch 0 is the frozen world — nothing to sweep there; relaxed
    // init, coordination orders documented at the member.
    shard_swept_epoch_[i].store(0, std::memory_order_relaxed);
  }
}

RouteRepairer::Report RouteRepairer::RepairAll() { return Sweep(0, 1); }

bool RouteRepairer::BackgroundTick(unsigned worker, unsigned num_workers) {
  const Report report = Sweep(worker, num_workers == 0 ? 1 : num_workers);
  if (report.candidates == 0) return false;
  // Pure tallies, relaxed (common/thread_annotations.h rationale) —
  // except the pass count, bumped last with release: it publishes this
  // pass's tallies to GetBackgroundStats' acquire load.
  bg_candidates_.fetch_add(report.candidates, std::memory_order_relaxed);
  bg_repaired_.fetch_add(report.repaired, std::memory_order_relaxed);
  bg_full_recompute_.fetch_add(report.full_recompute,
                               std::memory_order_relaxed);
  bg_unroutable_.fetch_add(report.unroutable, std::memory_order_relaxed);
  bg_settles_.fetch_add(report.repair_settles, std::memory_order_relaxed);
  bg_passes_.fetch_add(1, std::memory_order_release);
  return true;
}

RouteRepairer::Report RouteRepairer::Sweep(unsigned worker,
                                           unsigned num_workers) {
  // Pin the world for the whole sweep: the epoch (and the weights repairs
  // run against) cannot move mid-pass, so every reinserted stamp is
  // consistent.
  WorldReadPin pin(serving_->world());
  Report report;
  report.epoch = pin.epoch();

  std::vector<RouteCache::StaleEntry> stale;
  for (size_t s = worker; s < num_shards_; s += num_workers) {
    // Relaxed coordination load/store (orders documented at the
    // member). A shard already swept on this epoch holds no stale entry:
    // every insert since carries this epoch's stamp. Shard pinning means
    // no *other worker* writes slot s; a concurrent RepairAll can, but
    // any lost update only re-marks an epoch already swept, costing one
    // redundant sweep of a clean shard — never a missed one.
    if (shard_swept_epoch_[s].load(std::memory_order_relaxed) ==
        report.epoch) {
      continue;
    }
    serving_->route_cache()->ExtractInvalidShard(s, &stale);
    // Relaxed coordination store (rationale at the member).
    shard_swept_epoch_[s].store(report.epoch, std::memory_order_relaxed);
  }
  report.candidates = stale.size();
  if (!stale.empty()) RepairEntries(stale, &report);
  return report;
}

RouteRepairer::BackgroundStats RouteRepairer::GetBackgroundStats() const {
  BackgroundStats s;
  // Acquire pairs with BackgroundTick's release bump: every tally of the
  // `passes` ticks counted here is visible below. The rest are pure
  // tallies, relaxed (common/thread_annotations.h rationale).
  s.passes = bg_passes_.load(std::memory_order_acquire);
  s.candidates = bg_candidates_.load(std::memory_order_relaxed);
  s.repaired = bg_repaired_.load(std::memory_order_relaxed);
  s.full_recompute = bg_full_recompute_.load(std::memory_order_relaxed);
  s.unroutable = bg_unroutable_.load(std::memory_order_relaxed);
  s.repair_settles = bg_settles_.load(std::memory_order_relaxed);
  return s;
}

void RouteRepairer::RepairEntries(std::vector<RouteCache::StaleEntry>& stale,
                                  Report* report_out) {
  Report& report = *report_out;
  const L2RRouter& router = serving_->router();
  L2RQueryContext ctx = router.MakeContext();
  const size_t serving_cap = serving_->CurrentSettleCap();

  for (RouteCache::StaleEntry& entry : stale) {
    const double departure_time = DepartureTimeFor(entry.key.period);
    const TimePeriod period = router.EffectivePeriod(departure_time);
    const uint64_t settles_before = ctx.TotalSettles();

    // Bounded-radius re-search seeded from the stale route: start with a
    // cap proportional to the path being replaced, double per round, and
    // finish at exactly the serving cap so the fallback recompute (and
    // its degrade bit, if any) reproduces the serving cold path.
    size_t cap = static_cast<size_t>(kRepairCapPerStaleVertex *
                                     entry.stale.path.vertices.size());
    if (cap < kMinInitialRepairCap) cap = kMinInitialRepairCap;

    Result<RouteResult> repaired = Status::Internal("unrun");
    bool converged = false;
    bool unroutable = false;
    for (int round = 0; round < kMaxRepairRounds; ++round, cap *= 2) {
      if (serving_cap != 0 && cap >= serving_cap) break;
      repaired = router.Route(&ctx, entry.key.s, entry.key.d,
                              departure_time, cap);
      if (!repaired.ok()) {
        // Route errors (e.g. destination closed off) are cap-independent:
        // escalating the budget cannot restore routability.
        unroutable = true;
        break;
      }
      if (!repaired->budget_degraded) {
        // Converged under a cap below the serving cap: identical to the
        // uncapped search, hence to the serving-cap cold path.
        converged = true;
        break;
      }
    }
    if (!converged && !unroutable) {
      // Full recompute at exactly the serving cap — byte-identical to
      // what ServingRouter's cold path would produce (never an uncapped
      // search beyond it).
      repaired = router.Route(&ctx, entry.key.s, entry.key.d,
                              departure_time, serving_cap);
      unroutable = !repaired.ok();
    }
    report.repair_settles += ctx.TotalSettles() - settles_before;
    if (unroutable) {
      // The serving cold path would return the same error and cache
      // nothing, so the entry is simply dropped.
      report.unroutable += 1;
      continue;
    }
    if (converged) {
      report.repaired += 1;
    } else {
      report.full_recompute += 1;
    }
    serving_->route_cache()->Insert(
        entry.key, *repaired, report.epoch,
        RouteRegionFootprint(router, *repaired, period));
  }
}

}  // namespace l2r
