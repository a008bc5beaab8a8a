#include "world/route_repairer.h"

#include <vector>

#include "common/check.h"

namespace l2r {

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

bool RouteRepairer::BackgroundTick(unsigned worker, unsigned num_workers) {
  if (num_workers == 0) num_workers = 1;
  // Pin the world for the whole sweep: the epoch (and the weights repairs
  // run against) cannot move mid-pass, so every reinserted stamp is
  // consistent.
  WorldReadPin pin(serving_->world());
  std::vector<QueryKey> stale;
  for (size_t s = worker; s < num_shards_; s += num_workers) {
    // A shard already swept on this epoch holds no stale entry: every
    // insert since carries this epoch's stamp. Shard pinning means no
    // *other worker* of the same count writes slot s; a concurrent tick
    // under another worker count can, but any lost update only re-marks
    // an epoch already swept, costing one redundant sweep of a clean
    // shard — never a missed one. Relaxed coordination load/store
    // (orders documented at the member).
    if (shard_swept_epoch_[s].load(std::memory_order_relaxed) ==
        pin.epoch()) {
      continue;
    }
    serving_->route_cache()->ExtractInvalidShard(s, &stale);
    // Relaxed coordination store (rationale at the member).
    shard_swept_epoch_[s].store(pin.epoch(), std::memory_order_relaxed);
  }
  if (stale.empty()) return false;

  L2RQueryContext ctx = serving_->router().MakeContext();
  uint64_t repaired = 0;
  for (const QueryKey& key : stale) {
    // An error (e.g. the destination closed off) is what a cache miss
    // would return too, and it caches nothing: the entry is dropped.
    if (serving_->ColdRoute(&ctx, key, pin).ok()) {
      ++repaired;
    }
  }
  // Pure tallies, relaxed (common/thread_annotations.h rationale) —
  // except the pass count, bumped last with release: it publishes this
  // pass's tallies to GetBackgroundStats' acquire load.
  bg_candidates_.fetch_add(stale.size(), std::memory_order_relaxed);
  bg_repaired_.fetch_add(repaired, std::memory_order_relaxed);
  bg_unroutable_.fetch_add(stale.size() - repaired,
                           std::memory_order_relaxed);
  bg_settles_.fetch_add(ctx.TotalSettles(), std::memory_order_relaxed);
  bg_passes_.fetch_add(1, std::memory_order_release);
  return true;
}

RouteRepairer::BackgroundStats RouteRepairer::GetBackgroundStats() const {
  BackgroundStats s;
  // Acquire pairs with BackgroundTick's release bump: every tally of the
  // `passes` ticks counted here is visible below. The rest are pure
  // tallies, relaxed (common/thread_annotations.h rationale).
  s.passes = bg_passes_.load(std::memory_order_acquire);
  s.candidates = bg_candidates_.load(std::memory_order_relaxed);
  s.repaired = bg_repaired_.load(std::memory_order_relaxed);
  s.unroutable = bg_unroutable_.load(std::memory_order_relaxed);
  s.repair_settles = bg_settles_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace l2r
