#ifndef L2R_SERVE_ROUTE_CACHE_H_
#define L2R_SERVE_ROUTE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/l2r.h"

namespace l2r {

/// Sharded, mutex-striped LRU cache of complete RouteResults, keyed on
/// the shared query identity QueryKey (core/serve_hooks.h). Serves
/// repeated (source, dest, period) queries without touching the search
/// kernels. Sizing is fixed in route_cache.cc: 8 MiB of (approximate)
/// RouteResult bytes over 16 lock stripes, each evicting LRU within its
/// 512 KiB share.
///
/// One read path: Lookup takes the key's shard mutex on every call, and
/// every hit moves its entry to the front of the shard's LRU list, so
/// eviction order is exact recency whatever the entry's size.
///
/// Dynamic world: each entry carries the WorldEpoch it was computed on
/// plus its region footprint (RouteRegionFootprint). When a world view is
/// attached (SetWorld), Lookup validates the entry against the world's
/// per-region dirty table and treats a stale entry as a miss, erasing it
/// in place — invalidation is *selective* and lazy, never a wholesale
/// flush. ExtractInvalidShard sweeps stale entries out eagerly so the
/// repair pass (world/RouteRepairer) can re-route them. Without a world
/// attached entries never go stale (the frozen-world seed behavior).
///
/// Every insert is admitted, budget-degraded results included: the
/// degrade tag travels in the cached value (RouteResult::budget_degraded),
/// so consumers can always tell a degraded hit from a full-fidelity one.
///
/// Determinism: Lookup returns a copy of exactly what Insert stored, and
/// the serving layer only stores cold-path Route outputs — so a hit is
/// byte-identical to recomputation and batch results stay independent of
/// hit/miss interleaving. Epoch validation only ever *removes* hit
/// opportunities, so it preserves the contract too.
class RouteCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Hot-tier hits under the name servebench reads
    /// (`serve.cache.hot_hit_ratio`): always 0, because every hit takes
    /// the shard mutex and no hot tier exists.
    uint64_t hot_hits = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    /// Entries dropped because a later epoch dirtied their footprint
    /// (lazy at Lookup or eager via ExtractInvalidShard).
    uint64_t invalidated = 0;
    size_t entries = 0;
    size_t bytes = 0;
  };

  RouteCache();

  /// Attaches the dynamic-world view entries are validated against.
  /// Must be called before concurrent use (not synchronized itself); pass
  /// nullptr to detach. The view must outlive the cache or be detached
  /// first.
  void SetWorld(const WorldViewIface* world) { world_ = world; }

  /// Copies the cached result for `key` into `*out` and marks the entry
  /// most-recently-used. False on miss — including when the entry exists
  /// but a later epoch dirtied its footprint (the entry is erased, never
  /// served). On a hit `*epoch_out` (when non-null) receives the epoch
  /// the entry was computed on, for stale-but-valid serve accounting.
  /// (Non-const: a hit touches LRU state.)
  bool Lookup(const QueryKey& key, RouteResult* out,
              WorldEpoch* epoch_out = nullptr);

  /// Inserts (or refreshes) `key`; evicts least-recently-used entries of
  /// the shard until it fits. An entry larger than a whole shard is not
  /// cached. `epoch` is the world epoch `value` was computed on;
  /// `regions` its invalidation footprint (sorted unique, from
  /// RouteRegionFootprint). The frozen world is epoch 0 with an empty
  /// footprint (never invalidated).
  void Insert(const QueryKey& key, const RouteResult& value,
              WorldEpoch epoch = 0, std::vector<RegionId> regions = {});

  /// Removes every entry of shard `shard_idx` (< NumShards()) whose
  /// footprint was dirtied after its epoch and appends their keys to
  /// `*out`, most recently used first. The repair pass
  /// (world/RouteRepairer) turns lazy invalidation into an explicit
  /// re-route work list this way, one shard at a time, so repair workers
  /// pinned to disjoint shard sets never contend on the same stripe.
  void ExtractInvalidShard(size_t shard_idx, std::vector<QueryKey>* out);

  /// Aggregated over shards; counters are exact, entries/bytes are a
  /// consistent-per-shard snapshot.
  Stats GetStats() const;

  /// Lock stripes; a key lives in shard QueryKeyHash{}(key) % NumShards().
  size_t NumShards() const { return shards_.size(); }
  /// Total byte budget across shards (each shard evicts within its share).
  static size_t CapacityBytes();

  /// Approximate heap footprint of one cached entry (used for the byte
  /// budget; exposed so tests can reason about eviction thresholds).
  /// `num_regions` is the entry's footprint length.
  static size_t EntryBytes(const RouteResult& value, size_t num_regions = 0);

 private:
  struct Entry {
    QueryKey key;
    RouteResult result;
    WorldEpoch epoch = 0;
    /// Sorted unique region buckets the result depends on (may contain
    /// kNoRegion or the kAllRegionsBucket sentinel).
    std::vector<RegionId> regions;
  };

  /// One lock stripe. The LRU list and its index move together under the
  /// shard mutex.
  struct Shard {
    Mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru L2R_GUARDED_BY(mu);
    std::unordered_map<QueryKey, std::list<Entry>::iterator,
                       QueryKeyHash>
        map L2R_GUARDED_BY(mu);
    size_t bytes L2R_GUARDED_BY(mu) = 0;
    uint64_t hits L2R_GUARDED_BY(mu) = 0;
    uint64_t misses L2R_GUARDED_BY(mu) = 0;
    uint64_t inserts L2R_GUARDED_BY(mu) = 0;
    uint64_t evictions L2R_GUARDED_BY(mu) = 0;
    uint64_t invalidated L2R_GUARDED_BY(mu) = 0;
  };

  static size_t EntryCharge(const Entry& e) {
    return EntryBytes(e.result, e.regions.capacity());
  }
  /// True when no region of `e`'s footprint was dirtied after `e.epoch`.
  bool EntryValid(const Entry& e) const;

  Shard& ShardFor(const QueryKey& key);

  /// Shards are heap-allocated: mutexes are neither movable nor copyable,
  /// and a stable address per shard keeps iterators/locks simple.
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Set once at configure time, read on every Lookup (see SetWorld).
  const WorldViewIface* world_ = nullptr;
};

}  // namespace l2r

#endif  // L2R_SERVE_ROUTE_CACHE_H_
