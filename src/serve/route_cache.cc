#include "serve/route_cache.h"

#include <bit>

namespace l2r {

namespace {

/// Total byte budget across shards; eviction is per-shard LRU within an
/// equal share.
constexpr size_t kCapacityBytes = 8u << 20;
/// Lock-striping width (a power of two: shard selection masks the hash).
constexpr size_t kNumShards = 16;
constexpr size_t kShardCapacity = kCapacityBytes / kNumShards;
static_assert(std::has_single_bit(kNumShards));

}  // namespace

size_t RouteCache::EntryBytes(const RouteResult& value, size_t num_regions) {
  // Fixed struct + path payload + footprint + list/map node overhead
  // estimate.
  constexpr size_t kNodeOverhead = 96;
  return sizeof(RouteResult) +
         value.path.vertices.capacity() * sizeof(VertexId) +
         num_regions * sizeof(RegionId) + kNodeOverhead;
}

bool RouteCache::EntryValid(const Entry& e) const {
  if (world_ == nullptr) return true;
  for (RegionId r : e.regions) {
    if (world_->LastDirtyEpoch(e.key.period, r) > e.epoch) return false;
  }
  return true;
}

RouteCache::RouteCache() {
  shards_.reserve(kNumShards);
  for (size_t i = 0; i < kNumShards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t RouteCache::CapacityBytes() { return kCapacityBytes; }

RouteCache::Shard& RouteCache::ShardFor(const QueryKey& key) {
  return *shards_[QueryKeyHash{}(key) & (kNumShards - 1)];
}

bool RouteCache::Lookup(const QueryKey& key, RouteResult* out,
                        WorldEpoch* epoch_out) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.misses;
    return false;
  }
  if (!EntryValid(*it->second)) {
    // A later epoch dirtied this entry's footprint: serving it would
    // violate the no-stale-serve contract. Drop it and report a miss so
    // the caller recomputes on the current epoch.
    shard.bytes -= EntryCharge(*it->second);
    shard.lru.erase(it->second);
    shard.map.erase(it);
    ++shard.invalidated;
    ++shard.misses;
    return false;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  *out = it->second->result;
  if (epoch_out != nullptr) *epoch_out = it->second->epoch;
  return true;
}

void RouteCache::Insert(const QueryKey& key, const RouteResult& value,
                        WorldEpoch epoch, std::vector<RegionId> regions) {
  // Copy outside the lock, and charge the byte budget from the stored
  // copy: the caller's path vector may carry excess capacity, and the
  // charge must equal the refund EntryCharge(victim) computes at
  // eviction time or the shard's accounting drifts under churn.
  std::list<Entry> node;
  node.push_back(Entry{key, value, epoch, std::move(regions)});
  const size_t bytes = EntryCharge(node.back());

  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    if (it->second->epoch >= epoch) {
      // Raced with another miss on the same key at the same (or a newer)
      // epoch: the stored value is byte-identical (deterministic cold
      // path), so just touch it.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    // Same key recomputed on a newer epoch (repair pass or post-update
    // miss): replace the stale entry.
    shard.bytes -= EntryCharge(*it->second);
    shard.lru.erase(it->second);
    shard.map.erase(it);
  }
  if (bytes > kShardCapacity) return;  // never cached
  while (shard.bytes + bytes > kShardCapacity && !shard.lru.empty()) {
    auto& victim = shard.lru.back();
    shard.bytes -= EntryCharge(victim);
    shard.map.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  shard.lru.splice(shard.lru.begin(), node);
  shard.map.emplace(key, shard.lru.begin());
  shard.bytes += bytes;
  ++shard.inserts;
}

void RouteCache::ExtractInvalidShard(size_t shard_idx,
                                     std::vector<QueryKey>* out) {
  if (world_ == nullptr) return;
  Shard& shard = *shards_[shard_idx];
  MutexLock lock(shard.mu);
  for (auto it = shard.lru.begin(); it != shard.lru.end();) {
    if (EntryValid(*it)) {
      ++it;
      continue;
    }
    shard.bytes -= EntryCharge(*it);
    shard.map.erase(it->key);
    out->push_back(it->key);
    it = shard.lru.erase(it);
    ++shard.invalidated;
  }
}

RouteCache::Stats RouteCache::GetStats() const {
  Stats stats;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.inserts += shard->inserts;
    stats.evictions += shard->evictions;
    stats.invalidated += shard->invalidated;
    stats.entries += shard->lru.size();
    stats.bytes += shard->bytes;
  }
  return stats;
}

}  // namespace l2r
