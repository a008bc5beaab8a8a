#include "serve/route_cache.h"

#include <bit>

namespace l2r {

namespace {

/// Total byte budget across shards; eviction is per-shard LRU within an
/// equal share.
constexpr size_t kCapacityBytes = 8u << 20;
/// Lock-striping width (a power of two: shard selection masks the hash).
constexpr size_t kNumShards = 16;
/// Seqlock hot slots per shard (a power of two: HotIndex masks the hash).
constexpr size_t kHotSlotsPerShard = 64;
constexpr size_t kShardCapacity = kCapacityBytes / kNumShards;
static_assert(std::has_single_bit(kNumShards));
static_assert(std::has_single_bit(kHotSlotsPerShard));

size_t HotIndex(uint64_t hash) {
  // Shard selection eats the low bits; index slots with higher ones so
  // the two mappings decorrelate.
  return (hash >> 20) & (kHotSlotsPerShard - 1);
}

}  // namespace

uint64_t RouteCache::HashKey(const RouteCacheKey& key) {
  return static_cast<uint64_t>(QueryKeyHash{}(key));
}

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
    shards_.back()->hot = std::make_unique<HotSlot[]>(kHotSlotsPerShard);
  }
}

size_t RouteCache::CapacityBytes() { return kCapacityBytes; }

RouteCache::Shard& RouteCache::ShardFor(uint64_t hash) {
  return *shards_[hash & (kNumShards - 1)];
}

bool RouteCache::HotLookup(Shard& shard, const RouteCacheKey& key,
                           uint64_t hash, RouteResult* out,
                           WorldEpoch* epoch_out) {
  HotSlot& slot = shard.hot[HotIndex(hash)];
  const SeqLock::Seq begin = slot.seq.ReadBegin();
  if (!SeqLock::Stable(begin)) return false;  // write in progress
  // Copy everything to locals first; all payload loads are relaxed under
  // the SeqLock fence protocol (common/seqlock.h) — validity of the copy
  // is established by ReadRetry below, not by these orders.
  const bool used = slot.used.load(std::memory_order_relaxed) != 0;
  RouteCacheKey slot_key;
  slot_key.s = slot.s.load(std::memory_order_relaxed);
  slot_key.d = slot.d.load(std::memory_order_relaxed);
  slot_key.period = slot.period.load(std::memory_order_relaxed);
  // Relaxed epoch copy: publication is the seqlock's job here, the
  // relaxed/fence pairing is documented in common/seqlock.h.
  const WorldEpoch epoch = slot.epoch.load(std::memory_order_relaxed);
  const uint64_t cost_bits = slot.cost_bits.load(std::memory_order_relaxed);
  const auto method = slot.method.load(std::memory_order_relaxed);
  const RegionId source_region =
      slot.source_region.load(std::memory_order_relaxed);
  const RegionId dest_region =
      slot.dest_region.load(std::memory_order_relaxed);
  const uint32_t region_hops =
      slot.region_hops.load(std::memory_order_relaxed);
  const bool degraded = slot.degraded.load(std::memory_order_relaxed) != 0;
  const size_t num_path = slot.num_path.load(std::memory_order_relaxed);
  const size_t num_regions = slot.num_regions.load(std::memory_order_relaxed);
  if (num_path > kHotPathCapacity || num_regions > kHotRegionCapacity) {
    // Torn metadata (lengths from a half-written slot): bounds-check
    // before touching the arrays, then let the retry check reject it.
    return false;
  }
  VertexId path[kHotPathCapacity];
  RegionId regions[kHotRegionCapacity];
  for (size_t i = 0; i < num_path; ++i) {
    path[i] = slot.path[i].load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i < num_regions; ++i) {
    regions[i] = slot.regions[i].load(std::memory_order_relaxed);
  }
  if (slot.seq.ReadRetry(begin)) return false;  // torn: locked fallback
  // The copy is untorn; now decide whether it answers this lookup.
  if (!used || !(slot_key == key)) return false;
  if (world_ != nullptr) {
    for (size_t i = 0; i < num_regions; ++i) {
      if (world_->LastDirtyEpoch(key.period, regions[i]) > epoch) {
        // Stale footprint: fall back so the locked path erases the entry
        // (readers must never serve it, and cannot erase it themselves).
        return false;
      }
    }
  }
  out->path.vertices.assign(path, path + num_path);
  out->path.cost = std::bit_cast<double>(cost_bits);
  out->method = static_cast<RouteMethod>(method);
  out->source_region = source_region;
  out->dest_region = dest_region;
  out->region_hops = region_hops;
  out->budget_degraded = degraded;
  if (epoch_out != nullptr) *epoch_out = epoch;
  // Pure tally, relaxed (common/thread_annotations.h rationale).
  shard.hot_hits.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void RouteCache::HotPublish(Shard& shard, uint64_t hash, const Entry& e) {
  HotSlot& slot = shard.hot[HotIndex(hash)];
  const size_t num_path = e.result.path.vertices.size();
  const size_t num_regions = e.regions.size();
  if (num_path > kHotPathCapacity || num_regions > kHotRegionCapacity) {
    // Too large to inline. If the slot currently advertises this key it
    // would keep serving the *previous* value, so clear it instead.
    HotErase(shard, hash, e.key);
    return;
  }
  const SeqLock::Seq odd = slot.seq.WriteBegin();
  // All payload stores relaxed under the seqlock write fences
  // (common/seqlock.h documents the ordering contract).
  slot.used.store(1, std::memory_order_relaxed);
  slot.s.store(e.key.s, std::memory_order_relaxed);
  slot.d.store(e.key.d, std::memory_order_relaxed);
  slot.period.store(e.key.period, std::memory_order_relaxed);
  // Relaxed epoch store: ordering comes from the seqlock fences, see
  // common/seqlock.h.
  slot.epoch.store(e.epoch, std::memory_order_relaxed);
  slot.cost_bits.store(std::bit_cast<uint64_t>(e.result.path.cost),
                       std::memory_order_relaxed);
  slot.method.store(static_cast<uint8_t>(e.result.method),
                    std::memory_order_relaxed);
  slot.source_region.store(e.result.source_region,
                           std::memory_order_relaxed);
  slot.dest_region.store(e.result.dest_region, std::memory_order_relaxed);
  slot.region_hops.store(static_cast<uint32_t>(e.result.region_hops),
                         std::memory_order_relaxed);
  slot.degraded.store(e.result.budget_degraded ? 1 : 0,
                      std::memory_order_relaxed);
  slot.num_path.store(static_cast<uint16_t>(num_path),
                      std::memory_order_relaxed);
  slot.num_regions.store(static_cast<uint16_t>(num_regions),
                         std::memory_order_relaxed);
  for (size_t i = 0; i < num_path; ++i) {
    slot.path[i].store(e.result.path.vertices[i],
                       std::memory_order_relaxed);
  }
  for (size_t i = 0; i < num_regions; ++i) {
    slot.regions[i].store(e.regions[i], std::memory_order_relaxed);
  }
  slot.seq.WriteEnd(odd);
}

void RouteCache::HotErase(Shard& shard, uint64_t hash,
                          const RouteCacheKey& key) {
  HotSlot& slot = shard.hot[HotIndex(hash)];
  // Under shard.mu we are the only writer, so these relaxed loads see
  // the slot's true contents (readers never write; order via seqlock).
  if (slot.used.load(std::memory_order_relaxed) == 0) return;
  RouteCacheKey slot_key;
  slot_key.s = slot.s.load(std::memory_order_relaxed);
  slot_key.d = slot.d.load(std::memory_order_relaxed);
  slot_key.period = slot.period.load(std::memory_order_relaxed);
  if (!(slot_key == key)) return;  // another key owns the slot now
  const SeqLock::Seq odd = slot.seq.WriteBegin();
  slot.used.store(0, std::memory_order_relaxed);
  slot.seq.WriteEnd(odd);
}

bool RouteCache::Lookup(const RouteCacheKey& key, RouteResult* out,
                        WorldEpoch* epoch_out) {
  const uint64_t hash = HashKey(key);
  Shard& shard = ShardFor(hash);
  // Lock-free fast path: an untorn, footprint-valid hot-slot copy is
  // byte-identical to what the locked path would return (both copy what
  // Insert stored), so the determinism contract is unaffected. Note a
  // hot hit does not refresh LRU recency (class comment).
  if (HotLookup(shard, key, hash, out, epoch_out)) return true;
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
    HotErase(shard, hash, key);
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
  // Promote the locked hit into the hot table so the next lookup for
  // this key takes the lock-free path.
  HotPublish(shard, hash, *it->second);
  return true;
}

void RouteCache::Insert(const RouteCacheKey& key, const RouteResult& value,
                        WorldEpoch epoch, std::vector<RegionId> regions) {
  // Copy outside the lock, and charge the byte budget from the stored
  // copy: the caller's path vector may carry excess capacity, and the
  // charge must equal the refund EntryCharge(victim) computes at
  // eviction time or the shard's accounting drifts under churn.
  std::list<Entry> node;
  node.push_back(Entry{key, value, epoch, std::move(regions)});
  const size_t bytes = EntryCharge(node.back());

  const uint64_t hash = HashKey(key);
  Shard& shard = ShardFor(hash);
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
  if (bytes > kShardCapacity) {
    // Never cached — and the slot must not keep advertising an older
    // stamp of this key either.
    HotErase(shard, hash, key);
    return;
  }
  while (shard.bytes + bytes > kShardCapacity && !shard.lru.empty()) {
    auto& victim = shard.lru.back();
    shard.bytes -= EntryCharge(victim);
    HotErase(shard, HashKey(victim.key), victim.key);
    shard.map.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  shard.lru.splice(shard.lru.begin(), node);
  shard.map.emplace(key, shard.lru.begin());
  shard.bytes += bytes;
  ++shard.inserts;
  HotPublish(shard, hash, *shard.lru.begin());
}

void RouteCache::ExtractInvalidShard(size_t shard_idx,
                                     std::vector<StaleEntry>* out) {
  if (world_ == nullptr) return;
  Shard& shard = *shards_[shard_idx];
  MutexLock lock(shard.mu);
  for (auto it = shard.lru.begin(); it != shard.lru.end();) {
    if (EntryValid(*it)) {
      ++it;
      continue;
    }
    shard.bytes -= EntryCharge(*it);
    HotErase(shard, HashKey(it->key), it->key);
    shard.map.erase(it->key);
    out->push_back(StaleEntry{it->key, std::move(it->result)});
    it = shard.lru.erase(it);
    ++shard.invalidated;
  }
}

RouteCache::Stats RouteCache::GetStats() const {
  Stats stats;
  for (const auto& shard : shards_) {
    // Pure tally, relaxed (common/thread_annotations.h rationale).
    const uint64_t hot = shard->hot_hits.load(std::memory_order_relaxed);
    MutexLock lock(shard->mu);
    stats.hits += shard->hits + hot;  // hot hits are hits
    stats.hot_hits += hot;
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
