#include "serve/stitch_memo.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "common/hash.h"

namespace l2r {

namespace {

/// Total byte budget across shards and periods.
constexpr size_t kCapacityBytes = 4u << 20;
/// Lock-striping width (a power of two: shard selection masks the hash).
constexpr size_t kNumShards = 16;
constexpr size_t kShardCapacity = kCapacityBytes / kNumShards;
static_assert(std::has_single_bit(kNumShards));

uint64_t PackPair(VertexId a, VertexId b) {
  return (static_cast<uint64_t>(a) << 32) | static_cast<uint64_t>(b);
}

}  // namespace

size_t StitchMemo::EdgeKeyHash::operator()(const EdgeKey& k) const {
  return static_cast<size_t>(
      Mix64(PackPair(k.cur, k.dest) ^ (0x9e3779b97f4a7c15ULL * (k.edge + 1))));
}

size_t StitchMemo::PathBytes(const std::vector<VertexId>& path) {
  constexpr size_t kNodeOverhead = 80;
  return path.size() * sizeof(VertexId) + kNodeOverhead;
}

StitchMemo::StitchMemo() {
  shards_.reserve(kNumShards);
  for (size_t i = 0; i < kNumShards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

StitchMemo::Shard& StitchMemo::ShardAt(size_t hash) const {
  return *shards_[hash & (kNumShards - 1)];
}

bool StitchMemo::FindEdgeChoice(int period_index, uint32_t edge, VertexId cur,
                                VertexId dest,
                                std::vector<VertexId>* out) const {
  L2R_DCHECK(period_index >= 0 && period_index < kNumTimePeriods);
  const EdgeKey key{edge, cur, dest};
  const Shard& shard = ShardAt(EdgeKeyHash{}(key));
  MutexLock lock(shard.mu);
  auto it = shard.edge_choice[period_index].find(key);
  if (it == shard.edge_choice[period_index].end()) {
    ++shard.edge_misses;
    return false;
  }
  ++shard.edge_hits;
  *out = it->second;
  return true;
}

void StitchMemo::RememberEdgeChoice(int period_index, uint32_t edge,
                                    VertexId cur, VertexId dest,
                                    const std::vector<VertexId>& path) {
  L2R_DCHECK(period_index >= 0 && period_index < kNumTimePeriods);
  L2R_DCHECK(!path.empty());
  const EdgeKey key{edge, cur, dest};
  const size_t bytes = PathBytes(path);
  Shard& shard = ShardAt(EdgeKeyHash{}(key));
  MutexLock lock(shard.mu);
  if (shard.bytes + bytes > kShardCapacity) {
    ++shard.rejected_full;
    return;
  }
  auto [it, inserted] = shard.edge_choice[period_index].emplace(key, path);
  (void)it;
  if (inserted) shard.bytes += bytes;
}

bool StitchMemo::FindConnector(int period_index, VertexId from, VertexId to,
                               std::vector<VertexId>* out) const {
  L2R_DCHECK(period_index >= 0 && period_index < kNumTimePeriods);
  const uint64_t key = PackPair(from, to);
  const Shard& shard = ShardAt(static_cast<size_t>(Mix64(key)));
  MutexLock lock(shard.mu);
  auto it = shard.connector[period_index].find(key);
  if (it == shard.connector[period_index].end()) {
    ++shard.connector_misses;
    return false;
  }
  ++shard.connector_hits;
  *out = it->second;
  return true;
}

void StitchMemo::RememberConnector(int period_index, VertexId from,
                                   VertexId to,
                                   const std::vector<VertexId>& path) {
  L2R_DCHECK(period_index >= 0 && period_index < kNumTimePeriods);
  L2R_DCHECK(!path.empty());
  const uint64_t key = PackPair(from, to);
  const size_t bytes = PathBytes(path);
  Shard& shard = ShardAt(static_cast<size_t>(Mix64(key)));
  MutexLock lock(shard.mu);
  if (shard.bytes + bytes > kShardCapacity) {
    ++shard.rejected_full;
    return;
  }
  auto [it, inserted] = shard.connector[period_index].emplace(key, path);
  (void)it;
  if (inserted) shard.bytes += bytes;
}

void StitchMemo::InvalidateRegions(int period_index,
                                   const std::vector<RegionId>& dirty,
                                   bool wholesale) {
  L2R_DCHECK(period_index >= 0 && period_index < kNumTimePeriods);
  // Footprints are computed at sweep time from the stored path: the memo
  // is insert-only and sweeps are rare, so paying the resolver here keeps
  // the hot Remember path free of footprint bookkeeping.
  const auto path_is_dirty = [&](const std::vector<VertexId>& path) {
    for (VertexId v : path) {
      if (std::binary_search(dirty.begin(), dirty.end(),
                             resolver_(period_index, v))) {
        return true;
      }
    }
    return false;
  };
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    if (wholesale) {
      const size_t removed = shard->edge_choice[period_index].size() +
                             shard->connector[period_index].size();
      for (const auto& [k, path] : shard->edge_choice[period_index]) {
        shard->bytes -= PathBytes(path);
      }
      for (const auto& [k, path] : shard->connector[period_index]) {
        shard->bytes -= PathBytes(path);
      }
      shard->edge_choice[period_index].clear();
      shard->connector[period_index].clear();
      shard->invalidated += removed;
      continue;
    }
    L2R_CHECK(resolver_ != nullptr);
    for (auto it = shard->edge_choice[period_index].begin();
         it != shard->edge_choice[period_index].end();) {
      if (path_is_dirty(it->second)) {
        shard->bytes -= PathBytes(it->second);
        it = shard->edge_choice[period_index].erase(it);
        ++shard->invalidated;
      } else {
        ++it;
      }
    }
    for (auto it = shard->connector[period_index].begin();
         it != shard->connector[period_index].end();) {
      if (path_is_dirty(it->second)) {
        shard->bytes -= PathBytes(it->second);
        it = shard->connector[period_index].erase(it);
        ++shard->invalidated;
      } else {
        ++it;
      }
    }
  }
}

StitchMemo::Stats StitchMemo::GetStats() const {
  Stats stats;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    stats.edge_hits += shard->edge_hits;
    stats.edge_misses += shard->edge_misses;
    stats.connector_hits += shard->connector_hits;
    stats.connector_misses += shard->connector_misses;
    stats.rejected_full += shard->rejected_full;
    stats.invalidated += shard->invalidated;
    stats.bytes += shard->bytes;
    for (int p = 0; p < kNumTimePeriods; ++p) {
      stats.entries +=
          shard->edge_choice[p].size() + shard->connector[p].size();
    }
  }
  return stats;
}

}  // namespace l2r
