#ifndef L2R_SERVE_STITCH_MEMO_H_
#define L2R_SERVE_STITCH_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/serve_hooks.h"

namespace l2r {

/// Concurrent memo for the region-path stitcher: remembers (1) which
/// stored path BestEdgePath chose for (region edge, entry vertex, query
/// destination) — skipping the scan that resolves every stored path of
/// the edge — and (2) connector paths (from, to) — skipping the
/// inner-path scan / connector Dijkstra. Tables are per period: the two
/// period graphs index edges independently and use different weights.
///
/// Values are pure functions of the immutable router state, so hits are
/// byte-identical to recomputation (the determinism contract of
/// StitchMemoIface). Find copies the value out under the shard lock.
///
/// The memo is insert-only within a 4 MiB budget over 16 lock stripes
/// (constants in stitch_memo.cc): values are recomputable, so a full
/// stripe turns inserts away (Stats::rejected_full) rather than paying
/// eviction bookkeeping on the hot path.
class StitchMemo final : public StitchMemoIface {
 public:
  struct Stats {
    uint64_t edge_hits = 0;
    uint64_t edge_misses = 0;
    uint64_t connector_hits = 0;
    uint64_t connector_misses = 0;
    uint64_t rejected_full = 0;  ///< inserts dropped by the byte budget
    /// Entries removed by InvalidateRegions (dynamic world).
    uint64_t invalidated = 0;
    size_t entries = 0;
    size_t bytes = 0;
  };

  StitchMemo();

  /// Attaches the vertex-to-region resolver InvalidateRegions uses to
  /// compute a stored path's footprint at sweep time (memo entries do not
  /// carry footprints; they are insert-only and sweeps are rare). Must be
  /// set before the first InvalidateRegions; not synchronized itself.
  void SetRegionResolver(RegionResolver resolver) {
    resolver_ = std::move(resolver);
  }

  /// Removes every entry of `period_index` whose stored path touches a
  /// region in `dirty` (sorted unique; may contain kNoRegion). With
  /// `wholesale` the period's tables are dropped entirely — the
  /// cost-decreasing-update case, where an improvement can reroute paths
  /// that never touched the improved region. Called from the world update
  /// channel's invalidation listener, i.e. under its exclusive gate with
  /// no queries in flight.
  void InvalidateRegions(int period_index, const std::vector<RegionId>& dirty,
                         bool wholesale);

  bool FindEdgeChoice(int period_index, uint32_t edge, VertexId cur,
                      VertexId dest,
                      std::vector<VertexId>* out) const override;
  void RememberEdgeChoice(int period_index, uint32_t edge, VertexId cur,
                          VertexId dest,
                          const std::vector<VertexId>& path) override;
  bool FindConnector(int period_index, VertexId from, VertexId to,
                     std::vector<VertexId>* out) const override;
  void RememberConnector(int period_index, VertexId from, VertexId to,
                         const std::vector<VertexId>& path) override;

  Stats GetStats() const;

 private:
  /// 96-bit logical keys, stored as (mixed shard hash, exact triple).
  struct EdgeKey {
    uint32_t edge = 0;
    VertexId cur = 0;
    VertexId dest = 0;
    bool operator==(const EdgeKey&) const = default;
  };
  struct EdgeKeyHash {
    size_t operator()(const EdgeKey& k) const;
  };

  struct Shard {
    mutable Mutex mu;
    /// Index 0/1 = off-peak/peak tables.
    std::unordered_map<EdgeKey, std::vector<VertexId>, EdgeKeyHash>
        edge_choice[kNumTimePeriods] L2R_GUARDED_BY(mu);
    std::unordered_map<uint64_t, std::vector<VertexId>>
        connector[kNumTimePeriods] L2R_GUARDED_BY(mu);
    size_t bytes L2R_GUARDED_BY(mu) = 0;
    /// Hit/miss tallies are bumped from the const Find path (under mu).
    mutable uint64_t edge_hits L2R_GUARDED_BY(mu) = 0;
    mutable uint64_t edge_misses L2R_GUARDED_BY(mu) = 0;
    mutable uint64_t connector_hits L2R_GUARDED_BY(mu) = 0;
    mutable uint64_t connector_misses L2R_GUARDED_BY(mu) = 0;
    uint64_t rejected_full L2R_GUARDED_BY(mu) = 0;
    uint64_t invalidated L2R_GUARDED_BY(mu) = 0;
  };

  /// Byte charge of a stored path. It counts size(), not capacity():
  /// the stored copy's capacity is its size, whatever slack the caller's
  /// vector carries, so a Remember charge equals the refund its entry
  /// gets at invalidation.
  static size_t PathBytes(const std::vector<VertexId>& path);

  Shard& ShardAt(size_t hash) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Set once at configure time (see SetRegionResolver).
  RegionResolver resolver_;
};

}  // namespace l2r

#endif  // L2R_SERVE_STITCH_MEMO_H_
