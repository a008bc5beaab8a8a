#ifndef L2R_WORLD_UPDATE_CHANNEL_H_
#define L2R_WORLD_UPDATE_CHANNEL_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/l2r.h"

namespace l2r {

/// One per-edge weight change: both period speeds are multiplied by
/// `speed_scale` (clamped so they stay >= 1 km/h). scale < 1 models an
/// incident slowdown, scale > 1 a recovery/improvement.
struct EdgeDelta {
  EdgeId edge = kInvalidEdge;
  double speed_scale = 1.0;
};

/// A batch of world changes applied atomically as one epoch bump.
struct WorldUpdateBatch {
  std::vector<EdgeDelta> deltas;
  std::vector<EdgeId> closures;
  std::vector<EdgeId> reopenings;
  /// Models the live clock crossing a period boundary (rush hour starting
  /// or ending): the named period's cached state is dirtied wholesale,
  /// since the serving mix shifts onto weights whose cached derivations
  /// may all predate the transition.
  std::optional<TimePeriod> period_transition;

  bool empty() const {
    return deltas.empty() && closures.empty() && reopenings.empty() &&
           !period_transition.has_value();
  }
};

/// The dynamic-world subsystem's write side: applies batched edge-weight
/// deltas, closures/reopenings and period transitions to the (otherwise
/// frozen) RoadNetwork + L2RRouter weight arrays, and publishes each
/// applied batch as a monotonically increasing WorldEpoch with per-region
/// dirty sets the serving layer invalidates from selectively.
///
/// Epoch gate: queries pin the world with AcquireRead/ReleaseRead (shared
/// side of one SharedMutex, via WorldReadPin inside ServingRouter::Route);
/// Apply takes the exclusive side. So a batch waits out in-flight queries,
/// mutates with no reader present, and every query runs start-to-finish on
/// the epoch it pinned — "no query spans an epoch bump" is structural, not
/// scheduling luck.
///
/// Dirty-set discipline (what keeps selective invalidation *exact*):
///  - Cost-increasing changes (speed_scale < 1, closures) dirty only the
///    regions containing the touched edges' endpoints, in both periods: a
///    cached path avoiding raised-cost edges stays optimal, and under
///    cost increases a converged preference route stays converged, so
///    entries whose footprint misses every dirty region are still
///    byte-exact.
///  - Cost-decreasing changes (speed_scale > 1, reopenings) and period
///    transitions dirty the whole period (a per-period floor epoch): an
///    improvement can reroute a path that never touched the improved
///    region, so nothing short of period-wide invalidation is sound.
class WorldUpdateChannel final : public WorldViewIface {
 public:
  /// What one Apply did, for tests/bench: the published epoch and the
  /// per-period dirty sets (regions sorted unique; `wholesale[p]` set when
  /// the period's floor was bumped).
  struct ApplyReport {
    WorldEpoch epoch = 0;
    size_t edges_touched = 0;
    bool wholesale[kNumTimePeriods] = {false, false};
    std::vector<RegionId> dirty_regions[kNumTimePeriods];
  };

  /// `net` must be the network `router` was built on; both must outlive
  /// the channel. The channel becomes the only legal mutator of `net`.
  WorldUpdateChannel(RoadNetwork* net, L2RRouter* router);

  /// Applies `batch` under the exclusive gate and publishes the next
  /// epoch. Blocks until in-flight queries drain. An empty batch is a
  /// no-op returning the current epoch with nothing dirty.
  ApplyReport Apply(const WorldUpdateBatch& batch);

  // --- WorldViewIface (the read side the serving layer consumes) ---

  WorldEpoch CurrentEpoch() const override {
    // Acquire pairs with Apply's release store: a reader that observes
    // epoch N also observes every mutation batch N made.
    return epoch_.load(std::memory_order_acquire);
  }

  WorldEpoch LastDirtyEpoch(int period_index, RegionId region) const override;

  WorldEpoch AcquireRead() override L2R_ACQUIRE_SHARED(gate_);
  void ReleaseRead() override L2R_RELEASE_SHARED(gate_);

 private:
  /// Extra dirty-table bucket for path vertices outside every region.
  size_t NoRegionBucket(int period_index) const {
    return num_regions_[period_index];
  }

  /// The epoch gate (see the class comment). Readers = queries, writer =
  /// Apply.
  SharedMutex gate_;
  RoadNetwork* const net_ L2R_PT_GUARDED_BY(gate_);
  L2RRouter* const router_ L2R_PT_GUARDED_BY(gate_);

  /// Epoch of the last applied batch. Release store at the end of Apply,
  /// acquire loads everywhere: the epoch number doubles as the publish
  /// flag for the batch's mutations.
  std::atomic<WorldEpoch> epoch_{0};

  /// Per-period dirty tables, fixed size num_regions + 1 (the kNoRegion
  /// bucket). Entries hold the largest epoch that dirtied the bucket.
  /// Stored with release / loaded with acquire: LastDirtyEpoch may be
  /// consulted without the gate (stats, bench probes), and the pairing
  /// guarantees such a reader who sees the entry also sees the epoch that
  /// wrote it.
  std::vector<std::atomic<WorldEpoch>> region_dirty_[kNumTimePeriods];
  /// Period-wide floor: every bucket of period p is implicitly dirty at
  /// least to floor_[p] (wholesale invalidation). Same release/acquire
  /// pairing as the tables.
  std::atomic<WorldEpoch> floor_[kNumTimePeriods] = {};
  /// Largest epoch that dirtied anything in the period (serves the
  /// kAllRegionsBucket sentinel in O(1)). Same release/acquire pairing.
  std::atomic<WorldEpoch> max_dirty_[kNumTimePeriods] = {};

  size_t num_regions_[kNumTimePeriods] = {};
};

}  // namespace l2r

#endif  // L2R_WORLD_UPDATE_CHANNEL_H_
