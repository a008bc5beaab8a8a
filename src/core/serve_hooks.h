#ifndef L2R_CORE_SERVE_HOOKS_H_
#define L2R_CORE_SERVE_HOOKS_H_

#include <cstddef>
#include <cstdint>

#include "common/hash.h"
#include "region/clustering.h"
#include "roadnet/road_network.h"

/// The vocabulary the serving layer (src/serve/) and the dynamic world
/// (src/world/) share with the core query path: query class and key, the
/// world epoch, and the read-side world view. Core defines them; serve/
/// and world/ build on them, so the dependency arrows point at core.

namespace l2r {

/// Priority class of a query, used by admission-level load shedding
/// (a StreamRouter with a shed depth, whose OverloadController decides
/// which classes to shed): when offered load exceeds
/// capacity, kBulk work (batch travel-time estimation, prefetch,
/// analytics) is shed before kInteractive work (a user waiting on a
/// route) so the interactive latency SLO holds through overload. The
/// class never reaches the search kernels — a route's bytes are a pure
/// function of (s, d, period) regardless of who asked — so dedup and
/// caching both stay class-blind.
enum class QueryClass : uint8_t {
  kInteractive = 0,
  kBulk = 1,
};

inline constexpr size_t kNumQueryClasses = 2;

/// A query's whole identity: source, destination and the departure
/// period whose region graph answers it (all departure times mapping to
/// one period share an answer — quantize with QueryKeyOf in core/l2r.h).
/// L2RRouter::Route takes it as its input, and BatchRouter's batch-level
/// dedup and serve/'s RouteCache both key on it, so "identical query"
/// means the same thing at every layer.
struct QueryKey {
  VertexId s = kInvalidVertex;
  VertexId d = kInvalidVertex;
  uint8_t period = 0;

  bool operator==(const QueryKey&) const = default;
};

/// Shared full-avalanche hash: the low bits select cache shards, so
/// every key bit must reach them.
struct QueryKeyHash {
  size_t operator()(const QueryKey& key) const {
    const uint64_t packed =
        (static_cast<uint64_t>(key.s) << 32) | static_cast<uint64_t>(key.d);
    // Fold the 1-bit period in by re-mixing rather than stealing key bits.
    return static_cast<size_t>(
        Mix64(packed ^ (0x9e3779b97f4a7c15ULL * (key.period + 1))));
  }
};

/// Version number of the mutable world. Epoch 0 is the frozen world the
/// router was built against; every applied update batch
/// (world/WorldUpdateChannel) bumps it by exactly one. Route cache entries
/// are stamped with the epoch they were computed on and stay servable
/// until some region they depend on is dirtied by a later epoch.
using WorldEpoch = uint64_t;

/// Footprint sentinel for results whose bytes depend on more than the
/// regions their path touches — budget-degraded routes, whose degrade bit
/// is a function of the search's exploration pattern, not just the final
/// path. An entry stamped with this bucket is invalidated by *any* dirty
/// event in its period. (Distinct from kNoRegion, which marks a vertex
/// outside every region and gets its own ordinary bucket.)
inline constexpr RegionId kAllRegionsBucket = 0xFFFFFFFEu;

/// Read-side view of the dynamic world, consulted by the serving layer.
/// Core defines the interface; world/ implements it, so the dependency
/// arrow stays world -> serve -> core.
///
/// Concurrency contract: AcquireRead pins the world — no update batch is
/// applied while any reader holds a pin, so every query runs start to
/// finish on the epoch AcquireRead returned. CurrentEpoch/LastDirtyEpoch
/// are wait-free snapshots, safe from any thread, pinned or not.
class WorldViewIface {
 public:
  virtual ~WorldViewIface() = default;

  /// Epoch of the most recently applied batch (0 = frozen seed world).
  virtual WorldEpoch CurrentEpoch() const = 0;

  /// The largest epoch that dirtied `region` in `period_index` (0 if it
  /// was never dirtied). A cached entry with footprint F and stamp e is
  /// valid iff LastDirtyEpoch(p, r) <= e for every r in F.
  /// kAllRegionsBucket returns the period-wide maximum; kNoRegion is a
  /// regular bucket.
  virtual WorldEpoch LastDirtyEpoch(int period_index,
                                    RegionId region) const = 0;

  /// Blocks out update application until the matching ReleaseRead; returns
  /// the pinned epoch. Reentrant pins are not supported; use WorldReadPin.
  virtual WorldEpoch AcquireRead() = 0;
  virtual void ReleaseRead() = 0;
};

/// RAII read pin. Null-world tolerant: with no world attached the pin is
/// a no-op reporting epoch 0, so frozen-world serving pays nothing.
class WorldReadPin {
 public:
  explicit WorldReadPin(WorldViewIface* world) : world_(world) {
    if (world_ != nullptr) epoch_ = world_->AcquireRead();
  }
  ~WorldReadPin() {
    if (world_ != nullptr) world_->ReleaseRead();
  }
  WorldReadPin(const WorldReadPin&) = delete;
  WorldReadPin& operator=(const WorldReadPin&) = delete;

  /// The epoch every lookup/compute/insert of this query runs on.
  WorldEpoch epoch() const { return epoch_; }

 private:
  WorldViewIface* world_;
  WorldEpoch epoch_ = 0;
};

/// How many queries a serving stack answered on the current epoch vs on an
/// older-but-still-valid epoch stamp (entry untouched by later dirty
/// sets). `stale_valid` is the payoff of selective invalidation: with
/// wholesale flushing those would all have been recomputed.
struct EpochServeCounts {
  uint64_t current_epoch = 0;
  uint64_t stale_valid_epoch = 0;
};

}  // namespace l2r

#endif  // L2R_CORE_SERVE_HOOKS_H_
