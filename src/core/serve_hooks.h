#ifndef L2R_CORE_SERVE_HOOKS_H_
#define L2R_CORE_SERVE_HOOKS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/hash.h"
#include "region/clustering.h"
#include "roadnet/road_network.h"

/// Extension points the serving layer (src/serve/) plugs into the core
/// query path. Core defines the interfaces; serve/ provides the sharded
/// concurrent implementations, so the dependency arrow stays
/// serve -> core.

namespace l2r {

/// Priority class of a query, used by admission-level load shedding
/// (serve/OverloadController + StreamRouter): when offered load exceeds
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

inline const char* QueryClassName(QueryClass cls) {
  switch (cls) {
    case QueryClass::kInteractive: return "interactive";
    case QueryClass::kBulk: return "bulk";
  }
  return "unknown";
}

/// A query quantized to what the router actually consumes: Route's answer
/// depends on (s, d) and the departure period only (all departure times
/// mapping to one period share an answer — quantize with
/// L2RRouter::EffectivePeriod). This is the identity under which queries
/// are deduplicated: BatchRouter's batch-level dedup and serve/'s
/// RouteCache both key on it, so "identical query" means the same thing
/// at every layer.
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
/// (world/WorldUpdateChannel) bumps it by exactly one. Serving-layer
/// entries (route cache, stitch memo) are stamped with the epoch they were
/// computed on and stay servable until some region they depend on is
/// dirtied by a later epoch.
using WorldEpoch = uint64_t;

/// Footprint sentinel for results whose bytes depend on more than the
/// regions their path touches — budget-degraded routes, whose degrade bit
/// is a function of the search's exploration pattern, not just the final
/// path. An entry stamped with this bucket is invalidated by *any* dirty
/// event in its period. (Distinct from kNoRegion, which marks a vertex
/// outside every region and gets its own ordinary bucket.)
inline constexpr RegionId kAllRegionsBucket = 0xFFFFFFFEu;

/// One applied update batch as seen by invalidation listeners.
struct WorldDirtyEvent {
  /// The epoch this batch produced (the first stale epoch for the dirtied
  /// regions is `epoch`; entries stamped >= epoch are current).
  WorldEpoch epoch = 0;
  int period_index = 0;
  /// Regions whose cached routes may have changed, sorted and unique. May
  /// contain kNoRegion (out-of-region vertices) — never kAllRegionsBucket.
  std::vector<RegionId> regions;
  /// True when the whole period is dirtied (cost-decreasing updates and
  /// period transitions, where an improvement can reroute paths that never
  /// touched the improved region); `regions` still lists the directly
  /// touched regions for diagnostics.
  bool wholesale = false;
};

/// Read-side view of the dynamic world, consulted by the serving layer.
/// Core defines the interface (like StitchMemoIface); world/ implements
/// it, so the dependency arrow stays world -> serve -> core.
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

  /// Listeners fire synchronously under the channel's exclusive gate
  /// (i.e. with no readers pinned), once per applied batch. Returns a
  /// token for RemoveInvalidationListener; remove before the listener's
  /// captures die.
  using InvalidationListener = std::function<void(const WorldDirtyEvent&)>;
  virtual int AddInvalidationListener(InvalidationListener fn) = 0;
  virtual void RemoveInvalidationListener(int token) = 0;
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

/// Maps a path vertex to its region, for footprint-based invalidation
/// sweeps (serve/StitchMemo::SetRegionResolver). May return kNoRegion.
using RegionResolver = std::function<RegionId(int period_index, VertexId v)>;

/// Memoization surface consulted while stitching a region path
/// (L2RRouter::StitchRegionPath). Both tables cache pure functions of the
/// immutable router state, so a hit must be byte-identical to
/// recomputation — that is what keeps batch serving deterministic across
/// thread counts even though memo population order is scheduling
/// dependent. Implementations must be safe for concurrent Find/Remember
/// from many query threads; Find copies the value out.
class StitchMemoIface {
 public:
  virtual ~StitchMemoIface() = default;

  /// The path BestEdgePath chose for region edge `edge` when entering at
  /// `cur` with query destination `dest` (the goal point of the score).
  /// Returns false on miss; on hit fills `*out` (never empty).
  virtual bool FindEdgeChoice(int period_index, uint32_t edge, VertexId cur,
                              VertexId dest,
                              std::vector<VertexId>* out) const = 0;
  virtual void RememberEdgeChoice(int period_index, uint32_t edge,
                                  VertexId cur, VertexId dest,
                                  const std::vector<VertexId>& path) = 0;

  /// The connector path `from -> ... -> to` (recorded inner-region path if
  /// one exists, else the fastest path under the period's weights) — a
  /// function of (from, to, period) only, so it is shared across queries
  /// regardless of their destinations.
  virtual bool FindConnector(int period_index, VertexId from, VertexId to,
                             std::vector<VertexId>* out) const = 0;
  virtual void RememberConnector(int period_index, VertexId from, VertexId to,
                                 const std::vector<VertexId>& path) = 0;
};

/// Deterministic per-query budget for the preference-route fallback
/// (Algorithm 2 rebuilding dominates tail latency). The budget is
/// expressed in settled vertices, not wall-clock time: a timer-based
/// deadline would make results depend on machine load and break the
/// byte-identical determinism contract of batch serving. serve/'s
/// DeadlineBudget converts a microsecond target into this cap.
struct QueryBudget {
  /// Max vertices the preference Dijkstra may settle per run; 0 = no cap.
  size_t max_preference_settles = 0;
};

/// Per-call serving aids threaded through L2RRouter::Route. Everything is
/// optional; the default-constructed value reproduces the plain cold
/// path exactly.
struct ServeHooks {
  StitchMemoIface* memo = nullptr;
  QueryBudget budget;
};

}  // namespace l2r

#endif  // L2R_CORE_SERVE_HOOKS_H_
