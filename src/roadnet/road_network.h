#ifndef L2R_ROADNET_ROAD_NETWORK_H_
#define L2R_ROADNET_ROAD_NETWORK_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/cow_span.h"
#include "common/geo.h"
#include "common/result.h"
#include "roadnet/road_types.h"

namespace l2r {

using VertexId = uint32_t;
using EdgeId = uint32_t;

inline constexpr VertexId kInvalidVertex = 0xFFFFFFFFu;
inline constexpr EdgeId kInvalidEdge = 0xFFFFFFFFu;

/// Time period used for travel-time weights. The paper builds separate peak
/// and off-peak region graphs (Sec. III, Scope (1)).
enum class TimePeriod : uint8_t { kOffPeak = 0, kPeak = 1 };
inline constexpr int kNumTimePeriods = 2;

/// A directed road segment. The layout is frozen by the snapshot format
/// (roadnet/snapshot.h): fields at fixed offsets, 3 tail padding bytes,
/// 24 bytes total — snapshot readers view mapped bytes as EdgeRecord
/// directly, so reordering or widening fields is a snapshot version bump.
struct EdgeRecord {
  VertexId from = kInvalidVertex;
  VertexId to = kInvalidVertex;
  float length_m = 0;
  float speed_offpeak_kmh = 50;
  float speed_peak_kmh = 50;
  RoadType road_type = RoadType::kResidential;

  float SpeedKmh(TimePeriod p) const {
    return p == TimePeriod::kPeak ? speed_peak_kmh : speed_offpeak_kmh;
  }
};

/// Axis-aligned bounding box in planar meters.
struct BoundingBox {
  Point min{1e300, 1e300};
  Point max{-1e300, -1e300};

  void Extend(const Point& p) {
    min.x = p.x < min.x ? p.x : min.x;
    min.y = p.y < min.y ? p.y : min.y;
    max.x = p.x > max.x ? p.x : max.x;
    max.y = p.y > max.y ? p.y : max.y;
  }
  double width() const { return max.x - min.x; }
  double height() const { return max.y - min.y; }
};

/// Directed road network G = (V, E, W) with CSR adjacency in both
/// directions. Weight functions W (distance, travel time, fuel, road type)
/// are exposed per edge; bulk weight arrays live in roadnet/weights.h.
///
/// Storage: every array is a CowSpan, so a network either owns its arrays
/// (builder/generator output) or views a read-only snapshot image shared
/// across processes (roadnet/snapshot.h); `backing_` pins the mapping.
/// The *topology* (vertices, CSR adjacency) is immutable after Build; the
/// per-edge attributes W are mutable through the narrow seam below
/// (SetEdgeSpeeds / SetEdgeClosed) so a dynamic world
/// (world/update_channel.h) can absorb rush-hour weight shifts and
/// closures without rebuilding — on a snapshot-backed network the first
/// such mutation copy-on-writes the edge array into private memory and
/// never touches the shared image. Mutation is not synchronized here: the
/// update channel serializes it against in-flight queries with its epoch
/// gate, which is the only supported way to mutate a network that is
/// being served.
class RoadNetwork {
 public:
  RoadNetwork() = default;

  size_t NumVertices() const { return positions_.size(); }
  size_t NumEdges() const { return edges_.size(); }

  const Point& VertexPos(VertexId v) const {
    L2R_DCHECK(v < positions_.size());
    return positions_[v];
  }

  const EdgeRecord& edge(EdgeId e) const {
    L2R_DCHECK(e < edges_.size());
    return edges_[e];
  }

  /// All vertex positions / edge records, contiguous.
  std::span<const Point> VertexPositions() const { return positions_.span(); }
  std::span<const EdgeRecord> Edges() const { return edges_.span(); }

  /// Outgoing edge ids of `v`.
  std::span<const EdgeId> OutEdges(VertexId v) const {
    L2R_DCHECK(v < positions_.size());
    return {out_ids_.data() + out_offsets_[v],
            out_offsets_[v + 1] - out_offsets_[v]};
  }

  /// Incoming edge ids of `v`.
  std::span<const EdgeId> InEdges(VertexId v) const {
    L2R_DCHECK(v < positions_.size());
    return {in_ids_.data() + in_offsets_[v],
            in_offsets_[v + 1] - in_offsets_[v]};
  }

  /// First edge from `u` to `v`, or kInvalidEdge.
  EdgeId FindEdge(VertexId u, VertexId v) const;

  /// Weight functions (Sec. III): wDI, wTT, wFC, wRT.
  double EdgeLengthM(EdgeId e) const { return edges_[e].length_m; }
  /// Travel time in seconds; +infinity while the edge is closed, so any
  /// path cost through a closure is unmistakably poisoned.
  double EdgeTravelTimeS(EdgeId e, TimePeriod p) const {
    if (!closed_.empty() && closed_[e]) {
      return std::numeric_limits<double>::infinity();
    }
    const EdgeRecord& r = edges_[e];
    return static_cast<double>(r.length_m) / (r.SpeedKmh(p) / 3.6);
  }
  /// Fuel consumption in milliliters (see FuelMilliliters in weights.h).
  double EdgeFuelMl(EdgeId e, TimePeriod p) const;
  RoadType EdgeRoadType(EdgeId e) const { return edges_[e].road_type; }

  // --- Dynamic-world mutation seam (see the class comment). ---

  /// Replaces both period speeds of `e` (km/h, clamped to >= 1 so travel
  /// times stay finite on open edges).
  void SetEdgeSpeeds(EdgeId e, double offpeak_kmh, double peak_kmh);
  /// Marks `e` closed (travel time +inf; searches refuse to label through
  /// it) or reopens it. Idempotent.
  void SetEdgeClosed(EdgeId e, bool closed);
  bool EdgeClosed(EdgeId e) const {
    return !closed_.empty() && closed_[e] != 0;
  }

  /// True when the topology arrays view a shared snapshot image (edge
  /// attributes may still have been copy-on-written locally).
  bool snapshot_backed() const { return backing_ != nullptr; }

  const BoundingBox& bounds() const { return bounds_; }

  /// Sum of wDI over a vertex path; Status if the path is not connected.
  /// Takes any contiguous vertex sequence (vector, array, subrange)
  /// without copying.
  Result<double> PathLengthM(std::span<const VertexId> path) const;
  /// Sum of wTT over a vertex path.
  Result<double> PathTravelTimeS(std::span<const VertexId> path,
                                 TimePeriod p) const;
  /// Resolves a vertex path to edge ids; Status if some hop has no edge.
  Result<std::vector<EdgeId>> PathToEdges(
      std::span<const VertexId> path) const;

 private:
  friend class RoadNetworkBuilder;
  friend struct SnapshotAccess;  // roadnet/snapshot.cc: raw array I/O

  CowSpan<Point> positions_;
  CowSpan<EdgeRecord> edges_;
  CowSpan<uint32_t> out_offsets_;  // size n+1
  CowSpan<EdgeId> out_ids_;
  CowSpan<uint32_t> in_offsets_;   // size n+1
  CowSpan<EdgeId> in_ids_;
  BoundingBox bounds_;
  /// Pins the storage a viewing network's arrays point into (the snapshot
  /// mapping); null for fully owned networks.
  std::shared_ptr<const void> backing_;
  /// Closure bitmap, allocated lazily on the first SetEdgeClosed so the
  /// (frozen-world) common case pays nothing. Always private memory —
  /// never part of a snapshot image.
  std::vector<uint8_t> closed_;
};

/// Accumulates vertices/edges and finalizes into an immutable RoadNetwork.
class RoadNetworkBuilder {
 public:
  VertexId AddVertex(const Point& pos) {
    positions_.push_back(pos);
    return static_cast<VertexId>(positions_.size() - 1);
  }

  /// Adds a one-way edge; length defaults to the Euclidean distance.
  EdgeId AddEdge(VertexId from, VertexId to, RoadType type,
                 double speed_offpeak_kmh, double speed_peak_kmh,
                 double length_m = -1);

  /// Adds both directions with identical attributes; returns the first id.
  EdgeId AddTwoWayEdge(VertexId from, VertexId to, RoadType type,
                       double speed_offpeak_kmh, double speed_peak_kmh,
                       double length_m = -1);

  size_t NumVertices() const { return positions_.size(); }
  size_t NumEdges() const { return edges_.size(); }
  const Point& VertexPos(VertexId v) const { return positions_[v]; }

  /// Validates and finalizes. The builder is left empty.
  Result<RoadNetwork> Build();

 private:
  std::vector<Point> positions_;
  std::vector<EdgeRecord> edges_;
};

}  // namespace l2r

#endif  // L2R_ROADNET_ROAD_NETWORK_H_
