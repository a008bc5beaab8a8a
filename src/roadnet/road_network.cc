#include "roadnet/road_network.h"

#include <algorithm>
#include <numeric>

#include "roadnet/weights.h"

namespace l2r {

EdgeId RoadNetwork::FindEdge(VertexId u, VertexId v) const {
  for (EdgeId e : OutEdges(u)) {
    if (edges_[e].to == v) return e;
  }
  return kInvalidEdge;
}

double RoadNetwork::EdgeFuelMl(EdgeId e, TimePeriod p) const {
  const EdgeRecord& r = edges_[e];
  return FuelMilliliters(r.length_m, r.SpeedKmh(p));
}

void RoadNetwork::SetEdgeSpeeds(EdgeId e, double offpeak_kmh,
                                double peak_kmh) {
  L2R_CHECK(e < edges_.size());
  // Copy-on-write: the first mutation of a snapshot-backed network copies
  // the edge array into private memory, leaving the shared image intact.
  EdgeRecord& r = edges_.Mutable()[e];
  r.speed_offpeak_kmh = static_cast<float>(offpeak_kmh < 1 ? 1 : offpeak_kmh);
  r.speed_peak_kmh = static_cast<float>(peak_kmh < 1 ? 1 : peak_kmh);
}

void RoadNetwork::SetEdgeClosed(EdgeId e, bool closed) {
  L2R_CHECK(e < edges_.size());
  if (closed_.empty()) {
    if (!closed) return;  // reopening on an all-open network: no-op
    closed_.assign(edges_.size(), 0);
  }
  closed_[e] = closed ? 1 : 0;
}

Result<double> RoadNetwork::PathLengthM(
    std::span<const VertexId> path) const {
  L2R_ASSIGN_OR_RETURN(std::vector<EdgeId> edges, PathToEdges(path));
  double total = 0;
  for (EdgeId e : edges) total += EdgeLengthM(e);
  return total;
}

Result<double> RoadNetwork::PathTravelTimeS(std::span<const VertexId> path,
                                            TimePeriod p) const {
  L2R_ASSIGN_OR_RETURN(std::vector<EdgeId> edges, PathToEdges(path));
  double total = 0;
  for (EdgeId e : edges) total += EdgeTravelTimeS(e, p);
  return total;
}

Result<std::vector<EdgeId>> RoadNetwork::PathToEdges(
    std::span<const VertexId> path) const {
  std::vector<EdgeId> out;
  if (path.size() < 2) return out;
  out.reserve(path.size() - 1);
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const EdgeId e = FindEdge(path[i], path[i + 1]);
    if (e == kInvalidEdge) {
      return Status::NotFound("no edge " + std::to_string(path[i]) + "->" +
                              std::to_string(path[i + 1]));
    }
    out.push_back(e);
  }
  return out;
}

EdgeId RoadNetworkBuilder::AddEdge(VertexId from, VertexId to, RoadType type,
                                   double speed_offpeak_kmh,
                                   double speed_peak_kmh, double length_m) {
  L2R_CHECK(from < positions_.size());
  L2R_CHECK(to < positions_.size());
  EdgeRecord rec;
  rec.from = from;
  rec.to = to;
  rec.road_type = type;
  rec.speed_offpeak_kmh = static_cast<float>(speed_offpeak_kmh);
  rec.speed_peak_kmh = static_cast<float>(speed_peak_kmh);
  rec.length_m = static_cast<float>(
      length_m >= 0 ? length_m : Dist(positions_[from], positions_[to]));
  edges_.push_back(rec);
  return static_cast<EdgeId>(edges_.size() - 1);
}

EdgeId RoadNetworkBuilder::AddTwoWayEdge(VertexId from, VertexId to,
                                         RoadType type,
                                         double speed_offpeak_kmh,
                                         double speed_peak_kmh,
                                         double length_m) {
  const EdgeId first = AddEdge(from, to, type, speed_offpeak_kmh,
                               speed_peak_kmh, length_m);
  AddEdge(to, from, type, speed_offpeak_kmh, speed_peak_kmh, length_m);
  return first;
}

Result<RoadNetwork> RoadNetworkBuilder::Build() {
  for (const EdgeRecord& e : edges_) {
    if (e.from == e.to) {
      return Status::InvalidArgument("self-loop edge at vertex " +
                                     std::to_string(e.from));
    }
    if (e.length_m <= 0) {
      return Status::InvalidArgument("non-positive edge length");
    }
    if (e.speed_offpeak_kmh <= 0 || e.speed_peak_kmh <= 0) {
      return Status::InvalidArgument("non-positive edge speed");
    }
  }

  std::vector<Point> positions = std::move(positions_);
  std::vector<EdgeRecord> edges = std::move(edges_);
  positions_.clear();
  edges_.clear();

  const size_t n = positions.size();
  const size_t m = edges.size();

  std::vector<uint32_t> out_offsets(n + 1, 0);
  std::vector<uint32_t> in_offsets(n + 1, 0);
  for (const EdgeRecord& e : edges) {
    ++out_offsets[e.from + 1];
    ++in_offsets[e.to + 1];
  }
  std::partial_sum(out_offsets.begin(), out_offsets.end(),
                   out_offsets.begin());
  std::partial_sum(in_offsets.begin(), in_offsets.end(), in_offsets.begin());

  std::vector<EdgeId> out_ids(m);
  std::vector<EdgeId> in_ids(m);
  std::vector<uint32_t> out_cursor(out_offsets.begin(),
                                   out_offsets.end() - 1);
  std::vector<uint32_t> in_cursor(in_offsets.begin(), in_offsets.end() - 1);
  for (EdgeId e = 0; e < m; ++e) {
    out_ids[out_cursor[edges[e].from]++] = e;
    in_ids[in_cursor[edges[e].to]++] = e;
  }

  RoadNetwork net;
  for (const Point& p : positions) net.bounds_.Extend(p);
  net.positions_ = std::move(positions);
  net.edges_ = std::move(edges);
  net.out_offsets_ = std::move(out_offsets);
  net.out_ids_ = std::move(out_ids);
  net.in_offsets_ = std::move(in_offsets);
  net.in_ids_ = std::move(in_ids);
  return net;
}

}  // namespace l2r
