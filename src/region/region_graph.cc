#include "region/region_graph.h"

#include <algorithm>
#include <deque>

#include "common/flat_map.h"

namespace l2r {

namespace {

/// Build caps: transfer centers kept per region, unique paths stored per
/// T-edge and per region's inner paths, and region pairs recorded per
/// trajectory (a trajectory through m regions yields up to m(m-1)/2).
constexpr size_t kMaxTransferCentersPerRegion = 8;
constexpr size_t kMaxPathsPerTEdge = 64;
constexpr size_t kMaxInnerPathsPerRegion = 128;
constexpr size_t kMaxRegionPairsPerTraj = 120;

uint64_t DirectedKey(RegionId a, RegionId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// FNV-1a over a vertex slice, for T-edge path deduplication.
uint64_t HashSlice(const std::vector<VertexId>& path, uint32_t begin,
                   uint32_t end) {
  uint64_t h = 1469598103934665603ULL;
  for (uint32_t i = begin; i <= end; ++i) {
    h ^= path[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// A maximal run of consecutive path vertices inside one region.
struct RegionRun {
  RegionId region = kNoRegion;
  uint32_t first = 0;
  uint32_t last = 0;
};

std::vector<RegionRun> SplitIntoRuns(const std::vector<VertexId>& path,
                                     const std::vector<RegionId>& v2r) {
  std::vector<RegionRun> runs;
  for (uint32_t i = 0; i < path.size(); ++i) {
    const RegionId r = v2r[path[i]];
    if (r == kNoRegion) continue;
    if (!runs.empty() && runs.back().region == r &&
        runs.back().last + 1 == i) {
      runs.back().last = i;
    } else {
      runs.push_back(RegionRun{r, i, i});
    }
  }
  return runs;
}

}  // namespace

RoadTypeMask RegionInfo::TopRoadTypes(int k) const {
  std::array<int, kNumRoadTypes> order{};
  for (int t = 0; t < kNumRoadTypes; ++t) order[t] = t;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return road_type_counts[a] > road_type_counts[b];
  });
  RoadTypeMask mask = 0;
  for (int i = 0; i < k && i < kNumRoadTypes; ++i) {
    if (road_type_counts[order[i]] == 0) break;
    mask |= RoadTypeBit(static_cast<RoadType>(order[i]));
  }
  return mask;
}

int64_t RegionGraph::FindEdge(RegionId a, RegionId b) const {
  const uint32_t* id = edge_index_.Find(DirectedKey(a, b));
  return id == nullptr ? -1 : static_cast<int64_t>(*id);
}

std::span<const VertexId> RegionGraph::ResolvePath(
    const StoredPathRef& ref) const {
  const std::vector<VertexId>& path = (*trajs_)[ref.traj].path;
  L2R_CHECK(ref.begin <= ref.end && ref.end < path.size());
  return std::span<const VertexId>(path).subspan(ref.begin,
                                                 ref.end - ref.begin + 1);
}

Result<RegionGraph> BuildRegionGraph(
    const RoadNetwork& net, const ClusteringResult& clustering,
    const std::vector<MatchedTrajectory>* trajs) {
  if (trajs == nullptr) {
    return Status::InvalidArgument("trajs must not be null");
  }
  RegionGraph g;
  g.trajs_ = trajs;
  g.vertex_region_ = clustering.vertex_region;

  const size_t num_regions = clustering.regions.size();
  g.regions_.resize(num_regions);
  // Build-time adjacency accumulator; flattened into the CSR members at
  // the end of the build.
  std::vector<std::vector<uint32_t>> out_edges(num_regions);

  // --- Region metadata from members.
  for (RegionId r = 0; r < num_regions; ++r) {
    RegionInfo& info = g.regions_[r];
    info.members = clustering.regions[r];
    std::vector<Point> pts;
    pts.reserve(info.members.size());
    for (const VertexId v : info.members) {
      pts.push_back(net.VertexPos(v));
      for (const EdgeId e : net.OutEdges(v)) {
        ++info.road_type_counts[static_cast<int>(net.EdgeRoadType(e))];
      }
      for (const EdgeId e : net.InEdges(v)) {
        ++info.road_type_counts[static_cast<int>(net.EdgeRoadType(e))];
      }
    }
    info.centroid = Centroid(pts);
    const std::vector<Point> hull = ConvexHull(pts);
    info.hull_area_km2 = PolygonArea(hull) / 1e6;
    info.hull_diameter_km = HullDiameter(hull) / 1e3;
  }

  // --- T-edges, inner-region paths, transfer centers. All accumulators
  // are flat: open-addressing FlatMap64 for path/pair dedup (values index
  // dense side arrays) and raw append vectors for transfer-center hits,
  // aggregated by a sort at the end — no per-node allocation in the scan.
  struct EdgeAccum {
    explicit EdgeAccum(uint64_t k) : key(k) {}
    uint64_t key;       // DirectedKey(from, to)
    FlatMap64 unique;   // path hash -> index into paths
    std::vector<StoredPathRef> paths;
  };
  FlatMap64 t_index;  // DirectedKey -> index into t_accums
  std::vector<EdgeAccum> t_accums;
  std::vector<FlatMap64> inner_unique(num_regions);
  std::vector<std::vector<StoredPathRef>> inner_paths(num_regions);
  std::vector<std::vector<VertexId>> center_hits(num_regions);

  for (uint32_t ti = 0; ti < trajs->size(); ++ti) {
    const std::vector<VertexId>& path = (*trajs)[ti].path;
    for (const VertexId v : path) {
      if (v >= net.NumVertices()) {
        return Status::InvalidArgument("trajectory vertex out of range");
      }
    }
    const std::vector<RegionRun> runs =
        SplitIntoRuns(path, g.vertex_region_);

    // Inner-region paths and transfer centers.
    for (const RegionRun& run : runs) {
      center_hits[run.region].push_back(path[run.first]);
      if (run.last != run.first) {
        center_hits[run.region].push_back(path[run.last]);
      }
      if (run.last > run.first &&
          inner_paths[run.region].size() < kMaxInnerPathsPerRegion) {
        const uint64_t h = HashSlice(path, run.first, run.last);
        if (uint32_t* idx = inner_unique[run.region].Find(h)) {
          ++inner_paths[run.region][*idx].count;
        } else {
          inner_unique[run.region].Insert(
              h, static_cast<uint32_t>(inner_paths[run.region].size()));
          inner_paths[run.region].push_back(
              StoredPathRef{ti, run.first, run.last, 1});
        }
      }
    }

    // Region-pair paths: trajectory left runs[i] at its last vertex and
    // entered runs[j] at its first vertex.
    size_t pairs = 0;
    for (size_t i = 0; i < runs.size() && pairs < kMaxRegionPairsPerTraj;
         ++i) {
      for (size_t j = i + 1;
           j < runs.size() && pairs < kMaxRegionPairsPerTraj; ++j) {
        if (runs[i].region == runs[j].region) continue;
        ++pairs;
        const uint64_t key = DirectedKey(runs[i].region, runs[j].region);
        uint32_t ai;
        if (const uint32_t* found = t_index.Find(key)) {
          ai = *found;
        } else {
          ai = static_cast<uint32_t>(t_accums.size());
          t_index.Insert(key, ai);
          t_accums.emplace_back(key);
        }
        EdgeAccum& acc = t_accums[ai];
        const uint32_t begin = runs[i].last;
        const uint32_t end = runs[j].first;
        const uint64_t h = HashSlice(path, begin, end);
        if (uint32_t* idx = acc.unique.Find(h)) {
          ++acc.paths[*idx].count;
        } else if (acc.paths.size() < kMaxPathsPerTEdge) {
          acc.unique.Insert(h, static_cast<uint32_t>(acc.paths.size()));
          acc.paths.push_back(StoredPathRef{ti, begin, end, 1});
        }
      }
    }
  }

  // Materialize T-edges (sorted keys for determinism).
  std::sort(t_accums.begin(), t_accums.end(),
            [](const EdgeAccum& a, const EdgeAccum& b) {
              return a.key < b.key;
            });
  for (EdgeAccum& acc : t_accums) {
    const uint64_t key = acc.key;
    RegionEdge e;
    e.from = static_cast<RegionId>(key >> 32);
    e.to = static_cast<RegionId>(key & 0xFFFFFFFFu);
    e.is_t_edge = true;
    std::stable_sort(
        acc.paths.begin(), acc.paths.end(),
        [](const StoredPathRef& a, const StoredPathRef& b) {
          return a.count > b.count;
        });
    e.t_paths = std::move(acc.paths);
    const uint32_t id = static_cast<uint32_t>(g.edges_.size());
    g.edge_index_.Insert(key, id);
    out_edges[e.from].push_back(id);
    g.edges_.push_back(std::move(e));
  }
  g.num_t_edges_ = g.edges_.size();

  // Finish per-region transfer centers and inner paths.
  for (RegionId r = 0; r < num_regions; ++r) {
    RegionInfo& info = g.regions_[r];
    // Aggregate raw hit appends: sort by vertex id, collapse runs into
    // (vertex, count), then order by count (ties stay id-ascending —
    // byte-identical to the old per-vertex ordered-map accumulation).
    std::vector<VertexId>& hits = center_hits[r];
    std::sort(hits.begin(), hits.end());
    std::vector<std::pair<VertexId, uint32_t>> centers;
    for (size_t i = 0; i < hits.size();) {
      size_t j = i;
      while (j < hits.size() && hits[j] == hits[i]) ++j;
      centers.emplace_back(hits[i], static_cast<uint32_t>(j - i));
      i = j;
    }
    std::stable_sort(centers.begin(), centers.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    for (const auto& [v, cnt] : centers) {
      if (info.transfer_centers.size() >= kMaxTransferCentersPerRegion) break;
      info.transfer_centers.push_back(v);
    }
    // Regions never entered by a recorded trajectory run still need
    // transfer centers for B-edge path construction: use the member
    // vertex closest to the centroid.
    if (info.transfer_centers.empty() && !info.members.empty()) {
      VertexId best = info.members.front();
      double best_d = 1e300;
      for (const VertexId v : info.members) {
        const double d = DistSq(net.VertexPos(v), info.centroid);
        if (d < best_d) {
          best_d = d;
          best = v;
        }
      }
      info.transfer_centers.push_back(best);
    }
    std::stable_sort(inner_paths[r].begin(), inner_paths[r].end(),
                     [](const StoredPathRef& a, const StoredPathRef& b) {
                       return a.count > b.count;
                     });
    info.inner_paths = std::move(inner_paths[r]);
  }

  // --- BFS completion (B-edges). One multi-source BFS per region over the
  // undirected road network; expansion stops at vertices of other regions,
  // so each region connects only to its "nearby" regions (Sec. IV-B).
  std::vector<uint32_t> visit_stamp(net.NumVertices(), 0);
  uint32_t stamp = 0;
  for (RegionId r = 0; r < num_regions; ++r) {
    ++stamp;
    std::deque<VertexId> queue;
    for (const VertexId v : g.regions_[r].members) {
      visit_stamp[v] = stamp;
      queue.push_back(v);
    }
    std::vector<RegionId> reached;
    while (!queue.empty()) {
      const VertexId u = queue.front();
      queue.pop_front();
      const RegionId ur = g.vertex_region_[u];
      if (ur != kNoRegion && ur != r) continue;  // do not expand past it
      auto visit = [&](VertexId x) {
        if (visit_stamp[x] == stamp) return;
        visit_stamp[x] = stamp;
        const RegionId xr = g.vertex_region_[x];
        if (xr != kNoRegion && xr != r) reached.push_back(xr);
        queue.push_back(x);
      };
      for (const EdgeId e : net.OutEdges(u)) visit(net.edge(e).to);
      for (const EdgeId e : net.InEdges(u)) visit(net.edge(e).from);
    }
    std::sort(reached.begin(), reached.end());
    reached.erase(std::unique(reached.begin(), reached.end()),
                  reached.end());
    for (const RegionId r2 : reached) {
      if (g.FindEdge(r, r2) >= 0 || g.FindEdge(r2, r) >= 0) continue;
      for (const auto& [from, to] :
           {std::pair<RegionId, RegionId>{r, r2}, {r2, r}}) {
        RegionEdge e;
        e.from = from;
        e.to = to;
        e.is_t_edge = false;
        const uint32_t id = static_cast<uint32_t>(g.edges_.size());
        g.edge_index_.Insert(DirectedKey(from, to), id);
        out_edges[from].push_back(id);
        g.edges_.push_back(std::move(e));
      }
    }
  }

  // Flatten the per-region edge lists into the contiguous CSR pair.
  g.out_offsets_.assign(num_regions + 1, 0);
  for (RegionId r = 0; r < num_regions; ++r) {
    g.out_offsets_[r + 1] =
        g.out_offsets_[r] + static_cast<uint32_t>(out_edges[r].size());
  }
  g.out_edge_ids_.reserve(g.edges_.size());
  for (RegionId r = 0; r < num_regions; ++r) {
    g.out_edge_ids_.insert(g.out_edge_ids_.end(), out_edges[r].begin(),
                           out_edges[r].end());
  }

  return g;
}

}  // namespace l2r
