#include "routing/slave_reachability.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"

namespace l2r {

namespace {

constexpr uint32_t kUnset = std::numeric_limits<uint32_t>::max();

}  // namespace

SlaveReachability SlaveReachability::Build(const RoadNetwork& net,
                                           std::span<const RoadTypeMask> masks,
                                           unsigned num_threads) {
  std::vector<RoadTypeMask> distinct;
  for (const RoadTypeMask mask : masks) {
    if (mask != 0 &&
        std::find(distinct.begin(), distinct.end(), mask) == distinct.end()) {
      distinct.push_back(mask);
    }
  }
  SlaveReachability out;
  out.num_vertices_ = net.NumVertices();
  out.masks_.resize(distinct.size());
  ParallelFor(
      distinct.size(),
      [&](size_t i) { out.masks_[i] = BuildMask(net, distinct[i]); },
      num_threads);
  return out;
}

SlaveReachability::MaskIndex SlaveReachability::BuildMask(
    const RoadNetwork& net, RoadTypeMask mask) {
  const VertexId n = static_cast<VertexId>(net.NumVertices());
  MaskIndex out;
  out.mask = mask;
  std::vector<uint32_t>& comp = out.component;
  comp.assign(n, kUnset);

  // Iterative Tarjan over the filtered subgraph. A visited vertex whose
  // component is still unset is on the Tarjan stack.
  std::vector<uint32_t> index(n, kUnset);
  std::vector<uint32_t> low(n);
  std::vector<VertexId> stack;
  struct Frame {
    VertexId v;
    uint32_t next;  ///< position in OutEdges(v)
    bool all;       ///< noneSat: every out-edge is admitted
  };
  std::vector<Frame> calls;
  uint32_t counter = 0;
  uint32_t num_comps = 0;
  auto open = [&](VertexId v) {
    index[v] = low[v] = counter++;
    stack.push_back(v);
    calls.push_back({v, 0, NoneSatisfies(net, v, mask)});
  };
  for (VertexId root = 0; root < n; ++root) {
    if (index[root] != kUnset) continue;
    open(root);
    while (!calls.empty()) {
      Frame& f = calls.back();
      const auto edges = net.OutEdges(f.v);
      if (f.next < edges.size()) {
        const EdgeRecord& e = net.edge(edges[f.next++]);
        if (!f.all && !MaskContains(mask, e.road_type)) continue;
        if (index[e.to] == kUnset) {
          open(e.to);  // invalidates f
        } else if (comp[e.to] == kUnset) {
          low[f.v] = std::min(low[f.v], index[e.to]);
        }
        continue;
      }
      const VertexId v = f.v;
      calls.pop_back();
      if (!calls.empty()) {
        const VertexId parent = calls.back().v;
        low[parent] = std::min(low[parent], low[v]);
      }
      if (low[v] == index[v]) {
        VertexId w;
        do {
          w = stack.back();
          stack.pop_back();
          comp[w] = num_comps;
        } while (w != v);
        ++num_comps;
      }
    }
  }

  // Condensation edges in CSR form, duplicates kept (the DFS below only
  // needs each successor at least once).
  std::vector<uint32_t> offsets(num_comps + 1, 0);
  auto for_each_cross_edge = [&](auto&& fn) {
    for (VertexId u = 0; u < n; ++u) {
      const bool all = NoneSatisfies(net, u, mask);
      for (const EdgeId id : net.OutEdges(u)) {
        const EdgeRecord& e = net.edge(id);
        if (!all && !MaskContains(mask, e.road_type)) continue;
        if (comp[e.to] != comp[u]) fn(comp[u], comp[e.to]);
      }
    }
  };
  for_each_cross_edge([&](uint32_t c, uint32_t) { ++offsets[c + 1]; });
  for (uint32_t c = 0; c < num_comps; ++c) offsets[c + 1] += offsets[c];
  std::vector<uint32_t> targets(offsets[num_comps]);
  std::vector<uint32_t> fill(offsets.begin(), offsets.end() - 1);
  for_each_cross_edge([&](uint32_t c, uint32_t d) { targets[fill[c]++] = d; });

  // GRAIL labels: post-order DFS over the condensation from the sources
  // down (descending Tarjan id is a topological order), children in CSR
  // order for the first label and reversed for the second. A DAG has no
  // back edges, so a visited child is finished and its low is final.
  out.intervals.resize(static_cast<size_t>(num_comps) * kNumIntervals);
  std::vector<uint8_t> visited(num_comps);
  struct DagFrame {
    uint32_t c;
    uint32_t next;
  };
  std::vector<DagFrame> dfs;
  for (int k = 0; k < kNumIntervals; ++k) {
    auto label = [&](uint32_t c) -> Interval& {
      return out.intervals[static_cast<size_t>(c) * kNumIntervals + k];
    };
    std::fill(visited.begin(), visited.end(), 0);
    uint32_t post = 0;
    for (uint32_t root = num_comps; root-- > 0;) {
      if (visited[root]) continue;
      visited[root] = 1;
      label(root).low = kUnset;
      dfs.push_back({root, 0});
      while (!dfs.empty()) {
        DagFrame& f = dfs.back();
        const uint32_t degree = offsets[f.c + 1] - offsets[f.c];
        if (f.next < degree) {
          const uint32_t i = f.next++;
          const uint32_t child = targets[k == 0 ? offsets[f.c] + i
                                                : offsets[f.c + 1] - 1 - i];
          if (visited[child]) {
            label(f.c).low = std::min(label(f.c).low, label(child).low);
          } else {
            visited[child] = 1;
            label(child).low = kUnset;
            dfs.push_back({child, 0});  // invalidates f
          }
          continue;
        }
        Interval& done = label(f.c);
        dfs.pop_back();
        done.post = post++;
        done.low = std::min(done.low, done.post);
        if (!dfs.empty()) {
          Interval& parent = label(dfs.back().c);
          parent.low = std::min(parent.low, done.low);
        }
      }
    }
  }
  return out;
}

bool SlaveReachability::Unreachable(RoadTypeMask mask, VertexId s,
                                    VertexId t) const {
  for (const MaskIndex& index : masks_) {
    if (index.mask != mask) continue;
    L2R_DCHECK(s < num_vertices_ && t < num_vertices_);
    const uint32_t cs = index.component[s];
    const uint32_t ct = index.component[t];
    if (cs == ct) return false;
    if (cs < ct) return true;  // Tarjan ids fall along every path
    const Interval* from = &index.intervals[size_t{cs} * kNumIntervals];
    const Interval* to = &index.intervals[size_t{ct} * kNumIntervals];
    for (int k = 0; k < kNumIntervals; ++k) {
      if (to[k].low < from[k].low || to[k].post > from[k].post) return true;
    }
    return false;
  }
  return false;
}

size_t SlaveReachability::MemoryBytes() const {
  size_t bytes = masks_.capacity() * sizeof(MaskIndex);
  for (const MaskIndex& index : masks_) {
    bytes += index.component.capacity() * sizeof(uint32_t) +
             index.intervals.capacity() * sizeof(Interval);
  }
  return bytes;
}

}  // namespace l2r
