#include "world/update_channel.h"

#include <algorithm>

#include "common/check.h"

namespace l2r {

WorldUpdateChannel::WorldUpdateChannel(RoadNetwork* net, L2RRouter* router)
    : net_(net), router_(router) {
  L2R_CHECK(net != nullptr);
  L2R_CHECK(router != nullptr);
  for (int p = 0; p < kNumTimePeriods; ++p) {
    num_regions_[p] =
        router->region_graph(static_cast<TimePeriod>(p)).NumRegions();
    // +1: the kNoRegion bucket for vertices outside every region.
    region_dirty_[p] =
        std::vector<std::atomic<WorldEpoch>>(num_regions_[p] + 1);
  }
}

WorldEpoch WorldUpdateChannel::LastDirtyEpoch(int period_index,
                                              RegionId region) const {
  L2R_DCHECK(period_index >= 0 && period_index < kNumTimePeriods);
  // Acquire loads pair with Apply's release stores (see the field
  // comments): a reader that sees a dirty epoch also sees the batch that
  // wrote it.
  const WorldEpoch floor =
      floor_[period_index].load(std::memory_order_acquire);
  if (region == kAllRegionsBucket) {
    const WorldEpoch m =
        max_dirty_[period_index].load(std::memory_order_acquire);
    return m > floor ? m : floor;
  }
  const auto& table = region_dirty_[period_index];
  const size_t bucket = (region == kNoRegion ||
                         region >= num_regions_[period_index])
                            ? NoRegionBucket(period_index)
                            : region;
  // Acquire: pairs with the release store in Apply (documented order).
  const WorldEpoch e = table[bucket].load(std::memory_order_acquire);
  return e > floor ? e : floor;
}

WorldEpoch WorldUpdateChannel::AcquireRead() {
  gate_.LockShared();
  // Acquire pairs with Apply's release publish; under the shared lock no
  // writer is active, so this is the epoch the whole query runs on.
  return epoch_.load(std::memory_order_acquire);
}

void WorldUpdateChannel::ReleaseRead() { gate_.UnlockShared(); }

WorldUpdateChannel::ApplyReport WorldUpdateChannel::Apply(
    const WorldUpdateBatch& batch) {
  ApplyReport report;
  if (batch.empty()) {
    report.epoch = CurrentEpoch();
    return report;
  }
  // Exclusive gate: waits out every in-flight query (shared holders),
  // then mutates with no reader present.
  WriterMutexLock lock(gate_);

  std::vector<EdgeId> touched;
  std::vector<EdgeId> increase_edges;  // slowdowns + closures
  touched.reserve(batch.deltas.size() + batch.closures.size() +
                  batch.reopenings.size());
  bool improvement = false;

  for (const EdgeDelta& d : batch.deltas) {
    if (d.edge >= net_->NumEdges() || d.speed_scale == 1.0 ||
        d.speed_scale <= 0) {
      continue;
    }
    const EdgeRecord& r = net_->edge(d.edge);
    net_->SetEdgeSpeeds(d.edge, r.speed_offpeak_kmh * d.speed_scale,
                        r.speed_peak_kmh * d.speed_scale);
    touched.push_back(d.edge);
    if (d.speed_scale > 1.0) {
      improvement = true;
    } else {
      increase_edges.push_back(d.edge);
    }
  }
  for (EdgeId e : batch.closures) {
    if (e >= net_->NumEdges() || net_->EdgeClosed(e)) continue;
    net_->SetEdgeClosed(e, true);
    touched.push_back(e);
    increase_edges.push_back(e);
  }
  for (EdgeId e : batch.reopenings) {
    if (e >= net_->NumEdges() || !net_->EdgeClosed(e)) continue;
    net_->SetEdgeClosed(e, false);
    touched.push_back(e);
    improvement = true;
  }

  if (touched.empty() && !batch.period_transition.has_value()) {
    // All requested changes were no-ops; publish nothing. Relaxed: the
    // writer reads its own last store under the exclusive gate.
    report.epoch = epoch_.load(std::memory_order_relaxed);
    return report;
  }

  router_->RefreshEdgeWeights(touched);

  // Writer-side read of its own counter: relaxed is sufficient (the gate
  // serializes writers; the release store below is the publish).
  const WorldEpoch epoch = epoch_.load(std::memory_order_relaxed) + 1;
  report.epoch = epoch;
  report.edges_touched = touched.size();

  for (int p = 0; p < kNumTimePeriods; ++p) {
    const TimePeriod period = static_cast<TimePeriod>(p);
    const RegionGraph& graph = router_->region_graph(period);
    std::vector<RegionId>& dirty = report.dirty_regions[p];
    for (EdgeId e : increase_edges) {
      dirty.push_back(graph.RegionOf(net_->edge(e).from));
      dirty.push_back(graph.RegionOf(net_->edge(e).to));
    }
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

    const bool wholesale =
        improvement || batch.period_transition == period;
    report.wholesale[p] = wholesale;

    for (RegionId r : dirty) {
      const size_t bucket = (r == kNoRegion || r >= num_regions_[p])
                                ? NoRegionBucket(p)
                                : r;
      // Release: pairs with LastDirtyEpoch's acquire load.
      region_dirty_[p][bucket].store(epoch, std::memory_order_release);
    }
    if (wholesale) {
      // Release: pairs with LastDirtyEpoch's acquire load.
      floor_[p].store(epoch, std::memory_order_release);
    }
    if (wholesale || !dirty.empty()) {
      // Release: pairs with LastDirtyEpoch's acquire load.
      max_dirty_[p].store(epoch, std::memory_order_release);
    }
  }

  // Publish: release pairs with the acquire loads in CurrentEpoch /
  // AcquireRead, so whoever observes the new epoch observes the batch.
  epoch_.store(epoch, std::memory_order_release);
  return report;
}

}  // namespace l2r
