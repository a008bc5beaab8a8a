#ifndef L2R_BENCH_BENCH_PIPELINE_H_
#define L2R_BENCH_BENCH_PIPELINE_H_

#include <memory>
#include <optional>
#include <vector>

#include "bench_util.h"
#include "core/l2r.h"
#include "region/clustering.h"
#include "region/region_graph.h"
#include "region/trajectory_graph.h"
#include "transfer/features.h"
#include "transfer/transfer.h"

namespace l2r {
namespace bench {

/// The offline pipeline run once over all training trajectories with
/// off-peak weights (an L2RRouter builds one graph per period), exposed
/// piecewise for the design-choice benches (Figs. 6 and 9): region graph,
/// the router's learned T-edge preferences (LearnTEdgePreferences), and
/// region-edge features.
struct PipelineSetup {
  std::unique_ptr<BuiltDataset> data;
  std::unique_ptr<RegionGraph> graph;
  std::unique_ptr<WeightSet> weights;
  PreferenceFeatureSpace space = PreferenceFeatureSpace::Default();
  /// Learned preferences for T-edges (index-aligned with graph->edges();
  /// nullopt for B-edges and T-edges left unlearned).
  std::vector<std::optional<RoutingPreference>> labeled;
  std::vector<RegionEdgeFeatures> features;
};

inline Result<std::unique_ptr<PipelineSetup>> BuildPipeline(
    const DatasetSpec& spec) {
  auto setup = std::make_unique<PipelineSetup>();
  L2R_ASSIGN_OR_RETURN(BuiltDataset built, BuildDataset(spec));
  setup->data = std::make_unique<BuiltDataset>(std::move(built));
  const RoadNetwork& net = setup->data->world.net;

  L2R_ASSIGN_OR_RETURN(const TrajectoryGraph tg,
                       TrajectoryGraph::Build(net, setup->data->split.train));
  L2R_ASSIGN_OR_RETURN(const ClusteringResult clustering,
                       BottomUpClustering(tg, net.NumVertices()));
  L2R_ASSIGN_OR_RETURN(
      RegionGraph graph,
      BuildRegionGraph(net, clustering, &setup->data->split.train));
  setup->graph = std::make_unique<RegionGraph>(std::move(graph));
  setup->weights = std::make_unique<WeightSet>(net, TimePeriod::kOffPeak);
  const SlaveReachability reach =
      SlaveReachability::Build(net, setup->space.slaves());
  setup->labeled = LearnTEdgePreferences(net, *setup->graph, *setup->weights,
                                         setup->space, &reach,
                                         /*num_threads=*/0);
  setup->features = ComputeAllRegionEdgeFeatures(*setup->graph);
  return setup;
}

}  // namespace bench
}  // namespace l2r

#endif  // L2R_BENCH_BENCH_PIPELINE_H_
