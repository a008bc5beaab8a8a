#include "eval/comparison.h"

#include <initializer_list>

namespace l2r {

Result<std::unique_ptr<ComparisonSetup>> BuildComparison(
    const DatasetSpec& spec, size_t max_queries) {
  auto setup = std::make_unique<ComparisonSetup>();
  setup->spec = spec;
  L2R_ASSIGN_OR_RETURN(setup->data, BuildDataset(spec));
  const RoadNetwork& net = setup->data.world.net;
  const std::vector<MatchedTrajectory>& train = setup->data.split.train;
  L2R_ASSIGN_OR_RETURN(setup->l2r, L2RRouter::Build(&net, train));
  setup->shortest = std::make_unique<ShortestRouter>(net);
  setup->fastest = std::make_unique<FastestRouter>(net);
  L2R_ASSIGN_OR_RETURN(setup->dom, DomRouter::Train(&net, train));
  L2R_ASSIGN_OR_RETURN(setup->trip, TripRouter::Train(&net, train));
  setup->queries = BuildQueries(net, setup->data.split.test, max_queries);
  return setup;
}

std::vector<RouterEval> EvaluateAll(ComparisonSetup* setup) {
  const RoadNetwork& net = setup->data.world.net;
  const L2RRouter* l2r = setup->l2r.get();
  auto categorize = [l2r](const QueryCase& q) {
    return CategorizeQuery(*l2r, q);
  };
  L2RAdapter l2r_adapter(l2r);
  std::vector<RouterEval> evals;
  for (VertexPathRouter* router :
       std::initializer_list<VertexPathRouter*>{
           &l2r_adapter, setup->shortest.get(), setup->fastest.get(),
           setup->dom.get(), setup->trip.get()}) {
    evals.push_back(EvaluateRouter(net, setup->queries, setup->spec.buckets,
                                   categorize, router));
  }
  return evals;
}

}  // namespace l2r
