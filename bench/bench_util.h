#ifndef L2R_BENCH_BENCH_UTIL_H_
#define L2R_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baselines/dom.h"
#include "baselines/simple_routers.h"
#include "baselines/trip.h"
#include "core/l2r.h"
#include "eval/datasets.h"
#include "eval/harness.h"

namespace l2r {
namespace bench {

/// Workload scale shared by the reproduction benches. Override with
/// L2R_BENCH_SCALE (e.g. L2R_BENCH_SCALE=1.0 for the full-size
/// workloads; the default keeps every binary in the minutes range).
inline double BenchScale() {
  const char* env = std::getenv("L2R_BENCH_SCALE");
  return env != nullptr ? std::atof(env) : 0.3;
}

inline size_t BenchQueries() {
  const char* env = std::getenv("L2R_BENCH_QUERIES");
  return env != nullptr ? static_cast<size_t>(std::atoll(env)) : 180;
}

/// A fully built comparison experiment on one dataset: world, split, L2R,
/// and the four baselines of the paper's Sec. VII-C.
struct ComparisonSetup {
  DatasetSpec spec;
  BuiltDataset data;
  std::unique_ptr<L2RRouter> l2r;
  std::unique_ptr<ShortestRouter> shortest;
  std::unique_ptr<FastestRouter> fastest;
  std::unique_ptr<DomRouter> dom;
  std::unique_ptr<TripRouter> trip;
  std::vector<QueryCase> queries;
};

inline std::unique_ptr<ComparisonSetup> BuildComparison(
    const DatasetSpec& spec, size_t max_queries) {
  auto setup = std::make_unique<ComparisonSetup>();
  setup->spec = spec;
  auto built = BuildDataset(spec);
  if (!built.ok()) {
    std::fprintf(stderr, "dataset %s: %s\n", spec.name.c_str(),
                 built.status().ToString().c_str());
    return nullptr;
  }
  setup->data = std::move(built).value();
  const RoadNetwork& net = setup->data.world.net;
  std::printf("[%s] %zu vertices, %zu edges, %zu train / %zu test\n",
              spec.name.c_str(), net.NumVertices(), net.NumEdges(),
              setup->data.split.train.size(), setup->data.split.test.size());

  L2ROptions options;
  auto l2r = L2RRouter::Build(&net, setup->data.split.train, options);
  if (!l2r.ok()) {
    std::fprintf(stderr, "l2r build: %s\n",
                 l2r.status().ToString().c_str());
    return nullptr;
  }
  setup->l2r = std::move(l2r).value();

  setup->shortest = std::make_unique<ShortestRouter>(net);
  setup->fastest = std::make_unique<FastestRouter>(net);
  DomOptions dom_options;
  dom_options.skyline.max_total_labels = 300000;
  dom_options.skyline.epsilon = 0.03;
  auto dom = DomRouter::Train(&net, setup->data.split.train, dom_options);
  if (dom.ok()) setup->dom = std::move(dom).value();
  auto trip = TripRouter::Train(&net, setup->data.split.train);
  if (trip.ok()) setup->trip = std::move(trip).value();

  setup->queries = BuildQueries(net, setup->data.split.test, max_queries);
  return setup;
}

/// Evaluates L2R + all baselines; order matches the paper's figures.
inline std::vector<RouterEval> EvaluateAll(ComparisonSetup* setup) {
  const RoadNetwork& net = setup->data.world.net;
  const L2RRouter* l2r = setup->l2r.get();
  auto categorize = [l2r](const QueryCase& q) {
    return CategorizeQuery(*l2r, q);
  };
  std::vector<RouterEval> evals;
  {
    L2RAdapter adapter(l2r);
    evals.push_back(EvaluateRouter(net, setup->queries,
                                   setup->spec.buckets, categorize,
                                   &adapter));
  }
  evals.push_back(EvaluateRouter(net, setup->queries, setup->spec.buckets,
                                 categorize, setup->shortest.get()));
  evals.push_back(EvaluateRouter(net, setup->queries, setup->spec.buckets,
                                 categorize, setup->fastest.get()));
  if (setup->dom != nullptr) {
    evals.push_back(EvaluateRouter(net, setup->queries, setup->spec.buckets,
                                   categorize, setup->dom.get()));
  }
  if (setup->trip != nullptr) {
    evals.push_back(EvaluateRouter(net, setup->queries, setup->spec.buckets,
                                   categorize, setup->trip.get()));
  }
  return evals;
}

}  // namespace bench
}  // namespace l2r

#endif  // L2R_BENCH_BENCH_UTIL_H_
