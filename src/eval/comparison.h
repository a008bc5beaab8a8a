#ifndef L2R_EVAL_COMPARISON_H_
#define L2R_EVAL_COMPARISON_H_

#include <memory>
#include <vector>

#include "baselines/dom.h"
#include "baselines/simple_routers.h"
#include "baselines/trip.h"
#include "common/result.h"
#include "core/l2r.h"
#include "eval/datasets.h"
#include "eval/harness.h"

namespace l2r {

/// A fully built comparison experiment on one dataset (paper Sec. VII-C):
/// world, split, L2R, the four baselines, and the held-out queries they
/// are all scored on.
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

/// Builds the dataset, trains L2R and every baseline on its training
/// split, and extracts up to `max_queries` test queries (0 = all). A
/// failed dataset, L2R, Dom or TRIP build is returned as its status.
Result<std::unique_ptr<ComparisonSetup>> BuildComparison(
    const DatasetSpec& spec, size_t max_queries);

/// Evaluates all five routers on `setup->queries`, in the paper's order:
/// L2R, Shortest, Fastest, Dom, TRIP.
std::vector<RouterEval> EvaluateAll(ComparisonSetup* setup);

}  // namespace l2r

#endif  // L2R_EVAL_COMPARISON_H_
