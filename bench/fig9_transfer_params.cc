// Reproduces Fig. 9: parameters of the preference transfer.
//  (a) Accuracy of transferred preferences vs. the number of T-edge
//      preferences used as training data (X, 2X, 3X, 4X of five folds;
//      paper: more preferences -> better accuracy).
//  (b) Accuracy, null-rate, and run-time vs. the adjacency matrix
//      reduction threshold amr in {0.5 .. 0.9} (paper: accuracy roughly
//      flat, null-rate rises, run-time falls as amr grows).

#include <cstdio>

#include "bench_pipeline.h"
#include "common/rng.h"
#include "common/timer.h"

using namespace l2r;

namespace {

struct FoldData {
  std::vector<uint32_t> labeled_edges;  // T-edges with learned preferences
  std::vector<int> fold_of;             // per labeled edge index
};

FoldData MakeFolds(const bench::PipelineSetup& setup, int num_folds) {
  FoldData folds;
  for (uint32_t e = 0; e < setup.graph->NumTEdges(); ++e) {
    if (setup.labeled[e].has_value()) folds.labeled_edges.push_back(e);
  }
  Rng rng(777);
  folds.fold_of.resize(folds.labeled_edges.size());
  for (size_t i = 0; i < folds.fold_of.size(); ++i) {
    folds.fold_of[i] = static_cast<int>(rng.Index(num_folds));
  }
  return folds;
}

struct TransferOutcome {
  double accuracy = 0;   // mean PreferenceJaccard on the held-out fold
  double null_rate = 0;  // held-out edges with no transferred preference
  double seconds = 0;
};

/// Labels folds [0, train_folds) and evaluates on the last fold.
Result<TransferOutcome> RunTransfer(const bench::PipelineSetup& setup,
                                    const FoldData& folds, int train_folds,
                                    int eval_fold, double amr) {
  std::vector<std::optional<RoutingPreference>> labeled(
      setup.graph->NumEdges(), std::nullopt);
  for (size_t i = 0; i < folds.labeled_edges.size(); ++i) {
    if (folds.fold_of[i] < train_folds) {
      labeled[folds.labeled_edges[i]] =
          setup.labeled[folds.labeled_edges[i]];
    }
  }
  TransferOptions options;
  options.amr = amr;
  Timer timer;
  L2R_ASSIGN_OR_RETURN(
      const TransferResult result,
      TransferPreferences(setup.features, labeled, setup.space, options));
  TransferOutcome out;
  out.seconds = timer.ElapsedSeconds();
  double acc = 0;
  size_t n = 0;
  size_t nulls = 0;
  for (size_t i = 0; i < folds.labeled_edges.size(); ++i) {
    if (folds.fold_of[i] != eval_fold) continue;
    const uint32_t e = folds.labeled_edges[i];
    ++n;
    if (!result.preferences[e].has_value()) {
      ++nulls;
      continue;
    }
    acc += PreferenceJaccard(*result.preferences[e], *setup.labeled[e]);
  }
  if (n > 0) {
    out.accuracy = acc / static_cast<double>(n - nulls > 0 ? n - nulls : 1);
    out.null_rate = static_cast<double>(nulls) / n;
  }
  return out;
}

}  // namespace

int main() {
  std::printf("=== Fig. 9: Parameters of Preference Transfer (City) ===\n");
  auto built = bench::BuildPipeline(CityDataset(bench::BenchScale()));
  if (!built.ok()) return bench::ExitCode({built.status()});
  const bench::PipelineSetup& setup = **built;
  const FoldData folds = MakeFolds(setup, 5);
  std::printf("labeled T-edges: %zu (5 folds)\n",
              folds.labeled_edges.size());

  std::printf("\nFig. 9(a) — accuracy vs #T-edge preferences used\n");
  std::printf("%-8s %10s\n", "#T-edges", "Accuracy");
  for (int k = 1; k <= 4; ++k) {
    const auto out = RunTransfer(setup, folds, k, 4, 0.7);
    if (!out.ok()) return bench::ExitCode({out.status()});
    std::printf("%7dX %9.1f%%\n", k, 100 * out->accuracy);
  }

  // Our reSim values concentrate higher in [0, 2] than the paper's data
  // (synthetic regions share road-type profiles more often), so the sweep
  // covers the equivalent upper range; the paper's 0.5-0.9 corresponds to
  // the lower half of the reSim scale.
  std::printf("\nFig. 9(b) — varying amr (4 folds train, 1 fold truth)\n");
  std::printf("%-6s %10s %8s %12s\n", "amr", "Accuracy", "N-rate",
              "Run-time(s)");
  for (const double amr : {0.5, 0.8, 1.1, 1.4, 1.7}) {
    const auto out = RunTransfer(setup, folds, 4, 4, amr);
    if (!out.ok()) return bench::ExitCode({out.status()});
    std::printf("%-6.1f %9.1f%% %7.1f%% %12.2f\n", amr, 100 * out->accuracy,
                100 * out->null_rate, out->seconds);
  }
  std::printf(
      "\nPaper shape: (a) accuracy increases with training preferences; "
      "(b) accuracy roughly flat/slightly rising, null-rate rising and "
      "run-time falling with amr.\n");
  return 0;
}
