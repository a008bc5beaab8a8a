// Reproduces the Sec. VII-C offline processing report: wall time for
// constructing the region graph (clustering + T/B-edges) and for steps
// 1-3 of the preference machinery (learning, transfer, application), per
// period graph. Paper (64-core server): D1 21/245/106/7 minutes, D2
// 9/10/29/0.06 minutes — our numbers are single-machine seconds on scaled
// data; the shape to match is "preference learning dominates, application
// is cheap".

#include <algorithm>
#include <cstdio>

#include "bench_util.h"

using namespace l2r;

namespace {

void RunDataset(const DatasetSpec& spec) {
  auto built = BuildDataset(spec);
  if (!built.ok()) return;
  const RoadNetwork& net = built->world.net;
  std::printf("\n[%s] %zu vertices, %zu training trajectories\n",
              spec.name.c_str(), net.NumVertices(),
              built->split.train.size());
  L2ROptions options;
  auto router = L2RRouter::Build(&net, built->split.train, options);
  if (!router.ok()) return;
  const L2RBuildReport& report = (*router)->build_report();
  // Transfer is split into the adjacency build (M plus the Laplacian) and
  // the p column solves; M-nnz and the solver iterations are the
  // machine-independent size of each, tie% the share of M's rows the
  // sequential tie rule settled, and conv whether every column's solve
  // met the CG tolerance. null% is the share of B-edges transfer left
  // without a preference.
  std::printf(
      "%-10s %8s %8s %8s %8s %10s %8s %8s %8s %8s %8s %9s %6s %5s %4s %6s\n",
      "period", "trajs", "regions", "T-edges", "B-edges", "cluster(s)",
      "learn(s)", "xfer(s)", "adj(s)", "solve(s)", "apply(s)", "M-nnz",
      "iters", "tie%", "conv", "null%");
  for (int p = 0; p < kNumTimePeriods; ++p) {
    const auto& rep = report.period[p];
    if (rep.trajectories == 0) continue;
    std::printf(
        "%-10s %8zu %8zu %8zu %8zu %10.2f %8.2f %8.2f %8.2f %8.2f %8.2f "
        "%9zu %6d %5.1f %4s %6.2f\n",
        p == 0 ? "off-peak" : "peak", rep.trajectories, rep.num_regions,
        rep.num_t_edges, rep.num_b_edges,
        rep.cluster_seconds + rep.region_graph_seconds, rep.learn_seconds,
        rep.transfer_seconds, rep.transfer_build_seconds,
        rep.transfer_solve_seconds, rep.apply_seconds,
        rep.transfer_adjacency_nnz, rep.transfer_solver_iterations,
        100.0 * rep.transfer_tie_rows /
            std::max<size_t>(1, rep.num_t_edges + rep.num_b_edges),
        rep.transfer_converged ? "yes" : "no", 100 * rep.transfer_null_rate);
  }
  std::printf("landmark tables: %.2f s\n", report.landmark_seconds);
  std::printf("slave reachability oracle: %.3f s\n", report.reach_seconds);
  std::printf("total offline build: %.2f s\n", report.total_seconds);
}

}  // namespace

int main() {
  std::printf("=== Sec. VII-C: Offline Processing Time ===\n");
  RunDataset(MetroDataset(bench::BenchScale()));
  RunDataset(CityDataset(bench::BenchScale()));
  return 0;
}
