#include "transfer/transfer.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "common/timer.h"
#include "linalg/solvers.h"

namespace l2r {

namespace {

/// An unlabeled edge's preference is null when its largest master score
/// does not exceed this (disconnected in the similarity graph).
constexpr double kNullThreshold = 1e-6;

}  // namespace

Result<TransferResult> TransferPreferences(
    const std::vector<RegionEdgeFeatures>& features,
    const std::vector<std::optional<RoutingPreference>>& labeled,
    const PreferenceFeatureSpace& space, const TransferOptions& options) {
  const size_t n = features.size();
  if (labeled.size() != n) {
    return Status::InvalidArgument("features/labeled size mismatch");
  }
  // Written so NaN fails each check.
  if (!(options.amr >= 0 && options.amr <= 2)) {
    return Status::InvalidArgument("amr must be in [0, 2]");
  }
  if (!(std::isfinite(options.mu1) && options.mu1 >= 0)) {
    return Status::InvalidArgument("mu1 must be finite and >= 0");
  }
  // mu2 > 0 keeps A SPD even for an unlabeled edge with no neighbours.
  if (!(std::isfinite(options.mu2) && options.mu2 > 0)) {
    return Status::InvalidArgument("mu2 must be finite and > 0");
  }
  for (const RegionEdgeFeatures& f : features) {
    if (!std::isfinite(f.dis)) {
      return Status::InvalidArgument("region edge distance must be finite");
    }
  }

  TransferResult result;
  result.preferences.assign(n, std::nullopt);
  for (size_t i = 0; i < n; ++i) {
    if (labeled[i].has_value()) {
      ++result.num_labeled;
    } else {
      ++result.num_unlabeled;
    }
  }
  if (n == 0) return result;
  if (result.num_labeled == 0) {
    return Status::FailedPrecondition("no labeled region edges to transfer from");
  }

  Timer build_timer;

  // --- Adjacency M (thresholded, row-capped), built row-parallel and then
  // symmetrized by intersection (an entry survives only if both rows kept
  // it, so M stays symmetric under the cap).
  //
  // Cost: the scan visits all n^2 ordered pairs, so each visit is kept to
  // a lookup, a compare and at most one distance ratio:
  //  - Edges share few distinct f_mask values (73-119 per period on a City
  //    world), so each row first tabulates its Jaccard term against every
  //    distinct mask, O(m) per row instead of two popcounts per pair.
  //  - reSim <= 1 + Jaccard (the ratio is at most 1 and rounding is
  //    monotone), so a pair whose bound cannot beat the row's floor is
  //    skipped before its ratio.
  //  - A full row caches the position of its weakest entry, the first
  //    minimum that an eviction replaces, and rescans only after a
  //    replacement, the only time the row changes.
  struct Neighbor {
    uint32_t j;
    double sim;
  };
  const size_t cap = options.max_neighbors_per_edge == 0
                         ? n
                         : options.max_neighbors_per_edge;
  std::vector<uint64_t> masks;
  masks.reserve(n);
  for (const RegionEdgeFeatures& f : features) masks.push_back(f.f_mask);
  std::sort(masks.begin(), masks.end());
  masks.erase(std::unique(masks.begin(), masks.end()), masks.end());
  std::vector<uint32_t> mask_id(n);
  for (size_t i = 0; i < n; ++i) {
    mask_id[i] = static_cast<uint32_t>(
        std::lower_bound(masks.begin(), masks.end(), features[i].f_mask) -
        masks.begin());
  }
  auto weakest_of = [](const std::vector<Neighbor>& row) {
    size_t weakest = 0;
    for (size_t k = 1; k < row.size(); ++k) {
      if (row[k].sim < row[weakest].sim) weakest = k;
    }
    return weakest;
  };
  std::vector<std::vector<Neighbor>> adj(n);
  ParallelForWorker(
      n, [&] { return std::vector<double>(masks.size()); },
      [&](std::vector<double>& jaccard, size_t i) {
        for (size_t k = 0; k < masks.size(); ++k) {
          jaccard[k] = MaskJaccard(features[i].f_mask, masks[k]);
        }
        const double dis_i = features[i].dis;
        auto& row = adj[i];
        // A pair enters the row only with reSim > floor: amr while the row
        // has room, then its weakest kept reSim (itself > amr).
        double floor = options.amr;
        size_t weakest = 0;
        for (size_t j = 0; j < n; ++j) {
          if (j == i) continue;
          const double jac = jaccard[mask_id[j]];
          if (1 + jac <= floor) continue;
          const double sim = DistanceSimilarity(dis_i, features[j].dis) + jac;
          if (sim <= floor) continue;
          if (row.size() < cap) {
            row.push_back({static_cast<uint32_t>(j), sim});
            if (row.size() < cap) continue;
          } else {
            row[weakest] = {static_cast<uint32_t>(j), sim};
          }
          weakest = weakest_of(row);
          floor = row[weakest].sim;
        }
        std::sort(row.begin(), row.end(),
                  [](const Neighbor& a, const Neighbor& b) {
                    return a.j < b.j;
                  });
      },
      options.num_threads);
  {
    auto contains = [&](size_t row, uint32_t j) {
      const auto& r = adj[row];
      auto it = std::lower_bound(
          r.begin(), r.end(), j,
          [](const Neighbor& a, uint32_t v) { return a.j < v; });
      return it != r.end() && it->j == j;
    };
    std::vector<std::vector<Neighbor>> kept(n);
    for (size_t i = 0; i < n; ++i) {
      for (const Neighbor& nb : adj[i]) {
        if (nb.j > i && contains(nb.j, static_cast<uint32_t>(i))) {
          kept[i].push_back(nb);
          kept[nb.j].push_back({static_cast<uint32_t>(i), nb.sim});
        }
      }
    }
    adj.swap(kept);
  }

  // --- System matrix A = S + mu1 (D - M) + mu2 I.
  std::vector<Triplet> triplets;
  std::vector<double> degree(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (const Neighbor& nb : adj[i]) {
      degree[i] += nb.sim;
      triplets.push_back(
          {static_cast<uint32_t>(i), nb.j, -options.mu1 * nb.sim});
      ++result.adjacency_nnz;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const double s_ii = labeled[i].has_value() ? 1.0 : 0.0;
    triplets.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(i),
                        s_ii + options.mu1 * degree[i] + options.mu2});
  }
  const SparseMatrix a = SparseMatrix::FromTriplets(n, std::move(triplets));
  result.build_seconds = build_timer.ElapsedSeconds();

  // --- Solve per feature column: b = S Y_x (1 only on labeled rows whose
  // preference has feature x). The columns are independent and each keeps
  // its own serial solve, so every column's arithmetic, and the result,
  // is the same at any thread count.
  const int p = space.num_features();
  std::vector<std::vector<double>> yhat(p);
  std::vector<Status> column_status(p);
  std::vector<SolveStats> column_stats(p);
  Timer solve_timer;
  ParallelFor(
      static_cast<size_t>(p),
      [&](size_t col) {
        const int x = static_cast<int>(col);
        std::vector<double> b(n, 0);
        for (size_t i = 0; i < n; ++i) {
          if (!labeled[i].has_value()) continue;
          const RoutingPreference& pref = *labeled[i];
          const bool is_master_col =
              x < space.num_master() && static_cast<int>(pref.master) == x;
          const bool is_slave_col =
              x >= space.num_master() &&
              pref.slave_index == x - space.num_master();
          if (is_master_col || is_slave_col) b[i] = 1.0;
        }
        Result<SolveStats> solved = ConjugateGradient(a, b, &yhat[x]);
        if (solved.ok()) {
          column_stats[x] = *solved;
        } else {
          column_status[x] = solved.status();
        }
      },
      options.num_threads);
  // Folded in column order: the lowest failing column's error wins.
  for (int x = 0; x < p; ++x) {
    if (!column_status[x].ok()) return column_status[x];
    result.max_solver_iterations =
        std::max(result.max_solver_iterations, column_stats[x].iterations);
    if (!column_stats[x].converged) result.all_converged = false;
  }
  result.solve_seconds = solve_timer.ElapsedSeconds();

  // --- Extract preferences: argmax over master columns and over slave
  // columns (Sec. V-B, Fig. 7).
  for (size_t i = 0; i < n; ++i) {
    if (labeled[i].has_value()) {
      result.preferences[i] = labeled[i];  // T-edges keep learned prefs
      continue;
    }
    int best_master = 0;
    for (int x = 1; x < space.num_master(); ++x) {
      if (yhat[x][i] > yhat[best_master][i]) best_master = x;
    }
    if (yhat[best_master][i] <= kNullThreshold) {
      ++result.num_null;
      continue;
    }
    int best_slave = 0;
    for (int sx = 1; sx < space.num_slave(); ++sx) {
      if (yhat[space.num_master() + sx][i] >
          yhat[space.num_master() + best_slave][i]) {
        best_slave = sx;
      }
    }
    RoutingPreference pref;
    pref.master = static_cast<CostFeature>(best_master);
    pref.slave_index = best_slave;
    result.preferences[i] = pref;
  }
  result.null_rate =
      result.num_unlabeled > 0
          ? static_cast<double>(result.num_null) / result.num_unlabeled
          : 0;
  return result;
}

}  // namespace l2r
