#include "transfer/transfer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>

#include "common/parallel.h"
#include "common/timer.h"
#include "linalg/solvers.h"

namespace l2r {

namespace {

/// An unlabeled edge's preference is null when its largest master score
/// does not exceed this (disconnected in the similarity graph).
constexpr double kNullThreshold = 1e-6;

/// The region edges grouped by f_mask: group g holds the edges whose mask
/// is masks[g], sorted by (dis, index), at [offsets[g], offsets[g + 1]) of
/// `edges` and `dis`.
struct MaskGroups {
  std::vector<uint64_t> masks;    // sorted distinct f_mask values
  std::vector<uint32_t> mask_id;  // per edge: its group
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> edges;
  std::vector<double> dis;  // dis[k] = features[edges[k]].dis
};

MaskGroups GroupByMask(const std::vector<RegionEdgeFeatures>& features) {
  const size_t n = features.size();
  MaskGroups g;
  g.masks.reserve(n);
  for (const RegionEdgeFeatures& f : features) g.masks.push_back(f.f_mask);
  std::sort(g.masks.begin(), g.masks.end());
  g.masks.erase(std::unique(g.masks.begin(), g.masks.end()), g.masks.end());
  g.mask_id.resize(n);
  g.offsets.assign(g.masks.size() + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    g.mask_id[i] = static_cast<uint32_t>(
        std::lower_bound(g.masks.begin(), g.masks.end(), features[i].f_mask) -
        g.masks.begin());
    ++g.offsets[g.mask_id[i] + 1];
  }
  for (size_t m = 0; m < g.masks.size(); ++m) g.offsets[m + 1] += g.offsets[m];
  g.edges.resize(n);
  for (size_t i = 0; i < n; ++i) g.edges[i] = static_cast<uint32_t>(i);
  std::sort(g.edges.begin(), g.edges.end(), [&](uint32_t a, uint32_t b) {
    if (g.mask_id[a] != g.mask_id[b]) return g.mask_id[a] < g.mask_id[b];
    if (features[a].dis != features[b].dis) {
      return features[a].dis < features[b].dis;
    }
    return a < b;
  });
  g.dis.resize(n);
  for (size_t k = 0; k < n; ++k) g.dis[k] = features[g.edges[k]].dis;
  return g;
}

/// Per-worker state of the row search. `jaccard` and `visit` describe the
/// mask of the last row searched; rows are searched in group order, so
/// consecutive rows mostly share them.
struct RowSearch {
  uint32_t mask = UINT32_MAX;
  std::vector<double> jaccard;  // per group: MaskJaccard(row mask, group)
  std::vector<uint32_t> visit;  // groups by descending jaccard
  std::vector<double> best;     // min-heap of the cap largest sims so far
  std::vector<TransferNeighbor> found;
};

/// The mask-window search for row i. Collects every j whose reSim clears
/// T: amr (strictly) until `cap` candidates are held, then the cap-th
/// largest reSim so far (inclusively, so boundary ties are all seen). T
/// only rises, and a group's reSim is at most 1 + its Jaccard, so the
/// search stops at the first group that bound cannot lift to T; inside a
/// group, DistanceSimilarity and its rounding fall monotonically as dis
/// moves away from dis_i, so each direction stops at its first miss.
/// Every j at or above the final T, the row's cap-th largest reSim v*, is
/// therefore collected; those are the row's candidates, and when more
/// than `cap` of them tie at v* the rule's order (reSim descending, j
/// ascending) picks the `cap` kept.
void WindowRow(size_t i, const std::vector<RegionEdgeFeatures>& features,
               const MaskGroups& groups, RowSearch& search, double amr,
               size_t cap, std::vector<TransferNeighbor>* row) {
  const double dis_i = features[i].dis;
  std::vector<double>& best = search.best;
  std::vector<TransferNeighbor>& found = search.found;
  best.clear();
  found.clear();
  double t = amr;
  bool full = false;
  auto clears = [&](double sim) { return full ? sim >= t : sim > t; };
  for (const uint32_t g : search.visit) {
    const double jac = search.jaccard[g];
    if (!clears(1 + jac)) break;
    // Visits group position k; false ends this direction.
    auto visit = [&](size_t k) {
      const uint32_t j = groups.edges[k];
      if (j == i) return true;
      const double sim = DistanceSimilarity(dis_i, groups.dis[k]) + jac;
      if (!clears(sim)) return false;
      found.push_back({j, sim});
      if (!full) {
        best.push_back(sim);
        std::push_heap(best.begin(), best.end(), std::greater<>());
        full = best.size() == cap;
      } else if (sim > best.front()) {
        std::pop_heap(best.begin(), best.end(), std::greater<>());
        best.back() = sim;
        std::push_heap(best.begin(), best.end(), std::greater<>());
      }
      if (full) t = best.front();
      return true;
    };
    const size_t lo = groups.offsets[g];
    const size_t hi = groups.offsets[g + 1];
    const size_t mid = static_cast<size_t>(
        std::lower_bound(groups.dis.begin() + lo, groups.dis.begin() + hi,
                         dis_i) -
        groups.dis.begin());
    for (size_t k = mid; k < hi && visit(k); ++k) {
    }
    for (size_t k = mid; k > lo && visit(k - 1); --k) {
    }
  }
  // Until the row is full, T is amr and every candidate cleared it.
  row->clear();
  for (const TransferNeighbor& nb : found) {
    if (nb.sim >= t) row->push_back(nb);
  }
  if (row->size() > cap) {
    std::sort(row->begin(), row->end(),
              [](const TransferNeighbor& a, const TransferNeighbor& b) {
                return a.sim != b.sim ? a.sim > b.sim : a.j < b.j;
              });
    row->resize(cap);
  }
}

}  // namespace

std::vector<std::vector<TransferNeighbor>> BuildNeighborRows(
    const std::vector<RegionEdgeFeatures>& features,
    const TransferOptions& options) {
  const size_t n = features.size();
  const size_t cap = options.max_neighbors_per_edge == 0
                         ? n
                         : options.max_neighbors_per_edge;
  const MaskGroups groups = GroupByMask(features);
  const size_t num_masks = groups.masks.size();
  std::vector<std::vector<TransferNeighbor>> adj(n);
  // Rows are taken in group order so a worker's Jaccard table and visit
  // order carry over from one row to the next.
  ParallelForWorker(
      n, [] { return RowSearch(); },
      [&](RowSearch& search, size_t k) {
        const size_t i = groups.edges[k];
        if (search.mask != groups.mask_id[i]) {
          search.mask = groups.mask_id[i];
          search.jaccard.resize(num_masks);
          search.visit.resize(num_masks);
          for (size_t m = 0; m < num_masks; ++m) {
            search.jaccard[m] =
                MaskJaccard(features[i].f_mask, groups.masks[m]);
            search.visit[m] = static_cast<uint32_t>(m);
          }
          std::sort(search.visit.begin(), search.visit.end(),
                    [&](uint32_t a, uint32_t b) {
                      return search.jaccard[a] > search.jaccard[b];
                    });
        }
        WindowRow(i, features, groups, search, options.amr, cap, &adj[i]);
        std::sort(adj[i].begin(), adj[i].end(),
                  [](const TransferNeighbor& a, const TransferNeighbor& b) {
                    return a.j < b.j;
                  });
      },
      options.num_threads);

  // Symmetrize by intersection. reSim is symmetric bit for bit (both
  // terms are), so row i keeps its own entries whose j also kept i, in
  // the same j order. kept_by[i] lists the rows that kept i, ascending: a
  // counting sort by j over rows taken in order. Row i is then merged
  // with kept_by[i], both sorted by j.
  std::vector<uint32_t> kept_by_start(n + 1, 0);
  for (const auto& row : adj) {
    for (const TransferNeighbor& nb : row) ++kept_by_start[nb.j + 1];
  }
  for (size_t i = 0; i < n; ++i) kept_by_start[i + 1] += kept_by_start[i];
  std::vector<uint32_t> kept_by(kept_by_start[n]);
  {
    std::vector<uint32_t> fill(kept_by_start.begin(), kept_by_start.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      for (const TransferNeighbor& nb : adj[i]) {
        kept_by[fill[nb.j]++] = static_cast<uint32_t>(i);
      }
    }
  }
  std::vector<std::vector<TransferNeighbor>> rows(n);
  ParallelFor(
      n,
      [&](size_t i) {
        const uint32_t* k = kept_by.data() + kept_by_start[i];
        const uint32_t* const end = kept_by.data() + kept_by_start[i + 1];
        rows[i].reserve(adj[i].size());
        for (const TransferNeighbor& nb : adj[i]) {
          while (k != end && *k < nb.j) ++k;
          if (k == end) break;
          if (*k == nb.j) rows[i].push_back(nb);
        }
      },
      options.num_threads);
  return rows;
}

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

  // --- Adjacency M (thresholded, row-capped, symmetrized).
  //
  // Cost: the mask-window search visits about a hundred pairs per row on
  // a City world instead of all n - 1 (its rows keep up to 64 of ~10k
  // region edges), O(m) Jaccard terms per distinct mask and a binary
  // search per visited group; a row tied at the cap boundary adds a sort
  // of its candidates, none of the others.
  const std::vector<std::vector<TransferNeighbor>> adj =
      BuildNeighborRows(features, options);

  // --- System matrix A = S + mu1 (D - M) + mu2 I, its triplets emitted
  // in (row, col) order.
  size_t num_triplets = n;
  for (const auto& row : adj) num_triplets += row.size();
  std::vector<Triplet> triplets;
  triplets.reserve(num_triplets);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = static_cast<uint32_t>(i);
    double degree = 0;
    for (const TransferNeighbor& nb : adj[i]) degree += nb.sim;
    const double s_ii = labeled[i].has_value() ? 1.0 : 0.0;
    const Triplet diagonal{row, row, s_ii + options.mu1 * degree + options.mu2};
    bool diagonal_done = false;
    for (const TransferNeighbor& nb : adj[i]) {
      if (!diagonal_done && nb.j > row) {
        triplets.push_back(diagonal);
        diagonal_done = true;
      }
      triplets.push_back({row, nb.j, -options.mu1 * nb.sim});
    }
    if (!diagonal_done) triplets.push_back(diagonal);
    result.adjacency_nnz += adj[i].size();
  }
  const SparseMatrix a = SparseMatrix::FromTriplets(n, std::move(triplets));
  result.build_seconds = build_timer.ElapsedSeconds();

  // --- Solve per feature column: b = S Y_x (1 only on labeled rows whose
  // preference has feature x). The p columns are dealt round-robin into
  // one group per thread, and each group is one serial block solve, so
  // every column's arithmetic, and the result, is the same at any thread
  // count.
  const int p = space.num_features();
  auto rhs = [&](int x) {
    std::vector<double> b(n, 0);
    for (size_t i = 0; i < n; ++i) {
      if (!labeled[i].has_value()) continue;
      const RoutingPreference& pref = *labeled[i];
      const bool is_master_col =
          x < space.num_master() && static_cast<int>(pref.master) == x;
      const bool is_slave_col = x >= space.num_master() &&
                                pref.slave_index == x - space.num_master();
      if (is_master_col || is_slave_col) b[i] = 1.0;
    }
    return b;
  };
  const unsigned threads = options.num_threads == 0 ? DefaultThreadCount()
                                                    : options.num_threads;
  const size_t num_groups = std::min<size_t>(threads, p);
  std::vector<std::vector<double>> yhat(p);
  std::vector<Result<SolveStats>> column_result(p, SolveStats{});
  Timer solve_timer;
  ParallelFor(
      num_groups,
      [&](size_t group) {
        std::vector<std::vector<double>> b;
        for (size_t x = group; x < static_cast<size_t>(p); x += num_groups) {
          b.push_back(rhs(static_cast<int>(x)));
        }
        std::vector<std::vector<double>> solved_x;
        std::vector<Result<SolveStats>> solved =
            BlockConjugateGradient(a, b, &solved_x);
        for (size_t k = 0; k < b.size(); ++k) {
          const size_t x = group + k * num_groups;
          yhat[x] = std::move(solved_x[k]);
          column_result[x] = std::move(solved[k]);
        }
      },
      options.num_threads);
  // Folded in column order: the lowest failing column's error wins.
  for (int x = 0; x < p; ++x) {
    if (!column_result[x].ok()) return column_result[x].status();
    result.max_solver_iterations =
        std::max(result.max_solver_iterations, column_result[x]->iterations);
    if (!column_result[x]->converged) result.all_converged = false;
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
