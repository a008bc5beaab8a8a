#ifndef L2R_TRANSFER_TRANSFER_H_
#define L2R_TRANSFER_TRANSFER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "pref/preference.h"
#include "transfer/features.h"

namespace l2r {

struct TransferOptions {
  /// Adjacency matrix reduction threshold (Table III; default bold 0.7):
  /// region-edge pairs with reSim <= amr are dropped from M. In [0, 2].
  double amr = 0.7;
  /// Influence of the Laplacian transfer term (Eq. 2). Finite, >= 0.
  double mu1 = 1.0;
  /// L2 regularization (Eq. 2). Finite, > 0: it keeps the system SPD when
  /// an unlabeled edge has no neighbours.
  double mu2 = 0.01;
  /// Per-row cap on adjacency neighbours (keeps M sparse when many edges
  /// are mutually similar; keeps the strongest similarities). 0 = no cap.
  size_t max_neighbors_per_edge = 64;
  /// Threads for the adjacency rows and the column solves; 0 = hardware
  /// concurrency. The result is the same at every value.
  unsigned num_threads = 0;
};

/// Result of the transduction (Sec. V-B).
struct TransferResult {
  /// Per region edge: the transferred (or kept) preference; nullopt = null
  /// preference (the paper associates fastest paths with those B-edges).
  std::vector<std::optional<RoutingPreference>> preferences;
  size_t num_labeled = 0;     ///< T-edges that provided training rows
  size_t num_unlabeled = 0;   ///< B-edges (rows to infer)
  size_t num_null = 0;        ///< unlabeled rows that got no preference
  double null_rate = 0;       ///< num_null / num_unlabeled
  size_t adjacency_nnz = 0;   ///< off-diagonal nnz of M (both triangles)
  double build_seconds = 0;   ///< adjacency + Laplacian assembly
  double solve_seconds = 0;   ///< all p column solves
  int max_solver_iterations = 0;  ///< the most any column's solve took
  bool all_converged = true;      ///< every column met the CG tolerance
  /// Rows of M tied at the neighbour cap and settled by the sequential
  /// rule (see BuildNeighborRows).
  size_t tie_rows = 0;
};

/// One off-diagonal entry of the similarity graph M: neighbour j and
/// reSim(i, j).
struct TransferNeighbor {
  uint32_t j = 0;
  double sim = 0;
};

/// The rows of M and how many the sequential rule settled.
struct NeighborRows {
  /// Per region edge, its neighbours sorted by j. Symmetric: j is in row i
  /// exactly when i is in row j, with the same sim.
  std::vector<std::vector<TransferNeighbor>> rows;
  /// Rows tied at the cap boundary; the mask-window search settled the
  /// others.
  size_t tie_rows = 0;
};

/// M's rows before the Laplacian (Sec. V-B): row i keeps the j != i with
/// reSim(i, j) > amr, at most `max_neighbors_per_edge` of them, and M is
/// then symmetrized by intersection (an entry survives only if both rows
/// kept it). The cap is defined by a sequential rule: scanning j in index
/// order, a full row evicts its first minimum-reSim entry by position when
/// a strictly larger reSim arrives.
///
/// Rows are found by a mask-window search: edges are grouped by f_mask
/// and sorted by dis, groups are visited in descending Jaccard order and,
/// inside a group, reSim falls monotonically away from dis_i. The search
/// settles a row by itself unless entries tie at the cap boundary; only
/// those rows run the sequential scan, so every row equals the rule's.
/// Uses `amr`, `max_neighbors_per_edge` and `num_threads` of `options`;
/// expects finite distances and amr in [0, 2], which TransferPreferences
/// checks. The rows are the same at every thread count.
NeighborRows BuildNeighborRows(const std::vector<RegionEdgeFeatures>& features,
                               const TransferOptions& options);

/// Graph-based transduction of routing preferences from T-edges to B-edges
/// (Sec. V-B): builds the amr-thresholded similarity graph over region
/// edges (BuildNeighborRows), forms the unnormalized Laplacian L = D - M,
/// and solves (S + mu1 L + mu2 I) yhat_x = S y_x for each feature column x
/// by block conjugate gradient (SolverOptions defaults). An unlabeled edge
/// whose largest master score stays near zero (disconnected in the
/// similarity graph) gets a null preference.
///
/// `labeled[i]` carries T-edge i's learned preference, nullopt for B-edges
/// (and for T-edges deliberately held out, as in the paper's Fig. 9
/// accuracy protocol).
Result<TransferResult> TransferPreferences(
    const std::vector<RegionEdgeFeatures>& features,
    const std::vector<std::optional<RoutingPreference>>& labeled,
    const PreferenceFeatureSpace& space, const TransferOptions& options = {});

}  // namespace l2r

#endif  // L2R_TRANSFER_TRANSFER_H_
