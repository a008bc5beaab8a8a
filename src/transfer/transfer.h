#ifndef L2R_TRANSFER_TRANSFER_H_
#define L2R_TRANSFER_TRANSFER_H_

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
  bool all_converged = true;
};

/// Graph-based transduction of routing preferences from T-edges to B-edges
/// (Sec. V-B): builds the amr-thresholded similarity graph over region
/// edges, forms the unnormalized Laplacian L = D - M, and solves
/// (S + mu1 L + mu2 I) yhat_x = S y_x for each feature column x by
/// conjugate gradient (SolverOptions defaults). An unlabeled edge whose
/// largest master score stays near zero (disconnected in the similarity
/// graph) gets a null preference.
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
