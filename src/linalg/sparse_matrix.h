#ifndef L2R_LINALG_SPARSE_MATRIX_H_
#define L2R_LINALG_SPARSE_MATRIX_H_

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace l2r {

/// A coordinate triplet for sparse matrix assembly.
struct Triplet {
  uint32_t row = 0;
  uint32_t col = 0;
  double value = 0;
};

/// Square sparse matrix in CSR form. Duplicate triplets are summed during
/// assembly. Built once, then read-only (the transfer solver's access
/// pattern).
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Assembles an n-by-n matrix from triplets. Triplets already in
  /// (row, col) order skip the sort.
  static SparseMatrix FromTriplets(size_t n, std::vector<Triplet> triplets);

  size_t n() const { return n_; }
  size_t nnz() const { return values_.size(); }

  /// y = A x.
  void Multiply(const std::vector<double>& x, std::vector<double>* y) const;

  /// Element access, O(row nnz); for tests.
  double At(uint32_t row, uint32_t col) const;

  /// Row accessors for iteration.
  struct RowRange {
    const uint32_t* cols;
    const double* values;
    size_t size;
  };
  RowRange Row(uint32_t r) const {
    L2R_DCHECK(r < n_);
    const size_t b = offsets_[r];
    return {cols_.data() + b, values_.data() + b, offsets_[r + 1] - b};
  }

 private:
  size_t n_ = 0;
  std::vector<size_t> offsets_;  // n+1
  std::vector<uint32_t> cols_;
  std::vector<double> values_;
};

}  // namespace l2r

#endif  // L2R_LINALG_SPARSE_MATRIX_H_
