#include "linalg/sparse_matrix.h"

#include <algorithm>

namespace l2r {

SparseMatrix SparseMatrix::FromTriplets(size_t n,
                                        std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    L2R_CHECK(t.row < n && t.col < n);
  }
  auto before = [](const Triplet& a, const Triplet& b) {
    return a.row < b.row || (a.row == b.row && a.col < b.col);
  };
  if (!std::is_sorted(triplets.begin(), triplets.end(), before)) {
    std::sort(triplets.begin(), triplets.end(), before);
  }

  SparseMatrix m;
  m.n_ = n;
  m.offsets_.assign(n + 1, 0);
  m.cols_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  for (size_t i = 0; i < triplets.size();) {
    size_t j = i;
    double sum = 0;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    m.cols_.push_back(triplets[i].col);
    m.values_.push_back(sum);
    ++m.offsets_[triplets[i].row + 1];
    i = j;
  }
  for (size_t r = 0; r < n; ++r) m.offsets_[r + 1] += m.offsets_[r];
  return m;
}

void SparseMatrix::Multiply(const std::vector<double>& x,
                            std::vector<double>* y) const {
  L2R_CHECK(x.size() == n_);
  y->assign(n_, 0);
  for (size_t r = 0; r < n_; ++r) {
    double acc = 0;
    for (size_t i = offsets_[r]; i < offsets_[r + 1]; ++i) {
      acc += values_[i] * x[cols_[i]];
    }
    (*y)[r] = acc;
  }
}

double SparseMatrix::At(uint32_t row, uint32_t col) const {
  L2R_DCHECK(row < n_ && col < n_);
  for (size_t i = offsets_[row]; i < offsets_[row + 1]; ++i) {
    if (cols_[i] == col) return values_[i];
  }
  return 0;
}

}  // namespace l2r
