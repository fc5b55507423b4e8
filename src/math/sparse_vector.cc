#include "math/sparse_vector.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "math/kernels.h"
#include "util/logging.h"

namespace hetps {

SparseVector::SparseVector(std::vector<int64_t> indices,
                           std::vector<double> values)
    : indices_(std::move(indices)), values_(std::move(values)) {
  HETPS_CHECK(indices_.size() == values_.size())
      << "index/value arrays differ in length";
  for (size_t i = 1; i < indices_.size(); ++i) {
    HETPS_CHECK(indices_[i - 1] < indices_[i])
        << "indices must be strictly increasing";
  }
}

SparseVector SparseVector::FromDense(const std::vector<double>& dense,
                                     double epsilon) {
  // Count first, so the fill writes arrays of the final size.
  size_t nnz = 0;
  for (double v : dense) nnz += std::fabs(v) > epsilon;
  return FromDense(dense.data(), dense.size(), nnz, epsilon);
}

SparseVector SparseVector::FromDense(const double* dense, size_t n,
                                     size_t nnz, double epsilon) {
  SparseVector out;
  out.indices_.resize(nnz);
  out.values_.resize(nnz);
  int64_t* indices = out.indices_.data();
  double* values = out.values_.data();
  // Every entry is written to the next free slot, which advances only
  // past a kept one. The fill stops at the last kept entry, so no write
  // lands beyond nnz; the tail is only counted.
  size_t k = 0;
  size_t i = 0;
  for (; i < n && k < nnz; ++i) {
    indices[k] = static_cast<int64_t>(i);
    values[k] = dense[i];
    k += std::fabs(dense[i]) > epsilon;
  }
  for (; i < n; ++i) k += std::fabs(dense[i]) > epsilon;
  HETPS_CHECK(k == nnz) << "FromDense expected " << nnz
                        << " entries above epsilon, found " << k;
  return out;
}

void SparseVector::PushBack(int64_t index, double value) {
  HETPS_CHECK(indices_.empty() || indices_.back() < index)
      << "PushBack indices must be strictly increasing";
  indices_.push_back(index);
  values_.push_back(value);
}

double SparseVector::ValueAt(int64_t index) const {
  auto it = std::lower_bound(indices_.begin(), indices_.end(), index);
  if (it == indices_.end() || *it != index) return 0.0;
  return values_[static_cast<size_t>(it - indices_.begin())];
}

double SparseVector::Dot(const std::vector<double>& dense) const {
  const int64_t dim = static_cast<int64_t>(dense.size());
  // Indices are strictly increasing, so the in-range prefix (indices
  // beyond the dense vector count as zero features) is found with one
  // binary search instead of a per-element branch in the gather loop.
  size_t n = indices_.size();
  if (n > 0 && indices_.back() >= dim) {
    n = static_cast<size_t>(
        std::lower_bound(indices_.begin(), indices_.end(), dim) -
        indices_.begin());
  }
  return kernels::GatherDot(indices_.data(), values_.data(), n,
                            dense.data());
}

void SparseVector::AddTo(std::vector<double>* dense, double scale) const {
  if (indices_.empty()) return;
  const int64_t dim = static_cast<int64_t>(dense->size());
  // Hoisted out of the scatter loop: indices are sorted, so the last one
  // is the maximum — one check covers every element (kept in release
  // builds because the scatter writes memory).
  HETPS_CHECK(indices_.back() < dim)
      << "sparse index " << indices_.back() << " out of dense range "
      << dim;
  HETPS_DCHECK(indices_.front() >= 0) << "negative sparse index";
  kernels::ScatterAxpy(scale, indices_.data(), values_.data(),
                       indices_.size(), dense->data());
}

void SparseVector::Scale(double scale) {
  kernels::Scale(scale, values_.data(), values_.size());
}

double SparseVector::SquaredNorm() const {
  return kernels::SquaredNorm(values_.data(), values_.size());
}

SparseVector SparseVector::Filtered(double epsilon) const {
  SparseVector out;
  for (size_t i = 0; i < indices_.size(); ++i) {
    if (std::fabs(values_[i]) > epsilon) {
      out.PushBack(indices_[i], values_[i]);
    }
  }
  return out;
}

SparseVector SparseVector::Add(const SparseVector& a, const SparseVector& b,
                               double scale_a, double scale_b) {
  SparseVector out;
  size_t i = 0;
  size_t j = 0;
  while (i < a.nnz() && j < b.nnz()) {
    if (a.index(i) < b.index(j)) {
      out.PushBack(a.index(i), scale_a * a.value(i));
      ++i;
    } else if (a.index(i) > b.index(j)) {
      out.PushBack(b.index(j), scale_b * b.value(j));
      ++j;
    } else {
      out.PushBack(a.index(i), scale_a * a.value(i) + scale_b * b.value(j));
      ++i;
      ++j;
    }
  }
  for (; i < a.nnz(); ++i) out.PushBack(a.index(i), scale_a * a.value(i));
  for (; j < b.nnz(); ++j) out.PushBack(b.index(j), scale_b * b.value(j));
  return out;
}

std::string SparseVector::DebugString(size_t max_entries) const {
  std::ostringstream os;
  os << "SparseVector(nnz=" << nnz() << ", {";
  const size_t n = std::min(max_entries, nnz());
  for (size_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << indices_[i] << ":" << values_[i];
  }
  if (n < nnz()) os << ", ...";
  os << "})";
  return os.str();
}

}  // namespace hetps
