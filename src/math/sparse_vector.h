#ifndef HETPS_MATH_SPARSE_VECTOR_H_
#define HETPS_MATH_SPARSE_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hetps {

/// Sparse vector stored as parallel arrays of strictly increasing indices
/// and their values — the layout Section 6 of the paper describes for
/// sparse training data and sparse parameter updates ("we store the ordered
/// indexes and the corresponding values of non-zero entries").
class SparseVector {
 public:
  SparseVector() = default;

  /// Takes ownership of pre-sorted, duplicate-free index/value arrays.
  /// Check-fails if the invariant is violated.
  SparseVector(std::vector<int64_t> indices, std::vector<double> values);

  /// Builds from a dense vector, dropping entries with |x| <= epsilon.
  static SparseVector FromDense(const std::vector<double>& dense,
                                double epsilon = 0.0);

  /// FromDense over the `n` values at `dense`, of which the caller has
  /// counted `nnz` with |x| > epsilon. Fills arrays of exactly that size
  /// in one branch-free pass; check-fails if the count is wrong.
  static SparseVector FromDense(const double* dense, size_t n, size_t nnz,
                                double epsilon = 0.0);

  /// Appends an entry; index must be greater than the last one.
  void PushBack(int64_t index, double value);

  size_t nnz() const { return indices_.size(); }
  bool empty() const { return indices_.empty(); }

  int64_t index(size_t i) const { return indices_[i]; }
  double value(size_t i) const { return values_[i]; }
  double& mutable_value(size_t i) { return values_[i]; }

  const std::vector<int64_t>& indices() const { return indices_; }
  const std::vector<double>& values() const { return values_; }

  /// Largest index + 1, or 0 when empty.
  int64_t MinimumDimension() const {
    return indices_.empty() ? 0 : indices_.back() + 1;
  }

  /// Binary-search lookup; returns 0.0 for absent indices.
  double ValueAt(int64_t index) const;

  /// Dot product with a dense vector (indices beyond `dense.size()` are
  /// treated as zero features).
  double Dot(const std::vector<double>& dense) const;

  /// dense += scale * this.
  void AddTo(std::vector<double>* dense, double scale = 1.0) const;

  /// Multiplies all values by `scale`.
  void Scale(double scale);

  /// Sum of squared values.
  double SquaredNorm() const;

  /// Returns a copy with entries |x| <= epsilon removed — the paper's
  /// "filter extraordinarily small figures" update optimization (§5.3).
  SparseVector Filtered(double epsilon) const;

  /// Element-wise sum of two sparse vectors (sorted merge).
  static SparseVector Add(const SparseVector& a, const SparseVector& b,
                          double scale_a = 1.0, double scale_b = 1.0);

  /// Approximate heap memory footprint in bytes.
  size_t MemoryBytes() const {
    return indices_.size() * sizeof(int64_t) +
           values_.size() * sizeof(double);
  }

  std::string DebugString(size_t max_entries = 16) const;

  bool operator==(const SparseVector& other) const {
    return indices_ == other.indices_ && values_ == other.values_;
  }

 private:
  std::vector<int64_t> indices_;
  std::vector<double> values_;
};

}  // namespace hetps

#endif  // HETPS_MATH_SPARSE_VECTOR_H_
