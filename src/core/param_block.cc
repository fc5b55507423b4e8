#include "core/param_block.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "math/kernels.h"
#include "util/logging.h"

namespace hetps {

ParamBlock::ParamBlock(size_t dim, Layout layout)
    : dim_(dim), layout_(layout) {
  if (layout_ == Layout::kDense) {
    dense_.assign(dim_, 0.0);
  }
}

void ParamBlock::Add(const SparseVector& delta, double scale) {
  if (delta.empty()) return;
  // Indices are strictly increasing, so front/back bound them all — one
  // check instead of one per element in the scatter loop.
  HETPS_CHECK(delta.index(0) >= 0 &&
              delta.index(delta.nnz() - 1) <
                  static_cast<int64_t>(dim_))
      << "delta index out of block range " << dim_;
  if (layout_ == Layout::kDense) {
    kernels::ScatterAxpy(scale, delta.indices().data(),
                         delta.values().data(), delta.nnz(),
                         dense_.data());
    return;
  }
  for (size_t i = 0; i < delta.nnz(); ++i) {
    sparse_[delta.index(i)] += scale * delta.value(i);
  }
}

void ParamBlock::Gather(const int64_t* indices, size_t n,
                        double* out) const {
  if (n == 0) return;
  HETPS_DCHECK(indices[0] >= 0 &&
               indices[n - 1] < static_cast<int64_t>(dim_))
      << "gather index out of block range";
  if (layout_ == Layout::kDense) {
    kernels::Gather(indices, n, dense_.data(), out);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    auto it = sparse_.find(indices[i]);
    out[i] = it == sparse_.end() ? 0.0 : it->second;
  }
}

void ParamBlock::AddBlock(const ParamBlock& other, double scale) {
  HETPS_CHECK(other.dim_ == dim_) << "AddBlock dim mismatch";
  if (other.layout_ == Layout::kDense) {
    AddDense(other.dense_, scale);
    return;
  }
  for (const auto& [idx, v] : other.sparse_) {
    if (layout_ == Layout::kDense) {
      dense_[static_cast<size_t>(idx)] += scale * v;
    } else {
      sparse_[idx] += scale * v;
    }
  }
}

void ParamBlock::AddDense(const std::vector<double>& dense, double scale) {
  HETPS_CHECK(dense.size() == dim_) << "AddDense dim mismatch";
  if (layout_ == Layout::kDense) {
    kernels::Axpy(scale, dense.data(), dense_.data(), dim_);
  } else {
    for (size_t i = 0; i < dim_; ++i) {
      const double v = scale * dense[i];
      if (v != 0.0) sparse_[static_cast<int64_t>(i)] += v;
    }
  }
}

void ParamBlock::Scale(double scale) {
  if (layout_ == Layout::kDense) {
    kernels::Scale(scale, dense_.data(), dense_.size());
  } else {
    for (auto& kv : sparse_) kv.second *= scale;
  }
}

double ParamBlock::At(size_t i) const {
  HETPS_CHECK(i < dim_) << "At index out of range";
  if (layout_ == Layout::kDense) return dense_[i];
  auto it = sparse_.find(static_cast<int64_t>(i));
  return it == sparse_.end() ? 0.0 : it->second;
}

void ParamBlock::Set(size_t i, double value) {
  HETPS_CHECK(i < dim_) << "Set index out of range";
  if (layout_ == Layout::kDense) {
    dense_[i] = value;
  } else if (value == 0.0) {
    sparse_.erase(static_cast<int64_t>(i));
  } else {
    sparse_[static_cast<int64_t>(i)] = value;
  }
}

void ParamBlock::Clear() {
  if (layout_ == Layout::kDense) {
    dense_.assign(dim_, 0.0);
  } else {
    sparse_.clear();
  }
}

size_t ParamBlock::CountNonZero(double epsilon) const {
  size_t n = 0;
  if (layout_ == Layout::kDense) {
    for (double v : dense_) n += std::fabs(v) > epsilon;
  } else {
    for (const auto& kv : sparse_) {
      if (std::fabs(kv.second) > epsilon) ++n;
    }
  }
  return n;
}

bool ParamBlock::CompactLayout() {
  const size_t nnz = CountNonZero();
  const bool want_sparse =
      static_cast<double>(nnz) <
      kSparsityThreshold * static_cast<double>(dim_);
  if (want_sparse && layout_ == Layout::kDense) {
    ToSparseLayout();
    return true;
  }
  if (!want_sparse && layout_ == Layout::kSparse) {
    ToDenseLayout();
    return true;
  }
  return false;
}

void ParamBlock::ForceLayout(Layout layout) {
  if (layout == layout_) return;
  if (layout == Layout::kDense) {
    ToDenseLayout();
  } else {
    ToSparseLayout();
  }
}

size_t ParamBlock::DropSmallEntries(double epsilon) {
  size_t dropped = 0;
  if (layout_ == Layout::kDense) {
    for (double& v : dense_) {
      if (v != 0.0 && std::fabs(v) <= epsilon) {
        v = 0.0;
        ++dropped;
      }
    }
  } else {
    for (auto it = sparse_.begin(); it != sparse_.end();) {
      if (std::fabs(it->second) <= epsilon) {
        it = sparse_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  return dropped;
}

std::vector<double> ParamBlock::ToDense() const {
  if (layout_ == Layout::kDense) return dense_;
  std::vector<double> out(dim_, 0.0);
  for (const auto& [idx, v] : sparse_) {
    out[static_cast<size_t>(idx)] = v;
  }
  return out;
}

void ParamBlock::AddTo(std::vector<double>* out, double scale) const {
  HETPS_CHECK(out->size() == dim_) << "AddTo dim mismatch";
  if (layout_ == Layout::kDense) {
    kernels::Axpy(scale, dense_.data(), out->data(), dim_);
  } else {
    for (const auto& [idx, v] : sparse_) {
      (*out)[static_cast<size_t>(idx)] += scale * v;
    }
  }
}

SparseVector ParamBlock::ToSparse(double epsilon) const {
  if (layout_ == Layout::kDense) {
    return SparseVector::FromDense(dense_, epsilon);
  }
  std::vector<int64_t> indices;
  indices.reserve(sparse_.size());
  for (const auto& [idx, v] : sparse_) {
    if (std::fabs(v) > epsilon) indices.push_back(idx);
  }
  std::sort(indices.begin(), indices.end());
  SparseVector out;
  for (int64_t idx : indices) out.PushBack(idx, sparse_.at(idx));
  return out;
}

double ParamBlock::SquaredNorm() const {
  if (layout_ == Layout::kDense) {
    return kernels::SquaredNorm(dense_.data(), dense_.size());
  }
  double acc = 0.0;
  for (const auto& kv : sparse_) acc += kv.second * kv.second;
  return acc;
}

size_t ParamBlock::MemoryBytes() const {
  if (layout_ == Layout::kDense) {
    return dense_.size() * sizeof(double);
  }
  // Hash map entry: key + value + bucket overhead (approximate).
  return sparse_.size() * (sizeof(int64_t) + sizeof(double) + 8);
}

std::string ParamBlock::DebugString() const {
  std::ostringstream os;
  os << "ParamBlock(dim=" << dim_ << ", layout="
     << (is_sparse() ? "sparse" : "dense") << ", nnz=" << CountNonZero()
     << ")";
  return os.str();
}

void ParamBlock::ToDenseLayout() {
  dense_ = ToDense();
  sparse_.clear();
  layout_ = Layout::kDense;
}

void ParamBlock::ToSparseLayout() {
  sparse_.clear();
  if (layout_ == Layout::kDense) {
    for (size_t i = 0; i < dim_; ++i) {
      if (dense_[i] != 0.0) sparse_[static_cast<int64_t>(i)] = dense_[i];
    }
  }
  dense_.clear();
  dense_.shrink_to_fit();
  layout_ = Layout::kSparse;
}

}  // namespace hetps
