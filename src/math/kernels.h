#ifndef HETPS_MATH_KERNELS_H_
#define HETPS_MATH_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace hetps {
namespace kernels {

/// Runtime-dispatched BLAS-1-style kernel library — the compute floor of
/// every hot path (worker SGD inner loop, shard consolidation, replica
/// delta application, dense pull assembly).
///
/// Design (DESIGN.md §9 "Compute kernels & dispatch"):
///   * One implementation table per ISA level. The scalar table is the
///     reference semantics: plain sequential loops, compiled with
///     auto-vectorization disabled so "forced scalar" really measures
///     scalar code and stays bitwise-reproducible across builds.
///   * The AVX2 table uses 256-bit FMA with multi-accumulator reductions.
///     Reductions therefore reassociate: results differ from scalar by a
///     few ULPs (condition-scaled; see tests/math/kernels_test.cc), never
///     more. Elementwise kernels differ by at most 1 ULP (FMA contraction).
///   * The active table is chosen once, at first use, from cpuid — and can
///     be overridden with the environment variable
///         HETPS_FORCE_ISA=scalar|avx2
///     (unsupported forcings fall back to scalar with a warning), or
///     programmatically with SetKernelIsaForTesting().
///
/// Contract: raw-pointer kernels do not validate sizes or indices in
/// release builds — callers own the bounds (hoisted O(1) checks live at
/// the call sites; see sparse_vector.cc). Sparse index
/// arrays must contain in-range indices; ScatterAxpy additionally assumes
/// indices are unique (SparseVector's strictly-increasing invariant).
enum class KernelIsa : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// Human-readable name ("scalar", "avx2") — used by the
/// `compute.kernel_isa` info gauge and bench output.
const char* KernelIsaName(KernelIsa isa);

/// True when the CPU (and compiler) support the AVX2+FMA paths.
bool CpuSupportsAvx2Fma();

/// The ISA level the dispatcher resolved at startup (cpuid +
/// HETPS_FORCE_ISA), or the last SetKernelIsaForTesting() override.
KernelIsa ActiveKernelIsa();

/// Parses a HETPS_FORCE_ISA value; returns false for unknown strings.
/// Exposed so tests can cover the env parsing without re-execing.
bool ParseKernelIsa(const char* s, KernelIsa* out);

/// Forces the dispatch table for tests/benchmarks. Forcing kAvx2 on a
/// machine without AVX2 support is a no-op fallback to scalar (returns
/// the ISA actually installed). Not thread-safe against concurrent
/// kernel calls — call at a quiescent point.
KernelIsa SetKernelIsaForTesting(KernelIsa isa);

/// Restores the startup (cpuid + env) selection.
void ResetKernelIsaForTesting();

// ---------------------------------------------------------------------
// Dense kernels. x/y point to n doubles; no alignment requirement
// (aligned inputs are faster; see AlignedVector below).
// ---------------------------------------------------------------------

/// y[i] += a * x[i]
void Axpy(double a, const double* x, double* y, size_t n);

/// sum_i x[i] * y[i]
double Dot(const double* x, const double* y, size_t n);

/// x[i] *= a
void Scale(double a, double* x, size_t n);

/// sum_i x[i]^2
double SquaredNorm(const double* x, size_t n);

/// sum_i (x[i] - y[i])^2
double SquaredDistance(const double* x, const double* y, size_t n);

/// Number of x[i] != 0.0 (NaN counts); `*kept` receives the number with
/// |x[i]| > 0 (NaN does not). Counts are exact on every table.
size_t CountNonZero(const double* x, size_t n, size_t* kept);

// ---------------------------------------------------------------------
// Sparse kernels. idx/val hold nnz entries; every idx[i] must be a valid
// offset into the dense operand (callers hoist the O(1) range check —
// indices are sorted, so checking front/back suffices).
// ---------------------------------------------------------------------

/// sum_i val[i] * dense[idx[i]]  (sparse·dense gather-dot)
double GatherDot(const int64_t* idx, const double* val, size_t nnz,
                 const double* dense);

/// out[i] = dense[idx[i]]  (bulk gather; delta-log snapshots)
void Gather(const int64_t* idx, size_t nnz, const double* dense,
            double* out);

/// dense[idx[i]] += a * val[i]  (sparse scatter-axpy; idx unique)
void ScatterAxpy(double a, const int64_t* idx, const double* val,
                 size_t nnz, double* dense);

// ---------------------------------------------------------------------
// Aligned allocation helper for dense parameter/gradient buffers.
// ---------------------------------------------------------------------

/// Cache-line/AVX-512-friendly alignment for dense compute buffers.
inline constexpr size_t kKernelAlignment = 64;

/// Minimal aligned allocator so hot dense buffers (worker replicas,
/// gradient accumulators) start on a 64-byte boundary — vector loads
/// then split cache lines only at the tail.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t(kKernelAlignment)));
  }
  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t(kKernelAlignment));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

/// Dense double buffer with kKernelAlignment-aligned storage. Drop-in
/// for std::vector<double> in code that owns its buffers; APIs that
/// exchange std::vector<double> across modules keep the std allocator
/// (the kernels accept unaligned pointers).
using AlignedVector = std::vector<double, AlignedAllocator<double>>;

}  // namespace kernels
}  // namespace hetps

#endif  // HETPS_MATH_KERNELS_H_
