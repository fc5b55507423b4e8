#include "math/kernels.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/logging.h"

// x86 + GCC/Clang get the AVX2/FMA table via per-function target
// attributes (no special compile flags needed); everything else is
// scalar-only. The scalar table is also the portable fallback.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define HETPS_KERNELS_X86 1
#include <immintrin.h>
#else
#define HETPS_KERNELS_X86 0
#endif

// The scalar table must stay genuinely scalar: GCC 12 auto-vectorizes at
// -O2, which would silently turn the "scalar baseline" into an SSE2 one
// and poison the scalar-vs-dispatch speedup measurement. Clang ignores
// the GCC optimize attribute but honors loop pragmas; we only need the
// function attribute on GCC (the CI toolchain).
#if defined(__clang__)
#define HETPS_SCALAR_FN
#elif defined(__GNUC__)
#define HETPS_SCALAR_FN __attribute__((optimize("no-tree-vectorize")))
#else
#define HETPS_SCALAR_FN
#endif

namespace hetps {
namespace kernels {
namespace {

// ---------------------------------------------------------------------
// Scalar reference implementations — sequential accumulation, identical
// expression shapes to the pre-kernel loops so scalar-forced runs are
// bitwise-reproducible against the historical behaviour.
// ---------------------------------------------------------------------

HETPS_SCALAR_FN void AxpyScalar(double a, const double* x, double* y,
                                size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

HETPS_SCALAR_FN double DotScalar(const double* x, const double* y,
                                 size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

HETPS_SCALAR_FN void ScaleScalar(double a, double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= a;
}

HETPS_SCALAR_FN double SquaredNormScalar(const double* x, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += x[i] * x[i];
  return acc;
}

HETPS_SCALAR_FN double SquaredDistanceScalar(const double* x,
                                             const double* y, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = x[i] - y[i];
    acc += d * d;
  }
  return acc;
}

HETPS_SCALAR_FN size_t CountNonZeroScalar(const double* x, size_t n,
                                          size_t* kept) {
  size_t nonzero = 0;
  size_t above = 0;
  for (size_t i = 0; i < n; ++i) {
    nonzero += x[i] != 0.0;
    above += std::fabs(x[i]) > 0.0;
  }
  *kept = above;
  return nonzero;
}

HETPS_SCALAR_FN double GatherDotScalar(const int64_t* idx,
                                       const double* val, size_t nnz,
                                       const double* dense) {
  double acc = 0.0;
  for (size_t i = 0; i < nnz; ++i) {
    acc += val[i] * dense[idx[i]];
  }
  return acc;
}

HETPS_SCALAR_FN void GatherScalar(const int64_t* idx, size_t nnz,
                                  const double* dense, double* out) {
  for (size_t i = 0; i < nnz; ++i) out[i] = dense[idx[i]];
}

HETPS_SCALAR_FN void ScatterAxpyScalar(double a, const int64_t* idx,
                                       const double* val, size_t nnz,
                                       double* dense) {
  for (size_t i = 0; i < nnz; ++i) dense[idx[i]] += a * val[i];
}

#if HETPS_KERNELS_X86

// ---------------------------------------------------------------------
// AVX2 + FMA implementations. Reductions use four independent 256-bit
// accumulators (breaks the add-latency dependency chain; ~4x ILP on top
// of the 4-wide lanes), combined pairwise at the end. Tails fall back to
// the scalar recurrence inside the same function.
// ---------------------------------------------------------------------

__attribute__((target("avx2,fma"))) void AxpyAvx2(double a,
                                                  const double* x,
                                                  double* y, size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i),
                               _mm256_loadu_pd(y + i)));
    _mm256_storeu_pd(
        y + i + 4, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i + 4),
                                   _mm256_loadu_pd(y + i + 4)));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i),
                               _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

__attribute__((target("avx2,fma"))) double DotAvx2(const double* x,
                                                   const double* y,
                                                   size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i),
                           _mm256_loadu_pd(y + i), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 4),
                           _mm256_loadu_pd(y + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 8),
                           _mm256_loadu_pd(y + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 12),
                           _mm256_loadu_pd(y + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i),
                           _mm256_loadu_pd(y + i), acc0);
  }
  acc0 = _mm256_add_pd(_mm256_add_pd(acc0, acc1),
                       _mm256_add_pd(acc2, acc3));
  double lanes[4];
  _mm256_storeu_pd(lanes, acc0);
  double acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

__attribute__((target("avx2,fma"))) void ScaleAvx2(double a, double* x,
                                                   size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(x + i,
                     _mm256_mul_pd(va, _mm256_loadu_pd(x + i)));
    _mm256_storeu_pd(x + i + 4,
                     _mm256_mul_pd(va, _mm256_loadu_pd(x + i + 4)));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i,
                     _mm256_mul_pd(va, _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) x[i] *= a;
}

__attribute__((target("avx2,fma"))) double SquaredNormAvx2(
    const double* x, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256d v0 = _mm256_loadu_pd(x + i);
    const __m256d v1 = _mm256_loadu_pd(x + i + 4);
    const __m256d v2 = _mm256_loadu_pd(x + i + 8);
    const __m256d v3 = _mm256_loadu_pd(x + i + 12);
    acc0 = _mm256_fmadd_pd(v0, v0, acc0);
    acc1 = _mm256_fmadd_pd(v1, v1, acc1);
    acc2 = _mm256_fmadd_pd(v2, v2, acc2);
    acc3 = _mm256_fmadd_pd(v3, v3, acc3);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    acc0 = _mm256_fmadd_pd(v, v, acc0);
  }
  acc0 = _mm256_add_pd(_mm256_add_pd(acc0, acc1),
                       _mm256_add_pd(acc2, acc3));
  double lanes[4];
  _mm256_storeu_pd(lanes, acc0);
  double acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) acc += x[i] * x[i];
  return acc;
}

__attribute__((target("avx2,fma"))) double SquaredDistanceAvx2(
    const double* x, const double* y, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(x + i),
                                     _mm256_loadu_pd(y + i));
    const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(x + i + 4),
                                     _mm256_loadu_pd(y + i + 4));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(x + i),
                                    _mm256_loadu_pd(y + i));
    acc0 = _mm256_fmadd_pd(d, d, acc0);
  }
  acc0 = _mm256_add_pd(acc0, acc1);
  double lanes[4];
  _mm256_storeu_pd(lanes, acc0);
  double acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    acc += d * d;
  }
  return acc;
}

__attribute__((target("avx2,fma"))) size_t CountNonZeroAvx2(
    const double* x, size_t n, size_t* kept) {
  // A true compare lane is all ones (-1 as int64), so subtracting the
  // mask counts it. Unordered not-equal is true for NaN, ordered
  // not-equal false; both are false for +-0.
  const __m256d zero = _mm256_setzero_pd();
  __m256i nonzero0 = _mm256_setzero_si256();
  __m256i nonzero1 = _mm256_setzero_si256();
  __m256i above0 = _mm256_setzero_si256();
  __m256i above1 = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d v0 = _mm256_loadu_pd(x + i);
    const __m256d v1 = _mm256_loadu_pd(x + i + 4);
    nonzero0 = _mm256_sub_epi64(
        nonzero0, _mm256_castpd_si256(_mm256_cmp_pd(v0, zero, _CMP_NEQ_UQ)));
    nonzero1 = _mm256_sub_epi64(
        nonzero1, _mm256_castpd_si256(_mm256_cmp_pd(v1, zero, _CMP_NEQ_UQ)));
    above0 = _mm256_sub_epi64(
        above0, _mm256_castpd_si256(_mm256_cmp_pd(v0, zero, _CMP_NEQ_OQ)));
    above1 = _mm256_sub_epi64(
        above1, _mm256_castpd_si256(_mm256_cmp_pd(v1, zero, _CMP_NEQ_OQ)));
  }
  int64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes),
                      _mm256_add_epi64(nonzero0, nonzero1));
  size_t nonzero = static_cast<size_t>(lanes[0] + lanes[1] + lanes[2] +
                                       lanes[3]);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes),
                      _mm256_add_epi64(above0, above1));
  size_t above = static_cast<size_t>(lanes[0] + lanes[1] + lanes[2] +
                                     lanes[3]);
  for (; i < n; ++i) {
    nonzero += x[i] != 0.0;
    above += std::fabs(x[i]) > 0.0;
  }
  *kept = above;
  return nonzero;
}

__attribute__((target("avx2,fma"))) double GatherDotAvx2(
    const int64_t* idx, const double* val, size_t nnz,
    const double* dense) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= nnz; i += 8) {
    const __m256i vi0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(idx + i));
    const __m256i vi1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(idx + i + 4));
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(val + i),
                           _mm256_i64gather_pd(dense, vi0, 8), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(val + i + 4),
                           _mm256_i64gather_pd(dense, vi1, 8), acc1);
  }
  for (; i + 4 <= nnz; i += 4) {
    const __m256i vi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(idx + i));
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(val + i),
                           _mm256_i64gather_pd(dense, vi, 8), acc0);
  }
  acc0 = _mm256_add_pd(acc0, acc1);
  double lanes[4];
  _mm256_storeu_pd(lanes, acc0);
  double acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < nnz; ++i) acc += val[i] * dense[idx[i]];
  return acc;
}

__attribute__((target("avx2,fma"))) void GatherAvx2(const int64_t* idx,
                                                    size_t nnz,
                                                    const double* dense,
                                                    double* out) {
  size_t i = 0;
  for (; i + 4 <= nnz; i += 4) {
    const __m256i vi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(idx + i));
    _mm256_storeu_pd(out + i, _mm256_i64gather_pd(dense, vi, 8));
  }
  for (; i < nnz; ++i) out[i] = dense[idx[i]];
}

__attribute__((target("avx2,fma"))) void ScatterAxpyAvx2(
    double a, const int64_t* idx, const double* val, size_t nnz,
    double* dense) {
  // AVX2 has gathers but no scatters: load 4 targets with a gather, FMA,
  // then write the lanes back individually. Indices are unique (sorted
  // SparseVector support), so the 4 stores never alias the gather.
  const __m256d va = _mm256_set1_pd(a);
  size_t i = 0;
  double lanes[4];
  for (; i + 4 <= nnz; i += 4) {
    const __m256i vi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(idx + i));
    const __m256d cur = _mm256_i64gather_pd(dense, vi, 8);
    _mm256_storeu_pd(
        lanes, _mm256_fmadd_pd(va, _mm256_loadu_pd(val + i), cur));
    dense[idx[i]] = lanes[0];
    dense[idx[i + 1]] = lanes[1];
    dense[idx[i + 2]] = lanes[2];
    dense[idx[i + 3]] = lanes[3];
  }
  for (; i < nnz; ++i) dense[idx[i]] += a * val[i];
}

#endif  // HETPS_KERNELS_X86

// ---------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------

struct KernelTable {
  void (*axpy)(double, const double*, double*, size_t);
  double (*dot)(const double*, const double*, size_t);
  void (*scale)(double, double*, size_t);
  double (*squared_norm)(const double*, size_t);
  double (*squared_distance)(const double*, const double*, size_t);
  size_t (*count_nonzero)(const double*, size_t, size_t*);
  double (*gather_dot)(const int64_t*, const double*, size_t,
                       const double*);
  void (*gather)(const int64_t*, size_t, const double*, double*);
  void (*scatter_axpy)(double, const int64_t*, const double*, size_t,
                       double*);
};

constexpr KernelTable kScalarTable = {
    AxpyScalar,        DotScalar,          ScaleScalar,
    SquaredNormScalar, SquaredDistanceScalar, CountNonZeroScalar,
    GatherDotScalar,   GatherScalar,       ScatterAxpyScalar,
};

#if HETPS_KERNELS_X86
constexpr KernelTable kAvx2Table = {
    AxpyAvx2,        DotAvx2,          ScaleAvx2,
    SquaredNormAvx2, SquaredDistanceAvx2, CountNonZeroAvx2,
    GatherDotAvx2,   GatherAvx2,       ScatterAxpyAvx2,
};
#endif

const KernelTable* TableFor(KernelIsa isa) {
#if HETPS_KERNELS_X86
  if (isa == KernelIsa::kAvx2) return &kAvx2Table;
#else
  (void)isa;
#endif
  return &kScalarTable;
}

KernelIsa DetectStartupIsa() {
  KernelIsa best =
      CpuSupportsAvx2Fma() ? KernelIsa::kAvx2 : KernelIsa::kScalar;
  const char* force = std::getenv("HETPS_FORCE_ISA");
  if (force == nullptr || force[0] == '\0') return best;
  KernelIsa forced;
  if (!ParseKernelIsa(force, &forced)) {
    HETPS_LOG(Warning) << "HETPS_FORCE_ISA=" << force
                       << " not recognized (want scalar|avx2); using "
                       << KernelIsaName(best);
    return best;
  }
  if (forced == KernelIsa::kAvx2 && !CpuSupportsAvx2Fma()) {
    HETPS_LOG(Warning)
        << "HETPS_FORCE_ISA=avx2 but this CPU/compiler lacks AVX2+FMA; "
           "falling back to scalar kernels";
    return KernelIsa::kScalar;
  }
  return forced;
}

struct Dispatch {
  KernelIsa startup;
  std::atomic<KernelIsa> active;
  std::atomic<const KernelTable*> table;

  Dispatch() : startup(DetectStartupIsa()) {
    active.store(startup, std::memory_order_relaxed);
    table.store(TableFor(startup), std::memory_order_relaxed);
  }
};

Dispatch& D() {
  static Dispatch d;  // resolved once, at first kernel use
  return d;
}

inline const KernelTable& T() {
  return *D().table.load(std::memory_order_relaxed);
}

}  // namespace

const char* KernelIsaName(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return "scalar";
    case KernelIsa::kAvx2:
      return "avx2";
  }
  return "?";
}

bool CpuSupportsAvx2Fma() {
#if HETPS_KERNELS_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

KernelIsa ActiveKernelIsa() {
  return D().active.load(std::memory_order_relaxed);
}

bool ParseKernelIsa(const char* s, KernelIsa* out) {
  if (s == nullptr || out == nullptr) return false;
  if (std::strcmp(s, "scalar") == 0) {
    *out = KernelIsa::kScalar;
    return true;
  }
  if (std::strcmp(s, "avx2") == 0) {
    *out = KernelIsa::kAvx2;
    return true;
  }
  return false;
}

KernelIsa SetKernelIsaForTesting(KernelIsa isa) {
  if (isa == KernelIsa::kAvx2 && !CpuSupportsAvx2Fma()) {
    isa = KernelIsa::kScalar;
  }
  D().active.store(isa, std::memory_order_relaxed);
  D().table.store(TableFor(isa), std::memory_order_relaxed);
  return isa;
}

void ResetKernelIsaForTesting() {
  SetKernelIsaForTesting(D().startup);
}

void Axpy(double a, const double* x, double* y, size_t n) {
  T().axpy(a, x, y, n);
}

double Dot(const double* x, const double* y, size_t n) {
  return T().dot(x, y, n);
}

void Scale(double a, double* x, size_t n) { T().scale(a, x, n); }

double SquaredNorm(const double* x, size_t n) {
  return T().squared_norm(x, n);
}

double SquaredDistance(const double* x, const double* y, size_t n) {
  return T().squared_distance(x, y, n);
}

size_t CountNonZero(const double* x, size_t n, size_t* kept) {
  return T().count_nonzero(x, n, kept);
}

double GatherDot(const int64_t* idx, const double* val, size_t nnz,
                 const double* dense) {
  return T().gather_dot(idx, val, nnz, dense);
}

void Gather(const int64_t* idx, size_t nnz, const double* dense,
            double* out) {
  T().gather(idx, nnz, dense, out);
}

void ScatterAxpy(double a, const int64_t* idx, const double* val,
                 size_t nnz, double* dense) {
  T().scatter_axpy(a, idx, val, nnz, dense);
}

}  // namespace kernels
}  // namespace hetps
