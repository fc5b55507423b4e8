#include "math/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace hetps {
namespace kernels {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();

/// Forces one dispatch table for the scope; restores startup selection
/// on exit. Records which table was actually installed (forcing AVX2 on
/// hardware without it falls back to scalar).
class ScopedIsa {
 public:
  explicit ScopedIsa(KernelIsa isa) : installed_(SetKernelIsaForTesting(isa)) {}
  ~ScopedIsa() { ResetKernelIsaForTesting(); }
  KernelIsa installed() const { return installed_; }

 private:
  KernelIsa installed_;
};

/// The ISA levels worth testing on this machine. Scalar always; AVX2
/// when supported (each CI kernels-smoke leg additionally pins
/// HETPS_FORCE_ISA so the startup path is covered too).
std::vector<KernelIsa> TestableIsas() {
  std::vector<KernelIsa> isas = {KernelIsa::kScalar};
  if (CpuSupportsAvx2Fma()) isas.push_back(KernelIsa::kAvx2);
  return isas;
}

/// One ULP at the given magnitude.
double UlpOf(double magnitude) {
  const double m = std::fabs(magnitude);
  if (!std::isfinite(m)) return kDenorm;
  const double up = std::nextafter(m, kInf);
  return up > m ? up - m : kDenorm;
}

/// Reassociated reductions (multi-accumulator SIMD) are not bitwise
/// equal to a sequential sum; their error is bounded by a few ULPs *of
/// the sum of absolute terms* (the condition of the reduction), growing
/// slowly with length. Tolerance: 4 * max(1, n/128) ULP measured at
/// max(|expected|, condition) — tight enough that a real kernel bug
/// (wrong lane, dropped tail, double-applied element) fails by orders
/// of magnitude.
void ExpectParity(double expected, double actual, double condition,
                  size_t n) {
  if (std::isnan(expected)) {
    EXPECT_TRUE(std::isnan(actual));
    return;
  }
  if (std::isinf(expected)) {
    EXPECT_EQ(expected, actual);
    return;
  }
  const double scale =
      std::max({std::fabs(expected), condition, kDenorm});
  const double ulps =
      4.0 * static_cast<double>(std::max<size_t>(1, n / 128));
  EXPECT_NEAR(actual, expected, ulps * UlpOf(scale))
      << "n=" << n << " condition=" << condition;
}

struct Fuzz {
  // Buffers carry one extra leading slot so tests can take data() + 1
  // and exercise deliberately misaligned heads.
  AlignedVector x;
  AlignedVector y;
  std::vector<int64_t> idx;
  std::vector<double> val;
  size_t n = 0;
  size_t nnz = 0;
};

Fuzz MakeFuzz(Rng* rng, size_t n, size_t dense_dim, size_t nnz,
              bool specials) {
  Fuzz f;
  f.n = n;
  f.nnz = nnz;
  const size_t cap = std::max(n, dense_dim) + 1;
  f.x.resize(cap);
  f.y.resize(cap);
  for (size_t i = 0; i < cap; ++i) {
    // Mixed magnitudes: exercise rounding across ~12 decades.
    const double mag = std::pow(10.0, rng->NextDouble(-6.0, 6.0));
    f.x[i] = (rng->NextDouble() - 0.5) * mag;
    f.y[i] = (rng->NextDouble() - 0.5) * mag;
  }
  if (specials && n >= 4) {
    f.x[rng->NextUint64(n)] = kDenorm;
    f.x[rng->NextUint64(n)] = -kDenorm;
    f.y[rng->NextUint64(n)] = kDenorm * 3;
  }
  if (nnz > 0) {
    // Sorted unique indices into [0, dense_dim).
    std::vector<int64_t> pool(dense_dim);
    for (size_t i = 0; i < dense_dim; ++i) {
      pool[i] = static_cast<int64_t>(i);
    }
    for (size_t i = 0; i < nnz; ++i) {
      const size_t j = i + static_cast<size_t>(
                               rng->NextUint64(dense_dim - i));
      std::swap(pool[i], pool[j]);
    }
    f.idx.assign(pool.begin(), pool.begin() + static_cast<int64_t>(nnz));
    std::sort(f.idx.begin(), f.idx.end());
    f.val.resize(nnz);
    for (size_t i = 0; i < nnz; ++i) {
      f.val[i] = (rng->NextDouble() - 0.5) *
                 std::pow(10.0, rng->NextDouble(-4.0, 4.0));
    }
  }
  return f;
}

/// Sizes hitting every tail-handling branch: empty, sub-vector-width,
/// exact widths, width+1, multi-block, odd lengths.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                         31, 32, 33, 63, 64, 100, 127, 128, 129, 1000};

// ---------------------------------------------------------------------
// Dispatch plumbing.
// ---------------------------------------------------------------------

TEST(KernelDispatchTest, ParseKnownNames) {
  KernelIsa isa;
  EXPECT_TRUE(ParseKernelIsa("scalar", &isa));
  EXPECT_EQ(isa, KernelIsa::kScalar);
  EXPECT_TRUE(ParseKernelIsa("avx2", &isa));
  EXPECT_EQ(isa, KernelIsa::kAvx2);
  EXPECT_FALSE(ParseKernelIsa("sse9", &isa));
  EXPECT_FALSE(ParseKernelIsa("", &isa));
}

TEST(KernelDispatchTest, NamesRoundTrip) {
  EXPECT_STREQ(KernelIsaName(KernelIsa::kScalar), "scalar");
  EXPECT_STREQ(KernelIsaName(KernelIsa::kAvx2), "avx2");
}

TEST(KernelDispatchTest, ForcingReportsInstalledTable) {
  {
    ScopedIsa forced(KernelIsa::kScalar);
    EXPECT_EQ(forced.installed(), KernelIsa::kScalar);
    EXPECT_EQ(ActiveKernelIsa(), KernelIsa::kScalar);
  }
  {
    ScopedIsa forced(KernelIsa::kAvx2);
    // Falls back to scalar when the hardware can't run AVX2+FMA.
    const KernelIsa expect = CpuSupportsAvx2Fma() ? KernelIsa::kAvx2
                                                  : KernelIsa::kScalar;
    EXPECT_EQ(forced.installed(), expect);
    EXPECT_EQ(ActiveKernelIsa(), expect);
  }
}

TEST(AlignedAllocatorTest, BuffersAre64ByteAligned) {
  for (size_t n : {1, 7, 100, 4096}) {
    AlignedVector v(n, 1.0);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % kKernelAlignment,
              0u);
  }
}

// ---------------------------------------------------------------------
// Parity: every dispatched table vs. an independent sequential oracle,
// on fuzzed mixed-magnitude inputs with denormals, at aligned and
// deliberately misaligned bases, across tail sizes.
// ---------------------------------------------------------------------

class KernelParityTest : public ::testing::TestWithParam<int> {
 protected:
  /// offset 0 = aligned base, 1 = misaligned by one double.
  size_t offset() const { return static_cast<size_t>(GetParam()); }
};

TEST_P(KernelParityTest, Axpy) {
  Rng rng(101 + GetParam());
  for (KernelIsa isa : TestableIsas()) {
    for (size_t n : kSizes) {
      Fuzz f = MakeFuzz(&rng, n + 1, 0, 0, /*specials=*/true);
      const double a = rng.NextDouble(-2.0, 2.0);
      const double* x = f.x.data() + offset();
      std::vector<double> expect(f.y.begin() + offset(),
                                 f.y.begin() + offset() + n);
      for (size_t i = 0; i < n; ++i) expect[i] += a * x[i];
      ScopedIsa forced(isa);
      Axpy(a, x, f.y.data() + offset(), n);
      for (size_t i = 0; i < n; ++i) {
        // Elementwise FMA contraction: at most 1 ULP per element.
        ExpectParity(expect[i], f.y[offset() + i],
                     std::fabs(a * x[i]), 1);
      }
    }
  }
}

TEST_P(KernelParityTest, Dot) {
  Rng rng(202 + GetParam());
  for (KernelIsa isa : TestableIsas()) {
    for (size_t n : kSizes) {
      Fuzz f = MakeFuzz(&rng, n + 1, 0, 0, /*specials=*/true);
      const double* x = f.x.data() + offset();
      const double* y = f.y.data() + offset();
      double expect = 0.0;
      double condition = 0.0;
      for (size_t i = 0; i < n; ++i) {
        expect += x[i] * y[i];
        condition += std::fabs(x[i] * y[i]);
      }
      ScopedIsa forced(isa);
      ExpectParity(expect, Dot(x, y, n), condition, n);
    }
  }
}

TEST_P(KernelParityTest, Scale) {
  Rng rng(303 + GetParam());
  for (KernelIsa isa : TestableIsas()) {
    for (size_t n : kSizes) {
      Fuzz f = MakeFuzz(&rng, n + 1, 0, 0, /*specials=*/true);
      const double a = rng.NextDouble(-3.0, 3.0);
      std::vector<double> expect(f.x.begin() + offset(),
                                 f.x.begin() + offset() + n);
      for (size_t i = 0; i < n; ++i) expect[i] *= a;
      ScopedIsa forced(isa);
      Scale(a, f.x.data() + offset(), n);
      for (size_t i = 0; i < n; ++i) {
        // Pure multiply: bitwise on every path.
        EXPECT_EQ(expect[i], f.x[offset() + i]) << "i=" << i;
      }
    }
  }
}

TEST_P(KernelParityTest, SquaredNorm) {
  Rng rng(404 + GetParam());
  for (KernelIsa isa : TestableIsas()) {
    for (size_t n : kSizes) {
      Fuzz f = MakeFuzz(&rng, n + 1, 0, 0, /*specials=*/true);
      const double* x = f.x.data() + offset();
      double expect = 0.0;
      for (size_t i = 0; i < n; ++i) expect += x[i] * x[i];
      ScopedIsa forced(isa);
      ExpectParity(expect, SquaredNorm(x, n), expect, n);
    }
  }
}

TEST_P(KernelParityTest, SquaredDistance) {
  Rng rng(505 + GetParam());
  for (KernelIsa isa : TestableIsas()) {
    for (size_t n : kSizes) {
      Fuzz f = MakeFuzz(&rng, n + 1, 0, 0, /*specials=*/true);
      const double* x = f.x.data() + offset();
      const double* y = f.y.data() + offset();
      double expect = 0.0;
      for (size_t i = 0; i < n; ++i) {
        const double d = x[i] - y[i];
        expect += d * d;
      }
      ScopedIsa forced(isa);
      ExpectParity(expect, SquaredDistance(x, y, n), expect, n);
    }
  }
}

TEST_P(KernelParityTest, CountNonZero) {
  // Zeros of both signs, NaN, infinities and denormals at random slots;
  // both counts are exact on every table.
  const double specials[] = {0.0, -0.0, kNan, -kNan, kInf, -kInf,
                             kDenorm, -kDenorm, 1.0};
  Rng rng(606 + GetParam());
  for (KernelIsa isa : TestableIsas()) {
    for (size_t n : kSizes) {
      std::vector<double> buf(n + 1);
      for (double& v : buf) {
        v = rng.NextBernoulli(0.5) ? specials[rng.NextUint64(9)]
                                   : rng.NextDouble() - 0.5;
      }
      const double* x = buf.data() + offset();
      size_t expect_nonzero = 0;
      size_t expect_kept = 0;
      for (size_t i = 0; i < n; ++i) {
        if (x[i] != 0.0) ++expect_nonzero;
        if (std::fabs(x[i]) > 0.0) ++expect_kept;
      }
      ScopedIsa forced(isa);
      size_t kept = 0;
      EXPECT_EQ(CountNonZero(x, n, &kept), expect_nonzero) << "n=" << n;
      EXPECT_EQ(kept, expect_kept) << "n=" << n;
    }
  }
}

TEST_P(KernelParityTest, GatherDot) {
  Rng rng(606 + GetParam());
  constexpr size_t kDim = 512;
  for (KernelIsa isa : TestableIsas()) {
    for (size_t nnz : kSizes) {
      if (nnz > kDim) continue;
      Fuzz f = MakeFuzz(&rng, 0, kDim + 1, nnz, /*specials=*/false);
      const double* dense = f.x.data() + offset();
      double expect = 0.0;
      double condition = 0.0;
      for (size_t i = 0; i < nnz; ++i) {
        expect += f.val[i] * dense[f.idx[i]];
        condition += std::fabs(f.val[i] * dense[f.idx[i]]);
      }
      ScopedIsa forced(isa);
      ExpectParity(expect, GatherDot(f.idx.data(), f.val.data(), nnz,
                                     dense),
                   condition, nnz);
    }
  }
}

TEST_P(KernelParityTest, GatherAndScatterAxpy) {
  Rng rng(707 + GetParam());
  // MakeFuzz draws indices from [0, kSupport); the oracle arrays below
  // must cover the full support, not support-1.
  constexpr size_t kSupport = 513;
  for (KernelIsa isa : TestableIsas()) {
    for (size_t nnz : kSizes) {
      if (nnz > kSupport) continue;
      Fuzz f = MakeFuzz(&rng, 0, kSupport, nnz, /*specials=*/false);
      const double a = rng.NextDouble(-2.0, 2.0);
      double* dense = f.y.data() + offset();

      std::vector<double> gathered(nnz, -1.0);
      std::vector<double> expect_gather(nnz);
      for (size_t i = 0; i < nnz; ++i) {
        expect_gather[i] = dense[f.idx[i]];
      }
      std::vector<double> expect_dense(dense, dense + kSupport);
      // FMA contraction can differ from mul-then-add by up to 1 ULP of
      // the *product*, which under cancellation exceeds any ULP count
      // of the result — so condition on |a*val| + |addend|.
      std::vector<double> condition(kSupport, 0.0);
      for (size_t i = 0; i < nnz; ++i) {
        const size_t j = static_cast<size_t>(f.idx[i]);
        condition[j] = std::fabs(a * f.val[i]) + std::fabs(dense[j]);
        expect_dense[j] += a * f.val[i];
      }

      ScopedIsa forced(isa);
      Gather(f.idx.data(), nnz, dense, gathered.data());
      for (size_t i = 0; i < nnz; ++i) {
        EXPECT_EQ(gathered[i], expect_gather[i]);  // pure moves
      }
      ScatterAxpy(a, f.idx.data(), f.val.data(), nnz, dense);
      for (size_t j = 0; j < kSupport; ++j) {
        ExpectParity(expect_dense[j], dense[j], condition[j], 1);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AlignedAndMisaligned, KernelParityTest,
                         ::testing::Values(0, 1));

// ---------------------------------------------------------------------
// Special values: NaN/inf propagation must agree across tables.
// ---------------------------------------------------------------------

TEST(KernelSpecialsTest, NanPropagatesThroughReductions) {
  for (KernelIsa isa : TestableIsas()) {
    ScopedIsa forced(isa);
    for (size_t pos : {size_t{0}, size_t{7}, size_t{20}}) {
      std::vector<double> x(21, 1.0);
      std::vector<double> y(21, 2.0);
      x[pos] = kNan;
      EXPECT_TRUE(std::isnan(Dot(x.data(), y.data(), x.size())));
      EXPECT_TRUE(std::isnan(SquaredNorm(x.data(), x.size())));
      EXPECT_TRUE(
          std::isnan(SquaredDistance(x.data(), y.data(), x.size())));
    }
  }
}

TEST(KernelSpecialsTest, InfinityProducesInfinity) {
  for (KernelIsa isa : TestableIsas()) {
    ScopedIsa forced(isa);
    std::vector<double> x(33, 1.0);
    std::vector<double> y(33, 1.0);
    x[13] = kInf;
    EXPECT_EQ(Dot(x.data(), y.data(), x.size()), kInf);
    EXPECT_EQ(SquaredNorm(x.data(), x.size()), kInf);
  }
}

TEST(KernelSpecialsTest, EmptyInputsAreNoOps) {
  for (KernelIsa isa : TestableIsas()) {
    ScopedIsa forced(isa);
    EXPECT_EQ(Dot(nullptr, nullptr, 0), 0.0);
    EXPECT_EQ(SquaredNorm(nullptr, 0), 0.0);
    EXPECT_EQ(SquaredDistance(nullptr, nullptr, 0), 0.0);
    size_t kept = 1;
    EXPECT_EQ(CountNonZero(nullptr, 0, &kept), 0u);
    EXPECT_EQ(kept, 0u);
    EXPECT_EQ(GatherDot(nullptr, nullptr, 0, nullptr), 0.0);
    Axpy(2.0, nullptr, nullptr, 0);
    Scale(2.0, nullptr, 0);
    Gather(nullptr, 0, nullptr, nullptr);
    ScatterAxpy(2.0, nullptr, nullptr, 0, nullptr);  // must not crash
  }
}

// ---------------------------------------------------------------------
// Known answers: small hand-computed cases on every table, so a kernel
// and its sequential oracle cannot drift together unnoticed.
// ---------------------------------------------------------------------

TEST(KernelKnownAnswerTest, Axpy) {
  for (KernelIsa isa : TestableIsas()) {
    ScopedIsa forced(isa);
    const std::vector<double> x = {10.0, 20.0, -1.0, 0.5, 4.0};
    std::vector<double> y = {1.0, 2.0, 3.0, 4.0, 5.0};
    Axpy(2.0, x.data(), y.data(), x.size());
    EXPECT_EQ(y, (std::vector<double>{21.0, 42.0, 1.0, 5.0, 13.0}));
  }
}

TEST(KernelKnownAnswerTest, Dot) {
  for (KernelIsa isa : TestableIsas()) {
    ScopedIsa forced(isa);
    const std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
    const std::vector<double> y = {4.0, 5.0, 6.0, -1.0, 2.0};
    EXPECT_EQ(Dot(x.data(), y.data(), 3), 32.0);
    EXPECT_EQ(Dot(x.data(), y.data(), x.size()), 38.0);
  }
}

TEST(KernelKnownAnswerTest, ScaleAndZero) {
  for (KernelIsa isa : TestableIsas()) {
    ScopedIsa forced(isa);
    std::vector<double> x = {1.0, -2.0, 0.5, 8.0, -0.25};
    Scale(-3.0, x.data(), x.size());
    EXPECT_EQ(x, (std::vector<double>{-3.0, 6.0, -1.5, -24.0, 0.75}));
    Scale(0.0, x.data(), x.size());
    for (double v : x) EXPECT_EQ(v, 0.0);
  }
}

TEST(KernelKnownAnswerTest, Norms) {
  for (KernelIsa isa : TestableIsas()) {
    ScopedIsa forced(isa);
    const std::vector<double> x = {3.0, 4.0, 0.0, 12.0, 0.0};
    EXPECT_EQ(SquaredNorm(x.data(), 2), 25.0);
    EXPECT_EQ(std::sqrt(SquaredNorm(x.data(), 2)), 5.0);
    EXPECT_EQ(SquaredNorm(x.data(), x.size()), 169.0);
  }
}

TEST(KernelKnownAnswerTest, SquaredDistance) {
  for (KernelIsa isa : TestableIsas()) {
    ScopedIsa forced(isa);
    const std::vector<double> x = {0.0, 0.0, 1.0, 2.0, -1.0};
    const std::vector<double> y = {3.0, 4.0, 1.0, 2.0, 1.0};
    EXPECT_EQ(SquaredDistance(x.data(), y.data(), 2), 25.0);
    EXPECT_EQ(SquaredDistance(x.data() + 2, y.data() + 2, 2), 0.0);
    EXPECT_EQ(SquaredDistance(x.data(), y.data(), x.size()), 29.0);
  }
}

TEST(KernelKnownAnswerTest, CountNonZero) {
  for (KernelIsa isa : TestableIsas()) {
    ScopedIsa forced(isa);
    // -0.0 == 0.0 counts in neither; NaN != 0.0 counts as nonzero but
    // not as kept (|NaN| > 0 is false).
    const std::vector<double> x = {0.0, 1e-9, 0.5, -0.5, -0.0, kNan};
    size_t kept = 0;
    EXPECT_EQ(CountNonZero(x.data(), 4, &kept), 3u);
    EXPECT_EQ(kept, 3u);
    EXPECT_EQ(CountNonZero(x.data(), x.size(), &kept), 4u);
    EXPECT_EQ(kept, 3u);
  }
}

TEST(KernelKnownAnswerTest, SparseGatherDotAndScatter) {
  for (KernelIsa isa : TestableIsas()) {
    ScopedIsa forced(isa);
    const std::vector<int64_t> idx = {0, 2, 5, 6, 9};
    const std::vector<double> val = {1.0, -2.0, 0.5, 4.0, 3.0};
    std::vector<double> dense = {1.0, 9.0, 2.0, 9.0, 9.0,
                                 8.0, -1.0, 9.0, 9.0, 2.0};
    EXPECT_EQ(GatherDot(idx.data(), val.data(), idx.size(), dense.data()),
              1.0 - 4.0 + 4.0 - 4.0 + 6.0);
    std::vector<double> gathered(idx.size());
    Gather(idx.data(), idx.size(), dense.data(), gathered.data());
    EXPECT_EQ(gathered, (std::vector<double>{1.0, 2.0, 8.0, -1.0, 2.0}));
    ScatterAxpy(2.0, idx.data(), val.data(), idx.size(), dense.data());
    EXPECT_EQ(dense, (std::vector<double>{3.0, 9.0, -2.0, 9.0, 9.0, 9.0,
                                          7.0, 9.0, 9.0, 8.0}));
  }
}

// ---------------------------------------------------------------------
// Cross-table agreement on a large mixed workload: whatever table cpuid
// picked must agree with scalar within the reduction tolerance.
// ---------------------------------------------------------------------

TEST(KernelCrossIsaTest, DispatchedMatchesScalarOnLargeInputs) {
  if (!CpuSupportsAvx2Fma()) {
    GTEST_SKIP() << "no AVX2+FMA on this host";
  }
  Rng rng(33550336);
  constexpr size_t kN = 10000;
  Fuzz f = MakeFuzz(&rng, kN, 0, 0, /*specials=*/true);

  double scalar_dot;
  double scalar_norm;
  {
    ScopedIsa forced(KernelIsa::kScalar);
    scalar_dot = Dot(f.x.data(), f.y.data(), kN);
    scalar_norm = SquaredNorm(f.x.data(), kN);
  }
  double condition = 0.0;
  for (size_t i = 0; i < kN; ++i) {
    condition += std::fabs(f.x[i] * f.y[i]);
  }
  {
    ScopedIsa forced(KernelIsa::kAvx2);
    ExpectParity(scalar_dot, Dot(f.x.data(), f.y.data(), kN), condition,
                 kN);
    ExpectParity(scalar_norm, SquaredNorm(f.x.data(), kN), scalar_norm,
                 kN);
  }
}

}  // namespace
}  // namespace kernels
}  // namespace hetps
