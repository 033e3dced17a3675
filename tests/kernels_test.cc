// Parity and dispatch tests for the SIMD micro-kernels (src/ml/kernels.h).
//
// The central contract: every f64 kernel of every backend is BITWISE
// identical to the scalar oracle — the vector tiers change wall time, never
// results. That is property-tested here over randomized shapes that land on
// every remainder-lane class (m % 8 and m % 4 from 0 through the tile
// width), with bit-pattern comparison rather than tolerance. The dispatcher
// itself is tested for override/force-scalar behavior and for safe
// concurrent first use.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ml/kernels.h"
#include "ml/matrix.h"
#include "util/rng.h"

namespace sky::ml {
namespace {

/// Bit-pattern equality: distinguishes -0.0/+0.0 and catches any rounding
/// divergence a tolerance would mask.
bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  // Empty vectors may hold null data, which memcmp must not see.
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<double> RandomVec(size_t n, Rng* rng) {
  std::vector<double> v(n);
  // Mixed magnitudes so reassociation errors (if any slipped in) would be
  // visible, plus exact zeros to hit the skip paths.
  for (double& x : v) {
    x = rng->Normal(0.0, 1.0) * std::pow(10.0, rng->Normal(0.0, 2.0));
    if (rng->Bernoulli(0.05)) x = 0.0;
  }
  return v;
}

/// Every non-scalar backend this build + host can run.
std::vector<const KernelOps*> VectorBackends() {
  std::vector<const KernelOps*> out;
  if (const KernelOps* avx2 = Avx2KernelOps()) out.push_back(avx2);
  return out;
}

TEST(KernelsTest, GemmRowMatchesScalarBitwiseAcrossShapes) {
  Rng rng(101);
  const KernelOps* scalar = ScalarKernelOps();
  for (const KernelOps* ops : VectorBackends()) {
    // m sweeps 0..40: covers every remainder class of the 32-, 16- and
    // 4-column AVX2 tiles; k sweeps the quad remainder.
    for (size_t m = 0; m <= 40; ++m) {
      for (size_t kdim : {size_t{1}, size_t{3}, size_t{4}, size_t{7},
                          size_t{16}, size_t{33}}) {
        std::vector<double> a = RandomVec(kdim, &rng);
        std::vector<double> b = RandomVec(kdim * (m + 3), &rng);  // ldb > m
        size_t ldb = m + 3;
        std::vector<double> out_scalar = RandomVec(m, &rng);
        std::vector<double> out_vec = out_scalar;  // same accumulator seed
        scalar->gemm_row_f64(a.data(), 0, kdim, b.data(), ldb,
                             out_scalar.data(), m);
        ops->gemm_row_f64(a.data(), 0, kdim, b.data(), ldb, out_vec.data(), m);
        ASSERT_TRUE(BitEqual(out_scalar, out_vec))
            << KernelBackendName(ops->backend) << " diverged at m=" << m
            << " k=" << kdim;
        // A k-range not starting at 0 (the cache-blocked GEMM calls it that
        // way for every block after the first).
        if (kdim > 2) {
          scalar->gemm_row_f64(a.data(), 2, kdim, b.data(), ldb,
                               out_scalar.data(), m);
          ops->gemm_row_f64(a.data(), 2, kdim, b.data(), ldb, out_vec.data(),
                            m);
          ASSERT_TRUE(BitEqual(out_scalar, out_vec));
        }
      }
    }
  }
}

TEST(KernelsTest, Axpy4MatchesScalarBitwiseAcrossLengths) {
  Rng rng(102);
  const KernelOps* scalar = ScalarKernelOps();
  for (const KernelOps* ops : VectorBackends()) {
    for (size_t m = 0; m <= 20; ++m) {
      std::vector<double> v0 = RandomVec(m, &rng), v1 = RandomVec(m, &rng);
      std::vector<double> v2 = RandomVec(m, &rng), v3 = RandomVec(m, &rng);
      double d0 = rng.Normal(0.0, 1.0), d1 = rng.Normal(0.0, 1.0);
      double d2 = 0.0, d3 = rng.Normal(0.0, 1.0);  // exact-zero coefficient
      std::vector<double> out_scalar = RandomVec(m, &rng);
      std::vector<double> out_vec = out_scalar;
      scalar->axpy4_f64(d0, v0.data(), d1, v1.data(), d2, v2.data(), d3,
                        v3.data(), out_scalar.data(), m);
      ops->axpy4_f64(d0, v0.data(), d1, v1.data(), d2, v2.data(), d3,
                     v3.data(), out_vec.data(), m);
      ASSERT_TRUE(BitEqual(out_scalar, out_vec))
          << KernelBackendName(ops->backend) << " axpy4 diverged at m=" << m;
    }
  }
}

TEST(KernelsTest, Axpy1MatchesScalarBitwiseAcrossLengths) {
  Rng rng(103);
  const KernelOps* scalar = ScalarKernelOps();
  for (const KernelOps* ops : VectorBackends()) {
    for (size_t m = 0; m <= 20; ++m) {
      std::vector<double> v = RandomVec(m, &rng);
      double d = rng.Normal(0.0, 1.0);
      std::vector<double> out_scalar = RandomVec(m, &rng);
      std::vector<double> out_vec = out_scalar;
      scalar->axpy1_f64(d, v.data(), out_scalar.data(), m);
      ops->axpy1_f64(d, v.data(), out_vec.data(), m);
      ASSERT_TRUE(BitEqual(out_scalar, out_vec))
          << KernelBackendName(ops->backend) << " axpy1 diverged at m=" << m;
    }
  }
}

TEST(KernelsTest, NearestCenterMatchesScalarAcrossLanesTiesAndNaN) {
  Rng rng(104);
  const KernelOps* scalar = ScalarKernelOps();
  for (const KernelOps* ops : VectorBackends()) {
    // n sweeps 0..40: every remainder class of the 16- and 4-point steps
    // and the scalar tail.
    for (size_t n = 0; n <= 40; ++n) {
      for (size_t dim : {size_t{1}, size_t{2}, size_t{5}, size_t{8}}) {
        for (size_t k : {size_t{1}, size_t{3}, size_t{6}}) {
          size_t ld = n + 3;  // rows padded past the last point
          std::vector<double> points = RandomVec(dim * ld, &rng);
          std::vector<double> centers = RandomVec(k * dim, &rng);
          // A center repeated exactly: every distance to it ties, and the
          // first copy must win.
          if (k > 1) std::copy_n(centers.begin(), dim, centers.end() - dim);
          // NaN distances: a NaN coordinate poisons one point against
          // every center, and a NaN center poisons every point against it.
          if (n > 0) points[rng.UniformInt(0, dim - 1) * ld +
                            rng.UniformInt(0, n - 1)] = std::nan("");
          if (k > 2) centers[dim] = std::nan("");
          // An infinite coordinate: infinite distances never beat the
          // initial +inf either.
          if (n > 1) points[rng.UniformInt(0, n - 1)] = HUGE_VAL;
          std::vector<size_t> start(n);
          for (size_t& a : start) a = rng.UniformInt(0, k - 1);
          std::vector<size_t> want = start, got = start;
          bool want_changed = scalar->nearest_center_f64(
              points.data(), ld, n, dim, centers.data(), k, want.data());
          bool got_changed = ops->nearest_center_f64(
              points.data(), ld, n, dim, centers.data(), k, got.data());
          ASSERT_EQ(got, want) << KernelBackendName(ops->backend)
                               << " diverged at n=" << n << " dim=" << dim
                               << " k=" << k;
          ASSERT_EQ(got_changed, want_changed);
          // A second pass over its own answer changes nothing.
          ASSERT_FALSE(ops->nearest_center_f64(points.data(), ld, n, dim,
                                               centers.data(), k,
                                               got.data()));
        }
      }
    }
  }
}

TEST(KernelsTest, NearestCenterPicksFirstMinimumAndSkipsNaN) {
  // The oracle's rule, pinned on hand-made points for every backend: one
  // dimension, centers {1, NaN, 1, -1}; point 0 ties centers 0 and 2 and
  // gets 0; point -1 gets 3; a NaN point gets center 0 by default.
  std::vector<const KernelOps*> backends = VectorBackends();
  backends.push_back(ScalarKernelOps());
  const std::vector<double> centers = {1.0, std::nan(""), 1.0, -1.0};
  const std::vector<double> points = {0.0, -1.0, std::nan(""), 3.0, 0.5};
  for (const KernelOps* ops : backends) {
    std::vector<size_t> assign(points.size(), 1);
    EXPECT_TRUE(ops->nearest_center_f64(points.data(), points.size(),
                                        points.size(), 1, centers.data(),
                                        centers.size(), assign.data()));
    EXPECT_EQ(assign, (std::vector<size_t>{0, 3, 0, 0, 0}))
        << KernelBackendName(ops->backend);
  }
}

TEST(KernelsTest, MatMulIntoIdenticalAcrossBackends) {
  // End-to-end through the Matrix entry points: force each backend in turn
  // and require bitwise-identical products (this is the whole-library
  // consequence of the kernel-level contract above).
  Rng rng(105);
  Matrix a(13, 29), b(29, 17);
  for (double& v : a.data()) v = rng.Normal(0.0, 1.0);
  for (double& v : b.data()) v = rng.Normal(0.0, 1.0);
  KernelBackend original = ActiveKernelBackend();
  ASSERT_TRUE(SetKernelBackend(KernelBackend::kScalar).ok());
  Matrix out_scalar, out_scalar_t;
  MatMulInto(a, b, &out_scalar);
  MatMulTransposedAInto(a, a, &out_scalar_t);
  if (Avx2KernelOps() != nullptr) {
    ASSERT_TRUE(SetKernelBackend(KernelBackend::kAvx2).ok());
    Matrix out, out_t;
    MatMulInto(a, b, &out);
    MatMulTransposedAInto(a, a, &out_t);
    EXPECT_TRUE(BitEqual(out_scalar.data(), out.data()));
    EXPECT_TRUE(BitEqual(out_scalar_t.data(), out_t.data()));
  }
  ASSERT_TRUE(SetKernelBackend(original).ok());
}

TEST(KernelsTest, SetKernelBackendOverridesDispatch) {
  KernelBackend original = ActiveKernelBackend();
  ASSERT_TRUE(SetKernelBackend(KernelBackend::kScalar).ok());
  EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kScalar);
  EXPECT_EQ(ActiveKernels().backend, KernelBackend::kScalar);
  ASSERT_TRUE(SetKernelBackend(BestSupportedBackend()).ok());
  EXPECT_EQ(ActiveKernelBackend(), BestSupportedBackend());
  ASSERT_TRUE(SetKernelBackend(original).ok());
}

TEST(KernelsTest, SetKernelBackendRejectsUnsupportedTier) {
  // On a host or build without AVX2 the tier must be rejected.
  if (Avx2KernelOps() == nullptr) {
    EXPECT_FALSE(SetKernelBackend(KernelBackend::kAvx2).ok());
  }
  // Scalar is always available.
  EXPECT_NE(ScalarKernelOps(), nullptr);
}

TEST(KernelsTest, BackendNamesAreStable) {
  EXPECT_EQ(KernelBackendName(KernelBackend::kScalar), "scalar");
  EXPECT_EQ(KernelBackendName(KernelBackend::kAvx2), "avx2");
}

TEST(KernelsTest, ConcurrentFirstUseIsSafe) {
  // Many threads race ActiveKernels() + a kernel call; under TSan this
  // exercises the atomic-publish dispatch initialization. All threads must
  // observe the same table and compute the oracle result.
  constexpr size_t kThreads = 8;
  std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const KernelOps& ops = ActiveKernels();
      std::vector<double> out(v.size(), 1.0);
      ops.axpy1_f64(2.0, v.data(), out.data(), v.size());
      for (size_t i = 0; i < v.size(); ++i) {
        if (out[i] != 1.0 + 2.0 * v[i]) mismatches.fetch_add(1);
      }
      if (ops.backend != ActiveKernelBackend()) mismatches.fetch_add(1);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace sky::ml
