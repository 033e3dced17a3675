#include "ml/matrix.h"

#include <gtest/gtest.h>

#include <tuple>

#include "support/oracles.h"

namespace sky::ml {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 1.5);
  m.At(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m.At(0, 1), 7.0);
}

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a(2, 2);
  a.At(0, 0) = 1;
  a.At(0, 1) = 2;
  a.At(1, 0) = 3;
  a.At(1, 1) = 4;
  Matrix b(2, 2);
  b.At(0, 0) = 5;
  b.At(0, 1) = 6;
  b.At(1, 0) = 7;
  b.At(1, 1) = 8;
  Matrix c = oracle::MatMul(a, b);
  EXPECT_DOUBLE_EQ(c.At(0, 0), 19);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 22);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 43);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 50);
}

TEST(MatrixTest, Transpose) {
  Matrix m(2, 3);
  m.At(0, 2) = 9.0;
  Matrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t.At(2, 0), 9.0);
}

TEST(MatrixTest, RowRoundTrip) {
  Matrix m(2, 2);
  m.SetRow(1, {3.0, 4.0});
  std::vector<double> row = m.Row(1);
  EXPECT_EQ(row, (std::vector<double>{3.0, 4.0}));
}

TEST(MatrixTest, AddScaledAndFill) {
  Matrix a(1, 2, 1.0);
  Matrix b(1, 2, 2.0);
  a.AddScaled(b, 0.5);
  EXPECT_DOUBLE_EQ(a.At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.At(0, 1), 2.0);
  a.Fill(0.0);
  EXPECT_DOUBLE_EQ(a.At(0, 0), 0.0);
}

TEST(MatrixTest, RandomHeHasExpectedScale) {
  Rng rng(9);
  Matrix m = Matrix::RandomHe(64, 64, &rng);
  double sum = 0.0, sq = 0.0;
  for (double v : m.data()) {
    sum += v;
    sq += v * v;
  }
  double n = static_cast<double>(m.data().size());
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 2.0 / 64.0, 0.01);
}

TEST(MatrixTest, ResizeReusesCapacityAndReshapes) {
  Matrix m(4, 6, 1.0);
  m.Resize(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m.Resize(4, 6);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 6u);
}

TEST(MatrixTest, TransposeIntoMatchesTranspose) {
  Rng rng(11);
  Matrix m = Matrix::RandomHe(7, 5, &rng);
  Matrix t = m.Transpose();
  Matrix t2;
  m.TransposeInto(&t2);
  EXPECT_EQ(t.data(), t2.data());
  EXPECT_EQ(t2.rows(), 5u);
  EXPECT_EQ(t2.cols(), 7u);
}

TEST(MatrixTest, AddOuterProductKnownValues) {
  Matrix m(2, 3, 0.0);
  double u[] = {2.0, 0.0};  // zero row exercises the skip
  double v[] = {1.0, 2.0, 3.0};
  m.AddOuterProduct(u, v, 0.5);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.At(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 0.0);
}

/// The blocked/striped kernels against the naive triple loop, on shapes that
/// cross every block boundary (64-row/col tiles, 128-deep k blocks). The
/// kernels reassociate sums in a fixed order, so comparisons allow rounding
/// slack scaled to the operand magnitudes.
class KernelTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(KernelTest, MatMulIntoMatchesNaive) {
  auto [n, k, m] = GetParam();
  Rng rng(101 + n + k + m);
  Matrix a = Matrix::RandomHe(n, k, &rng);
  Matrix b = Matrix::RandomHe(k, m, &rng);
  Matrix naive = oracle::MatMul(a, b);
  Matrix out;
  MatMulInto(a, b, &out);
  ASSERT_EQ(out.rows(), naive.rows());
  ASSERT_EQ(out.cols(), naive.cols());
  for (size_t i = 0; i < naive.data().size(); ++i) {
    EXPECT_NEAR(out.data()[i], naive.data()[i], 1e-12 * (1.0 + k));
  }
}

TEST_P(KernelTest, MatMulBiasIntoAddsBias) {
  auto [n, k, m] = GetParam();
  Rng rng(211 + n + k + m);
  Matrix a = Matrix::RandomHe(n, k, &rng);
  Matrix b = Matrix::RandomHe(k, m, &rng);
  std::vector<double> bias(m);
  for (double& v : bias) v = rng.Uniform(-1, 1);
  Matrix plain, biased;
  MatMulInto(a, b, &plain);
  MatMulBiasInto(a, b, bias, &biased);
  for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
    for (size_t j = 0; j < static_cast<size_t>(m); ++j) {
      EXPECT_NEAR(biased.At(i, j), plain.At(i, j) + bias[j],
                  1e-12 * (1.0 + k));
    }
  }
}

TEST_P(KernelTest, TransposedAMatchesExplicitTranspose) {
  auto [n, k, m] = GetParam();
  Rng rng(401 + n + k + m);
  Matrix a = Matrix::RandomHe(n, k, &rng);
  Matrix b = Matrix::RandomHe(n, m, &rng);
  Matrix reference = oracle::MatMul(a.Transpose(), b);
  Matrix out;
  MatMulTransposedAInto(a, b, &out);
  ASSERT_EQ(out.rows(), reference.rows());
  ASSERT_EQ(out.cols(), reference.cols());
  for (size_t i = 0; i < reference.data().size(); ++i) {
    EXPECT_NEAR(out.data()[i], reference.data()[i], 1e-12 * (1.0 + n));
  }
}

TEST_P(KernelTest, IntoKernelsAreDeterministic) {
  auto [n, k, m] = GetParam();
  Rng rng(503 + n + k + m);
  Matrix a = Matrix::RandomHe(n, k, &rng);
  Matrix b = Matrix::RandomHe(k, m, &rng);
  Matrix first, second;
  MatMulInto(a, b, &first);
  MatMulInto(a, b, &second);
  EXPECT_EQ(first.data(), second.data());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(8, 24, 16),
                      std::make_tuple(5, 7, 3), std::make_tuple(64, 64, 64),
                      std::make_tuple(70, 150, 90),
                      std::make_tuple(130, 33, 2)));

TEST(VectorOpsTest, Distances) {
  EXPECT_DOUBLE_EQ(L2Distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(L2Norm({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(L2Norm({}), 0.0);
}

}  // namespace
}  // namespace sky::ml
