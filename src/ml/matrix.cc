#include "ml/matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "ml/kernels.h"

namespace sky::ml {

namespace {

/// Cache-block geometry for the GEMM kernels. The forecasting nets are small
/// (tens of columns), where blocking is a no-op by construction; on larger
/// operands the tiles keep one output block plus the operand panels it needs
/// L1/L2-resident. The block order is a fixed function of the shapes, so
/// results are deterministic — though the rank-4 contractions reassociate
/// sums, so they agree with the naive triple loop to rounding error, not
/// bitwise (see the header docs).
constexpr size_t kBlockRows = 64;
constexpr size_t kBlockInner = 128;

/// Debug-only check behind the no-aliasing contract the __restrict inner
/// loops and the dispatched kernels assume (see the matrix.h docs). Compares
/// through uintptr_t so unrelated allocations are comparable.
inline bool RangesOverlap(const void* a, size_t a_bytes, const void* b,
                          size_t b_bytes) {
  auto lo_a = reinterpret_cast<uintptr_t>(a);
  auto lo_b = reinterpret_cast<uintptr_t>(b);
  return lo_a < lo_b + b_bytes && lo_b < lo_a + a_bytes;
}

}  // namespace

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::RandomHe(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  double stddev = std::sqrt(2.0 / static_cast<double>(cols));
  for (double& v : m.data_) v = rng->Normal(0.0, stddev);
  return m;
}

std::vector<double> Matrix::Row(size_t r) const {
  assert(r < rows_);
  return std::vector<double>(RowPtr(r), RowPtr(r) + cols_);
}

void Matrix::SetRow(size_t r, const std::vector<double>& v) {
  assert(r < rows_ && v.size() == cols_);
  for (size_t c = 0; c < cols_; ++c) At(r, c) = v[c];
}

void Matrix::Resize(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  TransposeInto(&t);
  return t;
}

void Matrix::TransposeInto(Matrix* out) const {
  assert(out != this);
  out->Resize(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) out->At(c, r) = At(r, c);
  }
}

void Matrix::AddScaled(const Matrix& other, double alpha) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  double* __restrict dst = data_.data();
  const double* __restrict src = other.data_.data();
  for (size_t i = 0; i < data_.size(); ++i) dst[i] += alpha * src[i];
}

void Matrix::Fill(double v) {
  for (double& x : data_) x = v;
}

void Matrix::AddOuterProduct(const double* u, const double* v, double alpha) {
  // The no-aliasing contract from the header, enforced in debug builds: the
  // kernels (and the __restrict the scalar oracle carries) assume u/v never
  // overlap this matrix's storage.
  assert(!RangesOverlap(u, rows_ * sizeof(double), data_.data(),
                        data_.size() * sizeof(double)));
  assert(!RangesOverlap(v, cols_ * sizeof(double), data_.data(),
                        data_.size() * sizeof(double)));
  const KernelOps& kernels = ActiveKernels();
  for (size_t r = 0; r < rows_; ++r) {
    double d = alpha * u[r];
    if (d == 0.0) continue;
    kernels.axpy1_f64(d, v, RowPtr(r), cols_);
  }
}

namespace {

/// Shared row-major GEMM: out = a * b (+ bias broadcast over rows). The
/// k-range contraction per output row is a dispatched micro-kernel
/// (ml::KernelOps::gemm_row_f64): four b rows per pass in a fixed
/// association, vector-tiled on AVX2 hosts and bitwise-identical to the
/// scalar oracle either way. i/k blocking keeps the active b panel
/// cache-resident on large operands; the contraction and block order are a
/// fixed function of the shapes, so results are fully deterministic.
void MatMulRowMajorImpl(const Matrix& a, const Matrix& b, const double* bias,
                        Matrix* out) {
  assert(a.cols() == b.rows());
  assert(out != &a && out != &b);
  size_t n = a.rows(), kdim = a.cols(), m = b.cols();
  out->Resize(n, m);
  if (kdim == 0) {
    // The per-row initialization below lives inside the k-block loop, which
    // a 0-deep product never enters — initialize explicitly so a reused out
    // buffer cannot leak stale contents.
    for (size_t i = 0; i < n; ++i) {
      double* __restrict orow = out->RowPtr(i);
      for (size_t j = 0; j < m; ++j) orow[j] = bias == nullptr ? 0.0 : bias[j];
    }
    return;
  }
  const KernelOps& kernels = ActiveKernels();
  for (size_t i0 = 0; i0 < n; i0 += kBlockRows) {
    size_t i1 = std::min(n, i0 + kBlockRows);
    for (size_t k0 = 0; k0 < kdim; k0 += kBlockInner) {
      size_t k1 = std::min(kdim, k0 + kBlockInner);
      for (size_t i = i0; i < i1; ++i) {
        double* __restrict orow = out->RowPtr(i);
        if (k0 == 0) {
          if (bias == nullptr) {
            for (size_t j = 0; j < m; ++j) orow[j] = 0.0;
          } else {
            for (size_t j = 0; j < m; ++j) orow[j] = bias[j];
          }
        }
        kernels.gemm_row_f64(a.RowPtr(i), k0, k1, b.RowPtr(0), m, orow, m);
      }
    }
  }
}

}  // namespace

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  MatMulRowMajorImpl(a, b, nullptr, out);
}

void MatMulBiasInto(const Matrix& a, const Matrix& b,
                    const std::vector<double>& bias, Matrix* out) {
  assert(bias.size() == b.cols());
  MatMulRowMajorImpl(a, b, bias.data(), out);
}

void MatMulTransposedAInto(const Matrix& a, const Matrix& b, Matrix* out) {
  assert(a.rows() == b.rows());
  assert(out != &a && out != &b);
  size_t n = a.rows(), mr = a.cols(), mc = b.cols();
  out->Resize(mr, mc);
  out->Fill(0.0);
  // Rank-4 updates in ascending row (= sample) order: out is the small
  // gradient matrix and stays cache-resident while a and b stream by, and
  // four samples share each pass over an out row. The quad update is the
  // dispatched axpy4 kernel — same fixed association on every backend.
  const KernelOps& kernels = ActiveKernels();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* __restrict u0 = a.RowPtr(i);
    const double* __restrict u1 = a.RowPtr(i + 1);
    const double* __restrict u2 = a.RowPtr(i + 2);
    const double* __restrict u3 = a.RowPtr(i + 3);
    const double* v0 = b.RowPtr(i);
    const double* v1 = b.RowPtr(i + 1);
    const double* v2 = b.RowPtr(i + 2);
    const double* v3 = b.RowPtr(i + 3);
    for (size_t r = 0; r < mr; ++r) {
      kernels.axpy4_f64(u0[r], v0, u1[r], v1, u2[r], v2, u3[r], v3,
                        out->RowPtr(r), mc);
    }
  }
  for (; i < n; ++i) {
    out->AddOuterProduct(a.RowPtr(i), b.RowPtr(i));
  }
}

double L2Distance(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

double L2Norm(const std::vector<double>& a) {
  double s = 0.0;
  for (double v : a) s += v * v;
  return std::sqrt(s);
}

}  // namespace sky::ml
