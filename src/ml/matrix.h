#ifndef SKYSCRAPER_ML_MATRIX_H_
#define SKYSCRAPER_ML_MATRIX_H_

#include <cstddef>
#include <vector>

#include "util/rng.h"

namespace sky::ml {

/// Dense row-major matrix of doubles. Deliberately small: just the operations
/// the forecasting network, KMeans and the LP solver need. Bounds are checked
/// with assert in debug builds only.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0);

  /// He-style initialization, scaled by sqrt(2 / fan_in): suits ReLU layers.
  static Matrix RandomHe(size_t rows, size_t cols, Rng* rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  double* RowPtr(size_t r) { return data_.data() + r * cols_; }
  const double* RowPtr(size_t r) const { return data_.data() + r * cols_; }

  std::vector<double> Row(size_t r) const;
  void SetRow(size_t r, const std::vector<double>& v);

  /// Reshapes to rows x cols, reusing the existing capacity (no allocation
  /// when the new element count fits). Contents are unspecified afterwards —
  /// the workspace-reuse primitive behind the allocation-free ML paths.
  void Resize(size_t rows, size_t cols);

  Matrix Transpose() const;
  /// Transpose into a caller-owned buffer (resized, reusing capacity).
  void TransposeInto(Matrix* out) const;

  /// this += alpha * other (element-wise; shapes must match).
  void AddScaled(const Matrix& other, double alpha);
  void Fill(double v);

  /// Rank-1 update: this(r, c) += alpha * u[r] * v[c], with u of length
  /// rows() and v of length cols(). Rows whose alpha * u[r] is exactly zero
  /// are skipped — the same shortcut the per-sample reference trainer's
  /// backprop loops take (tests/support), so batched gradient accumulation
  /// stays bitwise-comparable to them.
  ///
  /// Contract: u and v must NOT alias this matrix's storage (the dispatched
  /// kernels and the __restrict inner loops assume it; debug builds assert).
  /// Every current caller accumulates activations into a separate gradient
  /// matrix, so the contract is free — it is stated so it stays true.
  void AddOuterProduct(const double* u, const double* v, double alpha = 1.0);

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// out = a * b, cache-blocked, written into the caller-owned buffer (resized
/// to a.rows() x b.cols(), reusing capacity). Inner products contract four k
/// terms per output-row pass (quartering the out-row memory traffic); the
/// contraction order is a fixed function of the shape, so results are
/// deterministic — run-to-run and thread-count-proof — though rounded
/// differently than a strictly sequential sum.
///
/// The k-contraction runs on the dispatched vector micro-kernels
/// (ml/kernels.h: AVX2 when the host has it, scalar oracle
/// otherwise); every backend is bitwise-identical, so the choice never
/// changes results, only wall time. `out` must not alias a or b (asserted),
/// and a/b/out must be distinct allocations — the kernels' pointer
/// arguments carry a no-aliasing contract.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out);

/// Fused affine map: out = a * b + bias, with bias (b.cols() entries)
/// broadcast over the rows of out — one pass for the batched layer forward
/// "x W^T + b" when b holds the transposed weights.
void MatMulBiasInto(const Matrix& a, const Matrix& b,
                    const std::vector<double>& bias, Matrix* out);

/// out = a^T * b, accumulated as rank-4 row updates in ascending row
/// (= sample) order — the batched gradient contraction grad = delta^T *
/// activations. out is resized to a.cols() x b.cols() and overwritten.
void MatMulTransposedAInto(const Matrix& a, const Matrix& b, Matrix* out);

/// Euclidean distance between two equally sized vectors.
double L2Distance(const std::vector<double>& a, const std::vector<double>& b);

/// Euclidean norm.
double L2Norm(const std::vector<double>& a);

}  // namespace sky::ml

#endif  // SKYSCRAPER_ML_MATRIX_H_
