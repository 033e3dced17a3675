#ifndef SKYSCRAPER_ML_KERNELS_H_
#define SKYSCRAPER_ML_KERNELS_H_

#include <cstddef>
#include <string>

#include "util/result.h"

namespace sky::ml {

/// Which micro-kernel implementation backs the primitives below.
/// kScalar is the original loop nest, kept verbatim as the bitwise oracle;
/// the vector tiers are selected at runtime from what the host supports.
enum class KernelBackend {
  kScalar,  ///< portable loops — the reference oracle, always available
  kAvx2,    ///< x86-64 AVX2 (separate mul/add, no FMA)
};

/// The primitives every backend implements: the GEMM row contractions and
/// k-means' nearest-center search. All kernels are REQUIRED to be
/// bitwise-identical to the scalar oracle: they perform the same
/// per-element operation sequence (no FMA contraction, no reassociated
/// reductions — lanes are element-wise, so IEEE rounding matches exactly).
///
/// No kernel allocates, and all pointer arguments must be non-aliasing
/// (the callers in matrix.cc/nn.cc assert this in debug builds).
struct KernelOps {
  KernelBackend backend;

  /// out[j] (+)= sum over a's k-range of a[k] * b[k*ldb + j], j in [0, m).
  /// Contracts k in [k0, k1) in ascending quads-then-singles order with the
  /// fixed association (v0*b0[j] + v1*b1[j]) + (v2*b2[j] + v3*b3[j]) per
  /// quad — the inner two loops of the row-major GEMM. Accumulates into out
  /// (callers initialize out to 0 or the bias before the first k-block).
  void (*gemm_row_f64)(const double* a, size_t k0, size_t k1, const double* b,
                       size_t ldb, double* out, size_t m);

  /// Rank-4 row update: out[j] += (d0*v0[j] + d1*v1[j]) + (d2*v2[j] +
  /// d3*v3[j]) — the sample-quad contraction of MatMulTransposedAInto.
  void (*axpy4_f64)(double d0, const double* v0, double d1, const double* v1,
                    double d2, const double* v2, double d3, const double* v3,
                    double* out, size_t m);

  /// Rank-1 row update: out[j] += d * v[j].
  void (*axpy1_f64)(double d, const double* v, double* out, size_t m);

  /// The k-means assignment step: writes into assign[i] the nearest of the
  /// k centers to point i, for i in [0, n), and returns whether any entry
  /// changed. Point i has coordinate d at points[d * ld + i] (one row per
  /// dimension, so lanes run across points); center c is the `dim` doubles
  /// at centers + c * dim. Each squared distance sums (p - c)^2 over d in
  /// ascending order from 0.0, and the first center whose distance is
  /// smaller by an ordered `<` than every earlier one wins, so a NaN
  /// distance never wins and a point whose distances are all NaN or
  /// infinite gets center 0.
  bool (*nearest_center_f64)(const double* points, size_t ld, size_t n,
                             size_t dim, const double* centers, size_t k,
                             size_t* assign);
};

/// The active kernel table. First use selects the best tier the host
/// supports (honoring SKY_FORCE_SCALAR=1 in the environment); the selection
/// is a single atomic publish, safe under concurrent first calls.
const KernelOps& ActiveKernels();

/// The backend ActiveKernels() currently resolves to.
KernelBackend ActiveKernelBackend();

/// The best tier this host supports (what dispatch picks absent overrides).
KernelBackend BestSupportedBackend();

/// Forces the active backend (e.g. kScalar for an A/B bench or to exercise
/// the oracle). Fails with InvalidArgument when the host or build does not
/// support the tier. Not synchronized against kernels running concurrently
/// on other threads — switch between phases, not mid-computation.
Status SetKernelBackend(KernelBackend backend);

/// Human-readable backend name ("scalar", "avx2") for bench JSON.
std::string KernelBackendName(KernelBackend backend);

/// Implemented by the per-arch TUs; null when the build or host lacks the
/// tier. Internal to the dispatcher and the parity tests.
const KernelOps* ScalarKernelOps();
const KernelOps* Avx2KernelOps();

}  // namespace sky::ml

#endif  // SKYSCRAPER_ML_KERNELS_H_
