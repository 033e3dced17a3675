// AVX2 micro-kernels. This TU is the only one compiled with -mavx2
// (plus -ffp-contract=off so the compiler cannot fuse the f64 mul/add pairs
// into FMAs behind our back — contraction would change rounding and break
// the bitwise-oracle contract). Everything else in the build stays at the
// baseline ISA; callers reach these kernels only through the runtime
// dispatch in kernels.cc, which checks CPUID first.
//
// Vector lanes perform exactly the scalar oracle's per-element
// operation sequence — separate IEEE mul and add in the same association —
// so results are bitwise-identical to ScalarKernelOps() (property-tested in
// tests/kernels_test.cc). The win comes from 4-wide lanes and from keeping
// the output tile in registers across the whole k range instead of a
// load/store round trip per rank-4 quad.

#include "ml/kernels.h"

#if defined(__AVX2__) && (defined(__x86_64__) || defined(_M_X64))

#include <immintrin.h>

namespace sky::ml {

namespace {

/// One rank-4 quad's contribution for 4 output columns, in the oracle's
/// association: (v0*b0 + v1*b1) + (v2*b2 + v3*b3).
inline __m256d QuadTerm(__m256d v0, const double* b0, __m256d v1,
                        const double* b1, __m256d v2, const double* b2,
                        __m256d v3, const double* b3) {
  return _mm256_add_pd(
      _mm256_add_pd(_mm256_mul_pd(v0, _mm256_loadu_pd(b0)),
                    _mm256_mul_pd(v1, _mm256_loadu_pd(b1))),
      _mm256_add_pd(_mm256_mul_pd(v2, _mm256_loadu_pd(b2)),
                    _mm256_mul_pd(v3, _mm256_loadu_pd(b3))));
}

void Avx2GemmRowF64(const double* a, size_t k0, size_t k1, const double* b,
                    size_t ldb, double* out, size_t m) {
  size_t j = 0;
  // 32-column register tile: eight accumulators stay in ymm registers
  // across the entire k range (the scalar loop nest re-loads and re-stores
  // the output row once per quad — the main memory-traffic difference), and
  // the wide tile amortizes the a[k] broadcasts and loop control over more
  // columns, which is what keeps the quad loop near the two-FP-port issue
  // ceiling that separate mul/add (no FMA — bitwise contract) allows.
  for (; j + 32 <= m; j += 32) {
    __m256d acc0 = _mm256_loadu_pd(out + j);
    __m256d acc1 = _mm256_loadu_pd(out + j + 4);
    __m256d acc2 = _mm256_loadu_pd(out + j + 8);
    __m256d acc3 = _mm256_loadu_pd(out + j + 12);
    __m256d acc4 = _mm256_loadu_pd(out + j + 16);
    __m256d acc5 = _mm256_loadu_pd(out + j + 20);
    __m256d acc6 = _mm256_loadu_pd(out + j + 24);
    __m256d acc7 = _mm256_loadu_pd(out + j + 28);
    size_t k = k0;
    for (; k + 4 <= k1; k += 4) {
      __m256d v0 = _mm256_set1_pd(a[k]);
      __m256d v1 = _mm256_set1_pd(a[k + 1]);
      __m256d v2 = _mm256_set1_pd(a[k + 2]);
      __m256d v3 = _mm256_set1_pd(a[k + 3]);
      const double* b0 = b + k * ldb + j;
      const double* b1 = b + (k + 1) * ldb + j;
      const double* b2 = b + (k + 2) * ldb + j;
      const double* b3 = b + (k + 3) * ldb + j;
      acc0 = _mm256_add_pd(acc0, QuadTerm(v0, b0, v1, b1, v2, b2, v3, b3));
      acc1 = _mm256_add_pd(
          acc1, QuadTerm(v0, b0 + 4, v1, b1 + 4, v2, b2 + 4, v3, b3 + 4));
      acc2 = _mm256_add_pd(
          acc2, QuadTerm(v0, b0 + 8, v1, b1 + 8, v2, b2 + 8, v3, b3 + 8));
      acc3 = _mm256_add_pd(
          acc3, QuadTerm(v0, b0 + 12, v1, b1 + 12, v2, b2 + 12, v3, b3 + 12));
      acc4 = _mm256_add_pd(
          acc4, QuadTerm(v0, b0 + 16, v1, b1 + 16, v2, b2 + 16, v3, b3 + 16));
      acc5 = _mm256_add_pd(
          acc5, QuadTerm(v0, b0 + 20, v1, b1 + 20, v2, b2 + 20, v3, b3 + 20));
      acc6 = _mm256_add_pd(
          acc6, QuadTerm(v0, b0 + 24, v1, b1 + 24, v2, b2 + 24, v3, b3 + 24));
      acc7 = _mm256_add_pd(
          acc7, QuadTerm(v0, b0 + 28, v1, b1 + 28, v2, b2 + 28, v3, b3 + 28));
    }
    for (; k < k1; ++k) {
      __m256d v = _mm256_set1_pd(a[k]);
      const double* brow = b + k * ldb + j;
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(v, _mm256_loadu_pd(brow)));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(v, _mm256_loadu_pd(brow + 4)));
      acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(v, _mm256_loadu_pd(brow + 8)));
      acc3 =
          _mm256_add_pd(acc3, _mm256_mul_pd(v, _mm256_loadu_pd(brow + 12)));
      acc4 =
          _mm256_add_pd(acc4, _mm256_mul_pd(v, _mm256_loadu_pd(brow + 16)));
      acc5 =
          _mm256_add_pd(acc5, _mm256_mul_pd(v, _mm256_loadu_pd(brow + 20)));
      acc6 =
          _mm256_add_pd(acc6, _mm256_mul_pd(v, _mm256_loadu_pd(brow + 24)));
      acc7 =
          _mm256_add_pd(acc7, _mm256_mul_pd(v, _mm256_loadu_pd(brow + 28)));
    }
    _mm256_storeu_pd(out + j, acc0);
    _mm256_storeu_pd(out + j + 4, acc1);
    _mm256_storeu_pd(out + j + 8, acc2);
    _mm256_storeu_pd(out + j + 12, acc3);
    _mm256_storeu_pd(out + j + 16, acc4);
    _mm256_storeu_pd(out + j + 20, acc5);
    _mm256_storeu_pd(out + j + 24, acc6);
    _mm256_storeu_pd(out + j + 28, acc7);
  }
  for (; j + 16 <= m; j += 16) {
    __m256d acc0 = _mm256_loadu_pd(out + j);
    __m256d acc1 = _mm256_loadu_pd(out + j + 4);
    __m256d acc2 = _mm256_loadu_pd(out + j + 8);
    __m256d acc3 = _mm256_loadu_pd(out + j + 12);
    size_t k = k0;
    for (; k + 4 <= k1; k += 4) {
      __m256d v0 = _mm256_set1_pd(a[k]);
      __m256d v1 = _mm256_set1_pd(a[k + 1]);
      __m256d v2 = _mm256_set1_pd(a[k + 2]);
      __m256d v3 = _mm256_set1_pd(a[k + 3]);
      const double* b0 = b + k * ldb + j;
      const double* b1 = b + (k + 1) * ldb + j;
      const double* b2 = b + (k + 2) * ldb + j;
      const double* b3 = b + (k + 3) * ldb + j;
      acc0 = _mm256_add_pd(acc0, QuadTerm(v0, b0, v1, b1, v2, b2, v3, b3));
      acc1 = _mm256_add_pd(
          acc1, QuadTerm(v0, b0 + 4, v1, b1 + 4, v2, b2 + 4, v3, b3 + 4));
      acc2 = _mm256_add_pd(
          acc2, QuadTerm(v0, b0 + 8, v1, b1 + 8, v2, b2 + 8, v3, b3 + 8));
      acc3 = _mm256_add_pd(
          acc3, QuadTerm(v0, b0 + 12, v1, b1 + 12, v2, b2 + 12, v3, b3 + 12));
    }
    for (; k < k1; ++k) {
      __m256d v = _mm256_set1_pd(a[k]);
      const double* brow = b + k * ldb + j;
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(v, _mm256_loadu_pd(brow)));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(v, _mm256_loadu_pd(brow + 4)));
      acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(v, _mm256_loadu_pd(brow + 8)));
      acc3 =
          _mm256_add_pd(acc3, _mm256_mul_pd(v, _mm256_loadu_pd(brow + 12)));
    }
    _mm256_storeu_pd(out + j, acc0);
    _mm256_storeu_pd(out + j + 4, acc1);
    _mm256_storeu_pd(out + j + 8, acc2);
    _mm256_storeu_pd(out + j + 12, acc3);
  }
  for (; j + 4 <= m; j += 4) {
    __m256d acc = _mm256_loadu_pd(out + j);
    size_t k = k0;
    for (; k + 4 <= k1; k += 4) {
      __m256d v0 = _mm256_set1_pd(a[k]);
      __m256d v1 = _mm256_set1_pd(a[k + 1]);
      __m256d v2 = _mm256_set1_pd(a[k + 2]);
      __m256d v3 = _mm256_set1_pd(a[k + 3]);
      acc = _mm256_add_pd(
          acc, QuadTerm(v0, b + k * ldb + j, v1, b + (k + 1) * ldb + j, v2,
                        b + (k + 2) * ldb + j, v3, b + (k + 3) * ldb + j));
    }
    for (; k < k1; ++k) {
      __m256d v = _mm256_set1_pd(a[k]);
      acc = _mm256_add_pd(acc,
                          _mm256_mul_pd(v, _mm256_loadu_pd(b + k * ldb + j)));
    }
    _mm256_storeu_pd(out + j, acc);
  }
  if (j < m) {
    // Column tail (< 4): the scalar oracle on the remaining columns — same
    // math, and one place to keep bit-exact instead of two.
    ScalarKernelOps()->gemm_row_f64(a, k0, k1, b + j, ldb, out + j, m - j);
  }
}

void Avx2Axpy4F64(double d0, const double* v0, double d1, const double* v1,
                  double d2, const double* v2, double d3, const double* v3,
                  double* out, size_t m) {
  __m256d w0 = _mm256_set1_pd(d0);
  __m256d w1 = _mm256_set1_pd(d1);
  __m256d w2 = _mm256_set1_pd(d2);
  __m256d w3 = _mm256_set1_pd(d3);
  size_t c = 0;
  for (; c + 4 <= m; c += 4) {
    __m256d acc = _mm256_loadu_pd(out + c);
    acc = _mm256_add_pd(acc,
                        QuadTerm(w0, v0 + c, w1, v1 + c, w2, v2 + c, w3,
                                 v3 + c));
    _mm256_storeu_pd(out + c, acc);
  }
  if (c < m) {
    ScalarKernelOps()->axpy4_f64(d0, v0 + c, d1, v1 + c, d2, v2 + c, d3,
                                 v3 + c, out + c, m - c);
  }
}

void Avx2Axpy1F64(double d, const double* v, double* out, size_t m) {
  __m256d w = _mm256_set1_pd(d);
  size_t c = 0;
  for (; c + 4 <= m; c += 4) {
    __m256d acc = _mm256_loadu_pd(out + c);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(w, _mm256_loadu_pd(v + c)));
    _mm256_storeu_pd(out + c, acc);
  }
  if (c < m) ScalarKernelOps()->axpy1_f64(d, v + c, out + c, m - c);
}

constexpr KernelOps kAvx2Ops = {
    KernelBackend::kAvx2, Avx2GemmRowF64, Avx2Axpy4F64, Avx2Axpy1F64,
};

}  // namespace

const KernelOps* Avx2KernelOps() {
  // Built with AVX2, but the binary may land on an older core: gate on
  // CPUID before handing out code the host cannot execute.
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported ? &kAvx2Ops : nullptr;
}

}  // namespace sky::ml

#else  // !(__AVX2__ && x86-64)

namespace sky::ml {
const KernelOps* Avx2KernelOps() { return nullptr; }
}  // namespace sky::ml

#endif
