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

#include <cstdint>
#include <limits>

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

/// The nearest center of the 4 * V points at points[0, 4V) of each row:
/// one ymm accumulator per 4 points sums the oracle's (p - c)^2 terms in
/// dimension order, and an ordered less-than (false on NaN) keeps the first
/// minimum, carrying the winning index in the same lanes as 64-bit ints.
template <size_t V>
bool NearestCenterBlock(const double* points, size_t ld, size_t dim,
                        const double* centers, size_t k, size_t* assign) {
  __m256d best_d[V];
  __m256d best[V];
  for (size_t v = 0; v < V; ++v) {
    best_d[v] = _mm256_set1_pd(std::numeric_limits<double>::infinity());
    best[v] = _mm256_castsi256_pd(_mm256_setzero_si256());
  }
  for (size_t c = 0; c < k; ++c) {
    const double* center = centers + c * dim;
    __m256d s[V];
    for (size_t v = 0; v < V; ++v) s[v] = _mm256_setzero_pd();
    for (size_t d = 0; d < dim; ++d) {
      __m256d cd = _mm256_set1_pd(center[d]);
      const double* row = points + d * ld;
      for (size_t v = 0; v < V; ++v) {
        __m256d diff = _mm256_sub_pd(_mm256_loadu_pd(row + 4 * v), cd);
        s[v] = _mm256_add_pd(s[v], _mm256_mul_pd(diff, diff));
      }
    }
    __m256d index =
        _mm256_castsi256_pd(_mm256_set1_epi64x(static_cast<long long>(c)));
    for (size_t v = 0; v < V; ++v) {
      __m256d closer = _mm256_cmp_pd(s[v], best_d[v], _CMP_LT_OQ);
      best_d[v] = _mm256_blendv_pd(best_d[v], s[v], closer);
      best[v] = _mm256_blendv_pd(best[v], index, closer);
    }
  }
  bool changed = false;
  for (size_t v = 0; v < V; ++v) {
    auto* slot = reinterpret_cast<__m256i*>(assign + 4 * v);
    __m256i next = _mm256_castpd_si256(best[v]);
    __m256i same = _mm256_cmpeq_epi64(_mm256_loadu_si256(slot), next);
    changed |= _mm256_movemask_pd(_mm256_castsi256_pd(same)) != 0xF;
    _mm256_storeu_si256(slot, next);
  }
  return changed;
}

// Lanes across points: 16 points per step keeps four independent
// accumulation chains in flight, then 4-point steps, then the scalar oracle
// on the last n % 4 points.
bool Avx2NearestCenterF64(const double* points, size_t ld, size_t n,
                          size_t dim, const double* centers, size_t k,
                          size_t* assign) {
  static_assert(sizeof(size_t) == sizeof(int64_t),
                "assignments travel in 64-bit lanes");
  bool changed = false;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    changed |=
        NearestCenterBlock<4>(points + i, ld, dim, centers, k, assign + i);
  }
  for (; i + 4 <= n; i += 4) {
    changed |=
        NearestCenterBlock<1>(points + i, ld, dim, centers, k, assign + i);
  }
  if (i < n) {
    changed |= ScalarKernelOps()->nearest_center_f64(points + i, ld, n - i,
                                                     dim, centers, k,
                                                     assign + i);
  }
  return changed;
}

constexpr KernelOps kAvx2Ops = {
    KernelBackend::kAvx2, Avx2GemmRowF64,       Avx2Axpy4F64,
    Avx2Axpy1F64,         Avx2NearestCenterF64,
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
