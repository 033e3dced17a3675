#include "ml/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace sky::ml {

namespace {

// ---------------------------------------------------------------------------
// Scalar oracle: the seed's loop nests, verbatim. Every other backend is
// measured (and property-tested) against these.
// ---------------------------------------------------------------------------

void ScalarGemmRowF64(const double* a, size_t k0, size_t k1, const double* b,
                      size_t ldb, double* out, size_t m) {
  size_t k = k0;
  for (; k + 4 <= k1; k += 4) {
    double v0 = a[k], v1 = a[k + 1];
    double v2 = a[k + 2], v3 = a[k + 3];
    const double* __restrict b0 = b + k * ldb;
    const double* __restrict b1 = b + (k + 1) * ldb;
    const double* __restrict b2 = b + (k + 2) * ldb;
    const double* __restrict b3 = b + (k + 3) * ldb;
    for (size_t j = 0; j < m; ++j) {
      out[j] += (v0 * b0[j] + v1 * b1[j]) + (v2 * b2[j] + v3 * b3[j]);
    }
  }
  for (; k < k1; ++k) {
    double v = a[k];
    const double* __restrict brow = b + k * ldb;
    for (size_t j = 0; j < m; ++j) out[j] += v * brow[j];
  }
}

void ScalarAxpy4F64(double d0, const double* v0, double d1, const double* v1,
                    double d2, const double* v2, double d3, const double* v3,
                    double* out, size_t m) {
  for (size_t c = 0; c < m; ++c) {
    out[c] += (d0 * v0[c] + d1 * v1[c]) + (d2 * v2[c] + d3 * v3[c]);
  }
}

void ScalarAxpy1F64(double d, const double* v, double* out, size_t m) {
  for (size_t c = 0; c < m; ++c) out[c] += d * v[c];
}

bool ScalarNearestCenterF64(const double* points, size_t ld, size_t n,
                            size_t dim, const double* centers, size_t k,
                            size_t* assign) {
  bool changed = false;
  for (size_t i = 0; i < n; ++i) {
    size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < k; ++c) {
      const double* center = centers + c * dim;
      double s = 0.0;
      for (size_t d = 0; d < dim; ++d) {
        double diff = points[d * ld + i] - center[d];
        s += diff * diff;
      }
      if (s < best_d) {
        best_d = s;
        best = c;
      }
    }
    if (assign[i] != best) {
      assign[i] = best;
      changed = true;
    }
  }
  return changed;
}

constexpr KernelOps kScalarOps = {
    KernelBackend::kScalar, ScalarGemmRowF64,       ScalarAxpy4F64,
    ScalarAxpy1F64,         ScalarNearestCenterF64,
};

// ---------------------------------------------------------------------------
// Dispatch: one atomic table pointer, published on first use.
// ---------------------------------------------------------------------------

const KernelOps* OpsFor(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return ScalarKernelOps();
    case KernelBackend::kAvx2:
      return Avx2KernelOps();
  }
  return nullptr;
}

std::atomic<const KernelOps*> g_active{nullptr};

const KernelOps* InitDispatch() {
  const KernelOps* pick = ScalarKernelOps();
  const char* force = std::getenv("SKY_FORCE_SCALAR");
  bool forced_scalar =
      force != nullptr && force[0] != '\0' && std::strcmp(force, "0") != 0;
  if (!forced_scalar) {
    if (const KernelOps* avx2 = Avx2KernelOps()) pick = avx2;
  }
  // Several threads may race the first call; they all compute the same
  // answer, so a plain publish is enough — but keep the first writer's value
  // so a concurrent SetKernelBackend is never overwritten by a late
  // initializer.
  const KernelOps* expected = nullptr;
  if (g_active.compare_exchange_strong(expected, pick,
                                       std::memory_order_acq_rel)) {
    return pick;
  }
  return expected;
}

}  // namespace

const KernelOps* ScalarKernelOps() { return &kScalarOps; }

const KernelOps& ActiveKernels() {
  const KernelOps* ops = g_active.load(std::memory_order_acquire);
  if (ops == nullptr) ops = InitDispatch();
  return *ops;
}

KernelBackend ActiveKernelBackend() { return ActiveKernels().backend; }

KernelBackend BestSupportedBackend() {
  if (Avx2KernelOps() != nullptr) return KernelBackend::kAvx2;
  return KernelBackend::kScalar;
}

bool KernelBackendSupported(KernelBackend backend) {
  return OpsFor(backend) != nullptr;
}

Status SetKernelBackend(KernelBackend backend) {
  const KernelOps* ops = OpsFor(backend);
  if (ops == nullptr) {
    return Status::InvalidArgument("kernel backend '" +
                                   KernelBackendName(backend) +
                                   "' is not supported on this host/build");
  }
  g_active.store(ops, std::memory_order_release);
  return Status::Ok();
}

std::string KernelBackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

}  // namespace sky::ml
