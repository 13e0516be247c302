#include "backend/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "backend/arena.h"
#include "backend/dispatch.h"

namespace adept::backend {

namespace {

// Panel sizes for the blocked GEMM. Rows of C are the parallel dimension;
// kKBlock-deep panels of op(B) are packed contiguously when B is logically
// transposed so the innermost axpy always streams unit-stride memory.
constexpr std::int64_t kRowBlock = 48;
constexpr std::int64_t kKBlock = 256;

// Beta epilogue shared by every gemm variant: beta == 0 zero-fills the row,
// beta == 1 leaves it untouched, anything else scales in place.
template <typename T>
inline void scale_row_beta(T beta, std::int64_t n, T* row) {
  if (beta == T{}) {
    std::fill(row, row + n, T{});
  } else if (beta != T{1}) {
    for (std::int64_t j = 0; j < n; ++j) row[j] *= beta;
  }
}

// Gathers the [kc, n] panel of a logically transposed B (physical [n, ldb],
// panel starting at column k0) into row-major scratch `bp` so the gemm inner
// loops always stream unit-stride memory. Shared by the scalar gemm variants.
template <typename T>
inline void pack_bt_panel(const T* b, std::int64_t ldb, std::int64_t k0,
                          std::int64_t kc, std::int64_t n, T* bp) {
  parallel_for(kc, kRowBlock, [=](std::int64_t kk0, std::int64_t kk1) {
    for (std::int64_t j = 0; j < n; ++j) {
      const T* bcol = b + j * ldb + k0;
      for (std::int64_t kk = kk0; kk < kk1; ++kk) bp[kk * n + j] = bcol[kk];
    }
  });
}

// SkipZero preserves the seed's sparse-operand shortcut for the photonic
// matrices (butterfly/permutation products are mostly zeros); the float NN
// path keeps a branch-free inner loop instead.
template <typename T, bool SkipZero>
void gemm_impl(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
               std::int64_t k, T alpha, const T* a, std::int64_t lda,
               const T* b, std::int64_t ldb, T beta, T* c, std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  auto scale_row = [&](T* crow) { scale_row_beta(beta, n, crow); };
  if (k <= 0) {
    parallel_for(m, kRowBlock, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) scale_row(c + i * ldc);
    });
    return;
  }
  // k-panels are the outer loop so a logically transposed B is gathered into
  // the packed scratch exactly once per panel and shared by every row task;
  // scratch stays bounded at kKBlock*n, never a full copy of B. The inner
  // axpy then always streams unit-stride memory. Per-element accumulation
  // order (k0 ascending, kk ascending) is independent of the row chunking,
  // preserving bit-exactness across thread counts. Scratch comes from the
  // thread-local arena: aligned, uninitialized (the pack loop overwrites
  // every element the inner loops read), reused across calls.
  ScratchArena::Scope scratch;
  T* bpack = tb == Trans::T ? scratch.alloc<T>(std::min(kKBlock, k) * n)
                            : nullptr;
  for (std::int64_t k0 = 0; k0 < k; k0 += kKBlock) {
    const std::int64_t kc = std::min(kKBlock, k - k0);
    const T* bpanel;
    std::int64_t bstride;
    if (tb == Trans::N) {
      bpanel = b + k0 * ldb;
      bstride = ldb;
    } else {
      pack_bt_panel(b, ldb, k0, kc, n, bpack);
      bpanel = bpack;
      bstride = n;
    }
    parallel_for(m, kRowBlock, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        T* crow = c + i * ldc;
        if (k0 == 0) scale_row(crow);
        for (std::int64_t kk = 0; kk < kc; ++kk) {
          T av = ta == Trans::N ? a[i * lda + k0 + kk]
                                : a[(k0 + kk) * lda + i];
          if constexpr (SkipZero) {
            if (av == T{}) continue;
          }
          av *= alpha;
          const T* brow = bpanel + kk * bstride;
          for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      }
    });
  }
}

// Planar complex gemm sharing the blocked structure of gemm_impl: k-panels
// outer so transposed/conjugated op(B) is packed once per panel into planar
// scratch, rows of C parallel inner. Per-element accumulation order is again
// (k0 ascending, kk ascending) regardless of chunking, so results are
// bit-exact across thread counts.
void cgemm_impl(CTrans ta, CTrans tb, std::int64_t m, std::int64_t n,
                std::int64_t k, const float* ar, const float* ai,
                std::int64_t lda, const float* br, const float* bi,
                std::int64_t ldb, float beta, float* cr, float* ci,
                std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  auto scale_row = [&](float* rrow, float* irow) {
    scale_row_beta(beta, n, rrow);
    scale_row_beta(beta, n, irow);
  };
  if (k <= 0) {
    parallel_for(m, kRowBlock, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) scale_row(cr + i * ldc, ci + i * ldc);
    });
    return;
  }
  ScratchArena::Scope scratch;
  const bool pack_b = tb != CTrans::N;
  float* bpack =
      pack_b ? scratch.alloc<float>(2 * std::min(kKBlock, k) * n) : nullptr;
  for (std::int64_t k0 = 0; k0 < k; k0 += kKBlock) {
    const std::int64_t kc = std::min(kKBlock, k - k0);
    const float *bpr, *bpi;
    std::int64_t bstride;
    if (!pack_b) {
      bpr = br + k0 * ldb;
      bpi = bi + k0 * ldb;
      bstride = ldb;
    } else {
      float* pr = bpack;
      float* pi = bpack + kc * n;
      const float isign = tb == CTrans::H ? -1.0f : 1.0f;
      parallel_for(kc, kRowBlock, [=](std::int64_t kk0, std::int64_t kk1) {
        for (std::int64_t j = 0; j < n; ++j) {
          const float* rcol = br + j * ldb + k0;
          const float* icol = bi + j * ldb + k0;
          for (std::int64_t kk = kk0; kk < kk1; ++kk) {
            pr[kk * n + j] = rcol[kk];
            pi[kk * n + j] = isign * icol[kk];
          }
        }
      });
      bpr = bpack;
      bpi = bpack + kc * n;
      bstride = n;
    }
    parallel_for(m, kRowBlock, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        float* crow = cr + i * ldc;
        float* cirow = ci + i * ldc;
        if (k0 == 0) scale_row(crow, cirow);
        auto opa = [&](std::int64_t kk, float& re, float& im) {
          if (ta == CTrans::N) {
            re = ar[i * lda + k0 + kk];
            im = ai[i * lda + k0 + kk];
          } else {
            re = ar[(k0 + kk) * lda + i];
            im = ai[(k0 + kk) * lda + i];
            if (ta == CTrans::H) im = -im;
          }
        };
        std::int64_t kk = 0;
        // Two k-steps per pass: C's rows are read/written once per 16 flops
        // instead of per 8. Each element still accumulates in ascending kk
        // order (two separate += statements), and the pairing is a pure
        // function of the panel size, so thread-count bit-exactness holds.
        for (; kk + 1 < kc; kk += 2) {
          float a0, a0i, a1, a1i;
          opa(kk, a0, a0i);
          opa(kk + 1, a1, a1i);
          if (a0 == 0.0f && a0i == 0.0f && a1 == 0.0f && a1i == 0.0f) continue;
          const float* b0r = bpr + kk * bstride;
          const float* b0i = bpi + kk * bstride;
          const float* b1r = b0r + bstride;
          const float* b1i = b0i + bstride;
          for (std::int64_t j = 0; j < n; ++j) {
            float re = crow[j], im = cirow[j];
            re += a0 * b0r[j] - a0i * b0i[j];
            im += a0 * b0i[j] + a0i * b0r[j];
            re += a1 * b1r[j] - a1i * b1i[j];
            im += a1 * b1i[j] + a1i * b1r[j];
            crow[j] = re;
            cirow[j] = im;
          }
        }
        for (; kk < kc; ++kk) {
          float av, avi;
          opa(kk, av, avi);
          if (av == 0.0f && avi == 0.0f) continue;
          const float* brow = bpr + kk * bstride;
          const float* birow = bpi + kk * bstride;
          for (std::int64_t j = 0; j < n; ++j) {
            crow[j] += av * brow[j] - avi * birow[j];
            cirow[j] += av * birow[j] + avi * brow[j];
          }
        }
      }
    });
  }
}

// Fraction of zero entries in a stored [rows, cols] block (physical row
// stride ld). The scalar kernels skip zero operand entries — a huge win on
// hard permutation operands — while the SIMD tiles are branch-free; the
// rcgemm and double/complex gemm wrappers probe density and keep sparse
// operands on the scalar path.
template <typename T>
bool mostly_zero(const T* a, std::int64_t rows, std::int64_t cols,
                 std::int64_t ld) {
  // Verdict: >= 7/8 zeros, i.e. nonzeros * 8 <= rows * cols. Dense operands
  // (the common case in the training loop) cross the nonzero budget within
  // the first few rows, so the probe bails out early instead of scanning A.
  const std::int64_t budget = rows * cols;
  std::int64_t nonzero = 0;
  for (std::int64_t i = 0; i < rows; ++i) {
    const T* row = a + i * ld;
    for (std::int64_t j = 0; j < cols; ++j) {
      if (row[j] != T{} && ++nonzero * 8 > budget) return false;
    }
  }
  return true;
}

}  // namespace

void gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
          float alpha, const float* a, std::int64_t lda, const float* b,
          std::int64_t ldb, float beta, float* c, std::int64_t ldc) {
  // Degenerate shapes (k <= 0 is a pure beta scale) stay on the scalar path
  // so the semantics are identical at every dispatch level.
  if (const KernelTable* t = active_kernels(); t && m > 0 && n > 0 && k > 0) {
    t->gemm_f32(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    return;
  }
  gemm_impl<float, false>(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

PackedGemmB pack_gemm_b(Trans tb, std::int64_t k, std::int64_t n,
                        const float* b, std::int64_t ldb) {
  PackedGemmB pb;
  pb.k = k;
  pb.n = n;
  const KernelTable* t = active_kernels();
  if (t == nullptr || k <= 0 || n <= 0) return pb;  // scalar: no packed path
  pb.level = static_cast<int>(simd_level());
  pb.panels.resize(static_cast<std::size_t>(t->gemm_packed_b_floats(k, n)));
  t->gemm_pack_b(tb, k, n, b, ldb, pb.panels.data());
  return pb;
}

void gemm_packed(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 const float* a, std::int64_t lda, Trans tb, const float* b,
                 std::int64_t ldb, const PackedGemmB& pb, float beta, float* c,
                 std::int64_t ldc) {
  const KernelTable* t = active_kernels();
  if (t != nullptr && m > 0 && n > 0 && k > 0 && !pb.panels.empty() &&
      pb.level == static_cast<int>(simd_level()) && pb.k == k && pb.n == n) {
    t->gemm_f32_packed(m, n, k, alpha, a, lda, pb.panels.data(), beta, c, ldc);
    return;
  }
  gemm(Trans::N, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

void gemm_s8s8s32(std::int64_t m, std::int64_t n, std::int64_t k,
                  const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
                  std::int64_t ldb, std::int32_t* c, std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  // Scalar reference: ikj with int32 accumulation in C. Integer adds are
  // associative, so any tiling/threading of the same products matches this
  // bit for bit — the parity anchor for the SIMD drivers.
  parallel_for(m, kRowBlock, [=](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      std::int32_t* crow = c + i * ldc;
      for (std::int64_t j = 0; j < n; ++j) crow[j] = 0;
      const std::int8_t* arow = a + i * lda;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const std::int32_t av = arow[kk];
        if (av == 0) continue;
        const std::int8_t* brow = b + kk * ldb;
        for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
}

PackedGemmBS8 pack_gemm_b_s8(std::int64_t k, std::int64_t n,
                             const std::int8_t* b, std::int64_t ldb) {
  PackedGemmBS8 pb;
  pb.k = k;
  pb.n = n;
  const KernelTable* t = active_kernels();
  if (t == nullptr || k <= 0 || n <= 0) return pb;  // scalar: no packed path
  pb.level = static_cast<int>(simd_level());
  pb.panels.resize(static_cast<std::size_t>(t->gemm_s8_packed_b_bytes(k, n)));
  t->gemm_pack_b_s8(k, n, b, ldb, pb.panels.data());
  return pb;
}

void gemm_s8_packed(std::int64_t m, std::int64_t n, std::int64_t k,
                    const std::int8_t* a, std::int64_t lda,
                    const std::int8_t* b, std::int64_t ldb,
                    const PackedGemmBS8& pb, std::int32_t* c,
                    std::int64_t ldc) {
  const KernelTable* t = active_kernels();
  if (t != nullptr && m > 0 && n > 0 && k > 0 && !pb.panels.empty() &&
      pb.level == static_cast<int>(simd_level()) && pb.k == k && pb.n == n) {
    t->gemm_s8s8s32_packed(m, n, k, a, lda, pb.panels.data(), c, ldc);
    return;
  }
  gemm_s8s8s32(m, n, k, a, lda, b, ldb, c, ldc);
}

float absmax(std::size_t n, const float* x) {
  const KernelTable* t = active_kernels();
  if (t != nullptr) return t->absmax_f32(n, x);
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

void quantize_s8(std::size_t n, const float* x, float inv_scale,
                 std::int8_t* out) {
  const KernelTable* t = active_kernels();
  if (t != nullptr) {
    t->quantize_s8(n, x, inv_scale, out);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const long q = std::lrintf(x[i] * inv_scale);
    out[i] = static_cast<std::int8_t>(std::min<long>(127, std::max<long>(-127, q)));
  }
}

void gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
          double alpha, const double* a, std::int64_t lda, const double* b,
          std::int64_t ldb, double beta, double* c, std::int64_t ldc) {
  // Dense operands route to the dispatched 4-wide tiles; permutation-like
  // operands (the photonic P/butterfly factors) keep the zero-skipping
  // blocked loops, which beat any dense kernel on >= 7/8-zero inputs.
  // Results agree within double-FMA contraction tolerance (<= 1e-14 on the
  // photonics shapes — pinned by the dispatch-parity tests); the scalar
  // level IS the pre-dispatch path, bit for bit.
  if (const KernelTable* t = active_kernels();
      t && m > 0 && n > 0 && k > 0 &&
      !mostly_zero(a, ta == Trans::N ? m : k, ta == Trans::N ? k : m, lda) &&
      !mostly_zero(b, tb == Trans::N ? k : n, tb == Trans::N ? n : k, ldb)) {
    t->gemm_f64(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    return;
  }
  gemm_impl<double, true>(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

void gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
          std::complex<double> alpha, const std::complex<double>* a,
          std::int64_t lda, const std::complex<double>* b, std::int64_t ldb,
          std::complex<double> beta, std::complex<double>* c,
          std::int64_t ldc) {
  // Dispatched path: deinterleave the dense operands into planar arena
  // scratch and run the 4-wide planar kernel — the deinterleave is
  // O(m*k + k*n + m*n) against O(m*n*k) multiply work, so it amortizes
  // even on the K=8 mesh tiles. Restricted to the photonics hot case
  // (alpha == 1, real beta); anything fancier stays on the scalar loops,
  // as do sparse permutation-like operands.
  const std::int64_t ra = ta == Trans::N ? m : k, ca = ta == Trans::N ? k : m;
  const std::int64_t rb = tb == Trans::N ? k : n, cb = tb == Trans::N ? n : k;
  if (const KernelTable* t = active_kernels();
      t && m > 0 && n > 0 && k > 0 && alpha == std::complex<double>{1.0} &&
      beta.imag() == 0.0 && !mostly_zero(a, ra, ca, lda) &&
      !mostly_zero(b, rb, cb, ldb)) {
    ScratchArena::Scope scratch;
    double* ap = scratch.alloc<double>(2 * ra * ca);
    double* bp = scratch.alloc<double>(2 * rb * cb);
    double* cp = scratch.alloc<double>(2 * m * n);
    auto split = [](const std::complex<double>* src, std::int64_t rows,
                    std::int64_t cols, std::int64_t ld, double* re,
                    double* im) {
      parallel_for(rows, kRowBlock, [=](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const std::complex<double>* srow = src + i * ld;
          double* rrow = re + i * cols;
          double* irow = im + i * cols;
          for (std::int64_t j = 0; j < cols; ++j) {
            rrow[j] = srow[j].real();
            irow[j] = srow[j].imag();
          }
        }
      });
    };
    split(a, ra, ca, lda, ap, ap + ra * ca);
    split(b, rb, cb, ldb, bp, bp + rb * cb);
    const double rbeta = beta.real();
    if (rbeta != 0.0) split(c, m, n, ldc, cp, cp + m * n);
    t->zgemm_planar(ta == Trans::N ? CTrans::N : CTrans::T,
                    tb == Trans::N ? CTrans::N : CTrans::T, m, n, k, ap,
                    ap + ra * ca, ca, bp, bp + rb * cb, cb, rbeta, cp,
                    cp + m * n, n);
    parallel_for(m, kRowBlock, [=](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        std::complex<double>* crow = c + i * ldc;
        const double* rrow = cp + i * n;
        const double* irow = cp + m * n + i * n;
        for (std::int64_t j = 0; j < n; ++j) {
          crow[j] = {rrow[j], irow[j]};
        }
      }
    });
    return;
  }
  gemm_impl<std::complex<double>, true>(ta, tb, m, n, k, alpha, a, lda, b, ldb,
                                        beta, c, ldc);
}

void cgemm(CTrans ta, CTrans tb, std::int64_t m, std::int64_t n,
           std::int64_t k, const float* ar, const float* ai, std::int64_t lda,
           const float* br, const float* bi, std::int64_t ldb, float beta,
           float* cr, float* ci, std::int64_t ldc) {
  if (const KernelTable* t = active_kernels(); t && m > 0 && n > 0 && k > 0) {
    t->cgemm(ta, tb, m, n, k, ar, ai, lda, br, bi, ldb, beta, cr, ci, ldc);
    return;
  }
  cgemm_impl(ta, tb, m, n, k, ar, ai, lda, br, bi, ldb, beta, cr, ci, ldc);
}

void rcgemm(Trans ta, std::int64_t m, std::int64_t n, std::int64_t k,
            const float* a, std::int64_t lda, const float* br, const float* bi,
            std::int64_t ldb, float beta, float* cr, float* ci,
            std::int64_t ldc, const float* col_cos, const float* col_sin) {
  if (m <= 0 || n <= 0) return;
  // The phase epilogue rewrites the product in place, which only composes
  // with a zero-initialized accumulator.
  const bool phased = col_cos != nullptr;
  if (phased != (col_sin != nullptr)) {
    throw std::invalid_argument("rcgemm: col_cos/col_sin must be passed together");
  }
  if (phased && beta != 0.0f) {
    throw std::invalid_argument("rcgemm: phase epilogue requires beta == 0");
  }
  if (const KernelTable* t = active_kernels();
      t && k > 0 &&
      !mostly_zero(a, ta == Trans::N ? m : k, ta == Trans::N ? k : m, lda)) {
    t->rcgemm(ta, m, n, k, a, lda, br, bi, ldb, beta, cr, ci, ldc, col_cos,
              col_sin);
    return;
  }
  const std::int64_t last_k0 = k <= 0 ? 0 : ((k - 1) / kKBlock) * kKBlock;
  auto scale_row = [&](float* rrow, float* irow) {
    scale_row_beta(beta, n, rrow);
    scale_row_beta(beta, n, irow);
  };
  if (k <= 0) {
    parallel_for(m, kRowBlock, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) scale_row(cr + i * ldc, ci + i * ldc);
    });
    return;
  }
  for (std::int64_t k0 = 0; k0 < k; k0 += kKBlock) {
    const std::int64_t kc = std::min(kKBlock, k - k0);
    parallel_for(m, kRowBlock, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        float* crow = cr + i * ldc;
        float* cirow = ci + i * ldc;
        if (k0 == 0) scale_row(crow, cirow);
        auto opa = [&](std::int64_t kk) {
          return ta == Trans::N ? a[i * lda + k0 + kk] : a[(k0 + kk) * lda + i];
        };
        std::int64_t kk = 0;
        // Same k-step pairing as cgemm: per-element accumulation stays in
        // ascending kk order, C rows touched half as often.
        for (; kk + 1 < kc; kk += 2) {
          const float a0 = opa(kk), a1 = opa(kk + 1);
          if (a0 == 0.0f && a1 == 0.0f) continue;
          const float* b0r = br + (k0 + kk) * ldb;
          const float* b0i = bi + (k0 + kk) * ldb;
          const float* b1r = b0r + ldb;
          const float* b1i = b0i + ldb;
          for (std::int64_t j = 0; j < n; ++j) {
            float re = crow[j], im = cirow[j];
            re += a0 * b0r[j];
            im += a0 * b0i[j];
            re += a1 * b1r[j];
            im += a1 * b1i[j];
            crow[j] = re;
            cirow[j] = im;
          }
        }
        for (; kk < kc; ++kk) {
          const float av = opa(kk);
          if (av == 0.0f) continue;
          const float* brow = br + (k0 + kk) * ldb;
          const float* birow = bi + (k0 + kk) * ldb;
          for (std::int64_t j = 0; j < n; ++j) {
            crow[j] += av * brow[j];
            cirow[j] += av * birow[j];
          }
        }
        if (phased && k0 == last_k0) {
          // Column phase epilogue: (re, im) <- (re, im) * e^{-i phi_j} once
          // the row's accumulation is complete.
          for (std::int64_t j = 0; j < n; ++j) {
            const float re = crow[j], im = cirow[j];
            crow[j] = re * col_cos[j] + im * col_sin[j];
            cirow[j] = im * col_cos[j] - re * col_sin[j];
          }
        }
      }
    });
  }
}

void cgemm_batched(CTrans ta, CTrans tb, std::int64_t batch, std::int64_t m,
                   std::int64_t n, std::int64_t k, const float* ar,
                   const float* ai, std::int64_t stride_a, std::int64_t lda,
                   const float* br, const float* bi, std::int64_t stride_b,
                   std::int64_t ldb, float beta, float* cr, float* ci,
                   std::int64_t stride_c, std::int64_t ldc) {
  if (batch <= 0 || m <= 0 || n <= 0) return;
  if (const KernelTable* t = active_kernels(); t && k > 0) {
    t->cgemm_batched(ta, tb, batch, m, n, k, ar, ai, stride_a, lda, br, bi,
                     stride_b, ldb, beta, cr, ci, stride_c, ldc);
    return;
  }
  const std::int64_t rows = batch * m;
  auto scale_row = [&](float* rrow, float* irow) {
    scale_row_beta(beta, n, rrow);
    scale_row_beta(beta, n, irow);
  };
  if (k <= 0) {
    parallel_for(rows, kRowBlock, [&](std::int64_t r0, std::int64_t r1) {
      for (std::int64_t r = r0; r < r1; ++r) {
        const std::int64_t t = r / m, i = r % m;
        scale_row(cr + t * stride_c + i * ldc, ci + t * stride_c + i * ldc);
      }
    });
    return;
  }
  const bool shared_b = stride_b == 0;
  // Transposed/conjugated op(B) panels are packed into planar scratch per
  // k-panel — once for a shared operand, per batch item otherwise — so the
  // inner axpy always streams unit-stride memory, exactly like cgemm's pack
  // (identical packed values, so per-element products match a per-item
  // cgemm call bit for bit). The two-step k pairing below matches cgemm's
  // accumulation order, completing the bit-exactness guarantee.
  ScratchArena::Scope scratch;
  const bool pack_b = tb != CTrans::N;
  const std::int64_t kc_max = std::min(kKBlock, k);
  const std::int64_t pack_items = shared_b ? 1 : batch;
  float* bpack =
      pack_b ? scratch.alloc<float>(pack_items * 2 * kc_max * n) : nullptr;
  for (std::int64_t k0 = 0; k0 < k; k0 += kKBlock) {
    const std::int64_t kc = std::min(kKBlock, k - k0);
    if (pack_b) {
      const float isign = tb == CTrans::H ? -1.0f : 1.0f;
      float* pk = bpack;
      parallel_for(pack_items * kc, kRowBlock, [=](std::int64_t q0, std::int64_t q1) {
        for (std::int64_t q = q0; q < q1; ++q) {
          const std::int64_t item = q / kc, kk = q % kc;
          const float* rb = br + item * stride_b;
          const float* ib = bi + item * stride_b;
          float* pr = pk + item * 2 * kc * n;
          float* pi = pr + kc * n;
          for (std::int64_t j = 0; j < n; ++j) {
            pr[kk * n + j] = rb[j * ldb + k0 + kk];
            pi[kk * n + j] = isign * ib[j * ldb + k0 + kk];
          }
        }
      });
    }
    parallel_for(rows, kRowBlock, [&](std::int64_t r0, std::int64_t r1) {
      for (std::int64_t r = r0; r < r1; ++r) {
        const std::int64_t t = r / m, i = r % m;
        const float* tar = ar + t * stride_a;
        const float* tai = ai + t * stride_a;
        float* crow = cr + t * stride_c + i * ldc;
        float* cirow = ci + t * stride_c + i * ldc;
        if (k0 == 0) scale_row(crow, cirow);
        const float *bpr, *bpi;
        std::int64_t bstride;
        if (pack_b) {
          bpr = bpack + (shared_b ? 0 : t * 2 * kc * n);
          bpi = bpr + kc * n;
          bstride = n;
        } else {
          bpr = br + t * stride_b + k0 * ldb;
          bpi = bi + t * stride_b + k0 * ldb;
          bstride = ldb;
        }
        auto opa = [&](std::int64_t kk, float& re, float& im) {
          if (ta == CTrans::N) {
            re = tar[i * lda + k0 + kk];
            im = tai[i * lda + k0 + kk];
          } else {
            re = tar[(k0 + kk) * lda + i];
            im = tai[(k0 + kk) * lda + i];
            if (ta == CTrans::H) im = -im;
          }
        };
        std::int64_t kk = 0;
        // Same two-k-step pairing as cgemm: per-element accumulation in
        // ascending kk order with two += per pass — required for the
        // bit-exactness guarantee against per-item cgemm calls.
        for (; kk + 1 < kc; kk += 2) {
          float a0, a0i, a1, a1i;
          opa(kk, a0, a0i);
          opa(kk + 1, a1, a1i);
          if (a0 == 0.0f && a0i == 0.0f && a1 == 0.0f && a1i == 0.0f) continue;
          const float* b0r = bpr + kk * bstride;
          const float* b0i = bpi + kk * bstride;
          const float* b1r = b0r + bstride;
          const float* b1i = b0i + bstride;
          for (std::int64_t j = 0; j < n; ++j) {
            float re = crow[j], im = cirow[j];
            re += a0 * b0r[j] - a0i * b0i[j];
            im += a0 * b0i[j] + a0i * b0r[j];
            re += a1 * b1r[j] - a1i * b1i[j];
            im += a1 * b1i[j] + a1i * b1r[j];
            crow[j] = re;
            cirow[j] = im;
          }
        }
        for (; kk < kc; ++kk) {
          float av, avi;
          opa(kk, av, avi);
          if (av == 0.0f && avi == 0.0f) continue;
          const float* brow = bpr + kk * bstride;
          const float* birow = bpi + kk * bstride;
          for (std::int64_t j = 0; j < n; ++j) {
            crow[j] += av * brow[j] - avi * birow[j];
            cirow[j] += av * birow[j] + avi * brow[j];
          }
        }
      }
    });
  }
}

void sincos(std::int64_t n, const float* x, float* cos_out, float* sin_out) {
  if (const KernelTable* t = active_kernels()) {
    t->sincos(n, x, cos_out, sin_out);
    return;
  }
  parallel_for(n, detail::kElemGrain, [=](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      cos_out[i] = std::cos(x[i]);
      sin_out[i] = std::sin(x[i]);
    }
  });
}

void softmax_rows(std::int64_t rows, std::int64_t cols, const float* a,
                  float* out) {
  if (const KernelTable* t = active_kernels()) {
    t->softmax_rows(rows, cols, a, out);
    return;
  }
  // The pre-SIMD autograd loop, verbatim: per-row max subtraction, exp into
  // the output, double-accumulated normalizer.
  const std::int64_t grain =
      std::max<std::int64_t>(1, 1024 / std::max<std::int64_t>(cols, 1));
  parallel_for(rows, grain, [=](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      float mx = -std::numeric_limits<float>::infinity();
      for (std::int64_t j = 0; j < cols; ++j) mx = std::max(mx, a[i * cols + j]);
      double z = 0.0;
      for (std::int64_t j = 0; j < cols; ++j) {
        const float e = std::exp(a[i * cols + j] - mx);
        out[i * cols + j] = e;
        z += e;
      }
      const float inv = static_cast<float>(1.0 / z);
      for (std::int64_t j = 0; j < cols; ++j) out[i * cols + j] *= inv;
    }
  });
}

void log_softmax_rows(std::int64_t rows, std::int64_t cols, const float* a,
                      float* out) {
  if (const KernelTable* t = active_kernels()) {
    t->log_softmax_rows(rows, cols, a, out);
    return;
  }
  const std::int64_t grain =
      std::max<std::int64_t>(1, 1024 / std::max<std::int64_t>(cols, 1));
  parallel_for(rows, grain, [=](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      float mx = -std::numeric_limits<float>::infinity();
      for (std::int64_t j = 0; j < cols; ++j) mx = std::max(mx, a[i * cols + j]);
      double z = 0.0;
      for (std::int64_t j = 0; j < cols; ++j) z += std::exp(a[i * cols + j] - mx);
      const float lz = mx + static_cast<float>(std::log(z));
      for (std::int64_t j = 0; j < cols; ++j) out[i * cols + j] = a[i * cols + j] - lz;
    }
  });
}

// Shared element-type-generic body for im2col / im2col_s8: patch gathering
// is pure data movement, so the int8 serving variant is the same routine
// over 1-byte elements (a quarter of the scratch traffic).
template <typename T>
void im2col_impl(const T* x, std::int64_t n, std::int64_t c, std::int64_t h,
                 std::int64_t w, std::int64_t kh, std::int64_t kw,
                 std::int64_t stride, std::int64_t pad, T* out) {
  const std::int64_t oh = (h + 2 * pad - kh) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - kw) / stride + 1;
  const std::int64_t cols = c * kh * kw;
  const std::int64_t rows = n * oh * ow;
  // Fixed-size copy width for the unclipped fast path below. A
  // variable-length memcpy of a handful of elements is a libc call per tap
  // group (tens of thousands per conv); a fixed-size one compiles to one or
  // two plain moves.
  constexpr std::int64_t kFix = sizeof(T) == 1 ? 16 : 32;
  const std::int64_t row_bytes = cols * static_cast<std::int64_t>(sizeof(T));
  const std::int64_t x_bytes =
      n * c * h * w * static_cast<std::int64_t>(sizeof(T));
  // One output row per patch; rows are independent, so parallelize there.
  // Zero whole chunks up front (one large fill beats a per-row fill by ~3x),
  // then gather only the in-image taps.
  parallel_for(rows, detail::grain_for(cols),
               [=](std::int64_t r0, std::int64_t r1) {
                 std::fill(out + r0 * cols, out + r1 * cols, T{0});
                 for (std::int64_t row = r0; row < r1; ++row) {
                   T* orow = out + row * cols;
                   const std::int64_t xo = row % ow;
                   const std::int64_t yo = (row / ow) % oh;
                   const std::int64_t ni = row / (ow * oh);
                   // Clip the tap window once per row so the copy loops are
                   // branch-free (out-of-image taps stay at the fill's 0).
                   const std::int64_t x0 = xo * stride - pad;
                   const std::int64_t y0 = yo * stride - pad;
                   const std::int64_t kx_lo = std::max<std::int64_t>(0, -x0);
                   const std::int64_t kx_hi = std::min(kw, w - x0);
                   const std::int64_t ky_lo = std::max<std::int64_t>(0, -y0);
                   const std::int64_t ky_hi = std::min(kh, h - y0);
                   if (kx_hi <= kx_lo) continue;  // window fully clipped
                   // Unclipped rows (always, for pad == 0) take the
                   // fixed-size copy: the extra bytes past kw spill into tap
                   // groups this same row writes LATER in ascending order,
                   // so they are overwritten with their real values — valid
                   // only because no group in the row is clip-skipped. Dst
                   // and src bounds checks keep the spill inside this output
                   // row and inside the input tensor.
                   const bool interior = kx_lo == 0 && kx_hi == kw &&
                                         ky_lo == 0 && ky_hi == kh &&
                                         kw * static_cast<std::int64_t>(
                                                  sizeof(T)) <= kFix;
                   for (std::int64_t ci = 0; ci < c; ++ci) {
                     const T* xplane = x + (ni * c + ci) * h * w;
                     for (std::int64_t ky = ky_lo; ky < ky_hi; ++ky) {
                       const T* xrow = xplane + (y0 + ky) * w + x0;
                       T* opatch = orow + (ci * kh + ky) * kw;
                       if (interior) {
                         const std::int64_t dst_off =
                             ((ci * kh + ky) * kw) *
                             static_cast<std::int64_t>(sizeof(T));
                         const std::int64_t src_off =
                             ((ni * c + ci) * h * w + (y0 + ky) * w + x0) *
                             static_cast<std::int64_t>(sizeof(T));
                         if (dst_off + kFix <= row_bytes &&
                             src_off + kFix <= x_bytes) {
                           std::memcpy(opatch, xrow,
                                       static_cast<std::size_t>(kFix));
                           continue;
                         }
                       }
                       std::memcpy(opatch + kx_lo, xrow + kx_lo,
                                   static_cast<std::size_t>(kx_hi - kx_lo) *
                                       sizeof(T));
                     }
                   }
                 }
               });
}

void im2col(const float* x, std::int64_t n, std::int64_t c, std::int64_t h,
            std::int64_t w, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* out) {
  im2col_impl(x, n, c, h, w, kh, kw, stride, pad, out);
}

void im2col_s8(const std::int8_t* x, std::int64_t n, std::int64_t c,
               std::int64_t h, std::int64_t w, std::int64_t kh,
               std::int64_t kw, std::int64_t stride, std::int64_t pad,
               std::int8_t* out) {
  im2col_impl(x, n, c, h, w, kh, kw, stride, pad, out);
}

void col2im(const float* cols_data, std::int64_t n, std::int64_t c,
            std::int64_t h, std::int64_t w, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* gx) {
  const std::int64_t oh = (h + 2 * pad - kh) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - kw) / stride + 1;
  const std::int64_t cols = c * kh * kw;
  // Overlapping patches within one image write the same gx pixels, so the
  // batch index is the only safe parallel dimension.
  for_each_index(
      n,
      [=](std::int64_t ni) {
        for (std::int64_t yo = 0; yo < oh; ++yo) {
          for (std::int64_t xo = 0; xo < ow; ++xo) {
            const std::int64_t row = (ni * oh + yo) * ow + xo;
            const float* crow = cols_data + row * cols;
            const std::int64_t x0 = xo * stride - pad;
            const std::int64_t y0 = yo * stride - pad;
            const std::int64_t kx_lo = std::max<std::int64_t>(0, -x0);
            const std::int64_t kx_hi = std::min(kw, w - x0);
            const std::int64_t ky_lo = std::max<std::int64_t>(0, -y0);
            const std::int64_t ky_hi = std::min(kh, h - y0);
            for (std::int64_t ci = 0; ci < c; ++ci) {
              float* gplane = gx + (ni * c + ci) * h * w;
              for (std::int64_t ky = ky_lo; ky < ky_hi; ++ky) {
                float* grow = gplane + (y0 + ky) * w + x0;
                const float* cpatch = crow + (ci * kh + ky) * kw;
                for (std::int64_t kx = kx_lo; kx < kx_hi; ++kx) {
                  grow[kx] += cpatch[kx];
                }
              }
            }
          }
        }
      },
      /*grain=*/1);
}

double reduce_sum(const float* a, std::size_t n) {
  constexpr std::int64_t kBlock = 8192;
  const std::int64_t total = static_cast<std::int64_t>(n);
  if (total <= kBlock) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < total; ++i) acc += a[i];
    return acc;
  }
  const std::int64_t blocks = (total + kBlock - 1) / kBlock;
  std::vector<double> partial(static_cast<std::size_t>(blocks), 0.0);
  parallel_for(blocks, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t bi = b0; bi < b1; ++bi) {
      const std::int64_t lo = bi * kBlock;
      const std::int64_t hi = std::min(lo + kBlock, total);
      double acc = 0.0;
      for (std::int64_t i = lo; i < hi; ++i) acc += a[i];
      partial[static_cast<std::size_t>(bi)] = acc;
    }
  });
  double acc = 0.0;
  for (double p : partial) acc += p;
  return acc;
}

}  // namespace adept::backend
