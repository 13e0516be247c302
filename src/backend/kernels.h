// Dense kernel layer shared by the autograd ops and the photonic linear
// algebra: cache-blocked threaded GEMM with logical transpose variants, fused
// elementwise map/zip kernels, deterministic reductions, and im2col/col2im
// for the CNN proxy.
//
// Every kernel partitions work over disjoint output ranges with chunk
// boundaries that depend only on the problem size (see parallel.h), so
// results are bit-exact across thread counts.
#pragma once

#include <algorithm>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "backend/parallel.h"

namespace adept::backend {

// Logical operand layout for gemm: N uses the array as stored, T applies a
// transpose through the index map — the data is never copied into a
// materialized transpose visible to the caller.
enum class Trans { N, T };

// Complex operand layout: N as stored, T logical transpose, H conjugate
// transpose (the variant complex-matmul backward needs: dA = G B^H,
// dB = A^H G).
enum class CTrans { N, T, H };

// C = alpha * op(A) @ op(B) + beta * C, all row-major. op(A) is [m, k],
// op(B) is [k, n], C is [m, n]. `lda`/`ldb`/`ldc` are the physical row
// strides of the stored arrays (for a Trans::T operand the stride of the
// array as laid out in memory, not of its logical view).
void gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
          float alpha, const float* a, std::int64_t lda, const float* b,
          std::int64_t ldb, float beta, float* c, std::int64_t ldc);
void gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
          double alpha, const double* a, std::int64_t lda, const double* b,
          std::int64_t ldb, double beta, double* c, std::int64_t ldc);
void gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
          std::complex<double> alpha, const std::complex<double>* a,
          std::int64_t lda, const std::complex<double>* b, std::int64_t ldb,
          std::complex<double> beta, std::complex<double>* c, std::int64_t ldc);

// Pre-packed right operand for the float gemm — the frozen-weight serving
// path (runtime::CompiledModel). `pack_gemm_b` materializes op(B)'s k-panels
// in the ACTIVE dispatch level's layout once; `gemm_packed` then skips the
// per-call pack. Results are bit-identical to gemm(): the panel contents and
// microkernel call sequence do not change, only when the packing happens.
// When the active level has no packed path (scalar dispatch), or the level
// changed between packing and use (ADEPT_SIMD / SimdScope), gemm_packed
// falls back to the plain gemm using the raw `b` the caller still owns.
struct PackedGemmB {
  std::int64_t k = 0, n = 0;
  int level = -1;              // SimdLevel the panels target (-1 = none)
  std::vector<float> panels;   // [k-panel][tile][kc][16], zero-padded tails
};

PackedGemmB pack_gemm_b(Trans tb, std::int64_t k, std::int64_t n,
                        const float* b, std::int64_t ldb);

// C = alpha * A @ op(B) + beta * C with A [m, k] row-major (Trans::N).
// `b`/`ldb` describe the unpacked operand for the fallback path.
void gemm_packed(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 const float* a, std::int64_t lda, Trans tb, const float* b,
                 std::int64_t ldb, const PackedGemmB& pb, float beta, float* c,
                 std::int64_t ldc);

// ---- int8 quantized serving path ------------------------------------------
//
// The quantized CompiledModel execution mode (runtime/plan.h) runs its gemms
// on int8 operands with exact int32 accumulation and dequantizes on store.
// Because integer addition is associative, every dispatch level, thread
// count, and tiling produces IDENTICAL bits — tests ASSERT_EQ the int32
// output across scalar/avx2/avx512 (no float-style tolerance tiers).

// C = A @ B with A [m, k] row-major int8, B [k, n] row-major int8, C [m, n]
// int32 (overwritten, no beta). Safe against int32 overflow for any
// k <= 2^17 with s8-range operands (|a*b| <= 127*127).
void gemm_s8s8s32(std::int64_t m, std::int64_t n, std::int64_t k,
                  const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
                  std::int64_t ldb, std::int32_t* c, std::int64_t ldc);

// Pre-packed right operand for the int8 gemm, the quantized analogue of
// PackedGemmB: freeze-time weights are packed once into the active level's
// interleaved k-pair panel layout (the _mm256_madd_epi16 operand order).
// Scalar dispatch has no packed layout (level -1, empty panels); the packed
// driver then falls back to gemm_s8s8s32 on the raw `b` — identical bits
// either way.
struct PackedGemmBS8 {
  std::int64_t k = 0, n = 0;
  int level = -1;                    // SimdLevel the panels target (-1 = none)
  std::vector<std::int8_t> panels;   // [tile][k-pair][16 cols x 2 ks], zero-padded
};

PackedGemmBS8 pack_gemm_b_s8(std::int64_t k, std::int64_t n,
                             const std::int8_t* b, std::int64_t ldb);

// gemm_s8s8s32 with op(B) pre-packed; `b`/`ldb` describe the unpacked
// operand for the fallback path (scalar level, or level changed since pack).
void gemm_s8_packed(std::int64_t m, std::int64_t n, std::int64_t k,
                    const std::int8_t* a, std::int64_t lda,
                    const std::int8_t* b, std::int64_t ldb,
                    const PackedGemmBS8& pb, std::int32_t* c, std::int64_t ldc);

// max |x[i]| over n floats (0 for n == 0). Dispatched, but bit-exact at
// every level — max is order-independent — so the quantization *decision*
// never depends on the SIMD level.
float absmax(std::size_t n, const float* x);

// out[i] = clamp(round-to-nearest-even(x[i] * inv_scale), -127, 127).
// Dispatched; exact at every level because the vector float->int32 convert
// rounds to nearest-even exactly like std::lrintf under the default
// rounding mode (asserted across levels in tests/test_plan.cpp).
void quantize_s8(std::size_t n, const float* x, float inv_scale,
                 std::int8_t* out);

// Fused complex float gemm over split re/im planar operands:
//   C = op(A) @ op(B) + beta * C   (both planes)
// op(A) is [m, k], op(B) is [k, n]; `lda`/`ldb`/`ldc` are the physical row
// strides of the stored planes (re and im share one layout). One blocked
// traversal produces both output planes, so memory traffic is ~half of the
// four-real-gemm lowering. Deterministic across thread counts like `gemm`.
void cgemm(CTrans ta, CTrans tb, std::int64_t m, std::int64_t n,
           std::int64_t k, const float* ar, const float* ai, std::int64_t lda,
           const float* br, const float* bi, std::int64_t ldb, float beta,
           float* cr, float* ci, std::int64_t ldc);

// Real-by-complex gemm: C = op(A) @ B + beta * C with A real [m, k] and B a
// planar complex [k, n]; one traversal of A feeds both output planes.
//
// When `col_cos`/`col_sin` are non-null (requires beta == 0), the kernel
// epilogue multiplies column j of the product by exp(-i*phi_j) given
// cos(phi_j)/sin(phi_j) — the fused "block transfer" form P @ T @ R(Phi)
// where the diagonal phase column R never becomes a matmul.
void rcgemm(Trans ta, std::int64_t m, std::int64_t n, std::int64_t k,
            const float* a, std::int64_t lda, const float* br, const float* bi,
            std::int64_t ldb, float beta, float* cr, float* ci,
            std::int64_t ldc, const float* col_cos = nullptr,
            const float* col_sin = nullptr);

// Batched planar complex gemm: C[t] = op(A[t]) @ op(B[t]) + beta * C[t] for
// t in [0, batch). Operand planes are [batch, m, k] / [batch, k, n] stacks
// with physical batch strides `stride_a` / `stride_b` (rows inside one item
// stride by `lda` / `ldb`); a batch stride of 0 shares that operand across
// the whole batch (a shared transposed/conjugated op(B) is packed once per
// k-panel for all batch items). The row/k chunking spans the whole
// [batch*m] row space so tiny per-tile products still fill whole chunks,
// and the per-element accumulation order (two-step k pairing) is identical
// to `cgemm`, making a batched call bit-exact against per-item cgemm calls
// at any thread count.
void cgemm_batched(CTrans ta, CTrans tb, std::int64_t batch, std::int64_t m,
                   std::int64_t n, std::int64_t k, const float* ar,
                   const float* ai, std::int64_t stride_a, std::int64_t lda,
                   const float* br, const float* bi, std::int64_t stride_b,
                   std::int64_t ldb, float beta, float* cr, float* ci,
                   std::int64_t stride_c, std::int64_t ldc);

// Simultaneous cos/sin of a phase vector — the exp(-i*phi) table feeding the
// phase-column ops and the rcgemm epilogue. SIMD levels use a Cephes-style
// polynomial (~1-2 ulp vs libm for |x| < 8192, libm fallback per lane
// beyond); the scalar level is a plain std::cos/std::sin loop.
void sincos(std::int64_t n, const float* x, float* cos_out, float* sin_out);

// Row-wise softmax / log-softmax forward over a [rows, cols] matrix
// (max-subtracted, exp vectorized at SIMD levels). The scalar level keeps
// the pre-SIMD double-accumulator loop bit for bit.
void softmax_rows(std::int64_t rows, std::int64_t cols, const float* a,
                  float* out);
void log_softmax_rows(std::int64_t rows, std::int64_t cols, const float* a,
                      float* out);

// Patch extraction for NCHW conv-as-gemm. `out` is [n*oh*ow, c*kh*kw] with
// oh = (h + 2*pad - kh)/stride + 1 (ow analogous); out-of-image taps are 0.
void im2col(const float* x, std::int64_t n, std::int64_t c, std::int64_t h,
            std::int64_t w, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* out);

// im2col over int8 elements, for the quantized serving path: the feature
// map is quantized once per sample (cheap — c*h*w values), then patches are
// gathered as bytes, a quarter of the fp32 scratch traffic. Pure data
// movement, so gathering quantized pixels equals quantizing gathered
// pixels element for element.
void im2col_s8(const std::int8_t* x, std::int64_t n, std::int64_t c,
               std::int64_t h, std::int64_t w, std::int64_t kh,
               std::int64_t kw, std::int64_t stride, std::int64_t pad,
               std::int8_t* out);

// Adjoint of im2col: scatters `cols` (same layout as im2col's output) back
// into the image, *accumulating* into gx (callers pass a gradient buffer).
void col2im(const float* cols, std::int64_t n, std::int64_t c, std::int64_t h,
            std::int64_t w, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* gx);

// Deterministic sum: fixed 8192-element blocks accumulated in double, block
// partials combined in index order — identical bits for any thread count.
double reduce_sum(const float* a, std::size_t n);

namespace detail {
constexpr std::int64_t kElemGrain = 1 << 14;  // elementwise chunk size

// Grain for a loop whose every index does `work` inner iterations: about
// 4096 iterations per chunk, so a loop too small to repay a fan-out stays on
// its caller.
constexpr std::int64_t grain_for(std::int64_t work) {
  return std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(work, 1));
}
}  // namespace detail

// Fused elementwise kernels. The functor is applied per element; chunks of
// kElemGrain indices run across threads.

// out[i] = f(a[i])
template <typename F>
inline void map(std::size_t n, const float* a, float* out, F f) {
  parallel_for(static_cast<std::int64_t>(n), detail::kElemGrain,
               [=](std::int64_t b, std::int64_t e) {
                 for (std::int64_t i = b; i < e; ++i) out[i] = f(a[i]);
               });
}

// out[i] = f(a[i], b[i])
template <typename F>
inline void zip(std::size_t n, const float* a, const float* b, float* out, F f) {
  parallel_for(static_cast<std::int64_t>(n), detail::kElemGrain,
               [=](std::int64_t lo, std::int64_t hi) {
                 for (std::int64_t i = lo; i < hi; ++i) out[i] = f(a[i], b[i]);
               });
}

// f(i) for i in [0, n); f must only touch state indexed by i (or otherwise
// disjoint per index). `grain` tunes chunking for heavier bodies.
template <typename F>
inline void for_each_index(std::int64_t n, F f,
                           std::int64_t grain = detail::kElemGrain) {
  parallel_for(n, grain, [=](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) f(i);
  });
}

}  // namespace adept::backend
