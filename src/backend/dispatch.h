// Runtime ISA dispatch for the SIMD microkernel layer.
//
// The microkernels in backend/microkernels.inc are compiled once per ISA
// (scalar fallback lives in kernels.cpp itself; AVX2+FMA and AVX-512 get
// dedicated TUs with the matching -m flags). At first use the dispatcher
// picks the best level that is (a) compiled into this binary, (b) reported
// by CPUID, and (c) not capped by the ADEPT_SIMD environment knob:
//
//   ADEPT_SIMD=scalar | avx2 | avx512
//
// An unknown value, or a level the CPU/binary cannot deliver, clamps down to
// the best available level (never up, never an error) — see common/env.h.
//
// Determinism contract: every level is bit-exact across thread counts, and
// `scalar` reproduces the pre-SIMD blocked kernels bit for bit. Levels
// differ from each other only within float accumulation tolerance (the SIMD
// kernels keep the same ascending-k accumulation order but fuse
// multiply-adds); tests/test_simd.cpp pins the tolerances.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "backend/kernels.h"

namespace adept::backend {

enum class SimdLevel : int { scalar = 0, avx2 = 1, avx512 = 2 };

// Display/env name for a level: "scalar", "avx2", "avx512".
const char* simd_level_name(SimdLevel level);

// The level kernels will dispatch to right now (override > env > CPUID).
SimdLevel simd_level();

// Every level this binary+CPU can run, ascending (always includes scalar).
std::vector<SimdLevel> available_simd_levels();

// RAII scope forcing a dispatch level (clamped to the best available), used
// by tests and the per-level bench records. Like ThreadScope, not reentrancy-
// safe across threads — scope on the thread driving the kernels.
class SimdScope {
 public:
  explicit SimdScope(SimdLevel level);
  ~SimdScope();
  SimdScope(const SimdScope&) = delete;
  SimdScope& operator=(const SimdScope&) = delete;

 private:
  int prev_;
};

// Function table one ISA TU exports; kernels.cpp routes the float hot paths
// through the active table (nullptr table = the scalar/legacy blocked path).
struct KernelTable {
  void (*gemm_f32)(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                   std::int64_t k, float alpha, const float* a,
                   std::int64_t lda, const float* b, std::int64_t ldb,
                   float beta, float* c, std::int64_t ldc);
  void (*cgemm)(CTrans ta, CTrans tb, std::int64_t m, std::int64_t n,
                std::int64_t k, const float* ar, const float* ai,
                std::int64_t lda, const float* br, const float* bi,
                std::int64_t ldb, float beta, float* cr, float* ci,
                std::int64_t ldc);
  void (*cgemm_batched)(CTrans ta, CTrans tb, std::int64_t batch,
                        std::int64_t m, std::int64_t n, std::int64_t k,
                        const float* ar, const float* ai, std::int64_t stride_a,
                        std::int64_t lda, const float* br, const float* bi,
                        std::int64_t stride_b, std::int64_t ldb, float beta,
                        float* cr, float* ci, std::int64_t stride_c,
                        std::int64_t ldc);
  void (*rcgemm)(Trans ta, std::int64_t m, std::int64_t n, std::int64_t k,
                 const float* a, std::int64_t lda, const float* br,
                 const float* bi, std::int64_t ldb, float beta, float* cr,
                 float* ci, std::int64_t ldc, const float* col_cos,
                 const float* col_sin);
  void (*sincos)(std::int64_t n, const float* x, float* c, float* s);
  void (*softmax_rows)(std::int64_t rows, std::int64_t cols, const float* a,
                       float* out);
  void (*log_softmax_rows)(std::int64_t rows, std::int64_t cols,
                           const float* a, float* out);
  // Frozen-weight serving path: pack op(B) [k, n] once into this level's
  // k-panel layout, then run the gemm driver against the pre-packed panels
  // (A is Trans::N). Bit-identical to gemm_f32 — the per-call pack is the
  // only thing skipped. The buffer for gemm_pack_b must hold
  // gemm_packed_b_floats(k, n) floats: the footprint is a property of the
  // level's tile width, so it lives in the table, not in callers.
  std::int64_t (*gemm_packed_b_floats)(std::int64_t k, std::int64_t n);
  void (*gemm_pack_b)(Trans tb, std::int64_t k, std::int64_t n, const float* b,
                      std::int64_t ldb, float* out);
  void (*gemm_f32_packed)(std::int64_t m, std::int64_t n, std::int64_t k,
                          float alpha, const float* a, std::int64_t lda,
                          const float* packed_b, float beta, float* c,
                          std::int64_t ldc);
  // int8 quantized serving path (runtime/plan.h): B packed into interleaved
  // k-pair panels, A streamed row-major, exact int32 accumulation — results
  // are bit-identical to the scalar reference at every level (integer math
  // has no contraction drift). Buffer for gemm_pack_b_s8 must hold
  // gemm_s8_packed_b_bytes(k, n) bytes.
  std::int64_t (*gemm_s8_packed_b_bytes)(std::int64_t k, std::int64_t n);
  void (*gemm_pack_b_s8)(std::int64_t k, std::int64_t n, const std::int8_t* b,
                         std::int64_t ldb, std::int8_t* out);
  void (*gemm_s8s8s32_packed)(std::int64_t m, std::int64_t n, std::int64_t k,
                              const std::int8_t* a, std::int64_t lda,
                              const std::int8_t* packed_b, std::int32_t* c,
                              std::int64_t ldc);
  // Activation quantization helpers, the per-request hot path of quantized
  // serving. Exact at every level: max is order-independent, and the vector
  // float->int32 convert rounds to nearest-even exactly like std::lrintf
  // under the default rounding mode — so the quantized image (and therefore
  // the quantization *decision*) never depends on the dispatch level.
  float (*absmax_f32)(std::size_t n, const float* x);
  void (*quantize_s8)(std::size_t n, const float* x, float inv_scale,
                      std::int8_t* out);
  // Double-precision photonics gemms (mesh-transfer chains, SVD
  // legalization). kernels.cpp probes operand density before routing here:
  // permutation-like operands stay on the zero-skipping scalar loops, dense
  // ones take these 4-wide register-tiled drivers. zgemm_planar consumes
  // split re/im planes; the complex<double> wrapper deinterleaves into
  // arena scratch (alpha == 1, real beta — anything else stays scalar).
  void (*gemm_f64)(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                   std::int64_t k, double alpha, const double* a,
                   std::int64_t lda, const double* b, std::int64_t ldb,
                   double beta, double* c, std::int64_t ldc);
  void (*zgemm_planar)(CTrans ta, CTrans tb, std::int64_t m, std::int64_t n,
                       std::int64_t k, const double* ar, const double* ai,
                       std::int64_t lda, const double* br, const double* bi,
                       std::int64_t ldb, double beta, double* cr, double* ci,
                       std::int64_t ldc);
};

// Active table for the current dispatch level; nullptr means scalar.
const KernelTable* active_kernels();

}  // namespace adept::backend
