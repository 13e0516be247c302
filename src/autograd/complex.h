// Complex tensors as (re, im) pairs of real autograd tensors.
//
// Photonic transfer matrices are complex-valued; representing them as two
// real tensors lets a single real-valued tape differentiate through complex
// matrix chains. Gradients are the standard real-pair gradients, i.e.
// dL/d(re) and dL/d(im) independently, which is exactly what training a
// real-valued loss requires.
//
// The matrix/chain ops are *fused*: `cmatmul` lowers to one backend `cgemm`
// tape node (a packed [2,N,M] grad-routing node plus two plane views, not
// four real matmuls and two combines), and its backward is two
// conjugate-transpose cgemms (dA = G B^H, dB = A^H G). `block_transfer`
// folds a whole photonic block P~ @ T @ R(Phi) into one node whose forward
// is a single real-by-complex gemm with the diagonal phase column applied as
// a column scaling in the kernel epilogue.
#pragma once

#include "autograd/ops.h"
#include "autograd/tensor.h"

namespace adept::ag {

struct CxTensor {
  Tensor re;
  Tensor im;

  bool defined() const { return re.defined() && im.defined(); }
  const std::vector<std::int64_t>& shape() const { return re.shape(); }
  std::int64_t dim(std::size_t i) const { return re.dim(i); }

  // Complex tensor with zero imaginary part.
  static CxTensor from_real(const Tensor& r);
  static CxTensor zeros(std::vector<std::int64_t> shape);
  static CxTensor eye(std::int64_t n);
};

// (a+bi)(c+di) = (ac-bd) + (ad+bc)i, elementwise with broadcasting.
// Same-shape operands run through the fused planar kernel (2 tape nodes);
// broadcast shapes fall back to the real-op composition.
CxTensor cmul(const CxTensor& a, const CxTensor& b);
CxTensor cadd(const CxTensor& a, const CxTensor& b);
CxTensor csub(const CxTensor& a, const CxTensor& b);
// Fused complex matrix product: one cgemm forward, two conjugate-transpose
// cgemms backward. Creates exactly one compute node on the tape (shared by
// the re/im plane views).
CxTensor cmatmul(const CxTensor& a, const CxTensor& b);
// Multiply by a real tensor (broadcasting follows ops.h rules).
CxTensor cscale(const CxTensor& a, const Tensor& s);
CxTensor cscale(const CxTensor& a, float s);
CxTensor conj(const CxTensor& a);
// Conjugate transpose of a 2-D complex tensor.
CxTensor adjoint(const CxTensor& a);
// |z|^2 elementwise (real result).
Tensor cabs2(const CxTensor& a);

// exp(-i*phi) as a complex tensor: (cos phi, -sin phi). The photonic
// phase-shifter response (paper Sec. 2.1).
CxTensor cexp_neg_i(const Tensor& phi);

// Diagonal phase-shifter column R(Phi) = diag(exp(-i*phi_k)) as [K,K].
CxTensor phase_column(const Tensor& phi);

// Column phase scaling: out[:, j] = a[:, j] * exp(-i*phi_j), i.e. A @ R(Phi)
// without materializing the diagonal or running a matmul. `phi` holds one
// phase per column ([M] or [1,M]).
CxTensor colphase_scale(const CxTensor& a, const Tensor& phi);

// Fused photonic block transfer P~ @ T @ R(Phi) (paper Eq. 2/6): `p` is the
// real [K,K] (relaxed) permutation, `t` the complex coupler column, `phi`
// the K phases. Forward is one real-by-complex gemm with the phase column
// applied in the kernel epilogue; backward is two real gemm pairs plus the
// analytic phase gradient — one compute node instead of the
// phase_column + cmatmul + 2 real matmuls composition.
CxTensor block_transfer(const Tensor& p, const CxTensor& t, const Tensor& phi);

// Gumbel-mix against the identity (paper Eq. 6): skip * I + select * block,
// with `skip`/`select` scalar [1] tensors. Two tape nodes; no materialized
// identity or scaled intermediates.
CxTensor cmix_identity(const Tensor& skip, const Tensor& select,
                       const CxTensor& block);

// Directional-coupler column transfer matrix T_b as [K,K] (paper Sec. 3.2).
//
// `t` holds one transmission coefficient per coupler slot. Slot i couples
// waveguides (s + 2i, s + 2i + 1) where s is the start parity. The 2x2 cell
// is [[t, j*sqrt(1-t^2)], [j*sqrt(1-t^2), t]]; t == 1 degenerates to a bar
// (identity) connection. Rows not covered by a slot pass through unchanged.
// Both the real diagonal entries (t) and the imaginary cross terms
// (sqrt(1-t^2)) carry gradients back into `t`.
CxTensor coupler_column(const Tensor& t, std::int64_t k, std::int64_t start);

// Row-wise l2 normalization of a complex matrix (norm over re^2 + im^2).
// Stabilizes relaxed SuperMesh unitaries during search (paper Sec. 3.3.2).
CxTensor row_normalize(const CxTensor& a, float eps = 1e-12f);
CxTensor col_normalize(const CxTensor& a, float eps = 1e-12f);

// ---- batched ([T,K,K]) chain ops --------------------------------------
// All tiles of a layer advance through each stage of the U/V block chain as
// ONE tape node (PtcWeight::weight_expr / SuperMesh::tile_unitary_batched).
// Every batched op is bit-exact against the per-tile composition it
// replaces — identical per-element accumulation order in the forward AND in
// every gradient, including the reverse-tile-order accumulation into
// operands shared across tiles — so the batched and per-tile weight paths
// agree to the bit at any thread count (asserted in tests).

// Batched complex matmul: a [T,N,P] x b [T,P,M] -> [T,N,M]. A 2-D b [P,M]
// is shared across the batch (e.g. the identity seeding a chain). One
// packed compute node; backward is two batched conjugate-transpose cgemms.
CxTensor bcmatmul(const CxTensor& a, const CxTensor& b);

// Batched column phase scaling of one shared matrix: out[t] = a @ R(phi[t])
// with a [N,M] shared and phi a [T,M] phase stack -> [T,N,M].
CxTensor bcolphase_scale(const CxTensor& a, const Tensor& phi);

// Batched fused block transfer over a [T,K] phase stack: out[t] =
// P~ @ T @ R(phi[t]). The tile-shared product P~ @ T runs as ONE
// real-by-complex gemm and the per-tile phase columns are applied as an
// epilogue — T tiles cost one K^3 gemm plus T*K^2 phase scalings instead of
// T K^3 gemms.
CxTensor bblock_transfer(const Tensor& p, const CxTensor& t, const Tensor& phi);

// Batched Gumbel identity mix: out[t] = skip * I + select * block[t] over a
// [T,K,K] block stack (skip/select scalar [1] tensors shared by all tiles).
CxTensor bcmix_identity(const Tensor& skip, const Tensor& select,
                        const CxTensor& block);

// Batched per-tile column scaling by a real [T,M] stack (U diag(Sigma)).
CxTensor bcscale_cols(const CxTensor& a, const Tensor& s);

// Per-tile row/column l2 normalization of a stacked [T,K,K] tensor.
CxTensor brow_normalize(const CxTensor& a, float eps = 1e-12f);
CxTensor bcol_normalize(const CxTensor& a, float eps = 1e-12f);

}  // namespace adept::ag
