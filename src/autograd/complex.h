// Complex tensors as (re, im) pairs of real autograd tensors.
//
// Photonic transfer matrices are complex-valued; representing them as two
// real tensors lets a single real-valued tape differentiate through complex
// matrix chains. Gradients are the standard real-pair gradients, i.e.
// dL/d(re) and dL/d(im) independently, which is exactly what training a
// real-valued loss requires.
//
// Every weight tile of a layer is W[t] = U[t] diag(Sigma[t]) V[t], and all
// tiles share one mesh topology (paper Eq. 2/6); only the phases and Sigma
// differ per tile. The chain ops are therefore batched over a leading tile
// axis: a [T,K,K] stack advances through each chain stage as ONE fused tape
// node (a packed [2,T,N,M] compute node plus two plane views that route its
// gradient), and a single tile is the T = 1 case. The products lower to the
// backend cgemm/rcgemm kernels; `bblock_transfer` folds a whole photonic
// block P~ @ T @ R(Phi) into one node.
//
// Determinism contract of the batched ops, at any thread count:
//   - tile independence: tile t's forward values and the gradients into
//     its own operands depend only on tile t's inputs, never on T or on
//     where the tile sits in the stack, so rows [t, t+1) of a stack
//     reproduce tile t of the full stack bit for bit (asserted in tests);
//   - operands shared by every tile (a block's P~ and T, the Gumbel
//     skip/select scalars, a 2-D matmul operand) accumulate their gradient
//     per tile in reverse tile order, and within one tile the IM-plane
//     contribution lands before the RE-plane one.
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

  static CxTensor eye(std::int64_t n);
};

// Directional-coupler column transfer matrix T_b as [K,K] (paper Sec. 3.2).
//
// `t` holds one transmission coefficient per coupler slot. Slot i couples
// waveguides (s + 2i, s + 2i + 1) where s is the start parity. The 2x2 cell
// is [[t, j*sqrt(1-t^2)], [j*sqrt(1-t^2), t]]; t == 1 degenerates to a bar
// (identity) connection. Rows not covered by a slot pass through unchanged.
// Both the real diagonal entries (t) and the imaginary cross terms
// (sqrt(1-t^2)) carry gradients back into `t`.
CxTensor coupler_column(const Tensor& t, std::int64_t k, std::int64_t start);

// ---- batched ([T,K,K]) chain ops --------------------------------------

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
