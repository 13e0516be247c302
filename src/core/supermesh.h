// Probabilistic photonic SuperMesh (paper Sec. 3.3, Fig. 1).
//
// One SuperMesh models the searchable unitary pair (U, V). Each unitary has
// B_max/2 super blocks; super block b is either executed or skipped as an
// identity, with selection probability parametrized by logits theta_b and
// sampled through Gumbel-Softmax (Eq. 5-7). The last B_min/2 blocks per
// unitary are always on, lower-bounding the depth.
//
// Per-block searchable state:
//   theta_b   [2]      architecture logits (skip vs select)
//   t_b       [slots]  latent coupler coefficients, binarized via STE
//   P_b       [K,K]    relaxed permutation, reparametrized into Birkhoff
// Per-tile weights (phases Phi, diagonal Sigma) are owned by the caller
// (ONN layers / proxy tasks); the SuperMesh provides the per-step topology
// expressions shared by every tile.
//
// Usage per training step:
//   sm.begin_step(tau, rng, stochastic);     // sample + rebuild topology exprs
//   ag::CxTensor u = sm.tile_unitary(Side::u, phase_stacks);  // [T,K,K]
//   loss = task + alm.penalty(sm.all_relaxed_perms()) + sm.footprint_penalty(cfg)
#pragma once

#include <vector>

#include "autograd/complex.h"
#include "autograd/tensor.h"
#include "common/rng.h"
#include "core/footprint.h"
#include "core/spl.h"
#include "photonics/topology.h"

namespace adept::core {

enum class Side { u, v };

struct SuperMeshConfig {
  int k = 8;
  int super_blocks_per_unitary = 8;  // B_max / 2
  int always_on_per_unitary = 2;     // B_min / 2
  float proj_eps = 0.05f;            // soft-projection threshold (Eq. 11)
  bool normalize_unitaries = true;   // row/col l2 normalization (Sec. 3.3.2)
  double theta_init = 0.0;
  double t_init_range = 0.5;         // latent couplers ~ U(-r, r)

  // Derive a config from footprint bounds (Eq. 16), capped for tractability.
  static SuperMeshConfig from_bounds(int k, const FootprintConfig& footprint,
                                     int max_super_blocks_per_unitary = 16);
};

class SuperMesh {
 public:
  SuperMesh(const SuperMeshConfig& config, adept::Rng& rng);

  const SuperMeshConfig& config() const { return config_; }
  int k() const { return config_.k; }
  int blocks_per_unitary() const { return config_.super_blocks_per_unitary; }
  // Total super blocks across U and V (size of the ALM multiplier state).
  int total_blocks() const { return 2 * config_.super_blocks_per_unitary; }
  // DC start parity of block b (interleaved, Sec. 3.2).
  int block_parity(int b) const { return b % 2 == 0 ? 0 : 1; }
  bool block_always_on(int b) const {
    return b >= config_.super_blocks_per_unitary - config_.always_on_per_unitary;
  }

  // ---- parameter groups (for optimizers) ------------------------------
  std::vector<ag::Tensor> arch_params();         // theta logits
  std::vector<ag::Tensor> topology_weights();    // t latents + raw perms

  // ---- per-step topology expressions -----------------------------------
  // Rebuild Gumbel samples, reparametrized permutations, and quantized
  // coupler columns. `stochastic` enables Gumbel noise (training); without
  // it the sample is the plain softmax of theta (evaluation).
  void begin_step(double tau, adept::Rng& rng, bool stochastic = true);

  // Stacked mixed-block unitaries [T,K,K] for T tiles at once:
  // `phase_stacks[b]` is the [T,K] phase stack of block b (caller-owned; one
  // tile passes [1,K]). Builds on the expressions cached by begin_step; every
  // block advances all tiles through one batched tape node (bblock_transfer
  // / bcmix_identity / bcmatmul), and tile t's result does not depend on the
  // other rows of the stack.
  ag::CxTensor tile_unitary(Side side,
                            const std::vector<ag::Tensor>& phase_stacks) const;

  // All reparametrized permutations of the current step (U blocks then V),
  // for the ALM penalty.
  std::vector<ag::Tensor> all_relaxed_perms() const;

  // Probabilistic footprint penalty L_F for the current step (Eq. 15).
  ag::Tensor footprint_penalty_expr(const FootprintConfig& config) const;
  // True expected footprint E[F] in k-um^2 (hard counts, noise-free probs).
  double expected_footprint(const photonics::Pdk& pdk) const;
  // Noise-free selection probability of block b.
  double select_probability(Side side, int b) const;

  // ---- legalization and freezing ---------------------------------------
  // Replace every relaxed permutation by an SPL-legalized hard permutation
  // and stop optimizing it (paper: SPL at epoch 50, then continue training).
  void legalize_permutations(adept::Rng& rng, const SplConfig& spl = {});
  bool permutations_frozen() const { return perms_frozen_; }
  // Currently legalized / rounded permutation of a block (valid after
  // legalize_permutations, or best-effort rounding before).
  photonics::Permutation block_permutation(Side side, int b, adept::Rng& rng) const;

  // Sample a SubMesh honoring [f_min, f_max] (k-um^2) from the learned
  // selection distribution (paper Sec. 4.1 re-training step). Falls back to
  // the footprint-closest sample after max_tries.
  photonics::PtcTopology sample_topology(adept::Rng& rng, const photonics::Pdk& pdk,
                                         double f_min, double f_max,
                                         int max_tries = 256,
                                         const std::string& name = "ADEPT") const;

 private:
  struct UnitaryParams {
    std::vector<ag::Tensor> theta;     // [2] logits per block
    std::vector<ag::Tensor> t_latent;  // latent couplers per block
    std::vector<ag::Tensor> p_raw;     // raw relaxed perms per block
  };
  struct StepState {
    // m_{b,1} (skip) and m_{b,2} (select) as [1] scalars per block.
    std::vector<ag::Tensor> skip, select;
    std::vector<ag::Tensor> p_tilde;        // reparametrized perms
    std::vector<ag::Tensor> t_quantized;    // STE-binarized couplers
    std::vector<ag::CxTensor> coupler_mat;  // T_b matrices
  };

  const UnitaryParams& params(Side side) const {
    return side == Side::u ? u_ : v_;
  }
  UnitaryParams& params(Side side) { return side == Side::u ? u_ : v_; }
  const StepState& step(Side side) const {
    return side == Side::u ? step_u_ : step_v_;
  }

  UnitaryParams make_unitary(adept::Rng& rng) const;
  StepState make_step(const UnitaryParams& p, double tau, adept::Rng& rng,
                      bool stochastic) const;
  double hard_block_footprint(Side side, int b, const photonics::Pdk& pdk,
                              adept::Rng& rng) const;

  // Hard device counts of one block (DC count from t_latent, crossings from
  // the SPL-legalized permutation). PDK-independent, so one cache entry
  // serves every footprint query between parameter steps; begin_step and
  // legalize_permutations invalidate it.
  struct BlockCounts {
    bool valid = false;
    double dc = 0.0;
    double cr = 0.0;
  };
  const BlockCounts& cached_block_counts(Side side, int b, adept::Rng& rng) const;
  void invalidate_footprint_cache() const;

  SuperMeshConfig config_;
  UnitaryParams u_, v_;
  StepState step_u_, step_v_;
  bool step_ready_ = false;
  bool perms_frozen_ = false;
  mutable std::vector<BlockCounts> block_counts_[2];  // indexed by Side
};

}  // namespace adept::core
