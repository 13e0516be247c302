// Ablation bench for ADEPT's stabilization design choices (paper Sec. 3.3.2
// and Fig. 3; called out in DESIGN.md):
//
//   A. Permutation init: smoothed identity vs uniform vs hard random
//      permutation (paper: random permutations block gradient flow).
//   B. SPL projection: full SPL (softmax -> Procrustes -> perturb -> argmax)
//      vs naive row-argmax rounding, measured by legalization success rate
//      and extra crossings on saddle-ridden relaxed matrices.
//   C. Row/column l2 normalization of the relaxed unitaries: unitarity
//      error of the constructed U with and without it.
#include <cstdio>
#include <iostream>

#include "autograd/complex.h"
#include "autograd/ops.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/alm.h"
#include "core/reparam.h"
#include "core/spl.h"
#include "core/supermesh.h"
#include "optim/optimizer.h"
#include "photonics/permutation.h"

namespace ag = adept::ag;
namespace core = adept::core;
namespace ph = adept::photonics;

namespace {

// --- A: permutation learning from different initializations ---------------
//
// The task pulls P~ toward a target permutation (stand-in for "the
// permutation the NN loss wants"); the ALM enforces legality. A good init
// lets gradients move P to the target; a hard permutation init has zero
// entries (and rounded rows with stopped gradients), so it cannot move —
// exactly the paper's warning. Reported: final MSE(P~, target).
double alm_task_fit(ag::Tensor p_raw, const ag::Tensor& target, int steps) {
  core::AlmConfig config;
  config.rho0 = 1e-6;  // paper-scale rho0: task dominates early, constraint later
  core::AlmState alm(1, p_raw.dim(0), config);
  alm.set_horizon(steps);
  adept::optim::Adam opt({p_raw}, 5e-3);
  double fit = 0;
  for (int s = 0; s < steps; ++s) {
    ag::Tensor p_tilde = core::reparametrize_permutation(p_raw, 0.05f);
    ag::Tensor task = ag::mean(ag::square(ag::sub(p_tilde, target)));
    ag::Tensor loss = ag::add(task, alm.penalty({p_tilde}));
    opt.zero_grad();
    loss.backward();
    opt.step();
    alm.update({p_tilde});
    fit = task.item();
  }
  return fit;
}

ag::Tensor uniform_init(int k) {
  return ag::Tensor::full({k, k}, 1.0f / static_cast<float>(k), true);
}

ag::Tensor hard_random_init(int k, adept::Rng& rng) {
  const auto p = ph::Permutation::random(k, rng);
  std::vector<float> data(static_cast<std::size_t>(k * k), 0.0f);
  for (int i = 0; i < k; ++i) data[static_cast<std::size_t>(i * k + p(i))] = 1.0f;
  return ag::make_tensor(std::move(data), {k, k}, true);
}

// --- B: SPL vs naive rounding ----------------------------------------------
struct LegalizeStats {
  int legal = 0;
  long long extra_crossings = 0;
};

bool naive_round(const ph::RMat& m, ph::Permutation* out) {
  std::vector<int> map(static_cast<std::size_t>(m.rows()), -1);
  std::vector<bool> used(static_cast<std::size_t>(m.rows()), false);
  for (std::int64_t i = 0; i < m.rows(); ++i) {
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < m.cols(); ++j) {
      if (m.at(i, j) > m.at(i, best)) best = j;
    }
    if (used[static_cast<std::size_t>(best)]) return false;
    used[static_cast<std::size_t>(best)] = true;
    map[static_cast<std::size_t>(i)] = static_cast<int>(best);
  }
  *out = ph::Permutation(std::move(map));
  return true;
}

ph::RMat saddle_matrix(int k, adept::Rng& rng) {
  // Doubly-stochastic-ish matrix with deliberately tied rows (the Fig. 3
  // saddle pattern): several row pairs share their dominant columns.
  ph::RMat m(k, k);
  for (auto& v : m.data()) v = rng.uniform(0.0, 0.2);
  for (int i = 0; i + 1 < k; i += 2) {
    const int c = rng.uniform_int(0, k - 1);
    m.at(i, c) += 0.7;
    m.at(i + 1, c) += 0.7;  // both rows want column c
  }
  return m;
}

}  // namespace

int main() {
  const int k = 8;
  const int steps = adept::env_int("ADEPT_BENCH_ABL_STEPS", 600);
  adept::Rng rng(3);

  std::printf("Ablation A: permutation init (K=%d, %d ALM steps; final task MSE\n"
              "to a target permutation, lower = the init could be optimized)\n\n",
              k, steps);
  // Target: the reversal permutation (far from identity, far from random).
  const auto target_perm = ph::Permutation::reversal(k);
  std::vector<float> target_data(static_cast<std::size_t>(k * k), 0.0f);
  for (int i = 0; i < k; ++i) {
    target_data[static_cast<std::size_t>(i * k + target_perm(i))] = 1.0f;
  }
  const ag::Tensor target = ag::make_tensor(std::move(target_data), {k, k}, false);
  adept::Table init_table({"init", "final task MSE", "note"});
  init_table.add_row({"smoothed identity (paper)",
                      adept::Table::fmt(alm_task_fit(core::smoothed_identity_init(k, true), target, steps), 4),
                      "gradient flows everywhere"});
  init_table.add_row({"uniform 1/K",
                      adept::Table::fmt(alm_task_fit(uniform_init(k), target, steps), 4),
                      "symmetric saddle"});
  init_table.add_row({"hard random permutation",
                      adept::Table::fmt(alm_task_fit(hard_random_init(k, rng), target, steps), 4),
                      "zero entries block gradients (paper's warning)"});
  init_table.print(std::cout);

  std::printf("\nAblation B: SPL vs naive argmax rounding on %d saddle-ridden "
              "relaxed matrices\n\n", 100);
  LegalizeStats spl_stats, naive_stats;
  for (int trial = 0; trial < 100; ++trial) {
    const ph::RMat m = saddle_matrix(k, rng);
    ph::Permutation p;
    if (naive_round(m, &p)) {
      ++naive_stats.legal;
      naive_stats.extra_crossings += ph::crossing_count(p);
    }
    const auto sp = core::stochastic_permutation_legalization(m, rng);
    ++spl_stats.legal;  // SPL always returns a legal permutation
    spl_stats.extra_crossings += ph::crossing_count(sp);
  }
  adept::Table spl_table({"method", "legal/100", "mean crossings of legal"});
  spl_table.add_row({"naive row-argmax", std::to_string(naive_stats.legal),
                     naive_stats.legal
                         ? adept::Table::fmt(static_cast<double>(naive_stats.extra_crossings) /
                                                 naive_stats.legal, 2)
                         : std::string("-")});
  spl_table.add_row({"SPL (paper)", std::to_string(spl_stats.legal),
                     adept::Table::fmt(static_cast<double>(spl_stats.extra_crossings) / 100.0, 2)});
  spl_table.print(std::cout);

  std::printf("\nAblation C: row/col l2 normalization of relaxed unitaries "
              "(unitarity error of U, lower=more stable)\n\n");
  adept::Table norm_table({"normalization", "unitarity err (mean over 10 draws)"});
  for (bool normalize : {true, false}) {
    double err = 0;
    for (int trial = 0; trial < 10; ++trial) {
      adept::Rng trial_rng(100 + trial);
      core::SuperMeshConfig config;
      config.k = k;
      config.super_blocks_per_unitary = 4;
      config.always_on_per_unitary = 4;  // deterministic chain
      config.normalize_unitaries = normalize;
      core::SuperMesh mesh(config, trial_rng);
      mesh.begin_step(1.0, trial_rng, false);
      std::vector<ag::Tensor> phases;
      for (int b = 0; b < 4; ++b) {
        std::vector<float> phi(static_cast<std::size_t>(k));
        for (auto& p : phi) p = static_cast<float>(trial_rng.uniform(-3.14, 3.14));
        phases.push_back(ag::make_tensor(std::move(phi), {1, static_cast<std::int64_t>(k)}, false));
      }
      ag::NoGradGuard guard;
      ag::CxTensor u = mesh.tile_unitary(core::Side::u, phases);
      // ||U U^H - I||_max via the complex pair
      ph::CMat cm(k, k);
      for (int i = 0; i < k; ++i) {
        for (int j = 0; j < k; ++j) {
          const std::size_t ij = static_cast<std::size_t>(i * k + j);
          cm.at(i, j) = ph::cplx(u.re.data()[ij], u.im.data()[ij]);
        }
      }
      err += cm.unitarity_error();
    }
    norm_table.add_row({normalize ? "row/col l2 norm (paper)" : "off",
                        adept::Table::fmt(err / 10.0, 4)});
  }
  norm_table.print(std::cout);
  std::printf("\nTakeaways (paper Sec. 3.3.2): smoothed-identity init converges where\n"
              "hard-permutation init cannot; SPL always legalizes while naive rounding\n"
              "fails on ties; normalization keeps relaxed unitaries near-unitary.\n");
  return 0;
}
