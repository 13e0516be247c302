// Batched multi-tile mesh evaluation: cgemm_batched must be bit-exact
// against per-item cgemm calls, the batched chain ops must keep tiles
// independent (a tile's chain does not depend on the rest of the stack, at
// any thread count), the batched weight must match the double-precision
// circuit model tile by tile, and the materialized eval-weight cache must
// invalidate exactly on parameter/noise version bumps (optimizer step,
// set_phase_noise, begin_step).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "autograd/complex.h"
#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "backend/kernels.h"
#include "backend/parallel.h"
#include "common/rng.h"
#include "common/version.h"
#include "core/supermesh.h"
#include "nn/onn_layers.h"
#include "optim/optimizer.h"
#include "photonics/builders.h"

namespace {

namespace ag = adept::ag;
namespace be = adept::backend;
namespace core = adept::core;
namespace nn = adept::nn;
namespace ph = adept::photonics;
using adept::Rng;
using ag::CxTensor;
using ag::Tensor;

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1, 1));
  return v;
}

Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng, bool rg = false) {
  std::int64_t n = 1;
  for (auto d : shape) n *= d;
  return ag::make_tensor(random_vec(static_cast<std::size_t>(n), rng),
                         std::move(shape), rg);
}

// ---- cgemm_batched vs per-item cgemm --------------------------------------

void check_cgemm_batched_variant(be::CTrans ta, be::CTrans tb, float beta) {
  const std::int64_t t = 5, k = 9;  // odd K exercises the pairing tail
  Rng rng(7);
  const std::size_t kk = static_cast<std::size_t>(k * k);
  std::vector<float> ar = random_vec(t * kk, rng), ai = random_vec(t * kk, rng);
  std::vector<float> br = random_vec(t * kk, rng), bi = random_vec(t * kk, rng);
  std::vector<float> seed_c = random_vec(t * kk, rng), seed_ci = random_vec(t * kk, rng);
  std::vector<float> ref_r = seed_c, ref_i = seed_ci;
  for (std::int64_t ti = 0; ti < t; ++ti) {
    be::cgemm(ta, tb, k, k, k, ar.data() + ti * kk, ai.data() + ti * kk, k,
              br.data() + ti * kk, bi.data() + ti * kk, k, beta,
              ref_r.data() + ti * kk, ref_i.data() + ti * kk, k);
  }
  for (int threads : {1, 2, 8}) {
    be::ThreadScope scope(threads);
    std::vector<float> out_r = seed_c, out_i = seed_ci;
    be::cgemm_batched(ta, tb, t, k, k, k, ar.data(), ai.data(), kk, k,
                      br.data(), bi.data(), kk, k, beta, out_r.data(),
                      out_i.data(), kk, k);
    for (std::size_t i = 0; i < out_r.size(); ++i) {
      ASSERT_EQ(out_r[i], ref_r[i]) << "re elem " << i << " threads " << threads;
      ASSERT_EQ(out_i[i], ref_i[i]) << "im elem " << i << " threads " << threads;
    }
  }
}

TEST(CgemmBatched, BitExactVsPerItemAllVariants) {
  for (be::CTrans ta : {be::CTrans::N, be::CTrans::T, be::CTrans::H}) {
    for (be::CTrans tb : {be::CTrans::N, be::CTrans::T, be::CTrans::H}) {
      check_cgemm_batched_variant(ta, tb, 0.0f);
      check_cgemm_batched_variant(ta, tb, 1.0f);
    }
  }
}

TEST(CgemmBatched, SharedOperandsViaZeroStride) {
  const std::int64_t t = 4, k = 8;
  Rng rng(9);
  const std::size_t kk = static_cast<std::size_t>(k * k);
  std::vector<float> ar = random_vec(t * kk, rng), ai = random_vec(t * kk, rng);
  std::vector<float> br = random_vec(kk, rng), bi = random_vec(kk, rng);
  for (be::CTrans tb : {be::CTrans::N, be::CTrans::T, be::CTrans::H}) {
    std::vector<float> ref_r(t * kk), ref_i(t * kk);
    for (std::int64_t ti = 0; ti < t; ++ti) {
      be::cgemm(be::CTrans::N, tb, k, k, k, ar.data() + ti * kk,
                ai.data() + ti * kk, k, br.data(), bi.data(), k, 0.0f,
                ref_r.data() + ti * kk, ref_i.data() + ti * kk, k);
    }
    for (int threads : {1, 2, 8}) {
      be::ThreadScope scope(threads);
      std::vector<float> out_r(t * kk), out_i(t * kk);
      be::cgemm_batched(be::CTrans::N, tb, t, k, k, k, ar.data(), ai.data(),
                        kk, k, br.data(), bi.data(), /*stride_b=*/0, k, 0.0f,
                        out_r.data(), out_i.data(), kk, k);
      for (std::size_t i = 0; i < out_r.size(); ++i) {
        ASSERT_EQ(out_r[i], ref_r[i]);
        ASSERT_EQ(out_i[i], ref_i[i]);
      }
    }
    // Shared A (stride_a = 0) against the same per-item loop.
    std::vector<float> ref2_r(t * kk), ref2_i(t * kk);
    for (std::int64_t ti = 0; ti < t; ++ti) {
      be::cgemm(be::CTrans::N, tb, k, k, k, ar.data(), ai.data(), k,
                br.data(), bi.data(), k, 0.0f, ref2_r.data() + ti * kk,
                ref2_i.data() + ti * kk, k);
    }
    std::vector<float> out_r(t * kk), out_i(t * kk);
    be::cgemm_batched(be::CTrans::N, tb, t, k, k, k, ar.data(), ai.data(),
                      /*stride_a=*/0, k, br.data(), bi.data(), 0, k, 0.0f,
                      out_r.data(), out_i.data(), kk, k);
    for (std::size_t i = 0; i < out_r.size(); ++i) {
      ASSERT_EQ(out_r[i], ref2_r[i]);
      ASSERT_EQ(out_i[i], ref2_i[i]);
    }
  }
}

// ---- batched tape ops: gradchecks -----------------------------------------

TEST(BatchedOps, BcmatmulGradcheck) {
  Rng rng(11);
  const std::int64_t t = 2, k = 3;
  auto fn = [&](const std::vector<Tensor>& in) {
    CxTensor a{in[0], in[1]}, b{in[2], in[3]};
    CxTensor c = ag::bcmatmul(a, b);
    return ag::add(ag::sum(ag::square(c.re)), ag::sum(ag::square(c.im)));
  };
  auto result = ag::gradcheck(fn, {random_tensor({t, k, k}, rng, true),
                                   random_tensor({t, k, k}, rng, true),
                                   random_tensor({t, k, k}, rng, true),
                                   random_tensor({t, k, k}, rng, true)});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(BatchedOps, BblockTransferGradcheck) {
  Rng rng(12);
  const std::int64_t t = 2, k = 4;
  auto fn = [&](const std::vector<Tensor>& in) {
    CxTensor tc{in[1], in[2]};
    CxTensor out = ag::bblock_transfer(in[0], tc, in[3]);
    return ag::add(ag::sum(ag::square(out.re)), ag::sum(ag::square(out.im)));
  };
  auto result = ag::gradcheck(fn, {random_tensor({k, k}, rng, true),
                                   random_tensor({k, k}, rng, true),
                                   random_tensor({k, k}, rng, true),
                                   random_tensor({t, k}, rng, true)});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(BatchedOps, BcolphaseScaleGradcheck) {
  Rng rng(13);
  const std::int64_t t = 3, k = 4;
  auto fn = [&](const std::vector<Tensor>& in) {
    CxTensor a{in[0], in[1]};
    CxTensor out = ag::bcolphase_scale(a, in[2]);
    return ag::add(ag::sum(ag::square(out.re)), ag::sum(ag::square(out.im)));
  };
  auto result = ag::gradcheck(fn, {random_tensor({k, k}, rng, true),
                                   random_tensor({k, k}, rng, true),
                                   random_tensor({t, k}, rng, true)});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(BatchedOps, BcmixIdentityGradcheck) {
  Rng rng(14);
  const std::int64_t t = 2, k = 3;
  auto fn = [&](const std::vector<Tensor>& in) {
    CxTensor block{in[2], in[3]};
    CxTensor out = ag::bcmix_identity(in[0], in[1], block);
    return ag::add(ag::sum(ag::square(out.re)), ag::sum(ag::square(out.im)));
  };
  auto result = ag::gradcheck(fn, {Tensor::scalar(0.3f, true),
                                   Tensor::scalar(0.7f, true),
                                   random_tensor({t, k, k}, rng, true),
                                   random_tensor({t, k, k}, rng, true)});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(BatchedOps, BscaleColsAndTileColSumGradcheck) {
  Rng rng(15);
  const std::int64_t t = 3, n = 4, m = 2;
  auto fn = [&](const std::vector<Tensor>& in) {
    return ag::sum(ag::square(ag::bscale_cols(in[0], in[1])));
  };
  auto result = ag::gradcheck(fn, {random_tensor({t, n, m}, rng, true),
                                   random_tensor({t, m}, rng, true)});
  EXPECT_TRUE(result.ok) << result.detail;
  auto fn2 = [&](const std::vector<Tensor>& in) {
    return ag::sum(ag::square(ag::tile_col_sum(in[0])));
  };
  auto result2 = ag::gradcheck(fn2, {random_tensor({t, n, m}, rng, true)});
  EXPECT_TRUE(result2.ok) << result2.detail;
}

TEST(BatchedOps, BlockMatrixStackedMatchesTileList) {
  Rng rng(16);
  const std::int64_t p = 2, q = 3, k = 4;
  Tensor stacked = random_tensor({p * q, k, k}, rng, true);
  std::vector<Tensor> tiles;
  for (std::int64_t t = 0; t < p * q; ++t) {
    std::vector<float> d(stacked.data().begin() + t * k * k,
                         stacked.data().begin() + (t + 1) * k * k);
    tiles.push_back(ag::make_tensor(std::move(d), {k, k}, false));
  }
  Tensor a = ag::block_matrix(stacked, p, q);
  Tensor b = ag::block_matrix(tiles, p, q);
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]);
  }
  auto fn = [&](const std::vector<Tensor>& in) {
    return ag::sum(ag::square(ag::block_matrix(in[0], p, q)));
  };
  auto result = ag::gradcheck(fn, {stacked});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(BatchedOps, BrowBcolNormalizeGradcheck) {
  Rng rng(17);
  const std::int64_t t = 2, k = 3;
  for (bool rows : {true, false}) {
    auto fn = [&](const std::vector<Tensor>& in) {
      CxTensor a{in[0], in[1]};
      CxTensor out = rows ? ag::brow_normalize(a) : ag::bcol_normalize(a);
      // A non-symmetric head: sum of squares of a unit-norm slice is constant.
      return ag::add(ag::sum(ag::mul(out.re, in[2])), ag::sum(ag::mul(out.im, in[3])));
    };
    auto result = ag::gradcheck(fn, {random_tensor({t, k, k}, rng, true),
                                     random_tensor({t, k, k}, rng, true),
                                     random_tensor({t, k, k}, rng),
                                     random_tensor({t, k, k}, rng)});
    EXPECT_TRUE(result.ok) << (rows ? "rows: " : "cols: ") << result.detail;
  }
}

// ---- batched weight vs the circuit model ----------------------------------

TEST(BatchedWeight, FixedTopologyTilesMatchCircuitModel) {
  Rng rng(21);
  auto topo = std::make_shared<ph::PtcTopology>(ph::butterfly(8));
  // 20 x 14 with K=8 -> 3x2 tile grid with slicing.
  nn::PtcWeight w(20, 14, nn::PtcBinding::fixed(topo), rng);
  ASSERT_EQ(w.tile_rows(), 3);
  ASSERT_EQ(w.tile_cols(), 2);
  const std::int64_t k = 8;
  const Tensor weight = w.weight_expr();
  ASSERT_EQ(weight.shape(), (std::vector<std::int64_t>{20, 14}));
  // Row t of every [T,K] stack, widened to the circuit model's doubles.
  auto row = [&](const Tensor& stack, std::int64_t t) {
    std::vector<double> out(static_cast<std::size_t>(k));
    for (std::int64_t j = 0; j < k; ++j) out[static_cast<std::size_t>(j)] = stack.at(t, j);
    return out;
  };
  for (std::int64_t tr = 0; tr < w.tile_rows(); ++tr) {
    for (std::int64_t tc = 0; tc < w.tile_cols(); ++tc) {
      const std::int64_t t = tr * w.tile_cols() + tc;
      ph::MeshPhases u, v;
      for (const auto& s : w.phi_u()) u.per_block.push_back(row(s, t));
      for (const auto& s : w.phi_v()) v.per_block.push_back(row(s, t));
      const ph::CMat ref = ph::weight_transfer(*topo, u, v, row(w.sigma_stack(), t));
      for (std::int64_t i = 0; i < k && tr * k + i < 20; ++i) {
        for (std::int64_t j = 0; j < k && tc * k + j < 14; ++j) {
          EXPECT_NEAR(weight.at(tr * k + i, tc * k + j), ref.at(i, j).real(), 5e-4)
              << "tile " << t << " at (" << i << "," << j << ")";
        }
      }
    }
  }
}

// ---- SuperMesh chains: tile independence -----------------------------------

// tile_unitary over rows [t, t+1) of the phase stacks must reproduce tile t
// of the full-stack chain bit for bit — values and phase gradients — on both
// unitaries and at any thread count. `reset` replays the step's Gumbel draws
// before every pass so each backward runs on a fresh tape.
void expect_tile_rows_match_full_stack(core::SuperMesh& mesh, std::int64_t tiles,
                                       Rng& rng,
                                       const std::function<void()>& reset) {
  const std::int64_t k = mesh.k(), kk = k * k;
  for (core::Side side : {core::Side::u, core::Side::v}) {
    std::vector<Tensor> stacks;
    for (int b = 0; b < mesh.blocks_per_unitary(); ++b) {
      stacks.push_back(random_tensor({tiles, k}, rng, true));
    }
    // Runs one chain with a sum-of-squares head and returns its values.
    auto pass = [&](const std::vector<Tensor>& phases) {
      for (auto& s : stacks) s.zero_grad();
      CxTensor u = mesh.tile_unitary(side, phases);
      ag::add(ag::sum(ag::square(u.re)), ag::sum(ag::square(u.im))).backward();
      return u;
    };
    for (int threads : {1, 2, 8}) {
      be::ThreadScope scope(threads);
      reset();
      const CxTensor full = pass(stacks);
      std::vector<std::vector<float>> full_grads;
      for (auto& s : stacks) full_grads.push_back(s.grad());
      for (std::int64_t t = 0; t < tiles; ++t) {
        std::vector<Tensor> rows;
        for (auto& s : stacks) rows.push_back(ag::slice2d(s, t, 1, 0, k));
        reset();
        const CxTensor one = pass(rows);
        for (std::int64_t i = 0; i < kk; ++i) {
          const auto at = static_cast<std::size_t>(t * kk + i);
          ASSERT_EQ(one.re.data()[static_cast<std::size_t>(i)], full.re.data()[at])
              << "tile " << t << " threads " << threads;
          ASSERT_EQ(one.im.data()[static_cast<std::size_t>(i)], full.im.data()[at])
              << "tile " << t << " threads " << threads;
        }
        for (std::size_t b = 0; b < stacks.size(); ++b) {
          for (std::int64_t j = 0; j < k; ++j) {
            const auto at = static_cast<std::size_t>(t * k + j);
            ASSERT_EQ(stacks[b].grad()[at], full_grads[b][at])
                << "block " << b << " tile " << t << " threads " << threads;
          }
        }
      }
    }
  }
}

TEST(BatchedWeight, SuperMeshBitExactMultiTile) {
  Rng rng(22);
  core::SuperMeshConfig config;
  config.k = 4;
  config.super_blocks_per_unitary = 3;
  config.always_on_per_unitary = 1;
  core::SuperMesh mesh(config, rng);  // row/col normalization on
  const Rng step_rng = rng;
  expect_tile_rows_match_full_stack(mesh, /*tiles=*/5, rng, [&] {
    Rng r = step_rng;
    mesh.begin_step(1.0, r, /*stochastic=*/true);
  });
}

TEST(BatchedWeight, SuperMeshBitExactAfterLegalization) {
  Rng rng(23);
  core::SuperMeshConfig config;
  config.k = 4;
  config.super_blocks_per_unitary = 2;
  config.always_on_per_unitary = 2;  // deterministic chain
  core::SuperMesh mesh(config, rng);
  mesh.legalize_permutations(rng);
  const Rng step_rng = rng;
  expect_tile_rows_match_full_stack(mesh, /*tiles=*/3, rng, [&] {
    Rng r = step_rng;
    mesh.begin_step(0.5, r, /*stochastic=*/false);
  });
}

// ---- eval-time weight cache ----------------------------------------------

TEST(WeightCache, ReusedUnderNoGradUntilOptimizerStep) {
  Rng rng(31);
  auto topo = std::make_shared<ph::PtcTopology>(ph::butterfly(8));
  nn::ONNLinear fc(8, 8, nn::PtcBinding::fixed(topo), rng, /*bias=*/false);
  auto params = fc.parameters();
  adept::optim::Sgd opt(params, 0.1);
  {
    ag::NoGradGuard guard;
    Tensor w1 = fc.weight().weight_expr();
    Tensor w2 = fc.weight().weight_expr();
    EXPECT_EQ(w1.impl(), w2.impl());  // same materialized tensor reused
    // An optimizer step bumps the version: the cache must rebuild.
    for (auto& p : params) {
      auto& g = p.grad();
      for (auto& v : g) v = 0.25f;
    }
    opt.step();
    Tensor w3 = fc.weight().weight_expr();
    EXPECT_NE(w1.impl(), w3.impl());
    bool changed = false;
    for (std::size_t i = 0; i < w1.data().size(); ++i) {
      changed = changed || w1.data()[i] != w3.data()[i];
    }
    EXPECT_TRUE(changed);
  }
  // With gradients tracked the expression must be rebuilt every time (it
  // has to be part of the fresh tape).
  Tensor w4 = fc.weight().weight_expr();
  Tensor w5 = fc.weight().weight_expr();
  EXPECT_NE(w4.impl(), w5.impl());
}

TEST(WeightCache, InvalidatedBySetPhaseNoise) {
  Rng rng(32);
  auto topo = std::make_shared<ph::PtcTopology>(ph::butterfly(8));
  nn::ONNLinear fc(8, 8, nn::PtcBinding::fixed(topo), rng, false);
  ag::NoGradGuard guard;
  Tensor w1 = fc.weight().weight_expr();
  fc.set_phase_noise(0.05, 99);
  // Noise active: never cached (fresh drift per forward).
  Tensor n1 = fc.weight().weight_expr();
  Tensor n2 = fc.weight().weight_expr();
  EXPECT_NE(n1.impl(), n2.impl());
  bool differs = false;
  for (std::size_t i = 0; i < n1.data().size(); ++i) {
    differs = differs || n1.data()[i] != n2.data()[i];
  }
  EXPECT_TRUE(differs);
  // Back to nominal: cache again, and the nominal weight is recovered.
  fc.set_phase_noise(0.0, 0);
  Tensor w2 = fc.weight().weight_expr();
  EXPECT_EQ(w2.impl(), fc.weight().weight_expr().impl());
  for (std::size_t i = 0; i < w1.data().size(); ++i) {
    ASSERT_EQ(w1.data()[i], w2.data()[i]);
  }
}

TEST(WeightCache, InvalidatedByBeginStep) {
  Rng rng(33);
  core::SuperMeshConfig config;
  config.k = 4;
  config.super_blocks_per_unitary = 2;
  config.always_on_per_unitary = 1;
  core::SuperMesh mesh(config, rng);
  nn::ONNLinear fc(4, 4, nn::PtcBinding::searched(&mesh), rng, false);
  mesh.begin_step(1.0, rng, /*stochastic=*/true);
  ag::NoGradGuard guard;
  Tensor w1 = fc.weight().weight_expr();
  EXPECT_EQ(w1.impl(), fc.weight().weight_expr().impl());
  mesh.begin_step(1.0, rng, /*stochastic=*/true);  // fresh Gumbel sample
  Tensor w2 = fc.weight().weight_expr();
  EXPECT_NE(w1.impl(), w2.impl());
}

// ---- state-leak regressions (the two bugfixes) ----------------------------

}  // namespace
