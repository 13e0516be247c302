#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "autograd/complex.h"
#include "autograd/gradcheck.h"
#include "common/rng.h"
#include "photonics/devices.h"
#include "photonics/linalg.h"

namespace {

namespace ag = adept::ag;
namespace ph = adept::photonics;
using adept::Rng;
using ag::CxTensor;
using ag::Tensor;

// The pre-fusion lowering of a 2-D complex matmul (four real matmuls + two
// combines, 6 tape nodes): the reference the fused kernel is checked against.
CxTensor cmatmul_unfused(const CxTensor& a, const CxTensor& b) {
  Tensor re = ag::sub(ag::matmul(a.re, b.re), ag::matmul(a.im, b.im));
  Tensor im = ag::add(ag::matmul(a.re, b.im), ag::matmul(a.im, b.re));
  return {re, im};
}

Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng, bool rg) {
  std::int64_t n = 1;
  for (auto d : shape) n *= d;
  std::vector<float> d(static_cast<std::size_t>(n));
  for (auto& v : d) v = static_cast<float>(rng.uniform(-1, 1));
  return ag::make_tensor(std::move(d), std::move(shape), rg);
}

CxTensor random_cx(const std::vector<std::int64_t>& shape, Rng& rng, bool rg = true) {
  Tensor re = random_tensor(shape, rng, rg);
  return {re, random_tensor(shape, rng, rg)};
}

std::complex<double> cx_at(const CxTensor& t, std::int64_t i) {
  const auto at = static_cast<std::size_t>(i);
  return {t.re.data()[at], t.im.data()[at]};
}

// Tile `tile` of a stacked [T,N,M] complex tensor (or the whole of a 2-D one).
ph::CMat to_cmat(const CxTensor& t, std::int64_t tile = 0) {
  const bool stacked = t.re.ndim() == 3;
  const std::int64_t n = t.dim(stacked ? 1 : 0), m = t.dim(stacked ? 2 : 1);
  ph::CMat out(n, m);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < m; ++j) {
      out.at(i, j) = cx_at(t, (tile * n + i) * m + j);
    }
  }
  return out;
}

// Tile `tile` of a [T,N,M] stack as a 2-D expression that routes gradients
// back into the stack.
Tensor tile2d(const Tensor& x, std::int64_t tile) {
  const std::int64_t t = x.dim(0), n = x.dim(1), m = x.dim(2);
  return ag::slice2d(ag::reshape(x, {t * n, m}), tile * n, n, 0, m);
}

CxTensor tile2d(const CxTensor& x, std::int64_t tile) {
  return {tile2d(x.re, tile), tile2d(x.im, tile)};
}

std::vector<float> random_phases(std::int64_t n, Rng& rng) {
  std::vector<float> pv(static_cast<std::size_t>(n));
  for (auto& v : pv) v = static_cast<float>(rng.uniform(-3, 3));
  return pv;
}

Tensor sum_abs2(const CxTensor& c) {
  return ag::add(ag::sum(ag::square(c.re)), ag::sum(ag::square(c.im)));
}

TEST(Complex, CmatmulMatchesReference) {
  // bcmatmul against a std::complex loop, with a per-tile and a shared 2-D b.
  Rng rng(1);
  const std::int64_t t = 3, n = 3, p = 4, m = 2;
  CxTensor a = random_cx({t, n, p}, rng, false);
  CxTensor b = random_cx({t, p, m}, rng, false);
  CxTensor shared = random_cx({p, m}, rng, false);
  for (bool use_shared : {false, true}) {
    const CxTensor& bb = use_shared ? shared : b;
    CxTensor c = ag::bcmatmul(a, bb);
    ASSERT_EQ(c.shape(), (std::vector<std::int64_t>{t, n, m}));
    for (std::int64_t ti = 0; ti < t; ++ti) {
      const std::int64_t bt = use_shared ? 0 : ti;
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < m; ++j) {
          std::complex<double> ref = 0.0;
          for (std::int64_t q = 0; q < p; ++q) {
            ref += cx_at(a, (ti * n + i) * p + q) * cx_at(bb, (bt * p + q) * m + j);
          }
          const std::complex<double> got = cx_at(c, (ti * n + i) * m + j);
          EXPECT_NEAR(got.real(), ref.real(), 1e-5) << "shared " << use_shared;
          EXPECT_NEAR(got.imag(), ref.imag(), 1e-5) << "shared " << use_shared;
        }
      }
    }
  }
}

TEST(Complex, PhaseColumnMatchesDeviceModel) {
  // The identity scaled by each tile's phase column is R(Phi) = diag(e^{-i phi}).
  const std::vector<std::vector<double>> phis = {{0.3, -0.7, 2.1}, {-1.2, 0.0, 3.0}};
  Tensor phi = Tensor::from_data({2, 3}, {0.3f, -0.7f, 2.1f, -1.2f, 0.0f, 3.0f});
  CxTensor r = ag::bcolphase_scale(CxTensor::eye(3), phi);
  for (std::int64_t t = 0; t < 2; ++t) {
    const ph::CMat ref = ph::phase_column_matrix(phis[static_cast<std::size_t>(t)]);
    EXPECT_LT(ref.max_abs_diff(to_cmat(r, t)), 1e-5) << "tile " << t;
  }
}

TEST(Complex, CouplerColumnMatchesDeviceModel) {
  // 2 slots at parity 0 on K=4, t = (0.8, 0.6)
  Tensor t = Tensor::from_data({2}, {0.8f, 0.6f});
  CxTensor m = ag::coupler_column(t, 4, 0);
  const ph::CMat ref =
      ph::coupler_column_matrix(4, 0, {true, true}, {0.8, 0.6});
  EXPECT_LT(ref.max_abs_diff(to_cmat(m)), 1e-5);
}

TEST(Complex, CouplerColumnParityOnePassThrough) {
  Tensor t = Tensor::from_data({1}, {0.5f});
  CxTensor m = ag::coupler_column(t, 4, 1);
  // rows 0 and 3 are pass-through
  EXPECT_FLOAT_EQ(m.re.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.re.at(3, 3), 1.0f);
  EXPECT_FLOAT_EQ(m.im.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(m.re.at(1, 1), 0.5f);
}

TEST(Complex, CouplerColumnIsUnitary) {
  Tensor t = Tensor::from_data({3}, {0.7071f, 0.3f, 0.95f});
  CxTensor m = ag::coupler_column(t, 6, 0);
  EXPECT_LT(to_cmat(m).unitarity_error(), 1e-5);
}

TEST(Complex, CouplerColumnGradcheck) {
  std::vector<float> tv = {0.3f, 0.8f};
  Tensor t = ag::make_tensor(std::move(tv), {2}, true);
  auto fn = [](const std::vector<Tensor>& in) {
    return sum_abs2(ag::coupler_column(in[0], 4, 0));
  };
  const auto result = ag::gradcheck(fn, {t});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(Complex, PhaseChainGradcheck) {
  // Gradient flows through exp(-i phi) into a complex matmul chain.
  Rng rng(4);
  Tensor phi = ag::make_tensor(random_phases(8, rng), {2, 4}, true);
  CxTensor fixed = random_cx({4, 4}, rng, false);
  CxTensor next = random_cx({2, 4, 4}, rng, false);
  auto fn = [&](const std::vector<Tensor>& in) {
    return sum_abs2(ag::bcmatmul(ag::bcolphase_scale(fixed, in[0]), next));
  };
  EXPECT_TRUE(ag::gradcheck(fn, {phi}).ok);
}

TEST(Complex, RowNormalizeUnitRows) {
  Rng rng(6);
  CxTensor a = random_cx({2, 4, 4}, rng, false);
  CxTensor n = ag::brow_normalize(a);
  for (std::int64_t t = 0; t < 2; ++t) {
    const ph::CMat m = to_cmat(n, t);
    for (int i = 0; i < 4; ++i) {
      double norm = 0;
      for (int j = 0; j < 4; ++j) norm += std::norm(m.at(i, j));
      EXPECT_NEAR(norm, 1.0, 1e-4) << "tile " << t << " row " << i;
    }
  }
}

TEST(Complex, ColNormalizeUnitCols) {
  Rng rng(7);
  CxTensor a = random_cx({2, 4, 4}, rng, false);
  CxTensor n = ag::bcol_normalize(a);
  for (std::int64_t t = 0; t < 2; ++t) {
    const ph::CMat m = to_cmat(n, t);
    for (int j = 0; j < 4; ++j) {
      double norm = 0;
      for (int i = 0; i < 4; ++i) norm += std::norm(m.at(i, j));
      EXPECT_NEAR(norm, 1.0, 1e-4) << "tile " << t << " col " << j;
    }
  }
}

// ---- fused complex matmul / block transfer --------------------------------

TEST(ComplexFused, CmatmulMatchesUnfusedForwardAndGrads) {
  Rng rng(20);
  const std::int64_t t = 2;
  CxTensor a = random_cx({t, 5, 4}, rng);
  CxTensor b = random_cx({t, 4, 3}, rng);
  CxTensor fused = ag::bcmatmul(a, b);
  Tensor ref_head = Tensor::scalar(0.0f);
  for (std::int64_t ti = 0; ti < t; ++ti) {
    CxTensor ref = cmatmul_unfused(tile2d(a, ti), tile2d(b, ti));
    EXPECT_LT(to_cmat(ref).max_abs_diff(to_cmat(fused, ti)), 1e-5);
    ref_head = ag::add(ref_head, sum_abs2(ref));
  }

  // Same scalar head on both lowerings must give the same operand grads.
  sum_abs2(fused).backward();
  std::vector<std::vector<float>> fused_grads = {a.re.grad(), a.im.grad(),
                                                 b.re.grad(), b.im.grad()};
  for (auto* x : {&a.re, &a.im, &b.re, &b.im}) x->zero_grad();
  ref_head.backward();
  const std::vector<std::vector<float>*> ref_grads = {&a.re.grad(), &a.im.grad(),
                                                      &b.re.grad(), &b.im.grad()};
  for (std::size_t g = 0; g < fused_grads.size(); ++g) {
    for (std::size_t i = 0; i < fused_grads[g].size(); ++i) {
      EXPECT_NEAR(fused_grads[g][i], (*ref_grads[g])[i], 1e-5f)
          << "grad " << g << " elem " << i;
    }
  }
}

TEST(ComplexFused, CmatmulGradcheck) {
  // A shared 2-D right operand accumulates its gradient over every tile.
  Rng rng(21);
  CxTensor a = random_cx({2, 3, 4}, rng);
  CxTensor b = random_cx({4, 2}, rng);
  auto fn = [](const std::vector<Tensor>& in) {
    return sum_abs2(ag::bcmatmul({in[0], in[1]}, {in[2], in[3]}));
  };
  const auto result = ag::gradcheck(fn, {a.re, a.im, b.re, b.im});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(ComplexFused, CmatmulProducesSingleComputeNode) {
  Rng rng(22);
  CxTensor a = random_cx({2, 4, 4}, rng);
  CxTensor b = random_cx({2, 4, 4}, rng);
  const std::size_t before = ag::debug::op_nodes_created();
  CxTensor c = ag::bcmatmul(a, b);
  const std::size_t fused_nodes = ag::debug::op_nodes_created() - before;
  // One packed compute node + the two plane views that route its gradient.
  EXPECT_EQ(fused_nodes, 3u);
  // Both planes are views of the SAME compute node, which owns the four
  // operand planes: the product is exactly 1 tape node.
  ASSERT_EQ(c.re.impl()->parents.size(), 1u);
  ASSERT_EQ(c.im.impl()->parents.size(), 1u);
  EXPECT_EQ(c.re.impl()->parents[0].impl(), c.im.impl()->parents[0].impl());
  EXPECT_EQ(c.re.impl()->parents[0].impl()->parents.size(), 4u);
  // The legacy lowering costs six tape nodes per tile (4 matmuls + 2 combines).
  CxTensor a2 = random_cx({4, 4}, rng);
  CxTensor b2 = random_cx({4, 4}, rng);
  const std::size_t before_ref = ag::debug::op_nodes_created();
  cmatmul_unfused(a2, b2);
  EXPECT_EQ(ag::debug::op_nodes_created() - before_ref, 6u);
}

TEST(ComplexFused, CmatmulDroppedImagPlaneStillRoutesGrads) {
  // weight_expr keeps only w.re; gradients must still reach both operands.
  Rng rng(23);
  CxTensor a = random_cx({2, 3, 3}, rng);
  CxTensor b = random_cx({2, 3, 3}, rng);
  auto fn = [](const std::vector<Tensor>& in) {
    CxTensor c = ag::bcmatmul({in[0], in[1]}, {in[2], in[3]});
    return ag::sum(ag::square(c.re));  // imaginary plane dropped
  };
  EXPECT_TRUE(ag::gradcheck(fn, {a.re, a.im, b.re, b.im}).ok);
}

TEST(ComplexFused, BlockTransferMatchesComposition) {
  // Each tile is P~ @ T @ R(phi_t), composed in double precision.
  Rng rng(24);
  const std::int64_t k = 6, tiles = 3;
  CxTensor t = random_cx({k, k}, rng);
  Tensor p = random_tensor({k, k}, rng, true);
  Tensor phi = ag::make_tensor(random_phases(tiles * k, rng), {tiles, k}, true);
  CxTensor fused = ag::bblock_transfer(p, t, phi);
  ph::CMat pm(k, k);
  for (std::int64_t i = 0; i < k; ++i) {
    for (std::int64_t j = 0; j < k; ++j) pm.at(i, j) = p.at(i, j);
  }
  const ph::CMat pt = pm * to_cmat(t);
  for (std::int64_t ti = 0; ti < tiles; ++ti) {
    std::vector<double> phis(static_cast<std::size_t>(k));
    for (std::int64_t j = 0; j < k; ++j) {
      phis[static_cast<std::size_t>(j)] = phi.at(ti, j);
    }
    const ph::CMat ref = pt * ph::phase_column_matrix(phis);
    EXPECT_LT(ref.max_abs_diff(to_cmat(fused, ti)), 1e-5) << "tile " << ti;
  }
}

TEST(ComplexFused, BlockTransferGradcheck) {
  // A single tile: the [1,K] phase stack one-tile callers pass.
  Rng rng(25);
  const std::int64_t k = 4;
  CxTensor t = random_cx({k, k}, rng);
  Tensor p = random_tensor({k, k}, rng, true);
  Tensor phi = ag::make_tensor(random_phases(k, rng), {1, k}, true);
  auto fn = [](const std::vector<Tensor>& in) {
    return sum_abs2(ag::bblock_transfer(in[0], {in[1], in[2]}, in[3]));
  };
  EXPECT_TRUE(ag::gradcheck(fn, {p, t.re, t.im, phi}).ok);
}

TEST(ComplexFused, CmixIdentityGradcheck) {
  Rng rng(26);
  const std::int64_t k = 4, tiles = 2;
  CxTensor block = random_cx({tiles, k, k}, rng);
  Tensor skip = Tensor::scalar(0.3f, true);
  Tensor select = Tensor::scalar(0.7f, true);
  // Value: skip * I + select * block[t] for every tile.
  CxTensor mixed = ag::bcmix_identity(skip, select, block);
  for (std::int64_t t = 0; t < tiles; ++t) {
    for (std::int64_t i = 0; i < k; ++i) {
      for (std::int64_t j = 0; j < k; ++j) {
        const std::int64_t at = (t * k + i) * k + j;
        const std::complex<double> want =
            0.7 * cx_at(block, at) + (i == j ? 0.3 : 0.0);
        EXPECT_NEAR(mixed.re.data()[static_cast<std::size_t>(at)], want.real(), 1e-6f);
        EXPECT_NEAR(mixed.im.data()[static_cast<std::size_t>(at)], want.imag(), 1e-6f);
      }
    }
  }
  auto fn = [](const std::vector<Tensor>& in) {
    return sum_abs2(ag::bcmix_identity(in[0], in[1], {in[2], in[3]}));
  };
  EXPECT_TRUE(ag::gradcheck(fn, {skip, select, block.re, block.im}).ok);
}

TEST(ComplexFused, ColphaseScaleMatchesCmulAndGradchecks) {
  // out[t][i][j] = a[i][j] * exp(-i phi[t][j]) as a complex product.
  Rng rng(27);
  const std::int64_t k = 5, tiles = 2;
  CxTensor a = random_cx({k, k}, rng);
  Tensor phi = ag::make_tensor(random_phases(tiles * k, rng), {tiles, k}, true);
  CxTensor fused = ag::bcolphase_scale(a, phi);
  for (std::int64_t t = 0; t < tiles; ++t) {
    for (std::int64_t i = 0; i < k; ++i) {
      for (std::int64_t j = 0; j < k; ++j) {
        const std::complex<double> want =
            cx_at(a, i * k + j) * std::polar(1.0, -static_cast<double>(phi.at(t, j)));
        const std::complex<double> got = cx_at(fused, (t * k + i) * k + j);
        EXPECT_NEAR(got.real(), want.real(), 1e-5);
        EXPECT_NEAR(got.imag(), want.imag(), 1e-5);
      }
    }
  }
  auto fn = [](const std::vector<Tensor>& in) {
    return sum_abs2(ag::bcolphase_scale({in[0], in[1]}, in[2]));
  };
  EXPECT_TRUE(ag::gradcheck(fn, {a.re, a.im, phi}).ok);
}

}  // namespace
