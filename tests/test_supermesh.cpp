#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/supermesh.h"
#include "photonics/linalg.h"

namespace {

namespace ag = adept::ag;
namespace core = adept::core;
namespace ph = adept::photonics;
using adept::Rng;
using ag::Tensor;

core::SuperMeshConfig small_config(int k = 4, int blocks = 3, int always_on = 1) {
  core::SuperMeshConfig config;
  config.k = k;
  config.super_blocks_per_unitary = blocks;
  config.always_on_per_unitary = always_on;
  return config;
}

// One [tiles,K] phase stack per block, all zeros.
std::vector<Tensor> zero_phases(const core::SuperMesh& mesh, std::int64_t tiles = 1) {
  std::vector<Tensor> phases;
  for (int b = 0; b < mesh.blocks_per_unitary(); ++b) {
    phases.push_back(Tensor::zeros({tiles, mesh.k()}, true));
  }
  return phases;
}

// Tile `tile` of a stacked [T,K,K] complex tensor.
ph::CMat to_cmat(const ag::CxTensor& t, std::int64_t tile = 0) {
  const std::int64_t n = t.dim(1), m = t.dim(2);
  ph::CMat out(n, m);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < m; ++j) {
      const std::size_t at = static_cast<std::size_t>((tile * n + i) * m + j);
      out.at(i, j) = ph::cplx(t.re.data()[at], t.im.data()[at]);
    }
  }
  return out;
}

TEST(SuperMesh, ParameterGroupSizes) {
  Rng rng(1);
  core::SuperMesh mesh(small_config(4, 3, 1), rng);
  // theta per block per unitary
  EXPECT_EQ(mesh.arch_params().size(), 6u);
  // t + p_raw per block per unitary
  EXPECT_EQ(mesh.topology_weights().size(), 12u);
  EXPECT_EQ(mesh.total_blocks(), 6);
}

TEST(SuperMesh, RejectsBadConfig) {
  Rng rng(2);
  EXPECT_THROW(core::SuperMesh(small_config(5), rng), std::invalid_argument);
  EXPECT_THROW(core::SuperMesh(small_config(4, 0), rng), std::invalid_argument);
}

TEST(SuperMesh, AlwaysOnBlocksAreLast) {
  Rng rng(3);
  core::SuperMesh mesh(small_config(4, 4, 2), rng);
  EXPECT_FALSE(mesh.block_always_on(0));
  EXPECT_FALSE(mesh.block_always_on(1));
  EXPECT_TRUE(mesh.block_always_on(2));
  EXPECT_TRUE(mesh.block_always_on(3));
  EXPECT_DOUBLE_EQ(mesh.select_probability(core::Side::u, 2), 1.0);
}

TEST(SuperMesh, SelectProbabilityFollowsTheta) {
  Rng rng(4);
  core::SuperMesh mesh(small_config(4, 3, 0), rng);
  // theta init 0 -> probability 1/2
  EXPECT_NEAR(mesh.select_probability(core::Side::u, 0), 0.5, 1e-6);
  mesh.arch_params()[0].data()[1] = 5.0f;  // boost select logit of U block 0
  EXPECT_GT(mesh.select_probability(core::Side::u, 0), 0.95);
}

TEST(SuperMesh, TileUnitaryRequiresBeginStep) {
  Rng rng(5);
  core::SuperMesh mesh(small_config(), rng);
  EXPECT_THROW(mesh.tile_unitary(core::Side::u, zero_phases(mesh)),
               std::invalid_argument);
}

TEST(SuperMesh, TileUnitaryShapeAndGrads) {
  Rng rng(6);
  core::SuperMesh mesh(small_config(4, 3, 1), rng);
  mesh.begin_step(1.0, rng);
  auto phases = zero_phases(mesh, /*tiles=*/3);
  ag::CxTensor u = mesh.tile_unitary(core::Side::u, phases);
  EXPECT_EQ(u.shape(), (std::vector<std::int64_t>{3, 4, 4}));
  ag::Tensor loss = ag::add(ag::sum(ag::square(u.re)), ag::sum(ag::square(u.im)));
  loss.backward();
  // Gradients reach phases, theta, t, and P.
  EXPECT_TRUE(phases[0].has_grad());
  bool theta_grad = false;
  for (auto& t : mesh.arch_params()) theta_grad = theta_grad || t.has_grad();
  EXPECT_TRUE(theta_grad);
  bool weight_grad = false;
  for (auto& t : mesh.topology_weights()) weight_grad = weight_grad || t.has_grad();
  EXPECT_TRUE(weight_grad);
}

TEST(SuperMesh, RelaxedPermsCount) {
  Rng rng(7);
  core::SuperMesh mesh(small_config(4, 3, 1), rng);
  mesh.begin_step(1.0, rng);
  EXPECT_EQ(mesh.all_relaxed_perms().size(), 6u);
}

TEST(SuperMesh, LegalizeFreezesPermutations) {
  Rng rng(8);
  core::SuperMesh mesh(small_config(4, 3, 1), rng);
  EXPECT_FALSE(mesh.permutations_frozen());
  mesh.legalize_permutations(rng);
  EXPECT_TRUE(mesh.permutations_frozen());
  // Frozen perms are excluded from the trainable weights (t latents remain).
  EXPECT_EQ(mesh.topology_weights().size(), 6u);
  // Every block permutation is legal.
  for (int b = 0; b < mesh.blocks_per_unitary(); ++b) {
    const auto p = mesh.block_permutation(core::Side::u, b, rng);
    EXPECT_TRUE(ph::is_valid_permutation(p.map()));
  }
}

TEST(SuperMesh, UnitaryAfterLegalizationIsExactlyUnitary) {
  // Legal P, binarized t, and pure phases give a physical (unitary) mesh.
  Rng rng(9);
  core::SuperMesh mesh(small_config(4, 3, 3), rng);  // all blocks always-on
  mesh.legalize_permutations(rng);
  mesh.begin_step(0.5, rng, /*stochastic=*/false);
  // Two tiles: zero phases and random phases.
  auto phases = zero_phases(mesh, /*tiles=*/2);
  for (auto& p : phases) {
    for (std::int64_t j = 0; j < mesh.k(); ++j) {
      p.data()[static_cast<std::size_t>(mesh.k() + j)] =
          static_cast<float>(rng.uniform(-3.14, 3.14));
    }
  }
  ag::CxTensor u = mesh.tile_unitary(core::Side::u, phases);
  EXPECT_LT(to_cmat(u, 0).unitarity_error(), 1e-5);
  EXPECT_LT(to_cmat(u, 1).unitarity_error(), 1e-5);
}

TEST(SuperMesh, ExpectedFootprintRespondsToTheta) {
  Rng rng(10);
  core::SuperMesh mesh(small_config(8, 4, 1), rng);
  const ph::Pdk pdk = ph::Pdk::amf();
  const double base = mesh.expected_footprint(pdk);
  // Boost all select logits: expected footprint must increase.
  for (auto& theta : mesh.arch_params()) theta.data()[1] = 4.0f;
  EXPECT_GT(mesh.expected_footprint(pdk), base);
  // Suppress all: decrease below base.
  for (auto& theta : mesh.arch_params()) {
    theta.data()[1] = -4.0f;
  }
  EXPECT_LT(mesh.expected_footprint(pdk), base);
}

TEST(SuperMesh, ExpectedFootprintCacheStableAndInvalidatedByStep) {
  Rng rng(21);
  core::SuperMesh mesh(small_config(8, 4, 1), rng);
  const ph::Pdk pdk = ph::Pdk::amf();
  // Repeated queries between steps hit the (side, block) cache and must
  // agree exactly with the first (the SPL legalization inside is seeded).
  const double first = mesh.expected_footprint(pdk);
  EXPECT_EQ(mesh.expected_footprint(pdk), first);
  EXPECT_EQ(mesh.expected_footprint(pdk), first);
  // Mutating a coupler latent across a step boundary must be reflected: a
  // begin_step invalidates the cache, so the DC count changes the value.
  mesh.begin_step(1.0, rng, /*stochastic=*/false);
  for (auto& t : mesh.topology_weights()) {
    for (auto& v : t.data()) v = 0.9f;  // all couplers strongly "bar"
  }
  mesh.begin_step(1.0, rng, /*stochastic=*/false);
  const double after = mesh.expected_footprint(pdk);
  EXPECT_NE(after, first);
  EXPECT_EQ(mesh.expected_footprint(pdk), after);
}

TEST(SuperMesh, FootprintPenaltySignsMatchBranch) {
  Rng rng(11);
  core::SuperMesh mesh(small_config(8, 4, 1), rng);
  core::FootprintConfig config;
  config.pdk = ph::Pdk::amf();
  mesh.begin_step(1.0, rng);
  // Very tight budget -> over-budget branch -> positive penalty.
  config.f_min = 10;
  config.f_max = 20;
  EXPECT_GT(mesh.footprint_penalty_expr(config).item(), 0.0f);
  // Huge budget -> under-budget branch -> negative penalty.
  config.f_min = 5000;
  config.f_max = 9000;
  EXPECT_LT(mesh.footprint_penalty_expr(config).item(), 0.0f);
}

TEST(SuperMesh, SampleTopologyHonorsFootprintWhenFeasible) {
  Rng rng(12);
  core::SuperMesh mesh(small_config(8, 6, 1), rng);
  mesh.legalize_permutations(rng);
  const ph::Pdk pdk = ph::Pdk::amf();
  // A generous band containing achievable footprints.
  const auto topo = mesh.sample_topology(rng, pdk, 50, 700, 512, "test");
  topo.validate();
  const double f = topo.footprint_um2(pdk) / 1000.0;
  EXPECT_GE(f, 50.0);
  EXPECT_LE(f, 700.0);
  EXPECT_EQ(topo.name, "test");
  EXPECT_GE(topo.counts().blocks, 2);  // always-on blocks of U and V
}

TEST(SuperMesh, SampleTopologyParitiesInterleave) {
  Rng rng(13);
  core::SuperMesh mesh(small_config(8, 4, 4), rng);  // deterministic: all on
  mesh.legalize_permutations(rng);
  const auto topo = mesh.sample_topology(rng, ph::Pdk::amf(), 0, 1e9);
  ASSERT_EQ(topo.u_blocks.size(), 4u);
  EXPECT_EQ(topo.u_blocks[0].start, 0);
  EXPECT_EQ(topo.u_blocks[1].start, 1);
  EXPECT_EQ(topo.u_blocks[2].start, 0);
  EXPECT_EQ(topo.u_blocks[3].start, 1);
}

TEST(SuperMeshConfig, FromBoundsUsesEq16) {
  core::FootprintConfig fc;
  fc.pdk = ph::Pdk::amf();
  fc.f_min = 240;
  fc.f_max = 300;
  const auto config = core::SuperMeshConfig::from_bounds(8, fc);
  // B_max=6, B_min=3 (see test_footprint) -> per unitary 3 / 1.
  EXPECT_EQ(config.super_blocks_per_unitary, 3);
  EXPECT_EQ(config.always_on_per_unitary, 1);
  EXPECT_EQ(config.k, 8);
}

TEST(SuperMeshConfig, FromBoundsRespectsCap) {
  core::FootprintConfig fc;
  fc.pdk = ph::Pdk::amf();
  fc.f_min = 240;
  fc.f_max = 30000;
  const auto config = core::SuperMeshConfig::from_bounds(8, fc, 10);
  EXPECT_LE(config.super_blocks_per_unitary, 10);
}

}  // namespace
