#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "backend/dispatch.h"
#include "core/search.h"

namespace {

namespace be = adept::backend;
namespace core = adept::core;
namespace ph = adept::photonics;

core::SearchConfig tiny_config() {
  core::SearchConfig config;
  config.mesh.k = 4;
  config.mesh.super_blocks_per_unitary = 3;
  config.mesh.always_on_per_unitary = 1;
  config.footprint.pdk = ph::Pdk::amf();
  config.footprint.f_min = 40;
  config.footprint.f_max = 240;
  config.epochs = 6;
  config.warmup_epochs = 1;
  config.spl_epoch = 3;
  config.steps_per_epoch = 10;
  config.alm.rho0 = 1e-4;
  config.seed = 21;
  return config;
}

TEST(Search, MatrixFitRunsAndProducesLegalTopology) {
  auto config = tiny_config();
  core::MatrixFitTask task(/*tiles=*/1, /*seed=*/5);
  core::AdeptSearcher searcher(config, task);
  const auto result = searcher.run();
  EXPECT_NO_THROW(result.topology.validate());
  EXPECT_GT(result.topology.u_blocks.size(), 0u);
  EXPECT_GT(result.topology.v_blocks.size(), 0u);
  // Every CR layer is a real permutation after SPL.
  for (const auto* blocks : {&result.topology.u_blocks, &result.topology.v_blocks}) {
    for (const auto& b : *blocks) {
      EXPECT_TRUE(ph::is_valid_permutation(b.perm.map()));
    }
  }
}

TEST(Search, TraceHasOneEntryPerStep) {
  auto config = tiny_config();
  core::MatrixFitTask task(1, 6);
  core::AdeptSearcher searcher(config, task);
  const auto result = searcher.run();
  const std::size_t steps =
      static_cast<std::size_t>(config.epochs * config.steps_per_epoch);
  EXPECT_EQ(result.trace.task_loss.size(), steps);
  EXPECT_EQ(result.trace.alm_rho.size(), steps);
  EXPECT_EQ(result.trace.expected_footprint.size(), steps);
}

TEST(Search, TaskLossDecreases) {
  auto config = tiny_config();
  config.epochs = 8;
  core::MatrixFitTask task(1, 7);
  core::AdeptSearcher searcher(config, task);
  const auto result = searcher.run();
  const auto& loss = result.trace.task_loss;
  const double head =
      std::accumulate(loss.begin(), loss.begin() + 10, 0.0) / 10.0;
  const double tail =
      std::accumulate(loss.end() - 10, loss.end(), 0.0) / 10.0;
  EXPECT_LT(tail, head);
}

TEST(Search, PermutationErrorDropsToZeroAfterSpl) {
  auto config = tiny_config();
  core::MatrixFitTask task(1, 8);
  core::AdeptSearcher searcher(config, task);
  const auto result = searcher.run();
  // After the SPL step the permutations are frozen -> error reported as 0.
  EXPECT_NEAR(result.trace.permutation_error.back(), 0.0, 1e-6);
  EXPECT_TRUE(searcher.mesh().permutations_frozen());
}

TEST(Search, RhoScheduleGrowsDuringTraining) {
  auto config = tiny_config();
  core::MatrixFitTask task(1, 9);
  core::AdeptSearcher searcher(config, task);
  const auto result = searcher.run();
  EXPECT_GT(result.trace.alm_rho.back(), result.trace.alm_rho.front());
}

TEST(Search, DerivesMeshFromBoundsWhenUnset) {
  auto config = tiny_config();
  config.mesh.super_blocks_per_unitary = 0;  // force Eq. 16 derivation
  config.mesh.k = 8;
  config.footprint.f_min = 240;
  config.footprint.f_max = 300;
  core::MatrixFitTask task(1, 10);
  core::AdeptSearcher searcher(config, task);
  EXPECT_EQ(searcher.config().mesh.super_blocks_per_unitary, 3);
  EXPECT_EQ(searcher.config().mesh.always_on_per_unitary, 1);
}

TEST(Search, FootprintPenaltySteersExpectedFootprintIntoBand) {
  // Architecture-driving property behind Fig. 5(b): with a tight budget the
  // expected footprint must decrease over training.
  auto config = tiny_config();
  config.mesh.k = 8;
  config.mesh.super_blocks_per_unitary = 6;
  config.mesh.always_on_per_unitary = 1;
  config.footprint.f_min = 100;
  config.footprint.f_max = 260;  // forces dropping blocks (all-on ~ way more)
  config.epochs = 8;
  config.warmup_epochs = 1;
  config.spl_epoch = 4;
  core::MatrixFitTask task(1, 11);
  core::AdeptSearcher searcher(config, task);
  const auto result = searcher.run();
  const auto& ef = result.trace.expected_footprint;
  const double head = std::accumulate(ef.begin(), ef.begin() + 10, 0.0) / 10.0;
  const double tail = std::accumulate(ef.end() - 10, ef.end(), 0.0) / 10.0;
  EXPECT_LT(tail, head);
}

TEST(Search, MetricImprovesOverUntrained) {
  auto config = tiny_config();
  config.epochs = 8;
  core::MatrixFitTask fresh(1, 12);
  {
    // Untrained baseline metric.
    adept::Rng rng(1);
    core::SuperMesh mesh(config.mesh, rng);
    fresh.bind(mesh);
    core::MatrixFitTask trained(1, 12);
    core::AdeptSearcher searcher(config, trained);
    const double untrained = fresh.metric(mesh);
    const auto result = searcher.run();
    EXPECT_GT(result.final_metric, untrained);
  }
}

// ---- golden trajectory -----------------------------------------------------

// Trace of a 5-tile matrix-fit search (4 micro-shards, the last holding 2
// tiles), recorded as hex floats when MatrixFitTask still built one [K,K]
// chain per tile. The batched [T,K] chain must reproduce it bit for bit:
// task loss at every step, the ALM state at the last step before SPL
// (step 7), the footprint terms at the last step, and the final metric.
struct GoldenTrace {
  double task_loss[16];
  double alm_lambda_7, permutation_error_7;
  double expected_footprint_15, footprint_penalty_15;
  double final_metric;
};

// The scalar level accumulates without FMA; avx2 and avx512 agree with each
// other on this workload.
constexpr GoldenTrace kGoldenScalar = {
    {0x1.8bee2d4p-2, 0x1.9226a58p-2, 0x1.6e930f4p-2, 0x1.6d003cp-2,
     0x1.81b015cp-2, 0x1.8a7f7bcp-2, 0x1.92d3d5cp-2, 0x1.8d78afcp-2,
     0x1.08411b2p-2, 0x1.ff1fd1p-3, 0x1.05e6eeep-2, 0x1.119bc22p-2,
     0x1.2ef61f2p-2, 0x1.11319d4p-2, 0x1.40a9846p-2, 0x1.329c304p-2},
    0x1.31cdfa5a3082bp-4, 0x1.aef7347878b59p-2,
    0x1.c4beeedb5da69p+6, 0x1.f3534p+2,
    -0x1.01e396p-2};
constexpr GoldenTrace kGoldenFma = {
    {0x1.8bee2b8p-2, 0x1.9226a5p-2, 0x1.6e93108p-2, 0x1.6d003c4p-2,
     0x1.81b0174p-2, 0x1.8a7f7bcp-2, 0x1.92d3d74p-2, 0x1.8d78af4p-2,
     0x1.08411b2p-2, 0x1.ff1fd28p-3, 0x1.05e6eeep-2, 0x1.119bc2ap-2,
     0x1.2ef61eep-2, 0x1.11319dp-2, 0x1.40a9842p-2, 0x1.329c304p-2},
    0x1.31cdfa6035ffbp-4, 0x1.aef7347fe60c1p-2,
    0x1.c4beeedb3f737p+6, 0x1.f3534p+2,
    -0x1.01e396p-2};

TEST(Search, MatrixFitTraceMatchesPerTileGolden) {
  auto config = tiny_config();
  config.footprint.f_max = 100;  // below E[F]: the footprint penalty is live
  config.epochs = 4;
  config.spl_epoch = 2;
  config.steps_per_epoch = 4;
  auto make_task = [] {
    return std::make_unique<core::MatrixFitTask>(/*tiles=*/5, /*seed=*/5);
  };
  for (be::SimdLevel level : be::available_simd_levels()) {
    be::SimdScope scope(level);
    const GoldenTrace& want =
        level == be::SimdLevel::scalar ? kGoldenScalar : kGoldenFma;
    for (int ranks : {1, 4}) {
      const auto r = core::run_search_data_parallel(config, make_task, ranks);
      const auto& tr = r.trace;
      const std::string where = std::string(be::simd_level_name(level)) +
                                " ranks " + std::to_string(ranks);
      ASSERT_EQ(tr.task_loss.size(), 16u);
      for (std::size_t i = 0; i < 16; ++i) {
        ASSERT_EQ(tr.task_loss[i], want.task_loss[i]) << where << " step " << i;
      }
      ASSERT_EQ(tr.alm_lambda[7], want.alm_lambda_7) << where;
      ASSERT_EQ(tr.permutation_error[7], want.permutation_error_7) << where;
      ASSERT_EQ(tr.expected_footprint[15], want.expected_footprint_15) << where;
      ASSERT_EQ(tr.footprint_penalty[15], want.footprint_penalty_15) << where;
      ASSERT_EQ(r.final_metric, want.final_metric) << where;
    }
  }
}

}  // namespace
