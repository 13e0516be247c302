// Two-stage ADEPT SuperMesh search driver (paper Fig. 2, Sec. 3.3 / 4.1).
//
// Stage 1 (warmup): only SuperMesh weights (Sigma, Phi, T, P) train, with the
// ALM permutation penalty. Stage 2 (search): weight steps and architecture
// steps alternate at a 3:1 ratio; architecture steps update the block
// logits theta against the validation loss plus the footprint penalty. At
// the SPL epoch all relaxed permutations are legalized and frozen; training
// continues on the remaining parameters. Finally a SubMesh honoring the
// footprint constraint is sampled from the learned selection distribution.
//
// The task being optimized is abstracted behind ProxyTask so the same driver
// serves the built-in matrix-fitting proxy (tests, Fig. 5 ablations) and the
// CNN proxy in src/nn (paper main results).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "autograd/tensor.h"
#include "comm/communicator.h"
#include "common/rng.h"
#include "core/alm.h"
#include "core/footprint.h"
#include "core/spl.h"
#include "core/supermesh.h"
#include "photonics/topology.h"

namespace adept::core {

// A differentiable training task driving the search. Implementations own the
// per-tile weights (phases Phi, diagonals Sigma, plus any classifier
// parameters) and build their loss through SuperMesh::tile_unitary, which
// runs all tiles of a [T,K] phase stack through one batched chain.
class ProxyTask {
 public:
  virtual ~ProxyTask() = default;
  // Called once before training so the task can size its weights.
  virtual void bind(SuperMesh& mesh) = 0;
  // Build the loss of one whole batch (begin_step was already called) —
  // metrics and direct evaluation; search steps use the shard API below.
  // `validation` distinguishes the bilevel split (weights vs architecture).
  virtual ag::Tensor loss(SuperMesh& mesh, bool validation) = 0;
  // Task-owned trainable parameters.
  virtual std::vector<ag::Tensor> weights() = 0;
  // Optional scalar quality metric for traces (higher is better).
  virtual double metric(SuperMesh& mesh) { (void)mesh; return 0.0; }

  // ---- micro-shard support (every search step, src/comm) ---------------
  // A sharding task splits each step's loss into per-item-range shard
  // losses whose sum equals the step loss; AdeptSearcher::run then
  // distributes the shards over ranks with the fixed reduction order of
  // comm/sharded.h (results are bit-identical at any rank count). The
  // search needs it: run() rejects a task that does not support sharding.
  virtual bool supports_sharding() const { return false; }
  // Draw/pin this step's items — called exactly once per step on EVERY rank
  // (so any task-internal rng advances identically), inside the step's
  // open ag::StepScope, where the task may share step-invariant weights
  // (OnnProxyTask shares its PTC weights) — and return the item count to
  // shard over.
  virtual std::int64_t begin_step_items(bool validation) {
    (void)validation;
    return 0;
  }
  // Loss over items [lo, hi) of the pinned step data, scaled by 1/items so
  // the shard losses of one step sum to the step's full (mean) loss.
  virtual ag::Tensor loss_shard(SuperMesh& mesh, bool validation,
                                std::int64_t lo, std::int64_t hi,
                                std::int64_t items) {
    (void)mesh, (void)validation, (void)lo, (void)hi, (void)items;
    throw std::logic_error("ProxyTask: loss_shard not implemented");
  }
  // Width of the per-shard auxiliary stat row (order-dependent state the
  // task must replay in shard order — BatchNorm running stats); 0 = none.
  virtual std::int64_t stat_slots() const { return 0; }
  // Write the stats captured by the latest loss_shard backward into `row`
  // (stat_slots() floats).
  virtual void capture_shard_stats(float* row) { (void)row; }
  // Replay `shards` gathered rows (stat_slots() floats each, shard-major,
  // identical bits on every rank) in ascending shard order.
  virtual void apply_step_stats(const float* rows, int shards) {
    (void)rows, (void)shards;
  }
};

struct SearchConfig {
  SuperMeshConfig mesh;          // if mesh.k == 0, derived from footprint bounds
  FootprintConfig footprint;
  AlmConfig alm;
  SplConfig spl;
  int epochs = 90;
  int warmup_epochs = 10;
  int spl_epoch = 50;
  int steps_per_epoch = 20;
  int weight_steps_per_arch_step = 3;  // paper: 3:1
  double lr_weights = 1e-3;
  double lr_arch = 1e-3;
  double weight_decay_weights = 1e-4;  // on Phi and Sigma
  double weight_decay_arch = 5e-4;     // on theta
  double tau_start = 5.0;              // Gumbel temperature schedule
  double tau_end = 0.5;
  int max_super_blocks_per_unitary = 16;  // tractability cap on B_max/2
  std::uint64_t seed = 42;
};

// Per-step observability (drives Fig. 5 and EXPERIMENTS.md).
struct SearchTrace {
  std::vector<double> task_loss;
  std::vector<double> alm_lambda;         // mean multiplier
  std::vector<double> alm_rho;
  std::vector<double> permutation_error;  // mean l1-l2 gap
  std::vector<double> expected_footprint; // E[F] in k-um^2
  std::vector<double> footprint_penalty;  // L_F value
};

struct SearchResult {
  photonics::PtcTopology topology;
  SearchTrace trace;
  double final_metric = 0.0;
};

class AdeptSearcher {
 public:
  AdeptSearcher(const SearchConfig& config, ProxyTask& task);

  // Runs the micro-shard search step on the ranks of `comm`; each rank
  // must own its own AdeptSearcher + task replica built from the same
  // config/seed (see run_search_data_parallel); gradients are allreduced
  // right before the stepped optimizer's update. comm == nullptr runs the
  // same step on a world of 1. Bit-identical results at any world size in
  // {1, 2, 4, 8}. Throws std::invalid_argument if the task does not
  // support sharding.
  SearchResult run(comm::Communicator* comm = nullptr);
  SuperMesh& mesh() { return *mesh_; }
  const SearchConfig& config() const { return config_; }

 private:
  SearchConfig config_;
  ProxyTask& task_;
  std::unique_ptr<SuperMesh> mesh_;
  adept::Rng rng_;
};

// Data-parallel search entry point: spawns `ranks` in-process rank threads
// (0 = resolve the ADEPT_RANKS knob), builds one task replica per rank with
// `make_task` (replicas must be deterministic functions of their
// construction — same datasets, same seeds), runs the search on each, and
// returns rank 0's result, which equals AdeptSearcher::run() bit for bit.
SearchResult run_search_data_parallel(
    const SearchConfig& config,
    const std::function<std::unique_ptr<ProxyTask>()>& make_task,
    int ranks = 0);

// Built-in proxy: fit a bank of random target matrices with W = U Sigma V
// (real part), loss = mean squared error. Exercises the full search stack
// without the NN substrate; used by unit tests and the Fig. 5 ablations.
class MatrixFitTask : public ProxyTask {
 public:
  MatrixFitTask(int tiles, std::uint64_t seed);
  void bind(SuperMesh& mesh) override;
  ag::Tensor loss(SuperMesh& mesh, bool validation) override;
  std::vector<ag::Tensor> weights() override;
  double metric(SuperMesh& mesh) override;  // negative MSE

  // Micro-shard support: tiles are the shard items.
  bool supports_sharding() const override { return true; }
  std::int64_t begin_step_items(bool validation) override {
    (void)validation;
    return tiles_;
  }
  ag::Tensor loss_shard(SuperMesh& mesh, bool validation, std::int64_t lo,
                        std::int64_t hi, std::int64_t items) override;

 private:
  int tiles_;
  adept::Rng rng_;
  std::vector<ag::Tensor> targets_;       // [K,K] constants per tile
  std::vector<ag::Tensor> phi_u_, phi_v_;  // [block] -> [T,K] phase stack
  ag::Tensor sigma_;                       // [T,K]
};

}  // namespace adept::core
