#include "core/search.h"

#include <cmath>
#include <numbers>

#include "comm/sharded.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optim/optimizer.h"
#include "optim/schedule.h"

namespace adept::core {

using ag::CxTensor;
using ag::Tensor;

AdeptSearcher::AdeptSearcher(const SearchConfig& config, ProxyTask& task)
    : config_(config), task_(task), rng_(config.seed) {
  SuperMeshConfig mesh_config = config_.mesh;
  if (mesh_config.super_blocks_per_unitary == 0) {
    // Depth bounds not given explicitly: derive B_max/B_min from the
    // footprint constraint (Eq. 16).
    mesh_config = SuperMeshConfig::from_bounds(config_.mesh.k, config_.footprint,
                                               config_.max_super_blocks_per_unitary);
  }
  mesh_ = std::make_unique<SuperMesh>(mesh_config, rng_);
  config_.mesh = mesh_config;
  task_.bind(*mesh_);
}

SearchResult AdeptSearcher::run(comm::Communicator* comm) {
  if (!task_.supports_sharding()) {
    throw std::invalid_argument(
        "AdeptSearcher: the search runs micro-shard steps, and this task "
        "does not implement the ProxyTask shard API (supports_sharding, "
        "begin_step_items, loss_shard)");
  }
  if (comm == nullptr) {
    SearchResult result;
    comm::run_ranks(1, [&](comm::Communicator& c) { result = run(&c); });
    return result;
  }
  SearchResult result;
  const int total_steps = config_.epochs * config_.steps_per_epoch;
  const int spl_step = config_.spl_epoch * config_.steps_per_epoch;

  // Search telemetry (docs/observability.md): per-step wall time + span on
  // every rank (per-rank skew shows in the trace), loss/penalty gauges
  // tracking the latest step, and a counter for SPL legalization events.
  // The traced values are rank-identical by the bit-exactness contract, so
  // rank 0 records for everyone.
  obs::Histogram& step_us = obs::histogram("search.step_us");
  obs::Gauge& g_task_loss = obs::gauge("search.task_loss");
  obs::Gauge& g_footprint_penalty = obs::gauge("search.footprint_penalty");
  obs::Counter& legalizations = obs::counter("search.legalize_count");
  static const obs::TraceId t_step = obs::intern_name("search.step");
  const bool telemetry_rank = comm->rank() == 0;

  AlmState alm(static_cast<std::size_t>(mesh_->total_blocks()), config_.mesh.k,
               config_.alm);
  alm.set_horizon(spl_step);

  auto weight_params = [&]() {
    std::vector<Tensor> params = mesh_->topology_weights();
    for (auto& w : task_.weights()) params.push_back(w);
    return params;
  };
  // Every differentiable leaf a loss graph can touch: a step runs several
  // backward passes (one per owned shard + one for the replicated
  // penalties), and the penalty pass must start from zeroed grads.
  auto all_params = [&]() {
    std::vector<Tensor> params = weight_params();
    for (auto& a : mesh_->arch_params()) params.push_back(a);
    return params;
  };
  auto weight_opt = std::make_unique<optim::Adam>(
      weight_params(), config_.lr_weights, 0.9, 0.999, 1e-8,
      config_.weight_decay_weights);
  optim::Adam arch_opt(mesh_->arch_params(), config_.lr_arch, 0.9, 0.999, 1e-8,
                       config_.weight_decay_arch);

  optim::CosineLr lr_schedule(config_.lr_weights, total_steps);
  optim::ExponentialDecay tau_schedule(config_.tau_start, config_.tau_end, total_steps);

  int cycle = 0;
  for (int step = 0; step < total_steps; ++step) {
    // Histogram entries on rank 0 only, so count == steps regardless of
    // world size; spans on every rank.
    obs::TraceSpan step_span(t_step);
    obs::ScopedTimerUs step_timer(telemetry_rank ? &step_us : nullptr);
    const int epoch = step / config_.steps_per_epoch;
    const double tau = tau_schedule.at(step);
    weight_opt->set_lr(lr_schedule.at(step));

    // SPL: legalize and freeze permutations, rebuild the weight optimizer
    // without them (paper: epoch 50 of 90).
    if (step == spl_step && !mesh_->permutations_frozen()) {
      if (telemetry_rank) legalizations.inc();
      mesh_->legalize_permutations(rng_, config_.spl);
      weight_opt = std::make_unique<optim::Adam>(
          weight_params(), lr_schedule.at(step), 0.9, 0.999, 1e-8,
          config_.weight_decay_weights);
    }

    const bool warmup = epoch < config_.warmup_epochs;
    const bool arch_step =
        !warmup && (cycle++ % (config_.weight_steps_per_arch_step + 1) ==
                    config_.weight_steps_per_arch_step);

    mesh_->begin_step(tau, rng_, /*stochastic=*/true);

    // Task gradients come from one backward per owned micro-shard, combined
    // across shards and ranks in the fixed tree order of comm/sharded.h.
    // The task shares its step weights into `step_scope` from
    // begin_step_items, so the shard backwards stop at them and the reducer
    // pushes the reduced weight grads into phases and theta once. The ALM +
    // footprint penalty gradients are replicated (identical on every rank),
    // computed in a separate pass, and added exactly once after the
    // cross-rank reduce.
    ag::StepScope step_scope;
    const std::int64_t items = task_.begin_step_items(arch_step);
    const int shards = comm::shard_count(items);
    optim::Optimizer& opt =
        arch_step ? static_cast<optim::Optimizer&>(arch_opt) : *weight_opt;
    comm::ShardedGradReducer reducer(opt.params(), /*scalar_slots=*/1,
                                     &step_scope);
    const std::int64_t stat_cols = task_.stat_slots();
    std::vector<float> stat_rows(
        static_cast<std::size_t>(shards) * static_cast<std::size_t>(stat_cols),
        0.0f);
    for (int s = 0; s < shards; ++s) {
      if (comm::shard_owner(s, shards, comm->world_size()) != comm->rank()) {
        continue;
      }
      reducer.zero_grads();
      const auto range = comm::shard_range(items, s, shards);
      Tensor shard_loss =
          task_.loss_shard(*mesh_, arch_step, range.lo, range.hi, items);
      shard_loss.backward();
      reducer.add_shard({static_cast<double>(shard_loss.item())});
      if (stat_cols > 0) {
        task_.capture_shard_stats(stat_rows.data() +
                                  static_cast<std::size_t>(s) *
                                      static_cast<std::size_t>(stat_cols));
      }
    }
    for (auto& p : all_params()) p.zero_grad();
    std::vector<Tensor> perms;
    Tensor penalty = mesh_->footprint_penalty_expr(config_.footprint);
    Tensor extra = Tensor::scalar(0.0f);
    bool have_extra = false;
    if (!mesh_->permutations_frozen()) {
      perms = mesh_->all_relaxed_perms();
      extra = ag::add(extra, alm.penalty(perms));
      have_extra = true;
    }
    if (!warmup) {
      extra = ag::add(extra, penalty);
      have_extra = true;
    }
    if (have_extra) extra.backward();
    std::vector<Tensor> opt_params = opt.params();
    std::vector<std::vector<float>> penalty_grads =
        comm::ShardedGradReducer::harvest_grads(opt_params);
    // Record E[F] before the optimizer mutates parameters: the value then
    // describes the same parameters as the losses above (and reads the
    // block-count cache footprint_penalty_expr just filled).
    result.trace.expected_footprint.push_back(
        mesh_->expected_footprint(config_.footprint.pdk));

    // Allreduce the task grads and add the penalty grads right before the
    // update rule reads them.
    const std::vector<double> reduced_scalars =
        reducer.finish(*comm, &penalty_grads);
    opt.step();
    if (!arch_step && !mesh_->permutations_frozen()) alm.update(perms);

    if (stat_cols > 0) {
      // Zero-filled except each owner's rows, so the sum IS the gather;
      // every rank then replays the same bits in shard order.
      comm->allreduce_sum(stat_rows.data(),
                          static_cast<std::int64_t>(stat_rows.size()));
      task_.apply_step_stats(stat_rows.data(), shards);
    }

    result.trace.task_loss.push_back(
        reduced_scalars.empty() ? 0.0 : reduced_scalars[0]);
    result.trace.alm_lambda.push_back(alm.mean_lambda());
    result.trace.alm_rho.push_back(alm.rho());
    result.trace.permutation_error.push_back(
        perms.empty() ? 0.0 : alm.permutation_error(perms));
    result.trace.footprint_penalty.push_back(penalty.item());
    if (telemetry_rank) {
      g_task_loss.set(result.trace.task_loss.back());
      g_footprint_penalty.set(result.trace.footprint_penalty.back());
    }
  }

  if (!mesh_->permutations_frozen()) {
    if (telemetry_rank) legalizations.inc();
    mesh_->legalize_permutations(rng_, config_.spl);
  }
  result.topology = mesh_->sample_topology(rng_, config_.footprint.pdk,
                                           config_.footprint.f_min,
                                           config_.footprint.f_max);
  result.final_metric = task_.metric(*mesh_);
  return result;
}

MatrixFitTask::MatrixFitTask(int tiles, std::uint64_t seed)
    : tiles_(tiles), rng_(seed) {}

void MatrixFitTask::bind(SuperMesh& mesh) {
  const std::int64_t k = mesh.k();
  const int nb = mesh.blocks_per_unitary();
  const std::size_t row = static_cast<std::size_t>(k);
  const std::size_t stack = static_cast<std::size_t>(tiles_) * row;
  targets_.clear();
  std::vector<std::vector<float>> pu(static_cast<std::size_t>(nb),
                                     std::vector<float>(stack));
  std::vector<std::vector<float>> pv = pu;
  // Per tile, in this order: the target, then the U and V phases block by
  // block (row t of each stack).
  for (int t = 0; t < tiles_; ++t) {
    std::vector<float> target(static_cast<std::size_t>(k * k));
    // Orthogonal-ish random targets keep the fit well-scaled.
    for (auto& x : target) {
      x = static_cast<float>(rng_.normal(0.0, 1.0 / std::sqrt(static_cast<double>(k))));
    }
    targets_.push_back(ag::make_tensor(std::move(target), {k, k}, false));
    for (auto* stacks : {&pu, &pv}) {
      for (auto& s : *stacks) {
        for (std::size_t j = 0; j < row; ++j) {
          s[static_cast<std::size_t>(t) * row + j] = static_cast<float>(
              rng_.uniform(-std::numbers::pi, std::numbers::pi));
        }
      }
    }
  }
  auto to_tensors = [&](std::vector<std::vector<float>>& stacks) {
    std::vector<Tensor> out;
    for (auto& s : stacks) out.push_back(ag::make_tensor(std::move(s), {tiles_, k}, true));
    return out;
  };
  phi_u_ = to_tensors(pu);
  phi_v_ = to_tensors(pv);
  sigma_ = ag::make_tensor(std::vector<float>(stack, 1.0f), {tiles_, k}, true);
}

Tensor MatrixFitTask::loss(SuperMesh& mesh, bool validation) {
  return loss_shard(mesh, validation, 0, tiles_, tiles_);
}

Tensor MatrixFitTask::loss_shard(SuperMesh& mesh, bool validation,
                                 std::int64_t lo, std::int64_t hi,
                                 std::int64_t items) {
  (void)validation;  // same targets for both splits in the synthetic proxy
  const std::int64_t k = mesh.k(), n = hi - lo;
  // Rows [lo, hi) of every stack run through one batched chain.
  auto rows = [&](const std::vector<Tensor>& stacks) {
    std::vector<Tensor> out;
    for (const auto& s : stacks) out.push_back(ag::slice2d(s, lo, n, 0, k));
    return out;
  };
  CxTensor u = mesh.tile_unitary(Side::u, rows(phi_u_));
  CxTensor v = mesh.tile_unitary(Side::v, rows(phi_v_));
  // U * diag(sigma) is a column scaling — no materialized diagonal/gemm.
  CxTensor w = ag::bcmatmul(
      ag::bcscale_cols(u, ag::slice2d(sigma_, lo, n, 0, k)), v);
  const Tensor w_rows = ag::reshape(w.re, {n * k, k});
  Tensor total = Tensor::scalar(0.0f);
  for (std::int64_t t = 0; t < n; ++t) {
    Tensor err = ag::sub(ag::slice2d(w_rows, t * k, k, 0, k),
                         targets_[static_cast<std::size_t>(lo + t)]);
    total = ag::add(total, ag::mean(ag::square(err)));
  }
  return ag::mul_scalar(total, 1.0f / static_cast<float>(items));
}

std::vector<Tensor> MatrixFitTask::weights() {
  std::vector<Tensor> out = phi_u_;
  out.insert(out.end(), phi_v_.begin(), phi_v_.end());
  out.push_back(sigma_);
  return out;
}

double MatrixFitTask::metric(SuperMesh& mesh) {
  ag::NoGradGuard guard;
  adept::Rng eval_rng(7);
  mesh.begin_step(/*tau=*/0.5, eval_rng, /*stochastic=*/false);
  return -static_cast<double>(loss(mesh, true).item());
}

SearchResult run_search_data_parallel(
    const SearchConfig& config,
    const std::function<std::unique_ptr<ProxyTask>()>& make_task, int ranks) {
  const int world = comm::resolve_ranks(ranks);
  SearchResult out;
  comm::run_ranks(world, [&](comm::Communicator& c) {
    // Each rank replays the identical deterministic construction; only the
    // shard ownership inside run() differs across ranks.
    std::unique_ptr<ProxyTask> task = make_task();
    AdeptSearcher searcher(config, *task);
    SearchResult r = searcher.run(&c);
    if (c.rank() == 0) out = std::move(r);
  });
  return out;
}

}  // namespace adept::core
