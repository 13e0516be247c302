#include "nn/onn_layers.h"

#include <cmath>
#include <mutex>
#include <numbers>

#include "common/version.h"
#include "nn/layers.h"
#include "photonics/devices.h"

namespace adept::nn {

using ag::CxTensor;
using ag::Tensor;
using photonics::BlockSpec;

PtcBinding PtcBinding::dense() { return PtcBinding{}; }

PtcBinding PtcBinding::fixed(std::shared_ptr<const photonics::PtcTopology> topo) {
  PtcBinding b;
  b.kind = Kind::ptc;
  b.k = topo->k;
  b.topology = std::move(topo);
  return b;
}

PtcBinding PtcBinding::searched(core::SuperMesh* mesh) {
  PtcBinding b;
  b.kind = Kind::supermesh;
  b.k = mesh->k();
  b.supermesh = mesh;
  return b;
}

namespace {

// Constant complex tensor P * T of one fixed block (the passive, fabricated
// part of the block transfer). The phase column R varies per tile/step, so
// the block transfer is (P*T) * R, and with R diagonal the product reduces
// to a column scaling of the P*T constant.
CxTensor block_pt_constant(const BlockSpec& block, int k) {
  const std::vector<double> t(block.dc_mask.size(), photonics::balanced_coupler_t());
  const photonics::CMat tm =
      photonics::coupler_column_matrix(k, block.start, block.dc_mask, t);
  const photonics::CMat pt = block.perm.to_cmatrix() * tm;
  std::vector<float> re(static_cast<std::size_t>(k * k)), im(re.size());
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      re[static_cast<std::size_t>(i * k + j)] = static_cast<float>(pt.at(i, j).real());
      im[static_cast<std::size_t>(i * k + j)] = static_cast<float>(pt.at(i, j).imag());
    }
  }
  return {ag::make_tensor(std::move(re), {k, k}, false),
          ag::make_tensor(std::move(im), {k, k}, false)};
}

float random_phase(adept::Rng& rng) {
  return static_cast<float>(rng.uniform(-std::numbers::pi, std::numbers::pi));
}

// Stacked identity [T,K,K] (empty block chains degenerate to it).
CxTensor stacked_eye(std::int64_t tiles, std::int64_t k) {
  std::vector<float> re(static_cast<std::size_t>(tiles * k * k), 0.0f);
  for (std::int64_t t = 0; t < tiles; ++t) {
    for (std::int64_t i = 0; i < k; ++i) {
      re[static_cast<std::size_t>((t * k + i) * k + i)] = 1.0f;
    }
  }
  return {ag::make_tensor(std::move(re), {tiles, k, k}, false),
          Tensor::zeros({tiles, k, k})};
}

}  // namespace

PtcWeight::PtcWeight(std::int64_t out_features, std::int64_t in_features,
                     const PtcBinding& binding, adept::Rng& rng)
    : out_(out_features), in_(in_features), binding_(binding), noise_rng_(rng.split()) {
  if (binding_.kind == PtcBinding::Kind::dense) {
    p_ = 1;
    q_ = 1;
    dense_weight_ = kaiming_uniform({out_, in_}, in_, rng);
    return;
  }
  const std::int64_t k = binding_.k;
  p_ = (out_ + k - 1) / k;
  q_ = (in_ + k - 1) / k;
  std::size_t blocks_u = 0, blocks_v = 0;
  if (binding_.kind == PtcBinding::Kind::ptc) {
    const auto& topo = *binding_.topology;
    blocks_u = topo.u_blocks.size();
    blocks_v = topo.v_blocks.size();
    for (const auto& b : topo.u_blocks) pt_u_.push_back(block_pt_constant(b, topo.k));
    for (const auto& b : topo.v_blocks) pt_v_.push_back(block_pt_constant(b, topo.k));
  } else {
    blocks_u = static_cast<std::size_t>(binding_.supermesh->blocks_per_unitary());
    blocks_v = blocks_u;
  }
  // Sigma init keeps Re(U Sigma V) near kaiming scale: entries of a random
  // unitary have magnitude ~1/sqrt(K), so var(W) ~ sigma^2 / (2K).
  const float sigma_init = static_cast<float>(
      std::sqrt(2.0 * static_cast<double>(k) / static_cast<double>(std::max<std::int64_t>(in_, 1))));
  const std::int64_t tiles = p_ * q_;
  // Parameters live as per-block [T,K] stacks; the RNG is still consumed in
  // the historical tile-major order (all of tile 0's phases and sigma, then
  // tile 1's, ...) so initialization matches the per-tile-storage layout.
  const std::size_t kz = static_cast<std::size_t>(k);
  std::vector<std::vector<float>> pu(blocks_u), pv(blocks_v);
  for (auto& s : pu) s.resize(static_cast<std::size_t>(tiles) * kz);
  for (auto& s : pv) s.resize(static_cast<std::size_t>(tiles) * kz);
  std::vector<float> sig(static_cast<std::size_t>(tiles) * kz);
  for (std::int64_t t = 0; t < tiles; ++t) {
    for (std::size_t b = 0; b < blocks_u; ++b) {
      for (std::size_t i = 0; i < kz; ++i) {
        pu[b][static_cast<std::size_t>(t) * kz + i] = random_phase(rng);
      }
    }
    for (std::size_t b = 0; b < blocks_v; ++b) {
      for (std::size_t i = 0; i < kz; ++i) {
        pv[b][static_cast<std::size_t>(t) * kz + i] = random_phase(rng);
      }
    }
    for (std::size_t i = 0; i < kz; ++i) {
      sig[static_cast<std::size_t>(t) * kz + i] =
          sigma_init * static_cast<float>(rng.uniform(0.5, 1.5)) *
          (rng.bernoulli(0.5) ? 1.0f : -1.0f);
    }
  }
  for (auto& s : pu) phi_u_.push_back(ag::make_tensor(std::move(s), {tiles, k}, true));
  for (auto& s : pv) phi_v_.push_back(ag::make_tensor(std::move(s), {tiles, k}, true));
  sigma_ = ag::make_tensor(std::move(sig), {tiles, k}, true);
}

void PtcWeight::set_phase_noise(double sigma, std::uint64_t seed) {
  noise_sigma_ = sigma;
  noise_rng_ = adept::Rng(seed);
  adept::bump_param_version();
}

void PtcWeight::set_phase_noise_sigma(double sigma) {
  if (sigma == noise_sigma_) return;
  noise_sigma_ = sigma;
  adept::bump_param_version();
}

void PtcWeight::restore_phase_noise(const PhaseNoiseState& state) {
  // The stream position only affects outputs while noise is active, so a
  // 0 -> 0 restore keeps the eval-weight cache valid.
  const bool observable = state.sigma != noise_sigma_ || state.sigma > 0.0;
  noise_sigma_ = state.sigma;
  noise_rng_ = state.rng;
  if (observable) adept::bump_param_version();
}

CxTensor PtcWeight::fixed_unitary(const std::vector<CxTensor>& pt_consts,
                                  const std::vector<Tensor>& phase_stacks) {
  const std::int64_t k = binding_.k;
  if (pt_consts.empty()) return stacked_eye(p_ * q_, k);
  CxTensor acc = CxTensor::eye(k);  // shared seed, broadcast by bcmatmul
  for (std::size_t b = 0; b < pt_consts.size(); ++b) {
    Tensor phi = phase_stacks[b];
    if (noise_sigma_ > 0.0) {
      std::vector<float> drift(static_cast<std::size_t>(phi.numel()));
      for (auto& d : drift) d = static_cast<float>(noise_rng_.normal(0.0, noise_sigma_));
      phi = ag::add(phi, ag::make_tensor(std::move(drift), phi.shape(), false));
    }
    // Block transfer (P*T) * R(phi_t) for all tiles: one batched column
    // scaling of the shared P*T constant.
    CxTensor scaled = ag::bcolphase_scale(pt_consts[b], phi);
    acc = ag::bcmatmul(scaled, acc);
  }
  return acc;
}

Tensor PtcWeight::build_weight() {
  const std::int64_t k = binding_.k;
  CxTensor u, v;
  if (binding_.kind == PtcBinding::Kind::ptc) {
    u = fixed_unitary(pt_u_, phi_u_);
    v = fixed_unitary(pt_v_, phi_v_);
  } else {
    u = binding_.supermesh->tile_unitary(core::Side::u, phi_u_);
    v = binding_.supermesh->tile_unitary(core::Side::v, phi_v_);
  }
  // W[t] = U[t] * diag(sigma[t]) * V[t]; diag => column scaling of U.
  CxTensor us = ag::bcscale_cols(u, sigma_);
  CxTensor w = ag::bcmatmul(us, v);
  Tensor blocked = ag::block_matrix(w.re, p_, q_);  // [p*K, q*K]
  if (p_ * k == out_ && q_ * k == in_) return blocked;
  return ag::slice2d(blocked, 0, out_, 0, in_);
}

Tensor PtcWeight::weight_expr() {
  if (binding_.kind == PtcBinding::Kind::dense) return dense_weight_;
  if (const ag::StepScope* step = ag::StepScope::current()) {
    if (Tensor leaf = step->leaf(this); leaf.defined()) return leaf;
  }
  // Under NoGradGuard with noise off the materialized weight is a pure
  // function of the parameter/noise version: reuse it until something bumps
  // adept::param_version() (optimizer step, begin_step, noise setters).
  // Concurrent no-grad readers (the serving worker pool) share the cache
  // through a shared_mutex: the check-then-assign is no longer a race — the
  // first builder of a version publishes under the exclusive lock and every
  // later reader of that version takes the shared lock.
  const bool cacheable = !ag::GradMode::enabled() && noise_sigma_ == 0.0;
  if (!cacheable) return build_weight();
  const std::uint64_t version = adept::param_version();
  {
    std::shared_lock lock(cache_mutex_);
    if (cached_weight_.defined() && cached_version_ == version) {
      return cached_weight_;
    }
  }
  Tensor w = build_weight();
  std::unique_lock lock(cache_mutex_);
  // Publish only if the cache is empty or strictly older: a builder that
  // raced past a version bump must not clobber a newer published weight.
  if (!cached_weight_.defined() || cached_version_ < version) {
    cached_weight_ = w;
    cached_version_ = version;
  }
  return w;
}

void PtcWeight::share_step_weight() {
  if (binding_.kind == PtcBinding::Kind::dense) return;  // already a leaf
  ag::StepScope* step = ag::StepScope::current();
  ag::check(step != nullptr, "PtcWeight::share_step_weight: no open StepScope");
  step->share(this, build_weight());
}

std::vector<Tensor> PtcWeight::parameters() {
  if (binding_.kind == PtcBinding::Kind::dense) return {dense_weight_};
  std::vector<Tensor> out;
  for (auto& p : phi_u_) out.push_back(p);
  for (auto& p : phi_v_) out.push_back(p);
  out.push_back(sigma_);
  return out;
}

ONNLinear::ONNLinear(std::int64_t in_features, std::int64_t out_features,
                     const PtcBinding& binding, adept::Rng& rng, bool bias)
    : OnnLayer(out_features, in_features, binding, rng),
      in_(in_features),
      out_(out_features) {
  if (bias) bias_ = Tensor::zeros({1, out_}, /*requires_grad=*/true);
}

Tensor ONNLinear::forward(const Tensor& x) {
  Tensor y = ag::matmul(x, ag::transpose(weight_.weight_expr()));  // [N, out]
  if (bias_.defined()) y = ag::add(y, bias_);
  return y;
}

std::vector<Tensor> ONNLinear::parameters() {
  auto out = weight_.parameters();
  if (bias_.defined()) out.push_back(bias_);
  return out;
}

ONNConv2d::ONNConv2d(std::int64_t in_channels, std::int64_t out_channels,
                     std::int64_t kernel, const PtcBinding& binding, adept::Rng& rng,
                     std::int64_t stride, std::int64_t pad, bool bias)
    : OnnLayer(out_channels, in_channels * kernel * kernel, binding, rng),
      in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(pad) {
  if (bias) bias_ = Tensor::zeros({1, out_c_}, /*requires_grad=*/true);
}

Tensor ONNConv2d::forward(const Tensor& x) {
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = (h + 2 * pad_ - k_) / stride_ + 1;
  const std::int64_t ow = (w + 2 * pad_ - k_) / stride_ + 1;
  Tensor cols = ag::im2col(x, k_, k_, stride_, pad_);      // [N*OH*OW, fan_in]
  Tensor wt = ag::transpose(weight_.weight_expr());        // [fan_in, out_c]
  Tensor y = ag::matmul(cols, wt);
  if (bias_.defined()) y = ag::add(y, bias_);
  return ag::rows_to_nchw(y, n, oh, ow);
}

std::vector<Tensor> ONNConv2d::parameters() {
  auto out = weight_.parameters();
  if (bias_.defined()) out.push_back(bias_);
  return out;
}

}  // namespace adept::nn
