// Model builders for the paper's evaluation networks.
//
//   proxy CNN  C(w)K5 - BN - ReLU - C(w)K5 - BN - ReLU - AvgPool5 - FC10
//              (paper: w = 32; the search proxy on synthetic-MNIST)
//   LeNet-5    C6K5 - ReLU - MaxPool2 - C16K5 - ReLU - MaxPool2 -
//              FC120 - ReLU - FC84 - ReLU - FC10
//   VGG-8      [C64 C64 M C128 C128 M C256 C256 M] - FC - FC10 (3x3 convs)
//
// All matmul-bearing layers (conv + linear) are ONN layers bound to a PTC
// weight implementation (dense reference, fixed topology, or live
// SuperMesh); BN/ReLU/pool stay electronic, as in the paper. `width_scale`
// shrinks channel counts for CPU-sized benchmark runs.
#pragma once

#include <memory>

#include "nn/module.h"
#include "nn/onn_layers.h"

namespace adept::nn {

struct OnnModel {
  std::shared_ptr<Sequential> net;
  // Non-owning views of the ONN layers for phase-noise control.
  std::vector<OnnLayer*> onn_layers;

  std::vector<ag::Tensor> parameters() { return net->parameters(); }
  void set_training(bool training) { net->set_training(training); }
  bool training() const { return net->training(); }
  // Variation-aware noise on every photonic layer (0 disables); re-arms
  // every layer's drift stream from `seed`.
  void set_phase_noise(double sigma, std::uint64_t seed);
  // Change sigma only, keeping each layer's drift stream position (nominal
  // evaluations toggle noise off/on without replaying the stream).
  void set_phase_noise_sigma(double sigma);
  // Build every photonic layer's weight once for the open ag::StepScope
  // (see PtcWeight::share_step_weight).
  void share_step_weights() {
    for (auto* layer : onn_layers) layer->weight().share_step_weight();
  }
  // Push/pop of the full per-layer noise state (sigma + stream).
  std::vector<PhaseNoiseState> save_phase_noise() const;
  void restore_phase_noise(const std::vector<PhaseNoiseState>& states);
};

OnnModel make_proxy_cnn(int in_channels, int image_hw, int classes,
                        const PtcBinding& binding, adept::Rng& rng, int width = 32);

OnnModel make_lenet5(int in_channels, int image_hw, int classes,
                     const PtcBinding& binding, adept::Rng& rng,
                     double width_scale = 1.0);

OnnModel make_vgg8(int in_channels, int image_hw, int classes,
                   const PtcBinding& binding, adept::Rng& rng,
                   double width_scale = 1.0);

}  // namespace adept::nn
