// Gradient-based optimizers over leaf autograd tensors.
//
// Parameters are updated in place on their data buffers; graphs are built
// fresh each step so leaves stay leaves. Matches the paper's training setup
// (Adam with per-group weight decay).
#pragma once

#include <cstdint>
#include <vector>

#include "autograd/tensor.h"

namespace adept::optim {

class Optimizer {
 public:
  explicit Optimizer(std::vector<ag::Tensor> params, double lr);
  virtual ~Optimizer() = default;

  void zero_grad();
  // Applies the update rule, then bumps adept::param_version() so
  // materialized eval-weight caches know the parameters moved.
  void step();

  double lr() const { return lr_; }
  void set_lr(double lr) { lr_ = lr; }
  const std::vector<ag::Tensor>& params() const { return params_; }

 protected:
  // The update rule itself (in-place on the parameter data buffers).
  virtual void apply_step() = 0;

  std::vector<ag::Tensor> params_;
  double lr_;
};

// SGD with optional momentum and decoupled weight decay.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<ag::Tensor> params, double lr, double momentum = 0.0,
      double weight_decay = 0.0);

 protected:
  void apply_step() override;

 private:
  double momentum_;
  double weight_decay_;
  std::vector<std::vector<float>> velocity_;
};

// Adam (Kingma & Ba) with L2 weight decay added to the gradient.
class Adam : public Optimizer {
 public:
  Adam(std::vector<ag::Tensor> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8, double weight_decay = 0.0);

 protected:
  void apply_step() override;

 private:
  double beta1_, beta2_, eps_, weight_decay_;
  std::int64_t t_ = 0;
  std::vector<std::vector<float>> m_, v_;
};

}  // namespace adept::optim
