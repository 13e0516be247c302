// Tape-based reverse-mode automatic differentiation over dense float tensors.
//
// This is the numerical engine underneath every trainable component in the
// repository: NN layers, the ADEPT SuperMesh, the ALM permutation search, and
// the footprint penalty. The design is a classic define-by-run tape:
//
//   * A Tensor is a shared handle to a TensorImpl holding contiguous float
//     data, an optional gradient buffer, the parent tensors it was computed
//     from, and a backward closure that scatters the output gradient into the
//     parents' gradient buffers.
//   * Operators (see ops.h) build the graph eagerly. Tensor::backward() runs
//     a topological sort from the root and invokes each backward closure once.
//   * GradMode/NoGradGuard disable graph construction during evaluation.
//
// Gradients accumulate (+=) so shared subexpressions are handled naturally;
// call zero_grad() (or Optimizer::zero_grad) between steps.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace adept::ag {

struct TensorImpl;

// Per-thread switch for graph construction (mirrors torch.no_grad()). Each
// thread starts with tracking enabled; NoGradGuard only affects its own
// thread, so concurrent no-grad readers never disable tracking elsewhere.
struct GradMode {
  static bool enabled();
  static void set_enabled(bool on);
};

// RAII guard that disables gradient tracking in its scope.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

// Shared-ownership handle to a node in the autodiff graph.
class Tensor {
 public:
  Tensor() = default;  // empty handle; defined() is false

  // ---- factories -------------------------------------------------------
  static Tensor zeros(std::vector<std::int64_t> shape, bool requires_grad = false);
  static Tensor full(std::vector<std::int64_t> shape, float value,
                     bool requires_grad = false);
  static Tensor from_data(std::vector<std::int64_t> shape, std::vector<float> data,
                          bool requires_grad = false);
  static Tensor scalar(float value, bool requires_grad = false);
  // Identity matrix [n, n].
  static Tensor eye(std::int64_t n, bool requires_grad = false);

  // ---- structure -------------------------------------------------------
  bool defined() const { return impl_ != nullptr; }
  const std::vector<std::int64_t>& shape() const;
  std::int64_t numel() const;
  std::int64_t dim(std::size_t i) const;
  std::size_t ndim() const;
  bool requires_grad() const;
  void set_requires_grad(bool rg);

  // ---- data access -----------------------------------------------------
  std::vector<float>& data();
  const std::vector<float>& data() const;
  // Gradient buffer; allocated (zero-filled) on first access.
  std::vector<float>& grad();
  bool has_grad() const;
  void zero_grad();
  // Value of a single-element tensor.
  float item() const;
  // 2-D element accessors (row-major).
  float at(std::int64_t r, std::int64_t c) const;
  void set_at(std::int64_t r, std::int64_t c, float v);

  // ---- autodiff --------------------------------------------------------
  // Backpropagate from this tensor. If it is not a scalar, seed_grad must be
  // supplied with numel() entries.
  void backward(const std::vector<float>* seed_grad = nullptr) const;
  // Drop graph edges (parents + backward fn), keeping data. Used by
  // optimizers to make parameters leaves again after in-place updates.
  void detach_();

  TensorImpl* impl() const { return impl_.get(); }
  std::shared_ptr<TensorImpl> impl_ptr() const { return impl_; }
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

 private:
  std::shared_ptr<TensorImpl> impl_;
};

// The node payload. Public because ops.h / custom ops construct these.
struct TensorImpl {
  std::vector<float> data;
  std::vector<float> grad;           // empty until touched
  std::vector<std::int64_t> shape;
  bool requires_grad = false;
  std::vector<Tensor> parents;       // graph edges (empty for leaves)
  // Scatters this->grad into the parents' grads. May be empty for leaves.
  std::function<void(TensorImpl&)> backward_fn;

  std::int64_t numel() const {
    std::int64_t n = 1;
    for (auto d : shape) n *= d;
    return n;
  }
  void ensure_grad() {
    if (grad.empty()) grad.assign(data.size(), 0.0f);
  }
};

// Step-shared expressions. A step of the micro-shard loops (comm/sharded.h)
// runs one forward/backward per shard over ONE parameter state, so a
// parameter-derived expression (a PTC weight's U*Sigma*V chain) is the same
// in every pass. Inside an open StepScope, share() builds it once: it keeps
// the expression and returns a leaf holding its value, which leaf() hands to
// every pass, so shard backwards stop at the leaf. backward_shared() then
// runs one backward from all kept expressions, seeded with the leaves'
// (reduced) grads, and forgets them. Scopes are per thread (one per rank
// thread); with none open, leaf() finds nothing.
class StepScope {
 public:
  StepScope();
  ~StepScope();
  StepScope(const StepScope&) = delete;
  StepScope& operator=(const StepScope&) = delete;

  static StepScope* current();  // innermost scope on this thread, or null
  Tensor share(const void* owner, const Tensor& expr);
  Tensor leaf(const void* owner) const;  // undefined if `owner` has none
  std::vector<Tensor> leaves() const;    // in share() order
  void backward_shared();

 private:
  struct Entry {
    const void* owner;
    Tensor expr, leaf;
  };
  std::vector<Entry> entries_;
  StepScope* outer_;
};

// Construct a leaf tensor.
Tensor make_tensor(std::vector<float> data, std::vector<std::int64_t> shape,
                   bool requires_grad);

// Construct an op-result node. `backward` receives the result impl (whose
// .grad is populated) and must accumulate into the parents' grads; it is only
// attached when gradients are being tracked and some parent requires grad.
Tensor make_op(std::vector<float> data, std::vector<std::int64_t> shape,
               std::vector<Tensor> parents,
               std::function<void(TensorImpl&)> backward);

// Throws std::invalid_argument with `msg` when `cond` is false. Used by ops
// for shape validation (catch errors early per CppCoreGuidelines P.7).
void check(bool cond, const std::string& msg);

namespace debug {
// Monotonic count of op nodes constructed by make_op since process start.
// Tests diff it across a call to assert how many tape nodes an operator
// creates (e.g. fused bcmatmul: 1 compute node + 2 plane views).
std::size_t op_nodes_created();
}  // namespace debug

}  // namespace adept::ag
