#include "autograd/tensor.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>

namespace adept::ag {

namespace {
// Grad mode is per-thread so concurrent no-grad evaluation (the serving
// worker pool, multi-threaded weight_expr readers) neither races on the flag
// nor accidentally disables tracking on another thread mid-training.
thread_local bool g_grad_enabled = true;
std::atomic<std::size_t> g_op_nodes{0};
}  // namespace

namespace debug {
std::size_t op_nodes_created() {
  return g_op_nodes.load(std::memory_order_relaxed);
}
}  // namespace debug

bool GradMode::enabled() { return g_grad_enabled; }
void GradMode::set_enabled(bool on) { g_grad_enabled = on; }

NoGradGuard::NoGradGuard() : prev_(GradMode::enabled()) {
  GradMode::set_enabled(false);
}
NoGradGuard::~NoGradGuard() { GradMode::set_enabled(prev_); }

void check(bool cond, const std::string& msg) {
  if (!cond) throw std::invalid_argument(msg);
}

Tensor Tensor::zeros(std::vector<std::int64_t> shape, bool requires_grad) {
  std::int64_t n = 1;
  for (auto d : shape) n *= d;
  return make_tensor(std::vector<float>(static_cast<std::size_t>(n), 0.0f),
                     std::move(shape), requires_grad);
}

Tensor Tensor::full(std::vector<std::int64_t> shape, float value, bool requires_grad) {
  std::int64_t n = 1;
  for (auto d : shape) n *= d;
  return make_tensor(std::vector<float>(static_cast<std::size_t>(n), value),
                     std::move(shape), requires_grad);
}

Tensor Tensor::from_data(std::vector<std::int64_t> shape, std::vector<float> data,
                         bool requires_grad) {
  std::int64_t n = 1;
  for (auto d : shape) n *= d;
  check(static_cast<std::size_t>(n) == data.size(), "from_data: size mismatch");
  return make_tensor(std::move(data), std::move(shape), requires_grad);
}

Tensor Tensor::scalar(float value, bool requires_grad) {
  return make_tensor({value}, {1}, requires_grad);
}

Tensor Tensor::eye(std::int64_t n, bool requires_grad) {
  std::vector<float> d(static_cast<std::size_t>(n * n), 0.0f);
  for (std::int64_t i = 0; i < n; ++i) d[static_cast<std::size_t>(i * n + i)] = 1.0f;
  return make_tensor(std::move(d), {n, n}, requires_grad);
}

const std::vector<std::int64_t>& Tensor::shape() const { return impl_->shape; }
std::int64_t Tensor::numel() const { return impl_->numel(); }
std::int64_t Tensor::dim(std::size_t i) const { return impl_->shape.at(i); }
std::size_t Tensor::ndim() const { return impl_->shape.size(); }
bool Tensor::requires_grad() const { return impl_ && impl_->requires_grad; }
void Tensor::set_requires_grad(bool rg) { impl_->requires_grad = rg; }

std::vector<float>& Tensor::data() { return impl_->data; }
const std::vector<float>& Tensor::data() const { return impl_->data; }

std::vector<float>& Tensor::grad() {
  impl_->ensure_grad();
  return impl_->grad;
}
bool Tensor::has_grad() const { return impl_ && !impl_->grad.empty(); }
void Tensor::zero_grad() {
  if (impl_) std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
}

float Tensor::item() const {
  check(impl_->numel() == 1, "item: tensor is not a scalar");
  return impl_->data[0];
}

float Tensor::at(std::int64_t r, std::int64_t c) const {
  check(impl_->shape.size() == 2, "at: tensor is not 2-D");
  return impl_->data[static_cast<std::size_t>(r * impl_->shape[1] + c)];
}

void Tensor::set_at(std::int64_t r, std::int64_t c, float v) {
  check(impl_->shape.size() == 2, "set_at: tensor is not 2-D");
  impl_->data[static_cast<std::size_t>(r * impl_->shape[1] + c)] = v;
}

namespace {

// Iterative post-order topological sort from every root (avoids recursion
// depth limits on long SuperMesh chains).
std::vector<TensorImpl*> topo_sort(const std::vector<TensorImpl*>& roots) {
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  std::vector<std::pair<TensorImpl*, std::size_t>> stack;
  for (TensorImpl* root : roots) {
    if (visited.insert(root).second) stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [node, next_child] = stack.back();
      if (next_child < node->parents.size()) {
        TensorImpl* child = node->parents[next_child].impl();
        ++next_child;
        if (child != nullptr && visited.insert(child).second) {
          stack.emplace_back(child, 0);
        }
      } else {
        order.push_back(node);
        stack.pop_back();
      }
    }
  }
  return order;
}

// Backpropagate from roots whose grads are already seeded, in one pass.
void run_backward(const std::vector<TensorImpl*>& roots) {
  const std::vector<TensorImpl*> order = topo_sort(roots);
  // Op nodes keep no gradient state across backward calls: when several
  // losses share subexpressions (the SuperMesh step state is reused by every
  // micro-shard forward within a step), a stale intermediate grad from an
  // earlier backward would be re-propagated into the leaves. Leaves are NOT
  // cleared — they accumulate until the caller zeroes them.
  for (TensorImpl* node : order) {
    if (node->backward_fn && !node->grad.empty() &&
        std::find(roots.begin(), roots.end(), node) == roots.end()) {
      node->grad.assign(node->grad.size(), 0.0f);
    }
  }
  // Post-order puts the roots last; walk in reverse (roots first).
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backward_fn && !node->grad.empty()) {
      node->backward_fn(*node);
    }
  }
}

thread_local StepScope* g_step_scope = nullptr;

}  // namespace

void Tensor::backward(const std::vector<float>* seed_grad) const {
  check(impl_ != nullptr, "backward: empty tensor");
  impl_->ensure_grad();
  if (seed_grad != nullptr) {
    check(seed_grad->size() == impl_->data.size(), "backward: bad seed size");
    impl_->grad = *seed_grad;
  } else {
    check(impl_->numel() == 1, "backward: non-scalar root needs a seed grad");
    impl_->grad[0] = 1.0f;
  }
  run_backward({impl_.get()});
}

StepScope::StepScope() : outer_(g_step_scope) { g_step_scope = this; }
StepScope::~StepScope() { g_step_scope = outer_; }
StepScope* StepScope::current() { return g_step_scope; }

Tensor StepScope::share(const void* owner, const Tensor& expr) {
  check(!leaf(owner).defined(), "StepScope: owner already shared this step");
  entries_.push_back(
      {owner, expr, make_tensor(expr.data(), expr.shape(), expr.requires_grad())});
  return entries_.back().leaf;
}

Tensor StepScope::leaf(const void* owner) const {
  for (const auto& e : entries_) {
    if (e.owner == owner) return e.leaf;
  }
  return Tensor();
}

std::vector<Tensor> StepScope::leaves() const {
  std::vector<Tensor> out;
  for (const auto& e : entries_) out.push_back(e.leaf);
  return out;
}

void StepScope::backward_shared() {
  std::vector<TensorImpl*> roots;
  for (auto& e : entries_) {
    if (!e.expr.requires_grad() || !e.leaf.has_grad()) continue;
    e.expr.impl()->grad = std::move(e.leaf.impl()->grad);
    roots.push_back(e.expr.impl());
  }
  if (!roots.empty()) run_backward(roots);
  entries_.clear();
}

void Tensor::detach_() {
  impl_->parents.clear();
  impl_->backward_fn = nullptr;
}

Tensor make_tensor(std::vector<float> data, std::vector<std::int64_t> shape,
                   bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->data = std::move(data);
  impl->shape = std::move(shape);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor make_op(std::vector<float> data, std::vector<std::int64_t> shape,
               std::vector<Tensor> parents,
               std::function<void(TensorImpl&)> backward) {
  g_op_nodes.fetch_add(1, std::memory_order_relaxed);
  auto impl = std::make_shared<TensorImpl>();
  impl->data = std::move(data);
  impl->shape = std::move(shape);
  bool any_grad = false;
  for (const auto& p : parents) any_grad = any_grad || p.requires_grad();
  if (any_grad && GradMode::enabled()) {
    impl->requires_grad = true;
    impl->parents = std::move(parents);
    impl->backward_fn = std::move(backward);
  }
  return Tensor(std::move(impl));
}

}  // namespace adept::ag
