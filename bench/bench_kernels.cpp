// google-benchmark microbenchmarks of the computational kernels underneath
// the ADEPT stack: complex matmul, mesh transfer simulation, crossing
// counting, SVD/Procrustes, SPL, permutation reparametrization, and one full
// autograd training step of the matrix-fit proxy.
//
// `bench_kernels --json [path]` instead emits BENCH_kernels.json comparing
// the pre-port naive loops against the src/backend kernels (GFLOP/s and
// speedup per shape); see bench/README.md for the schema.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "autograd/complex.h"
#include "autograd/ops.h"
#include "backend/dispatch.h"
#include "backend/kernels.h"
#include "backend/parallel.h"
#include "bench_common.h"
#include "common/rng.h"
#include "core/reparam.h"
#include "core/spl.h"
#include "core/supermesh.h"
#include "optim/optimizer.h"
#include "photonics/builders.h"
#include "photonics/linalg.h"

namespace ag = adept::ag;
namespace be = adept::backend;
namespace core = adept::core;
namespace ph = adept::photonics;

namespace {

ag::Tensor random_tensor(std::vector<std::int64_t> shape, adept::Rng& rng,
                         bool rg = false) {
  std::int64_t n = 1;
  for (auto d : shape) n *= d;
  std::vector<float> data(static_cast<std::size_t>(n));
  for (auto& v : data) v = static_cast<float>(rng.uniform(-1, 1));
  return ag::make_tensor(std::move(data), std::move(shape), rg);
}

// ---- pre-port baselines (the seed's hand loops, kept for before/after) ----

// The seed's ikj loop with the zero-skip shortcut (src/autograd/ops.cpp
// before the backend port).
void naive_matmul(const float* a, const float* b, float* c, std::int64_t n,
                  std::int64_t k, std::int64_t m) {
  std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(n * m));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = a[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = &b[kk * m];
      float* crow = &c[i * m];
      for (std::int64_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

// The seed's matmul backward for dA = dO @ B^T, which walked B column-wise
// instead of using a transpose-variant gemm.
void naive_matmul_bt(const float* g, const float* b, float* c, std::int64_t n,
                     std::int64_t k, std::int64_t m) {
  std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(n * k));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < m; ++j) {
      const float gv = g[i * m + j];
      if (gv == 0.0f) continue;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        c[i * k + kk] += gv * b[kk * m + j];
      }
    }
  }
}

void naive_sigmoid(const float* a, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = 1.0f / (1.0f + std::exp(-a[i]));
}

void BM_RealMatmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  adept::Rng rng(1);
  ag::Tensor a = random_tensor({n, n}, rng);
  ag::Tensor b = random_tensor({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ag::matmul(a, b).data().data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_RealMatmul)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_BackendGemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  adept::Rng rng(1);
  ag::Tensor a = random_tensor({n, n}, rng);
  ag::Tensor b = random_tensor({n, n}, rng);
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    be::gemm(be::Trans::N, be::Trans::N, n, n, n, 1.0f, a.data().data(), n,
             b.data().data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_BackendGemm)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_ComplexMatmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  adept::Rng rng(2);
  ag::CxTensor a = {random_tensor({1, n, n}, rng), random_tensor({1, n, n}, rng)};
  ag::CxTensor b = {random_tensor({1, n, n}, rng), random_tensor({1, n, n}, rng)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ag::bcmatmul(a, b).re.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 4 * n * n * n);
}
BENCHMARK(BM_ComplexMatmul)->Arg(8)->Arg(16)->Arg(32);

void BM_MeshTransfer(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto topo = ph::butterfly(k);
  adept::Rng rng(3);
  ph::MeshPhases phases;
  for (std::size_t b = 0; b < topo.u_blocks.size(); ++b) {
    std::vector<double> phi(static_cast<std::size_t>(k));
    for (auto& p : phi) p = rng.uniform(-3.14, 3.14);
    phases.per_block.push_back(phi);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ph::mesh_transfer(topo.u_blocks, k, phases).data().data());
  }
}
BENCHMARK(BM_MeshTransfer)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_ClementsTransfer(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto topo = ph::clements_mzi(k);
  adept::Rng rng(4);
  ph::MeshPhases phases;
  for (std::size_t b = 0; b < topo.u_blocks.size(); ++b) {
    std::vector<double> phi(static_cast<std::size_t>(k));
    for (auto& p : phi) p = rng.uniform(-3.14, 3.14);
    phases.per_block.push_back(phi);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ph::mesh_transfer(topo.u_blocks, k, phases).data().data());
  }
}
BENCHMARK(BM_ClementsTransfer)->Arg(8)->Arg(16)->Arg(32);

void BM_CrossingCount(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  adept::Rng rng(5);
  const auto p = ph::Permutation::random(k, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ph::crossing_count(p));
  }
}
BENCHMARK(BM_CrossingCount)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_JacobiSvd(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  adept::Rng rng(6);
  ph::RMat m(n, n);
  for (auto& v : m.data()) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ph::jacobi_svd(m).s.data());
  }
}
BENCHMARK(BM_JacobiSvd)->Arg(8)->Arg(16)->Arg(32);

void BM_Spl(benchmark::State& state) {
  const std::int64_t k = state.range(0);
  adept::Rng rng(7);
  ph::RMat m(k, k);
  for (auto& v : m.data()) v = rng.uniform(0.0, 1.0);
  for (auto _ : state) {
    adept::Rng inner(11);
    benchmark::DoNotOptimize(
        core::stochastic_permutation_legalization(m, inner).map().data());
  }
}
BENCHMARK(BM_Spl)->Arg(8)->Arg(16)->Arg(32);

void BM_PermReparam(benchmark::State& state) {
  const std::int64_t k = state.range(0);
  ag::Tensor p = core::smoothed_identity_init(k, true);
  for (auto _ : state) {
    ag::Tensor out = core::reparametrize_permutation(p, 0.05f);
    ag::Tensor loss = ag::sum(ag::square(out));
    loss.backward();
    p.zero_grad();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_PermReparam)->Arg(8)->Arg(16)->Arg(32);

void BM_SuperMeshTrainStep(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  adept::Rng rng(8);
  core::SuperMeshConfig config;
  config.k = k;
  config.super_blocks_per_unitary = 4;
  config.always_on_per_unitary = 1;
  core::SuperMesh mesh(config, rng);
  std::vector<ag::Tensor> phases;
  for (int b = 0; b < 4; ++b) phases.push_back(random_tensor({1, k}, rng, true));
  auto params = mesh.topology_weights();
  for (auto& p : phases) params.push_back(p);
  adept::optim::Adam opt(params, 1e-3);
  for (auto _ : state) {
    mesh.begin_step(1.0, rng, true);
    ag::CxTensor u = mesh.tile_unitary(core::Side::u, phases);
    ag::Tensor loss = ag::add(ag::sum(ag::square(u.re)), ag::sum(ag::square(u.im)));
    opt.zero_grad();
    loss.backward();
    opt.step();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_SuperMeshTrainStep)->Arg(8)->Arg(16);

// ---- --json mode: before/after GFLOP/s for the perf trajectory ------------

// Each record times the backend twice: pinned to one thread (kernel quality,
// comparable across runners with different core counts) and at the
// configured thread count (what production sees). Baselines are the seed's
// serial loops, so `speedup_serial` isolates the kernel win from threading.
struct BackendTiming {
  double serial_s;
  double threaded_s;
};

template <typename Fn>
BackendTiming time_backend(Fn&& fn) {
  BackendTiming t{};
  {
    be::ThreadScope one(1);
    t.serial_s = adept::bench::time_best(fn);
  }
  t.threaded_s = adept::bench::time_best(fn);
  return t;
}

adept::bench::JsonRecord make_record(const std::string& name, double size,
                                     double work, double t_naive,
                                     const BackendTiming& t) {
  return {name,
          {{"size", size},
           {"baseline_gflops", work / t_naive * 1e-9},
           {"backend_serial_gflops", work / t.serial_s * 1e-9},
           {"backend_gflops", work / t.threaded_s * 1e-9},
           {"speedup_serial", t_naive / t.serial_s},
           {"speedup", t_naive / t.threaded_s}}};
}

adept::bench::JsonRecord gemm_record(std::int64_t n) {
  adept::Rng rng(1);
  std::vector<float> a(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  const double flops = 2.0 * static_cast<double>(n) * n * n;
  const double t_naive = adept::bench::time_best(
      [&] { naive_matmul(a.data(), b.data(), c.data(), n, n, n); });
  const auto t = time_backend([&] {
    be::gemm(be::Trans::N, be::Trans::N, n, n, n, 1.0f, a.data(), n, b.data(),
             n, 0.0f, c.data(), n);
  });
  return make_record("gemm_f32", static_cast<double>(n), flops, t_naive, t);
}

adept::bench::JsonRecord gemm_bt_record(std::int64_t n) {
  adept::Rng rng(2);
  std::vector<float> g(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto& v : g) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  const double flops = 2.0 * static_cast<double>(n) * n * n;
  const double t_naive = adept::bench::time_best(
      [&] { naive_matmul_bt(g.data(), b.data(), c.data(), n, n, n); });
  const auto t = time_backend([&] {
    be::gemm(be::Trans::N, be::Trans::T, n, n, n, 1.0f, g.data(), n, b.data(),
             n, 0.0f, c.data(), n);
  });
  return make_record("gemm_f32_bt", static_cast<double>(n), flops, t_naive, t);
}

// The seed's complex matmul lowering: four naive real matmuls + two
// elementwise combines into freshly allocated planes.
void naive_cmatmul(const float* ar, const float* ai, const float* br,
                   const float* bi, float* cr, float* ci, std::int64_t n,
                   std::vector<float>& t1, std::vector<float>& t2) {
  naive_matmul(ar, br, cr, n, n, n);
  naive_matmul(ai, bi, t1.data(), n, n, n);
  naive_matmul(ar, bi, ci, n, n, n);
  naive_matmul(ai, br, t2.data(), n, n, n);
  for (std::int64_t i = 0; i < n * n; ++i) {
    cr[i] -= t1[static_cast<std::size_t>(i)];
    ci[i] += t2[static_cast<std::size_t>(i)];
  }
}

adept::bench::JsonRecord cgemm_record(std::int64_t n) {
  adept::Rng rng(5);
  const std::size_t nn = static_cast<std::size_t>(n * n);
  std::vector<float> ar(nn), ai(nn), br(nn), bi(nn), cr(nn), ci(nn), t1(nn), t2(nn);
  for (auto* v : {&ar, &ai, &br, &bi}) {
    for (auto& x : *v) x = static_cast<float>(rng.uniform(-1, 1));
  }
  const double flops = 8.0 * static_cast<double>(n) * n * n;
  const double t_naive = adept::bench::time_best([&] {
    naive_cmatmul(ar.data(), ai.data(), br.data(), bi.data(), cr.data(),
                  ci.data(), n, t1, t2);
  });
  const auto t = time_backend([&] {
    be::cgemm(be::CTrans::N, be::CTrans::N, n, n, n, ar.data(), ai.data(), n,
              br.data(), bi.data(), n, 0.0f, cr.data(), ci.data(), n);
  });
  return make_record("cgemm_f32", static_cast<double>(n), flops, t_naive, t);
}

// Acceptance micro-bench: forward+backward through a B-block complex block
// chain at K=32 — the tile_unitary hot loop for one tile. Baseline is the
// seed's composition from real ops (diagonal phase column + 4-real-gemm
// complex matmul + dense P matmuls + scaled-identity mixing); backend is the
// fused bblock_transfer/bcmix_identity/bcmatmul path on a [1,K] phase stack.
// `*_gflops` fields report chain iterations per second.
adept::bench::JsonRecord cchain_record(std::int64_t k, int blocks) {
  adept::Rng rng(7);
  std::vector<ag::Tensor> p, phi, skip, sel;
  std::vector<ag::CxTensor> t;
  for (int b = 0; b < blocks; ++b) {
    p.push_back(random_tensor({k, k}, rng, true));
    t.push_back({random_tensor({k, k}, rng, true), random_tensor({k, k}, rng, true)});
    phi.push_back(random_tensor({1, k}, rng, true));
    skip.push_back(ag::Tensor::scalar(0.3f, true));
    sel.push_back(ag::Tensor::scalar(0.7f, true));
  }
  auto zero_all = [&] {
    for (auto& v : p) v.zero_grad();
    for (auto& v : phi) v.zero_grad();
    for (auto& v : skip) v.zero_grad();
    for (auto& v : sel) v.zero_grad();
    for (auto& v : t) {
      v.re.zero_grad();
      v.im.zero_grad();
    }
  };
  auto head = [](const ag::CxTensor& acc) {
    return ag::add(ag::sum(ag::square(acc.re)), ag::sum(ag::square(acc.im)));
  };
  // The seed's complex matmul: four real matmuls + sub/add combines.
  auto cmatmul_4gemm = [](const ag::CxTensor& a, const ag::CxTensor& b) {
    ag::Tensor re = ag::sub(ag::matmul(a.re, b.re), ag::matmul(a.im, b.im));
    ag::Tensor im = ag::add(ag::matmul(a.re, b.im), ag::matmul(a.im, b.re));
    return ag::CxTensor{re, im};
  };
  auto run_baseline = [&] {
    ag::CxTensor acc = ag::CxTensor::eye(k);
    ag::CxTensor eye = ag::CxTensor::eye(k);
    for (int b = 0; b < blocks; ++b) {
      const std::size_t bi = static_cast<std::size_t>(b);
      // R(phi) = diag(exp(-i phi)) as a dense [K,K] pair.
      ag::Tensor phi_k = ag::reshape(phi[bi], {k});
      ag::CxTensor r = {ag::diag(ag::cos(phi_k)), ag::diag(ag::neg(ag::sin(phi_k)))};
      ag::CxTensor tr = cmatmul_4gemm(t[bi], r);
      ag::CxTensor block = {ag::matmul(p[bi], tr.re), ag::matmul(p[bi], tr.im)};
      // skip * I + select * block.
      ag::CxTensor mixed = {
          ag::add(ag::mul(eye.re, skip[bi]), ag::mul(block.re, sel[bi])),
          ag::add(ag::mul(eye.im, skip[bi]), ag::mul(block.im, sel[bi]))};
      acc = cmatmul_4gemm(mixed, acc);
    }
    head(acc).backward();
    zero_all();
  };
  auto run_fused = [&] {
    ag::CxTensor acc = ag::CxTensor::eye(k);
    for (int b = 0; b < blocks; ++b) {
      const std::size_t bi = static_cast<std::size_t>(b);
      ag::CxTensor block = ag::bblock_transfer(p[bi], t[bi], phi[bi]);
      ag::CxTensor mixed = ag::bcmix_identity(skip[bi], sel[bi], block);
      acc = ag::bcmatmul(mixed, acc);
    }
    head(acc).backward();
    zero_all();
  };
  double t_naive;
  {
    be::ThreadScope one(1);
    t_naive = adept::bench::time_best(run_baseline);
  }
  const auto t_f = time_backend(run_fused);
  return make_record("cchain_fwdbwd", static_cast<double>(k), 1.0, t_naive, t_f);
}

adept::bench::JsonRecord cgemm_batched_record() {
  // Mesh-shaped stack: 16 tiles of [16,16] advancing one block of a shared
  // chain. Baseline is one cgemm dispatch per tile; backend is a single
  // cgemm_batched over the stack.
  const std::int64_t tiles = 16, k = 16;
  adept::Rng rng(9);
  const std::size_t kk = static_cast<std::size_t>(k * k);
  const std::size_t tkk = static_cast<std::size_t>(tiles) * kk;
  std::vector<float> ar(tkk), ai(tkk), br(tkk), bi(tkk), cr(tkk), ci(tkk);
  for (auto* v : {&ar, &ai, &br, &bi}) {
    for (auto& x : *v) x = static_cast<float>(rng.uniform(-1, 1));
  }
  const double flops = 8.0 * static_cast<double>(tiles) * k * k * k;
  const double t_naive = adept::bench::time_best([&] {
    for (std::int64_t t = 0; t < tiles; ++t) {
      be::cgemm(be::CTrans::N, be::CTrans::N, k, k, k, ar.data() + t * kk,
                ai.data() + t * kk, k, br.data() + t * kk, bi.data() + t * kk,
                k, 0.0f, cr.data() + t * kk, ci.data() + t * kk, k);
    }
  });
  const auto t = time_backend([&] {
    be::cgemm_batched(be::CTrans::N, be::CTrans::N, tiles, k, k, k, ar.data(),
                      ai.data(), kk, k, br.data(), bi.data(), kk, k, 0.0f,
                      cr.data(), ci.data(), kk, k);
  });
  return make_record("cgemm_f32_batched", static_cast<double>(tiles), flops,
                     t_naive, t);
}

adept::bench::JsonRecord map_record(std::size_t n) {
  adept::Rng rng(3);
  std::vector<float> a(n), out(n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-4, 4));
  const double t_naive =
      adept::bench::time_best([&] { naive_sigmoid(a.data(), out.data(), n); });
  const auto t = time_backend([&] {
    be::map(n, a.data(), out.data(),
            [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
  });
  return make_record("map_sigmoid", static_cast<double>(n),
                     static_cast<double>(n), t_naive, t);
}

adept::bench::JsonRecord im2col_record() {
  // Dims come through env_int so the baseline loop sees runtime values, the
  // same conditions the autograd op ran under before the port (a literal-dim
  // baseline would let the compiler fully unroll the tap loops and compare a
  // specialized kernel against a general one).
  const std::int64_t n = adept::env_int("ADEPT_BENCH_IM2COL_N", 8);
  const std::int64_t c = adept::env_int("ADEPT_BENCH_IM2COL_C", 8);
  const std::int64_t h = adept::env_int("ADEPT_BENCH_IM2COL_HW", 32);
  const std::int64_t kh = adept::env_int("ADEPT_BENCH_IM2COL_K", 3);
  const std::int64_t w = h, kw = kh, stride = 1, pad = 1;
  adept::Rng rng(4);
  std::vector<float> x(static_cast<std::size_t>(n * c * h * w));
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  const std::int64_t oh = (h + 2 * pad - kh) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - kw) / stride + 1;
  const std::int64_t cols = c * kh * kw;
  std::vector<float> out(static_cast<std::size_t>(n * oh * ow * cols));
  // Seed-style serial gather as the baseline.
  const double t_naive = adept::bench::time_best([&] {
    std::fill(out.begin(), out.end(), 0.0f);
    for (std::int64_t ni = 0; ni < n; ++ni)
      for (std::int64_t yo = 0; yo < oh; ++yo)
        for (std::int64_t xo = 0; xo < ow; ++xo) {
          const std::int64_t row = (ni * oh + yo) * ow + xo;
          for (std::int64_t ci = 0; ci < c; ++ci)
            for (std::int64_t ky = 0; ky < kh; ++ky) {
              const std::int64_t yi = yo * stride - pad + ky;
              if (yi < 0 || yi >= h) continue;
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t xi = xo * stride - pad + kx;
                if (xi < 0 || xi >= w) continue;
                out[static_cast<std::size_t>(row * cols + (ci * kh + ky) * kw + kx)] =
                    x[static_cast<std::size_t>(((ni * c + ci) * h + yi) * w + xi)];
              }
            }
        }
  });
  const auto t = time_backend(
      [&] { be::im2col(x.data(), n, c, h, w, kh, kw, stride, pad, out.data()); });
  const double elems = static_cast<double>(n * oh * ow * cols);
  return make_record("im2col", static_cast<double>(h), elems, t_naive, t);
}

// ---- per-dispatch-level records --------------------------------------------
//
// One record per available SIMD level per kernel, all pinned to one thread.
// The baseline is the *scalar dispatch level* (the pre-SIMD blocked kernel),
// so `speedup_serial` of a `_avx2`/`_avx512` record is exactly the
// microkernel-vs-blocked-kernel win the acceptance criterion tracks.
template <typename Fn>
double time_serial_at(be::SimdLevel level, Fn&& fn) {
  be::SimdScope simd(level);
  be::ThreadScope one(1);
  return adept::bench::time_best(fn);
}

template <typename Fn>
void add_level_records(adept::bench::JsonReport& report, const char* base,
                       double size, double work, Fn&& fn) {
  const double t_scalar = time_serial_at(be::SimdLevel::scalar, fn);
  for (be::SimdLevel level : be::available_simd_levels()) {
    // The scalar record reuses the baseline timing: definitional 1.0x
    // rather than a second measurement's noise.
    const double t = level == be::SimdLevel::scalar
                         ? t_scalar
                         : time_serial_at(level, fn);
    report.add({std::string(base) + "_" + be::simd_level_name(level),
                {{"size", size},
                 {"baseline_gflops", work / t_scalar * 1e-9},
                 {"backend_serial_gflops", work / t * 1e-9},
                 {"speedup_serial", t_scalar / t}}});
  }
}

void add_simd_level_records(adept::bench::JsonReport& report) {
  adept::Rng rng(12);
  {
    const std::int64_t n = 256;
    const std::size_t nn = static_cast<std::size_t>(n * n);
    auto a = std::make_shared<std::vector<float>>(nn);
    auto b = std::make_shared<std::vector<float>>(nn);
    auto c = std::make_shared<std::vector<float>>(nn);
    for (auto* v : {a.get(), b.get()}) {
      for (auto& x : *v) x = static_cast<float>(rng.uniform(-1, 1));
    }
    add_level_records(report, "gemm_f32", static_cast<double>(n),
                      2.0 * static_cast<double>(n) * n * n, [=] {
                        be::gemm(be::Trans::N, be::Trans::N, n, n, n, 1.0f,
                                 a->data(), n, b->data(), n, 0.0f, c->data(), n);
                      });
  }
  {
    const std::int64_t n = 64;
    const std::size_t nn = static_cast<std::size_t>(n * n);
    auto ar = std::make_shared<std::vector<float>>(nn);
    auto ai = std::make_shared<std::vector<float>>(nn);
    auto br = std::make_shared<std::vector<float>>(nn);
    auto bi = std::make_shared<std::vector<float>>(nn);
    auto cr = std::make_shared<std::vector<float>>(nn);
    auto ci = std::make_shared<std::vector<float>>(nn);
    for (auto* v : {ar.get(), ai.get(), br.get(), bi.get()}) {
      for (auto& x : *v) x = static_cast<float>(rng.uniform(-1, 1));
    }
    add_level_records(report, "cgemm_f32", static_cast<double>(n),
                      8.0 * static_cast<double>(n) * n * n, [=] {
                        be::cgemm(be::CTrans::N, be::CTrans::N, n, n, n,
                                  ar->data(), ai->data(), n, br->data(),
                                  bi->data(), n, 0.0f, cr->data(), ci->data(),
                                  n);
                      });
    // Same operands through the phased real-complex product (dense A).
    auto p = std::make_shared<std::vector<float>>(nn);
    auto cc = std::make_shared<std::vector<float>>(static_cast<std::size_t>(n));
    auto ss = std::make_shared<std::vector<float>>(static_cast<std::size_t>(n));
    for (auto& x : *p) x = static_cast<float>(rng.uniform(-1, 1));
    for (std::int64_t j = 0; j < n; ++j) {
      const float phi = static_cast<float>(rng.uniform(-3.0, 3.0));
      (*cc)[static_cast<std::size_t>(j)] = std::cos(phi);
      (*ss)[static_cast<std::size_t>(j)] = std::sin(phi);
    }
    add_level_records(report, "rcgemm_f32", static_cast<double>(n),
                      4.0 * static_cast<double>(n) * n * n, [=] {
                        be::rcgemm(be::Trans::N, n, n, n, p->data(), n,
                                   br->data(), bi->data(), n, 0.0f, cr->data(),
                                   ci->data(), n, cc->data(), ss->data());
                      });
  }
  {
    const std::int64_t tiles = 16, k = 16;
    const std::size_t kk = static_cast<std::size_t>(k * k);
    const std::size_t tkk = static_cast<std::size_t>(tiles) * kk;
    auto ar = std::make_shared<std::vector<float>>(tkk);
    auto ai = std::make_shared<std::vector<float>>(tkk);
    auto br = std::make_shared<std::vector<float>>(tkk);
    auto bi = std::make_shared<std::vector<float>>(tkk);
    auto cr = std::make_shared<std::vector<float>>(tkk);
    auto ci = std::make_shared<std::vector<float>>(tkk);
    for (auto* v : {ar.get(), ai.get(), br.get(), bi.get()}) {
      for (auto& x : *v) x = static_cast<float>(rng.uniform(-1, 1));
    }
    add_level_records(report, "cgemm_f32_batched", static_cast<double>(tiles),
                      8.0 * static_cast<double>(tiles) * k * k * k, [=] {
                        be::cgemm_batched(be::CTrans::N, be::CTrans::N, tiles,
                                          k, k, k, ar->data(), ai->data(), kk,
                                          k, br->data(), bi->data(), kk, k,
                                          0.0f, cr->data(), ci->data(), kk, k);
                      });
  }
  {
    // Double-precision photonics gemms (mesh-transfer chains, unitary
    // legalization in photonics/linalg.cpp). The scalar level IS the
    // pre-refactor zero-skipping blocked loop, bit for bit, so the
    // `speedup_serial` of the avx records is exactly the win from folding
    // these shapes onto the dispatched vec4d microkernels. Dense random
    // operands keep the density probe on the dispatch path (permutation
    // operands deliberately stay scalar).
    const std::int64_t n = 96;
    const std::size_t nn = static_cast<std::size_t>(n * n);
    auto a = std::make_shared<std::vector<double>>(nn);
    auto b = std::make_shared<std::vector<double>>(nn);
    auto c = std::make_shared<std::vector<double>>(nn);
    for (auto* v : {a.get(), b.get()}) {
      for (auto& x : *v) x = rng.uniform(-1, 1);
    }
    add_level_records(report, "gemm_f64", static_cast<double>(n),
                      2.0 * static_cast<double>(n) * n * n, [=] {
                        be::gemm(be::Trans::N, be::Trans::N, n, n, n, 1.0,
                                 a->data(), n, b->data(), n, 0.0, c->data(), n);
                      });
    auto za = std::make_shared<std::vector<std::complex<double>>>(nn);
    auto zb = std::make_shared<std::vector<std::complex<double>>>(nn);
    auto zc = std::make_shared<std::vector<std::complex<double>>>(nn);
    for (auto* v : {za.get(), zb.get()}) {
      for (auto& x : *v) x = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
    add_level_records(
        report, "zgemm_f64", static_cast<double>(n),
        8.0 * static_cast<double>(n) * n * n, [=] {
          be::gemm(be::Trans::N, be::Trans::T, n, n, n,
                   std::complex<double>{1.0, 0.0}, za->data(), n, zb->data(),
                   n, std::complex<double>{0.0, 0.0}, zc->data(), n);
        });
  }
  {
    // Elementwise transcendentals: *_gflops fields are elements/s here.
    const std::int64_t n = 1 << 16;
    auto x = std::make_shared<std::vector<float>>(static_cast<std::size_t>(n));
    auto c = std::make_shared<std::vector<float>>(static_cast<std::size_t>(n));
    auto s = std::make_shared<std::vector<float>>(static_cast<std::size_t>(n));
    for (auto& v : *x) v = static_cast<float>(rng.uniform(-6.28, 6.28));
    add_level_records(report, "sincos_f32", static_cast<double>(n),
                      static_cast<double>(n),
                      [=] { be::sincos(n, x->data(), c->data(), s->data()); });
    const std::int64_t rows = 512, cols = 64;
    auto sm_in = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(rows * cols));
    auto sm_out = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(rows * cols));
    for (auto& v : *sm_in) v = static_cast<float>(rng.uniform(-8.0, 8.0));
    add_level_records(report, "softmax_rows", static_cast<double>(cols),
                      static_cast<double>(rows * cols), [=] {
                        be::softmax_rows(rows, cols, sm_in->data(),
                                         sm_out->data());
                      });
  }
}

int run_json_report(const std::string& path) {
  adept::bench::JsonReport report("kernels");
  for (std::int64_t n : {64, 128, 256}) report.add(gemm_record(n));
  for (std::int64_t n : {64, 128, 256}) report.add(gemm_bt_record(n));
  for (std::int64_t n : {16, 32, 64}) report.add(cgemm_record(n));
  report.add(cgemm_batched_record());
  report.add(cchain_record(32, 4));
  report.add(map_record(1u << 20));
  report.add(im2col_record());
  add_simd_level_records(report);
  if (!report.write(path, be::num_threads())) {
    std::cerr << "bench_kernels: cannot write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << " (threads=" << be::num_threads() << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  if (adept::bench::parse_json_flag(argc, argv, "BENCH_kernels.json", &json_path)) {
    return run_json_report(json_path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
