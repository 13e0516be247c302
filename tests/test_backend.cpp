// Tests for the src/backend dense kernel layer: blocked gemm (all transpose
// variants, non-square/odd shapes, alpha/beta), fused elementwise kernels,
// im2col/col2im, thread-count bit-exactness, the kernel thread pool under
// concurrent callers, and gradchecks of the autograd ops ported onto the
// backend.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <complex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "backend/dispatch.h"
#include "backend/kernels.h"
#include "backend/parallel.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace {

namespace be = adept::backend;
namespace ag = adept::ag;
using adept::Rng;
using be::Trans;

template <typename T>
std::vector<T> random_vec(std::size_t n, Rng& rng) {
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(rng.uniform(-1.0, 1.0));
  return v;
}

std::vector<std::complex<double>> random_cvec(std::size_t n, Rng& rng) {
  std::vector<std::complex<double>> v(n);
  for (auto& x : v) x = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return v;
}

// Reference triple-loop gemm with logical transposes.
template <typename T>
std::vector<T> ref_gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                        std::int64_t k, T alpha, const std::vector<T>& a,
                        std::int64_t lda, const std::vector<T>& b,
                        std::int64_t ldb, T beta, std::vector<T> c,
                        std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      T acc{};
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const T av = ta == Trans::N ? a[static_cast<std::size_t>(i * lda + kk)]
                                    : a[static_cast<std::size_t>(kk * lda + i)];
        const T bv = tb == Trans::N ? b[static_cast<std::size_t>(kk * ldb + j)]
                                    : b[static_cast<std::size_t>(j * ldb + kk)];
        acc += av * bv;
      }
      auto& cv = c[static_cast<std::size_t>(i * ldc + j)];
      cv = alpha * acc + beta * cv;
    }
  }
  return c;
}

struct GemmCase {
  Trans ta, tb;
  std::int64_t m, n, k;
  float alpha, beta;
};

class GemmVariants : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmVariants, MatchesReference) {
  const GemmCase p = GetParam();
  Rng rng(42);
  // Physical layouts: op(A) is [m,k] so A is [m,k] (N) or [k,m] (T).
  const std::int64_t lda = p.ta == Trans::N ? p.k : p.m;
  const std::int64_t ldb = p.tb == Trans::N ? p.n : p.k;
  const auto a = random_vec<float>(static_cast<std::size_t>(
                                       (p.ta == Trans::N ? p.m : p.k) * lda),
                                   rng);
  const auto b = random_vec<float>(static_cast<std::size_t>(
                                       (p.tb == Trans::N ? p.k : p.n) * ldb),
                                   rng);
  auto c0 = random_vec<float>(static_cast<std::size_t>(p.m * p.n), rng);
  const auto expect =
      ref_gemm(p.ta, p.tb, p.m, p.n, p.k, p.alpha, a, lda, b, ldb, p.beta, c0, p.n);
  auto c = c0;
  be::gemm(p.ta, p.tb, p.m, p.n, p.k, p.alpha, a.data(), lda, b.data(), ldb,
           p.beta, c.data(), p.n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expect[i], 1e-4f) << "elem " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmVariants,
    ::testing::Values(
        GemmCase{Trans::N, Trans::N, 3, 5, 7, 1.0f, 0.0f},
        GemmCase{Trans::N, Trans::T, 3, 5, 7, 1.0f, 0.0f},
        GemmCase{Trans::T, Trans::N, 3, 5, 7, 1.0f, 0.0f},
        GemmCase{Trans::T, Trans::T, 3, 5, 7, 1.0f, 0.0f},
        GemmCase{Trans::N, Trans::N, 17, 9, 13, 0.5f, 1.0f},
        GemmCase{Trans::N, Trans::T, 13, 17, 9, 2.0f, 0.5f},
        GemmCase{Trans::T, Trans::N, 9, 13, 17, 1.0f, 1.0f},
        GemmCase{Trans::T, Trans::T, 16, 16, 16, 1.0f, 0.0f},
        GemmCase{Trans::N, Trans::N, 1, 31, 1, 1.0f, 0.0f},
        GemmCase{Trans::N, Trans::N, 31, 1, 31, 1.0f, 0.0f},
        // k exceeding the 256-deep panel exercises the k-blocking seam.
        GemmCase{Trans::N, Trans::N, 5, 7, 300, 1.0f, 0.0f},
        GemmCase{Trans::N, Trans::T, 5, 7, 300, 1.0f, 1.0f}));

TEST(Gemm, DoubleAndComplexMatchReference) {
  Rng rng(7);
  const std::int64_t m = 11, n = 6, k = 9;
  const auto ad = random_vec<double>(static_cast<std::size_t>(m * k), rng);
  const auto bd = random_vec<double>(static_cast<std::size_t>(k * n), rng);
  std::vector<double> cd(static_cast<std::size_t>(m * n), 0.0);
  const auto expect_d =
      ref_gemm(Trans::N, Trans::N, m, n, k, 1.0, ad, k, bd, n, 0.0, cd, n);
  be::gemm(Trans::N, Trans::N, m, n, k, 1.0, ad.data(), k, bd.data(), n, 0.0,
           cd.data(), n);
  for (std::size_t i = 0; i < cd.size(); ++i) EXPECT_NEAR(cd[i], expect_d[i], 1e-12);

  const auto ac = random_cvec(static_cast<std::size_t>(m * k), rng);
  const auto bc = random_cvec(static_cast<std::size_t>(k * n), rng);
  std::vector<std::complex<double>> cc(static_cast<std::size_t>(m * n));
  const auto expect_c = ref_gemm(Trans::N, Trans::N, m, n, k,
                                 std::complex<double>(1.0, 0.0), ac, k, bc, n,
                                 std::complex<double>(0.0, 0.0), cc, n);
  be::gemm(Trans::N, Trans::N, m, n, k, std::complex<double>(1.0, 0.0),
           ac.data(), k, bc.data(), n, std::complex<double>(0.0, 0.0),
           cc.data(), n);
  for (std::size_t i = 0; i < cc.size(); ++i) {
    EXPECT_NEAR(std::abs(cc[i] - expect_c[i]), 0.0, 1e-12);
  }
}

TEST(Gemm, ZeroInnerDimAppliesBeta) {
  std::vector<float> c = {1.0f, 2.0f, 3.0f, 4.0f};
  be::gemm(Trans::N, Trans::N, 2, 2, 0, 1.0f, nullptr, 1, nullptr, 1, 0.5f,
           c.data(), 2);
  EXPECT_FLOAT_EQ(c[0], 0.5f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
}

// The kernel contract: chunk boundaries depend only on the problem size, so
// any thread count reproduces the single-thread result bit-for-bit.
TEST(Determinism, ThreadedMatchesSerialBitExactly) {
  Rng rng(13);
  const std::int64_t m = 97, n = 65, k = 301;  // odd sizes straddle all seams
  const auto a = random_vec<float>(static_cast<std::size_t>(m * k), rng);
  const auto b = random_vec<float>(static_cast<std::size_t>(k * n), rng);
  std::vector<float> c_serial(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> c_threaded = c_serial;
  {
    be::ThreadScope one(1);
    be::gemm(Trans::N, Trans::T, m, n, k, 1.0f, a.data(), k, b.data(), k, 0.0f,
             c_serial.data(), n);
  }
  {
    be::ThreadScope four(4);
    be::gemm(Trans::N, Trans::T, m, n, k, 1.0f, a.data(), k, b.data(), k, 0.0f,
             c_threaded.data(), n);
  }
  for (std::size_t i = 0; i < c_serial.size(); ++i) {
    ASSERT_EQ(c_serial[i], c_threaded[i]) << "elem " << i;
  }
}

// Row independence: an output row depends only on its own A row, never on
// how many rows share the call. Every 3-row block of an M=24 gemm must equal
// a separate M=3 call, with K on both sides of the kKC=256 panel depth, at
// every dispatch level and thread count.
TEST(Determinism, GemmRowsIndependentOfRowCount) {
  const std::int64_t m = 24, rows = 3, n = 37;
  for (std::int64_t k : {27, 256, 300, 600}) {
    Rng rng(static_cast<std::uint64_t>(k));
    const auto a = random_vec<float>(static_cast<std::size_t>(m * k), rng);
    const auto b = random_vec<float>(static_cast<std::size_t>(k * n), rng);
    for (be::SimdLevel level : be::available_simd_levels()) {
      be::SimdScope simd(level);
      for (int threads : {1, 4}) {
        be::ThreadScope scope(threads);
        for (Trans tb : {Trans::N, Trans::T}) {
          const std::int64_t ldb = tb == Trans::N ? n : k;
          std::vector<float> full(static_cast<std::size_t>(m * n));
          be::gemm(Trans::N, tb, m, n, k, 1.0f, a.data(), k, b.data(), ldb,
                   0.0f, full.data(), n);
          for (std::int64_t r0 = 0; r0 < m; r0 += rows) {
            std::vector<float> part(static_cast<std::size_t>(rows * n));
            be::gemm(Trans::N, tb, rows, n, k, 1.0f, a.data() + r0 * k, k,
                     b.data(), ldb, 0.0f, part.data(), n);
            for (std::int64_t i = 0; i < rows * n; ++i) {
              ASSERT_EQ(part[static_cast<std::size_t>(i)],
                        full[static_cast<std::size_t>(r0 * n + i)])
                  << be::simd_level_name(level) << " threads " << threads
                  << " k " << k << " tb " << (tb == Trans::N ? "N" : "T")
                  << " row block " << r0;
            }
          }
        }
      }
    }
  }
}

TEST(Determinism, ElementwiseAndReduceBitExact) {
  Rng rng(14);
  const std::size_t n = 100000;  // spans several elementwise/reduce chunks
  const auto a = random_vec<float>(n, rng);
  const auto b = random_vec<float>(n, rng);
  std::vector<float> m1(n), m4(n), z1(n), z4(n);
  double s1, s4;
  auto f = [](float x) { return std::tanh(x) + 0.5f * x; };
  auto g = [](float x, float y) { return x * y + 0.25f * x; };
  {
    be::ThreadScope one(1);
    be::map(n, a.data(), m1.data(), f);
    be::zip(n, a.data(), b.data(), z1.data(), g);
    s1 = be::reduce_sum(a.data(), n);
  }
  {
    be::ThreadScope four(4);
    be::map(n, a.data(), m4.data(), f);
    be::zip(n, a.data(), b.data(), z4.data(), g);
    s4 = be::reduce_sum(a.data(), n);
  }
  EXPECT_EQ(s1, s4);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(m1[i], m4[i]);
    ASSERT_EQ(z1[i], z4[i]);
  }
}

TEST(Im2col, MatchesNaiveAndIsAdjointOfCol2im) {
  Rng rng(15);
  const std::int64_t n = 2, c = 3, h = 7, w = 6, kh = 3, kw = 2, stride = 2,
                     pad = 1;
  const std::int64_t oh = (h + 2 * pad - kh) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - kw) / stride + 1;
  const std::int64_t cols = c * kh * kw, rows = n * oh * ow;
  const auto x = random_vec<float>(static_cast<std::size_t>(n * c * h * w), rng);

  // Naive gather.
  std::vector<float> expect(static_cast<std::size_t>(rows * cols), 0.0f);
  for (std::int64_t ni = 0; ni < n; ++ni)
    for (std::int64_t yo = 0; yo < oh; ++yo)
      for (std::int64_t xo = 0; xo < ow; ++xo)
        for (std::int64_t ci = 0; ci < c; ++ci)
          for (std::int64_t ky = 0; ky < kh; ++ky)
            for (std::int64_t kx = 0; kx < kw; ++kx) {
              const std::int64_t yi = yo * stride - pad + ky;
              const std::int64_t xi = xo * stride - pad + kx;
              if (yi < 0 || yi >= h || xi < 0 || xi >= w) continue;
              const std::int64_t row = (ni * oh + yo) * ow + xo;
              expect[static_cast<std::size_t>(row * cols + (ci * kh + ky) * kw + kx)] =
                  x[static_cast<std::size_t>(((ni * c + ci) * h + yi) * w + xi)];
            }

  std::vector<float> got(expect.size(), -1.0f);
  be::im2col(x.data(), n, c, h, w, kh, kw, stride, pad, got.data());
  for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], expect[i]);

  // Adjoint identity: <im2col(x), y> == <x, col2im(y)>.
  const auto y = random_vec<float>(got.size(), rng);
  std::vector<float> xback(x.size(), 0.0f);
  be::col2im(y.data(), n, c, h, w, kh, kw, stride, pad, xback.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i)
    lhs += static_cast<double>(got[i]) * y[i];
  for (std::size_t i = 0; i < x.size(); ++i)
    rhs += static_cast<double>(x[i]) * xback[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);

  // Thread-count determinism for the scatter side.
  std::vector<float> xback4(x.size(), 0.0f);
  {
    be::ThreadScope four(4);
    be::col2im(y.data(), n, c, h, w, kh, kw, stride, pad, xback4.data());
  }
  for (std::size_t i = 0; i < xback.size(); ++i) ASSERT_EQ(xback[i], xback4[i]);
}

// ---- fused complex gemm ---------------------------------------------------

// Reference planar complex gemm via std::complex.
void ref_cgemm(be::CTrans ta, be::CTrans tb, std::int64_t m, std::int64_t n,
               std::int64_t k, const std::vector<float>& ar,
               const std::vector<float>& ai, std::int64_t lda,
               const std::vector<float>& br, const std::vector<float>& bi,
               std::int64_t ldb, float beta, std::vector<float>& cr,
               std::vector<float>& ci, std::int64_t ldc) {
  auto opa = [&](std::int64_t i, std::int64_t kk) {
    std::complex<float> v;
    if (ta == be::CTrans::N) {
      v = {ar[static_cast<std::size_t>(i * lda + kk)],
           ai[static_cast<std::size_t>(i * lda + kk)]};
    } else {
      v = {ar[static_cast<std::size_t>(kk * lda + i)],
           ai[static_cast<std::size_t>(kk * lda + i)]};
      if (ta == be::CTrans::H) v = std::conj(v);
    }
    return v;
  };
  auto opb = [&](std::int64_t kk, std::int64_t j) {
    std::complex<float> v;
    if (tb == be::CTrans::N) {
      v = {br[static_cast<std::size_t>(kk * ldb + j)],
           bi[static_cast<std::size_t>(kk * ldb + j)]};
    } else {
      v = {br[static_cast<std::size_t>(j * ldb + kk)],
           bi[static_cast<std::size_t>(j * ldb + kk)]};
      if (tb == be::CTrans::H) v = std::conj(v);
    }
    return v;
  };
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::complex<double> acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += std::complex<double>(opa(i, kk)) * std::complex<double>(opb(kk, j));
      }
      auto& re = cr[static_cast<std::size_t>(i * ldc + j)];
      auto& im = ci[static_cast<std::size_t>(i * ldc + j)];
      re = static_cast<float>(acc.real()) + beta * re;
      im = static_cast<float>(acc.imag()) + beta * im;
    }
  }
}

struct CgemmCase {
  be::CTrans ta, tb;
  std::int64_t m, n, k;
  float beta;
};

class CgemmVariants : public ::testing::TestWithParam<CgemmCase> {};

TEST_P(CgemmVariants, MatchesComplexReference) {
  const CgemmCase p = GetParam();
  Rng rng(31);
  const std::int64_t lda = p.ta == be::CTrans::N ? p.k : p.m;
  const std::int64_t ldb = p.tb == be::CTrans::N ? p.n : p.k;
  const std::size_t an = static_cast<std::size_t>((p.ta == be::CTrans::N ? p.m : p.k) * lda);
  const std::size_t bn = static_cast<std::size_t>((p.tb == be::CTrans::N ? p.k : p.n) * ldb);
  const auto ar = random_vec<float>(an, rng), ai = random_vec<float>(an, rng);
  const auto br = random_vec<float>(bn, rng), bi = random_vec<float>(bn, rng);
  auto cr0 = random_vec<float>(static_cast<std::size_t>(p.m * p.n), rng);
  auto ci0 = random_vec<float>(static_cast<std::size_t>(p.m * p.n), rng);
  auto er = cr0, ei = ci0;
  ref_cgemm(p.ta, p.tb, p.m, p.n, p.k, ar, ai, lda, br, bi, ldb, p.beta, er, ei, p.n);
  auto cr = cr0, ci = ci0;
  be::cgemm(p.ta, p.tb, p.m, p.n, p.k, ar.data(), ai.data(), lda, br.data(),
            bi.data(), ldb, p.beta, cr.data(), ci.data(), p.n);
  for (std::size_t i = 0; i < cr.size(); ++i) {
    ASSERT_NEAR(cr[i], er[i], 1e-4f) << "re elem " << i;
    ASSERT_NEAR(ci[i], ei[i], 1e-4f) << "im elem " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CgemmVariants,
    ::testing::Values(
        CgemmCase{be::CTrans::N, be::CTrans::N, 4, 6, 5, 0.0f},
        CgemmCase{be::CTrans::N, be::CTrans::T, 4, 6, 5, 0.0f},
        CgemmCase{be::CTrans::N, be::CTrans::H, 4, 6, 5, 1.0f},
        CgemmCase{be::CTrans::T, be::CTrans::N, 7, 3, 9, 0.0f},
        CgemmCase{be::CTrans::H, be::CTrans::N, 7, 3, 9, 1.0f},
        CgemmCase{be::CTrans::H, be::CTrans::H, 8, 8, 8, 0.0f},
        CgemmCase{be::CTrans::N, be::CTrans::N, 32, 32, 32, 0.0f},
        // k beyond one 256-deep panel exercises the k-blocking seam.
        CgemmCase{be::CTrans::N, be::CTrans::H, 5, 7, 300, 0.0f}));

// Acceptance: cgemm results are identical bits at 1/2/8 threads.
TEST(Determinism, CgemmBitExactAcrossThreadCounts) {
  Rng rng(32);
  const std::int64_t m = 63, n = 33, k = 289;
  const auto ar = random_vec<float>(static_cast<std::size_t>(m * k), rng);
  const auto ai = random_vec<float>(static_cast<std::size_t>(m * k), rng);
  const auto br = random_vec<float>(static_cast<std::size_t>(k * n), rng);
  const auto bi = random_vec<float>(static_cast<std::size_t>(k * n), rng);
  std::vector<float> base_r, base_i;
  for (int threads : {1, 2, 8}) {
    std::vector<float> cr(static_cast<std::size_t>(m * n), 0.0f);
    std::vector<float> ci = cr;
    be::ThreadScope scope(threads);
    be::cgemm(be::CTrans::N, be::CTrans::H, m, n, k, ar.data(), ai.data(), k,
              br.data(), bi.data(), k, 0.0f, cr.data(), ci.data(), n);
    if (threads == 1) {
      base_r = cr;
      base_i = ci;
      continue;
    }
    for (std::size_t i = 0; i < cr.size(); ++i) {
      ASSERT_EQ(cr[i], base_r[i]) << "threads=" << threads << " re " << i;
      ASSERT_EQ(ci[i], base_i[i]) << "threads=" << threads << " im " << i;
    }
  }
}

TEST(Rcgemm, MatchesReferenceWithPhaseEpilogue) {
  Rng rng(33);
  const std::int64_t k = 12;
  const auto a = random_vec<float>(static_cast<std::size_t>(k * k), rng);
  const auto br = random_vec<float>(static_cast<std::size_t>(k * k), rng);
  const auto bi = random_vec<float>(static_cast<std::size_t>(k * k), rng);
  std::vector<float> cosv(static_cast<std::size_t>(k)), sinv(cosv.size());
  for (std::int64_t j = 0; j < k; ++j) {
    const double phi = rng.uniform(-3.0, 3.0);
    cosv[static_cast<std::size_t>(j)] = static_cast<float>(std::cos(phi));
    sinv[static_cast<std::size_t>(j)] = static_cast<float>(std::sin(phi));
  }
  // Reference: (A @ B) then multiply column j by exp(-i phi_j).
  std::vector<float> er(static_cast<std::size_t>(k * k), 0.0f), ei = er;
  for (std::int64_t i = 0; i < k; ++i) {
    for (std::int64_t j = 0; j < k; ++j) {
      double accr = 0.0, acci = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        accr += static_cast<double>(a[static_cast<std::size_t>(i * k + kk)]) *
                br[static_cast<std::size_t>(kk * k + j)];
        acci += static_cast<double>(a[static_cast<std::size_t>(i * k + kk)]) *
                bi[static_cast<std::size_t>(kk * k + j)];
      }
      const double c = cosv[static_cast<std::size_t>(j)], s = sinv[static_cast<std::size_t>(j)];
      er[static_cast<std::size_t>(i * k + j)] = static_cast<float>(accr * c + acci * s);
      ei[static_cast<std::size_t>(i * k + j)] = static_cast<float>(acci * c - accr * s);
    }
  }
  std::vector<float> cr(er.size(), 0.0f), ci = cr;
  be::rcgemm(Trans::N, k, k, k, a.data(), k, br.data(), bi.data(), k, 0.0f,
             cr.data(), ci.data(), k, cosv.data(), sinv.data());
  for (std::size_t i = 0; i < cr.size(); ++i) {
    ASSERT_NEAR(cr[i], er[i], 1e-4f);
    ASSERT_NEAR(ci[i], ei[i], 1e-4f);
  }
}

// ---- pre-packed gemm -----------------------------------------------------

TEST(GemmPacked, BitExactVsPlainGemmAllAlphasAndShapes) {
  // The pre-packed serving path must be bit-identical to gemm() — including
  // the alpha != 1 branch (pack_a scratch path) and Trans::T packs — at
  // every (m, n, k) tile-tail position.
  Rng rng(77);
  for (const auto& [m, n, k] : std::vector<std::array<std::int64_t, 3>>{
           {1, 10, 150}, {16, 6, 150}, {64, 6, 25}, {7, 17, 33}, {6, 8, 16}}) {
    for (const Trans tb : {Trans::N, Trans::T}) {
      const std::int64_t ldb = tb == Trans::N ? n : k;
      std::vector<float> a(static_cast<std::size_t>(m * k)),
          b(static_cast<std::size_t>(n * k));
      for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      const be::PackedGemmB pb = be::pack_gemm_b(tb, k, n, b.data(), ldb);
      for (const float alpha : {1.0f, 2.5f, -0.75f}) {
        std::vector<float> ref(static_cast<std::size_t>(m * n)), got(ref.size());
        be::gemm(Trans::N, tb, m, n, k, alpha, a.data(), k, b.data(), ldb, 0.0f,
                 ref.data(), n);
        be::gemm_packed(m, n, k, alpha, a.data(), k, tb, b.data(), ldb, pb, 0.0f,
                        got.data(), n);
        ASSERT_EQ(ref, got) << "m=" << m << " n=" << n << " k=" << k
                            << " alpha=" << alpha
                            << " tb=" << (tb == Trans::N ? "N" : "T");
      }
    }
  }
}

TEST(GemmPacked, FallsBackWhenDispatchLevelChanges) {
  // Panels packed at one SIMD level must not be consumed at another: the
  // wrapper falls back to the plain gemm using the raw operand.
  Rng rng(78);
  const std::int64_t m = 9, n = 11, k = 40;
  std::vector<float> a(static_cast<std::size_t>(m * k)),
      b(static_cast<std::size_t>(k * n));
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const be::PackedGemmB pb = be::pack_gemm_b(Trans::N, k, n, b.data(), n);
  be::SimdScope scope(be::SimdLevel::scalar);
  std::vector<float> ref(static_cast<std::size_t>(m * n)), got(ref.size());
  be::gemm(Trans::N, Trans::N, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
           ref.data(), n);
  be::gemm_packed(m, n, k, 1.0f, a.data(), k, Trans::N, b.data(), n, pb, 0.0f,
                  got.data(), n);
  ASSERT_EQ(ref, got);
}

// ---- the kernel thread pool under concurrent callers ----------------------

// Runs body(caller) on `callers` threads at once and joins them.
template <typename Body>
void run_callers(int callers, const Body& body) {
  std::vector<std::thread> threads;
  for (int t = 0; t < callers; ++t) threads.emplace_back(body, t);
  for (auto& th : threads) th.join();
}

// Every caller, alone or among 8 concurrent ones, sees each index of its
// range exactly once at every core budget.
TEST(Parallel, ConcurrentCallersCoverEveryIndexExactlyOnce) {
  const std::int64_t n = 10'007;  // prime, so chunks never divide evenly
  for (int budget : {1, 4}) {
    be::ThreadScope scope(budget);
    for (int callers : {1, 8}) {
      std::vector<std::vector<std::int32_t>> hits(
          static_cast<std::size_t>(callers),
          std::vector<std::int32_t>(static_cast<std::size_t>(n), 0));
      run_callers(callers, [&](int c) {
        auto& mine = hits[static_cast<std::size_t>(c)];
        for (int rep = 0; rep < 20; ++rep) {
          be::parallel_for(n, 64, [&](std::int64_t i0, std::int64_t i1) {
            for (std::int64_t i = i0; i < i1; ++i) {
              mine[static_cast<std::size_t>(i)] += 1;
            }
          });
        }
      });
      for (int c = 0; c < callers; ++c) {
        for (std::int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)], 20)
              << "budget " << budget << " callers " << callers << " caller "
              << c << " index " << i;
        }
      }
    }
  }
}

// A launch from inside a chunk runs inline on the thread executing that
// chunk, so nesting completes instead of waiting on a busy pool.
TEST(Parallel, NestedLaunchInsideChunkCompletes) {
  be::ThreadScope scope(4);
  const std::int64_t outer = 64, inner = 1000;
  std::vector<std::int64_t> sums(static_cast<std::size_t>(outer), 0);
  be::parallel_for(outer, 1, [&](std::int64_t o0, std::int64_t o1) {
    for (std::int64_t o = o0; o < o1; ++o) {
      std::vector<std::int64_t> part(static_cast<std::size_t>(inner), 0);
      be::parallel_for(inner, 10, [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          part[static_cast<std::size_t>(i)] = o + i;
        }
      });
      for (std::int64_t v : part) sums[static_cast<std::size_t>(o)] += v;
    }
  });
  for (std::int64_t o = 0; o < outer; ++o) {
    EXPECT_EQ(sums[static_cast<std::size_t>(o)], o * inner + inner * (inner - 1) / 2);
  }
}

// Concurrent callers sharing the pool (ranks, server workers) get the same
// bits as a lone single-threaded caller, at every core budget.
TEST(Parallel, ConcurrentCallersBitIdenticalAtEveryBudget) {
  Rng rng(36);
  const std::int64_t m = 97, n = 65, k = 301;
  const auto a = random_vec<float>(static_cast<std::size_t>(m * k), rng);
  const auto b = random_vec<float>(static_cast<std::size_t>(k * n), rng);
  const auto x = random_vec<float>(100'000, rng);
  auto compute = [&](std::vector<float>& c, double& sum) {
    c.assign(static_cast<std::size_t>(m * n), 0.0f);
    be::gemm(Trans::N, Trans::N, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
             c.data(), n);
    sum = be::reduce_sum(x.data(), x.size());
  };
  std::vector<float> ref;
  double ref_sum = 0.0;
  {
    be::ThreadScope one(1);
    compute(ref, ref_sum);
  }
  constexpr int kCallers = 8;
  for (int budget : {1, 2, 4}) {
    be::ThreadScope scope(budget);
    std::vector<std::vector<float>> out(kCallers);
    std::vector<double> sums(kCallers, 0.0);
    run_callers(kCallers, [&](int c) {
      for (int rep = 0; rep < 5; ++rep) {
        compute(out[static_cast<std::size_t>(c)], sums[static_cast<std::size_t>(c)]);
      }
    });
    for (int c = 0; c < kCallers; ++c) {
      EXPECT_EQ(sums[static_cast<std::size_t>(c)], ref_sum) << "budget " << budget;
      ASSERT_EQ(out[static_cast<std::size_t>(c)], ref)
          << "budget " << budget << " caller " << c;
    }
  }
}

// A throwing chunk, on the caller or a helper, reaches the caller once the
// claimed chunks are done, and the pool keeps serving launches afterwards.
TEST(Parallel, ChunkExceptionReachesCaller) {
  be::ThreadScope scope(4);
  for (int rep = 0; rep < 20; ++rep) {
    std::atomic<int> ran{0};
    EXPECT_THROW(be::parallel_for(64, 1,
                                  [&](std::int64_t i0, std::int64_t) {
                                    ran.fetch_add(1);
                                    if (i0 == 37) throw std::runtime_error("chunk");
                                  }),
                 std::runtime_error);
    EXPECT_GE(ran.load(), 1);
  }
  std::atomic<std::int64_t> total{0};
  be::parallel_for(64, 1, [&](std::int64_t i0, std::int64_t i1) {
    total.fetch_add(i1 - i0);
  });
  EXPECT_EQ(total.load(), 64);
}

// The pool's registry counters: every multi-chunk launch counts, a launch
// at a budget of one never reaches the pool, and a nested launch runs
// inline (counted, not fanned out).
TEST(Parallel, LaunchCountersTrackInlineAndFannedOut) {
  adept::obs::Counter& launches = adept::obs::counter("backend.pool.launches");
  adept::obs::Counter& fanned = adept::obs::counter("backend.pool.fanned_out");
  auto body = [](std::int64_t, std::int64_t) {};
  {
    be::ThreadScope one(1);
    const std::uint64_t before = launches.value();
    be::parallel_for(1000, 10, body);
    EXPECT_EQ(launches.value(), before);
  }
  be::ThreadScope four(4);
  const std::uint64_t l0 = launches.value();
  const std::uint64_t f0 = fanned.value();
  be::parallel_for(1000, 10, body);
  EXPECT_EQ(launches.value(), l0 + 1);
  EXPECT_LE(fanned.value(), f0 + 1);
  be::parallel_for(4, 1, [&](std::int64_t, std::int64_t) {
    be::parallel_for(1000, 10, body);
  });
  EXPECT_EQ(launches.value(), l0 + 2 + 4);  // the outer launch + 4 nested
  EXPECT_LE(fanned.value(), f0 + 2);        // only outer launches fan out
}

// ---- gradchecks over the autograd ops now running on the backend ---------

ag::Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng) {
  std::int64_t n = 1;
  for (auto d : shape) n *= d;
  std::vector<float> data(static_cast<std::size_t>(n));
  for (auto& v : data) v = static_cast<float>(rng.uniform(-1, 1));
  return ag::make_tensor(std::move(data), std::move(shape), true);
}

TEST(BackendGradcheck, MatmulNonSquare) {
  Rng rng(21);
  ag::Tensor a = random_tensor({3, 5}, rng);
  ag::Tensor b = random_tensor({5, 4}, rng);
  auto res = ag::gradcheck(
      [](const std::vector<ag::Tensor>& in) {
        return ag::sum(ag::square(ag::matmul(in[0], in[1])));
      },
      {a, b});
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(BackendGradcheck, MatmulThreaded) {
  be::ThreadScope four(4);
  Rng rng(22);
  ag::Tensor a = random_tensor({7, 9}, rng);
  ag::Tensor b = random_tensor({9, 6}, rng);
  auto res = ag::gradcheck(
      [](const std::vector<ag::Tensor>& in) {
        return ag::sum(ag::mul(ag::matmul(in[0], in[1]),
                               ag::matmul(in[0], in[1])));
      },
      {a, b});
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(BackendGradcheck, Im2colStridedPadded) {
  Rng rng(23);
  ag::Tensor x = random_tensor({2, 2, 5, 5}, rng);
  auto res = ag::gradcheck(
      [](const std::vector<ag::Tensor>& in) {
        return ag::sum(ag::square(ag::im2col(in[0], 3, 3, 2, 1)));
      },
      {x});
  EXPECT_TRUE(res.ok) << res.detail;
}

}  // namespace
