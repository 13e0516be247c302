// Tests for the runtime-dispatched SIMD microkernel layer (backend/simd.h,
// backend/dispatch.h, backend/microkernels.inc):
//
//   - dispatch-level parity: scalar vs every available ISA level for
//     gemm/cgemm/cgemm_batched/rcgemm on deliberately awkward shapes (tile
//     tails in M and N, K=1, M=1, N=1) within documented float tolerances
//   - per-level bit-exactness: thread-count determinism at every level, and
//     batched calls vs per-item calls at the same level
//   - the vectorized transcendental helpers (sincos, exp via softmax)
//     against libm
//   - SimdScope clamping and the scratch arena under growth/reuse
//
// The scalar level IS the legacy blocked kernel path (same code), so
// "scalar vs level" parity doubles as "pre-SIMD vs SIMD" parity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "backend/arena.h"
#include "backend/dispatch.h"
#include "backend/kernels.h"
#include "backend/parallel.h"
// This TU compiles at the base ISA, so simd.h resolves to the portable
// scalar vec8f — the tests below keep that branch compiled and honest.
#include "backend/simd.h"
#include "common/rng.h"

namespace {

namespace be = adept::backend;
using adept::Rng;
using be::CTrans;
using be::SimdLevel;
using be::SimdScope;
using be::Trans;

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

// Levels above scalar this binary+CPU can actually run.
std::vector<SimdLevel> simd_levels() {
  auto all = be::available_simd_levels();
  std::vector<SimdLevel> out;
  for (SimdLevel l : all) {
    if (l != SimdLevel::scalar) out.push_back(l);
  }
  return out;
}

struct Shape {
  std::int64_t m, n, k;
};

// Tails in every dimension: not multiples of the 6/4-row or 16-column tiles,
// K=1, M=1, N=1, sub-vector N, and a K that spans two 8-lane groups plus one.
const Shape kAwkwardShapes[] = {
    {1, 1, 1},  {1, 17, 5},  {3, 5, 7},    {5, 1, 9},    {6, 16, 8},
    {7, 17, 33}, {13, 31, 1}, {1, 8, 4},   {4, 9, 2},    {37, 41, 64},
    {48, 64, 130},
};

// ---- gemm dispatch parity --------------------------------------------------

TEST(SimdDispatch, GemmParityAcrossLevels) {
  const auto levels = simd_levels();
  if (levels.empty()) GTEST_SKIP() << "no SIMD level available";
  for (const Shape& sh : kAwkwardShapes) {
    for (Trans ta : {Trans::N, Trans::T}) {
      for (Trans tb : {Trans::N, Trans::T}) {
        Rng rng(91);
        const std::int64_t lda = ta == Trans::N ? sh.k : sh.m;
        const std::int64_t ldb = tb == Trans::N ? sh.n : sh.k;
        const auto a = random_vec(
            static_cast<std::size_t>((ta == Trans::N ? sh.m : sh.k) * lda), rng);
        const auto b = random_vec(
            static_cast<std::size_t>((tb == Trans::N ? sh.k : sh.n) * ldb), rng);
        std::vector<float> ref(static_cast<std::size_t>(sh.m * sh.n));
        {
          SimdScope scope(SimdLevel::scalar);
          be::gemm(ta, tb, sh.m, sh.n, sh.k, 1.0f, a.data(), lda, b.data(),
                   ldb, 0.0f, ref.data(), sh.n);
        }
        for (SimdLevel level : levels) {
          SimdScope scope(level);
          std::vector<float> got(static_cast<std::size_t>(sh.m * sh.n), 7.0f);
          be::gemm(ta, tb, sh.m, sh.n, sh.k, 1.0f, a.data(), lda, b.data(),
                   ldb, 0.0f, got.data(), sh.n);
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_NEAR(got[i], ref[i], 1e-4f)
                << be::simd_level_name(level) << " m=" << sh.m << " n=" << sh.n
                << " k=" << sh.k << " elem " << i;
          }
        }
      }
    }
  }
}

TEST(SimdDispatch, GemmAlphaBetaParity) {
  const auto levels = simd_levels();
  if (levels.empty()) GTEST_SKIP() << "no SIMD level available";
  Rng rng(7);
  const std::int64_t m = 9, n = 21, k = 13;
  const auto a = random_vec(static_cast<std::size_t>(m * k), rng);
  const auto b = random_vec(static_cast<std::size_t>(k * n), rng);
  const auto c0 = random_vec(static_cast<std::size_t>(m * n), rng);
  for (float beta : {0.0f, 1.0f, -0.5f}) {
    std::vector<float> ref = c0;
    {
      SimdScope scope(SimdLevel::scalar);
      be::gemm(Trans::N, Trans::N, m, n, k, 1.25f, a.data(), k, b.data(), n,
               beta, ref.data(), n);
    }
    for (SimdLevel level : levels) {
      SimdScope scope(level);
      std::vector<float> got = c0;
      be::gemm(Trans::N, Trans::N, m, n, k, 1.25f, a.data(), k, b.data(), n,
               beta, got.data(), n);
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i], ref[i], 1e-4f)
            << be::simd_level_name(level) << " beta=" << beta << " elem " << i;
      }
    }
  }
}

// ---- cgemm dispatch parity -------------------------------------------------

TEST(SimdDispatch, CgemmParityAcrossLevels) {
  const auto levels = simd_levels();
  if (levels.empty()) GTEST_SKIP() << "no SIMD level available";
  const std::pair<CTrans, CTrans> combos[] = {
      {CTrans::N, CTrans::N}, {CTrans::N, CTrans::T}, {CTrans::N, CTrans::H},
      {CTrans::T, CTrans::N}, {CTrans::H, CTrans::N}, {CTrans::H, CTrans::H},
  };
  for (const Shape& sh : kAwkwardShapes) {
    for (const auto& [ta, tb] : combos) {
      Rng rng(17);
      const std::int64_t lda = ta == CTrans::N ? sh.k : sh.m;
      const std::int64_t ldb = tb == CTrans::N ? sh.n : sh.k;
      const std::size_t an =
          static_cast<std::size_t>((ta == CTrans::N ? sh.m : sh.k) * lda);
      const std::size_t bn =
          static_cast<std::size_t>((tb == CTrans::N ? sh.k : sh.n) * ldb);
      const auto ar = random_vec(an, rng), ai = random_vec(an, rng);
      const auto br = random_vec(bn, rng), bi = random_vec(bn, rng);
      const std::size_t cn = static_cast<std::size_t>(sh.m * sh.n);
      std::vector<float> rr(cn), ri(cn);
      {
        SimdScope scope(SimdLevel::scalar);
        be::cgemm(ta, tb, sh.m, sh.n, sh.k, ar.data(), ai.data(), lda,
                  br.data(), bi.data(), ldb, 0.0f, rr.data(), ri.data(), sh.n);
      }
      for (SimdLevel level : levels) {
        SimdScope scope(level);
        std::vector<float> gr(cn, 3.0f), gi(cn, -3.0f);
        be::cgemm(ta, tb, sh.m, sh.n, sh.k, ar.data(), ai.data(), lda,
                  br.data(), bi.data(), ldb, 0.0f, gr.data(), gi.data(), sh.n);
        for (std::size_t i = 0; i < cn; ++i) {
          ASSERT_NEAR(gr[i], rr[i], 2e-4f)
              << be::simd_level_name(level) << " re elem " << i;
          ASSERT_NEAR(gi[i], ri[i], 2e-4f)
              << be::simd_level_name(level) << " im elem " << i;
        }
      }
    }
  }
}

// ---- batched vs per-item, bit-exact at every level -------------------------

TEST(SimdDispatch, CgemmBatchedMatchesPerItemBitExactPerLevel) {
  for (SimdLevel level : be::available_simd_levels()) {
    SimdScope scope(level);
    const std::int64_t batch = 3, m = 5, n = 17, k = 9;  // tile tails everywhere
    const std::size_t item_a = static_cast<std::size_t>(m * k);
    const std::size_t item_b = static_cast<std::size_t>(k * n);
    const std::size_t item_c = static_cast<std::size_t>(m * n);
    Rng rng(23);
    const auto ar = random_vec(batch * item_a, rng), ai = random_vec(batch * item_a, rng);
    const auto br = random_vec(batch * item_b, rng), bi = random_vec(batch * item_b, rng);
    for (std::int64_t stride_b : {static_cast<std::int64_t>(item_b), std::int64_t{0}}) {
      std::vector<float> cr1(batch * item_c), ci1(batch * item_c);
      std::vector<float> cr2(batch * item_c), ci2(batch * item_c);
      be::cgemm_batched(CTrans::N, CTrans::N, batch, m, n, k, ar.data(),
                        ai.data(), item_a, k, br.data(), bi.data(), stride_b,
                        n, 0.0f, cr1.data(), ci1.data(), item_c, n);
      for (std::int64_t t = 0; t < batch; ++t) {
        be::cgemm(CTrans::N, CTrans::N, m, n, k, ar.data() + t * item_a,
                  ai.data() + t * item_a, k, br.data() + t * stride_b,
                  bi.data() + t * stride_b, n, 0.0f, cr2.data() + t * item_c,
                  ci2.data() + t * item_c, n);
      }
      for (std::size_t i = 0; i < cr1.size(); ++i) {
        ASSERT_EQ(cr1[i], cr2[i])
            << be::simd_level_name(level) << " stride_b=" << stride_b
            << " re elem " << i;
        ASSERT_EQ(ci1[i], ci2[i])
            << be::simd_level_name(level) << " stride_b=" << stride_b
            << " im elem " << i;
      }
    }
  }
}

// ---- rcgemm parity (dense and sparse A, with and without phases) -----------

TEST(SimdDispatch, RcgemmParityAcrossLevels) {
  const auto levels = simd_levels();
  if (levels.empty()) GTEST_SKIP() << "no SIMD level available";
  for (const Shape& sh : kAwkwardShapes) {
    for (Trans ta : {Trans::N, Trans::T}) {
      for (bool phased : {false, true}) {
        Rng rng(31);
        const std::int64_t lda = ta == Trans::N ? sh.k : sh.m;
        const auto a = random_vec(
            static_cast<std::size_t>((ta == Trans::N ? sh.m : sh.k) * lda), rng);
        const std::size_t bn = static_cast<std::size_t>(sh.k * sh.n);
        const auto br = random_vec(bn, rng), bi = random_vec(bn, rng);
        std::vector<float> cc(static_cast<std::size_t>(sh.n));
        std::vector<float> ss(static_cast<std::size_t>(sh.n));
        for (std::int64_t j = 0; j < sh.n; ++j) {
          const float phi = static_cast<float>(rng.uniform(-3.0, 3.0));
          cc[static_cast<std::size_t>(j)] = std::cos(phi);
          ss[static_cast<std::size_t>(j)] = std::sin(phi);
        }
        const std::size_t cn = static_cast<std::size_t>(sh.m * sh.n);
        std::vector<float> rr(cn), ri(cn);
        {
          SimdScope scope(SimdLevel::scalar);
          be::rcgemm(ta, sh.m, sh.n, sh.k, a.data(), lda, br.data(), bi.data(),
                     sh.n, 0.0f, rr.data(), ri.data(), sh.n,
                     phased ? cc.data() : nullptr, phased ? ss.data() : nullptr);
        }
        for (SimdLevel level : levels) {
          SimdScope scope(level);
          std::vector<float> gr(cn), gi(cn);
          be::rcgemm(ta, sh.m, sh.n, sh.k, a.data(), lda, br.data(), bi.data(),
                     sh.n, 0.0f, gr.data(), gi.data(), sh.n,
                     phased ? cc.data() : nullptr, phased ? ss.data() : nullptr);
          for (std::size_t i = 0; i < cn; ++i) {
            ASSERT_NEAR(gr[i], rr[i], 2e-4f)
                << be::simd_level_name(level) << " phased=" << phased
                << " re elem " << i;
            ASSERT_NEAR(gi[i], ri[i], 2e-4f)
                << be::simd_level_name(level) << " phased=" << phased
                << " im elem " << i;
          }
        }
      }
    }
  }
}

TEST(SimdDispatch, RcgemmSparsePermutationOperandStaysCorrect) {
  // A hard permutation routes to the scalar zero-skip path at every level
  // (the wrapper's density probe); results must match the dense formula.
  const std::int64_t k = 16;
  Rng rng(37);
  std::vector<float> p(static_cast<std::size_t>(k * k), 0.0f);
  std::vector<int> perm(static_cast<std::size_t>(k));
  for (std::int64_t i = 0; i < k; ++i) perm[static_cast<std::size_t>(i)] = static_cast<int>(i);
  for (std::int64_t i = k - 1; i > 0; --i) {
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(i)))]);
  }
  for (std::int64_t i = 0; i < k; ++i) {
    p[static_cast<std::size_t>(i * k + perm[static_cast<std::size_t>(i)])] = 1.0f;
  }
  const std::size_t kk = static_cast<std::size_t>(k * k);
  const auto br = random_vec(kk, rng), bi = random_vec(kk, rng);
  for (SimdLevel level : be::available_simd_levels()) {
    SimdScope scope(level);
    std::vector<float> cr(kk), ci(kk);
    be::rcgemm(Trans::N, k, k, k, p.data(), k, br.data(), bi.data(), k, 0.0f,
               cr.data(), ci.data(), k);
    for (std::int64_t i = 0; i < k; ++i) {
      const std::int64_t src = perm[static_cast<std::size_t>(i)];
      for (std::int64_t j = 0; j < k; ++j) {
        ASSERT_EQ(cr[static_cast<std::size_t>(i * k + j)],
                  br[static_cast<std::size_t>(src * k + j)]);
        ASSERT_EQ(ci[static_cast<std::size_t>(i * k + j)],
                  bi[static_cast<std::size_t>(src * k + j)]);
      }
    }
  }
}

// ---- thread-count determinism per level ------------------------------------

TEST(SimdDispatch, ThreadCountDeterminismPerLevel) {
  for (SimdLevel level : be::available_simd_levels()) {
    SimdScope scope(level);
    const std::int64_t m = 53, n = 37, k = 41;
    Rng rng(43);
    const auto a = random_vec(static_cast<std::size_t>(m * k), rng);
    const auto b = random_vec(static_cast<std::size_t>(k * n), rng);
    std::vector<float> base(static_cast<std::size_t>(m * n));
    {
      be::ThreadScope one(1);
      be::gemm(Trans::N, Trans::T, m, n, k, 1.0f, a.data(), k, b.data(), k,
               0.0f, base.data(), n);
    }
    for (int threads : {2, 8}) {
      be::ThreadScope t(threads);
      std::vector<float> got(static_cast<std::size_t>(m * n));
      be::gemm(Trans::N, Trans::T, m, n, k, 1.0f, a.data(), k, b.data(), k,
               0.0f, got.data(), n);
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], base[i]) << be::simd_level_name(level) << " threads="
                                   << threads << " elem " << i;
      }
    }
    // Complex batched path too (packs + row segmentation differ).
    const std::int64_t batch = 5, cm = 6, cn2 = 13, ck = 10;
    const std::size_t ia = static_cast<std::size_t>(cm * ck);
    const std::size_t ib = static_cast<std::size_t>(ck * cn2);
    const std::size_t ic = static_cast<std::size_t>(cm * cn2);
    const auto ar = random_vec(batch * ia, rng), ai = random_vec(batch * ia, rng);
    const auto br = random_vec(batch * ib, rng), bi = random_vec(batch * ib, rng);
    std::vector<float> r1(batch * ic), i1(batch * ic);
    {
      be::ThreadScope one(1);
      be::cgemm_batched(CTrans::N, CTrans::H, batch, cm, cn2, ck, ar.data(),
                        ai.data(), ia, ck, br.data(), bi.data(), ib, ck, 0.0f,
                        r1.data(), i1.data(), ic, cn2);
    }
    for (int threads : {2, 8}) {
      be::ThreadScope t(threads);
      std::vector<float> r2(batch * ic), i2(batch * ic);
      be::cgemm_batched(CTrans::N, CTrans::H, batch, cm, cn2, ck, ar.data(),
                        ai.data(), ia, ck, br.data(), bi.data(), ib, ck, 0.0f,
                        r2.data(), i2.data(), ic, cn2);
      for (std::size_t i = 0; i < r1.size(); ++i) {
        ASSERT_EQ(r2[i], r1[i]) << "threads=" << threads;
        ASSERT_EQ(i2[i], i1[i]) << "threads=" << threads;
      }
    }
  }
}

// ---- transcendental helpers ------------------------------------------------

TEST(SimdMath, SincosMatchesLibm) {
  const std::int64_t n = 1003;  // vector tail
  std::vector<float> x(static_cast<std::size_t>(n));
  Rng rng(51);
  for (std::int64_t i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] = static_cast<float>(rng.uniform(-12.0, 12.0));
  }
  // Out-of-reduction-range lanes exercise the libm fallback.
  x[0] = 9000.0f;
  x[1] = -50000.0f;
  x[2] = 0.0f;
  for (SimdLevel level : be::available_simd_levels()) {
    SimdScope scope(level);
    std::vector<float> c(static_cast<std::size_t>(n)), s(static_cast<std::size_t>(n));
    be::sincos(n, x.data(), c.data(), s.data());
    for (std::int64_t i = 0; i < n; ++i) {
      const std::size_t is = static_cast<std::size_t>(i);
      EXPECT_NEAR(c[is], std::cos(x[is]), 2e-6f)
          << be::simd_level_name(level) << " x=" << x[is];
      EXPECT_NEAR(s[is], std::sin(x[is]), 2e-6f)
          << be::simd_level_name(level) << " x=" << x[is];
    }
  }
}

TEST(SimdMath, SoftmaxRowsParityAcrossLevels) {
  const std::int64_t rows = 7, cols = 29;  // tail columns
  Rng rng(57);
  std::vector<float> a(static_cast<std::size_t>(rows * cols));
  for (auto& v : a) v = static_cast<float>(rng.uniform(-8.0, 8.0));
  std::vector<float> ref(a.size());
  {
    SimdScope scope(SimdLevel::scalar);
    be::softmax_rows(rows, cols, a.data(), ref.data());
  }
  for (SimdLevel level : simd_levels()) {
    SimdScope scope(level);
    std::vector<float> got(a.size());
    be::softmax_rows(rows, cols, a.data(), got.data());
    double worst_row_sum = 0.0;
    for (std::int64_t i = 0; i < rows; ++i) {
      double z = 0.0;
      for (std::int64_t j = 0; j < cols; ++j) {
        const std::size_t idx = static_cast<std::size_t>(i * cols + j);
        ASSERT_NEAR(got[idx], ref[idx], 1e-6f)
            << be::simd_level_name(level) << " elem " << idx;
        z += got[idx];
      }
      worst_row_sum = std::max(worst_row_sum, std::fabs(z - 1.0));
    }
    EXPECT_LT(worst_row_sum, 1e-5);
  }
}

TEST(SimdMath, LogSoftmaxRowsParityAcrossLevels) {
  const std::int64_t rows = 5, cols = 11;
  Rng rng(61);
  std::vector<float> a(static_cast<std::size_t>(rows * cols));
  for (auto& v : a) v = static_cast<float>(rng.uniform(-6.0, 6.0));
  std::vector<float> ref(a.size());
  {
    SimdScope scope(SimdLevel::scalar);
    be::log_softmax_rows(rows, cols, a.data(), ref.data());
  }
  for (SimdLevel level : simd_levels()) {
    SimdScope scope(level);
    std::vector<float> got(a.size());
    be::log_softmax_rows(rows, cols, a.data(), got.data());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], ref[i], 1e-5f)
          << be::simd_level_name(level) << " elem " << i;
    }
  }
}

// ---- portable scalar vec8f (the branch this base-ISA TU instantiates) ------

TEST(SimdScalarVec, LoadStorePartialAndArithmetic) {
  namespace v = be::simd;
  float src[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const v::vec8f a = v::load8_partial(src, 5);  // lanes >= 5 zeroed
  float out[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
  v::store8(out, a);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i], src[i]);
  for (int i = 5; i < 8; ++i) EXPECT_EQ(out[i], 0.0f);
  v::store8_partial(out, 3, v::broadcast8(9.0f));
  EXPECT_EQ(out[2], 9.0f);
  EXPECT_EQ(out[3], src[3]);
  // fmadd/fnmadd lane math
  const v::vec8f r = v::fmadd8(v::broadcast8(2.0f), v::load8(src),
                               v::broadcast8(1.0f));
  float rr[8];
  v::store8(rr, r);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(rr[i], 2.0f * src[i] + 1.0f);
  EXPECT_EQ(v::hsum8(v::load8(src)), 36.0f);
  EXPECT_EQ(v::hmax8(v::load8(src)), 8.0f);
}

TEST(SimdScalarVec, Exp8AndSincos8MatchLibm) {
  namespace v = be::simd;
  Rng rng(77);
  float x[8], c[8], s[8], e[8];
  for (int round = 0; round < 16; ++round) {
    for (auto& xv : x) xv = static_cast<float>(rng.uniform(-10.0, 10.0));
    v::vec8f vs, vc;
    v::sincos8(v::load8(x), &vs, &vc);
    v::store8(s, vs);
    v::store8(c, vc);
    v::store8(e, v::exp8(v::load8(x)));
    for (int i = 0; i < 8; ++i) {
      EXPECT_NEAR(s[i], std::sin(x[i]), 2e-6f) << "x=" << x[i];
      EXPECT_NEAR(c[i], std::cos(x[i]), 2e-6f) << "x=" << x[i];
      EXPECT_NEAR(e[i], std::exp(x[i]), 1e-5f * std::exp(x[i]) + 1e-7f)
          << "x=" << x[i];
    }
  }
  // Clamp region: no inf/nan out of exp8.
  for (auto& xv : x) xv = 1000.0f;
  v::store8(e, v::exp8(v::load8(x)));
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(std::isfinite(e[i]));
}

// ---- dispatch plumbing -----------------------------------------------------

TEST(SimdDispatch, ScopeClampsToAvailableLevels) {
  const auto avail = be::available_simd_levels();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), SimdLevel::scalar);
  {
    // Requesting the highest level never exceeds what the binary+CPU offer.
    SimdScope scope(SimdLevel::avx512);
    const SimdLevel got = be::simd_level();
    EXPECT_NE(std::find(avail.begin(), avail.end(), got), avail.end());
  }
  {
    SimdScope scope(SimdLevel::scalar);
    EXPECT_EQ(be::simd_level(), SimdLevel::scalar);
    EXPECT_EQ(be::active_kernels(), nullptr);
  }
  EXPECT_STREQ(be::simd_level_name(SimdLevel::scalar), "scalar");
  EXPECT_STREQ(be::simd_level_name(SimdLevel::avx2), "avx2");
  EXPECT_STREQ(be::simd_level_name(SimdLevel::avx512), "avx512");
}

TEST(ScratchArena, GrowthAndReuseKeepKernelsCorrect) {
  // Alternating big/small transposed gemms force arena growth, overflow
  // blocks, and consolidation; every call must still match the scalar
  // reference computed at matching dispatch.
  Rng rng(71);
  for (const std::int64_t n : {200, 3, 180, 7, 256, 1}) {
    const auto a = random_vec(static_cast<std::size_t>(n * n), rng);
    const auto b = random_vec(static_cast<std::size_t>(n * n), rng);
    std::vector<float> c1(static_cast<std::size_t>(n * n));
    std::vector<float> c2(c1.size());
    be::gemm(Trans::N, Trans::T, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
             c1.data(), n);
    be::gemm(Trans::N, Trans::T, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
             c2.data(), n);
    for (std::size_t i = 0; i < c1.size(); ++i) {
      ASSERT_EQ(c1[i], c2[i]) << "n=" << n << " elem " << i;
    }
  }
  // Nested scopes hand out disjoint allocations.
  be::ScratchArena::Scope outer;
  float* x = outer.alloc<float>(100);
  {
    be::ScratchArena::Scope inner;
    float* y = inner.alloc<float>(100);
    EXPECT_NE(x, y);
    x[0] = 1.0f;
    y[0] = 2.0f;
    EXPECT_EQ(x[0], 1.0f);
  }
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(x) % be::ScratchArena::kAlign, 0u);
}

}  // namespace
