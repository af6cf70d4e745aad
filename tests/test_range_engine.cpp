// The batched range-bounding engine (poly/range_engine.hpp):
//  * randomized differential suite vs the map-based RefPoly oracle —
//    kSeedIdentical results must be bit-identical to the seed's
//    Poly::eval_range / RefPoly::eval_range,
//  * domain-table reuse and exact-bits invalidation,
//  * soundness (containment) of the opt-in centered form,
//  * derivative_range bit-identity vs derivative(i).eval_range(dom),
//  * the TM step domains, whose -denorm_min power bounds run the exact
//    subnormal product path (interval::mul_assign_exact),
//  * the binomial overflow guard and the hoisted bernstein_range_1d,
//  * thread-privacy of per-scratch engines (run under TSan via the
//    `parallel` label).
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "poly/bernstein.hpp"
#include "poly/poly.hpp"
#include "poly/poly_ref.hpp"
#include "poly/range_engine.hpp"
#include "reach/tm_dynamics.hpp"
#include "reach/tm_flowpipe.hpp"
#include "taylor/taylor_model.hpp"

namespace {

using dwv::interval::Interval;
using dwv::interval::IVec;
using dwv::poly::Poly;
using dwv::poly::RangeEngine;
using dwv::poly::RangeMode;
using dwv::poly::RangeOptions;

bool bit_equal(const Interval& a, const Interval& b) {
  return std::bit_cast<std::uint64_t>(a.lo()) ==
             std::bit_cast<std::uint64_t>(b.lo()) &&
         std::bit_cast<std::uint64_t>(a.hi()) ==
             std::bit_cast<std::uint64_t>(b.hi());
}

Poly random_poly(std::mt19937_64& rng, std::size_t nvars, std::size_t terms,
                 std::uint32_t max_exp) {
  std::uniform_real_distribution<double> coeff(-3.0, 3.0);
  Poly p(nvars);
  for (std::size_t t = 0; t < terms; ++t) {
    dwv::poly::Exponents e(nvars);
    for (auto& x : e)
      x = static_cast<std::uint32_t>(rng() % (max_exp + 1));
    p.add_term(e, coeff(rng));
  }
  return p;
}

IVec random_domain(std::mt19937_64& rng, std::size_t nvars) {
  std::uniform_real_distribution<double> center(-2.0, 2.0);
  std::uniform_real_distribution<double> radius(0.0, 1.5);
  IVec dom(nvars);
  for (std::size_t i = 0; i < nvars; ++i) {
    const double c = center(rng);
    // Mix of point, thin, and wide components (incl. zero-straddling).
    double r = radius(rng);
    if (rng() % 8 == 0) r = 0.0;
    if (rng() % 4 == 0) r = std::abs(c) + r;  // force zero inside
    dom[i] = Interval(c - r, c + r);
  }
  return dom;
}

// ~1k-poly randomized differential suite: the engine's default mode vs
// both the packed Poly::eval_range and the retained map oracle.
TEST(RangeEngine, SeedIdenticalMatchesRefPolyBitForBit) {
  std::mt19937_64 rng(20260806);
  RangeEngine engine;
  for (int iter = 0; iter < 1000; ++iter) {
    const std::size_t nvars = 1 + rng() % 6;
    const std::size_t terms = 1 + rng() % 12;
    const std::uint32_t max_exp = 1 + rng() % 4;
    const Poly p = random_poly(rng, nvars, terms, max_exp);
    const dwv::poly::ref::RefPoly rp = dwv::poly::ref::to_ref(p);
    const IVec dom = random_domain(rng, nvars);

    const Interval direct = p.eval_range(dom);
    const Interval oracle = rp.eval_range(dom);
    const Interval engined = engine.eval_range(p, dom);
    ASSERT_TRUE(bit_equal(direct, oracle))
        << "packed kernel drifted from oracle at iter " << iter;
    ASSERT_TRUE(bit_equal(engined, direct))
        << "engine drifted from seed at iter " << iter << ": " << engined
        << " vs " << direct;
  }
}

TEST(RangeEngine, ReusesTablesAndInvalidatesOnExactBitsChange) {
  std::mt19937_64 rng(7);
  RangeEngine engine;
  const Poly p = random_poly(rng, 3, 8, 3);

  const IVec dom_a = random_domain(rng, 3);
  IVec dom_b = dom_a;
  // One-ulp nudge: a different bit pattern must be a different table.
  dom_b[1] = Interval(dom_a[1].lo(),
                      std::nextafter(dom_a[1].hi(),
                                     std::numeric_limits<double>::infinity()));

  const Interval a0 = engine.eval_range(p, dom_a);
  EXPECT_EQ(engine.stats().table_builds, 1u);
  const Interval a1 = engine.eval_range(p, dom_a);
  EXPECT_EQ(engine.stats().table_builds, 1u);
  EXPECT_EQ(engine.stats().table_reuses, 1u);
  EXPECT_TRUE(bit_equal(a0, a1));

  const Interval b0 = engine.eval_range(p, dom_b);
  EXPECT_EQ(engine.stats().table_builds, 2u);
  EXPECT_TRUE(bit_equal(b0, p.eval_range(dom_b)));

  // Interleaving the two domains keeps both tables resident (MRU).
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(bit_equal(engine.eval_range(p, dom_a), a0));
    EXPECT_TRUE(bit_equal(engine.eval_range(p, dom_b), b0));
  }
  EXPECT_EQ(engine.stats().table_builds, 2u);

  // Cycling through more domains than the cache holds must still be
  // correct (rebuild, never a stale hit).
  for (int round = 0; round < 3; ++round) {
    for (int d = 0; d < 6; ++d) {
      IVec dom(3);
      for (std::size_t i = 0; i < 3; ++i)
        dom[i] = Interval(-1.0 - 0.1 * d, 1.0 + 0.1 * d);
      EXPECT_TRUE(bit_equal(engine.eval_range(p, dom), p.eval_range(dom)));
    }
  }
}

// The per-table result memo must be invisible in results: hits return the
// recorded bits, distinct polys / query kinds / modes never collide, and
// disabling it changes nothing but the stats.
TEST(RangeEngine, ResultMemoIsBitInvisible) {
  std::mt19937_64 rng(4242);
  RangeEngine engine;
  const Poly p = random_poly(rng, 3, 10, 3);
  Poly q = p;
  q.add_term({1, 1, 1}, 1e-3);  // same shape, different bits
  const IVec dom = random_domain(rng, 3);

  const Interval first = engine.eval_range(p, dom);
  EXPECT_EQ(engine.stats().memo_hits, 0u);
  const Interval again = engine.eval_range(p, dom);
  EXPECT_EQ(engine.stats().memo_hits, 1u);
  EXPECT_TRUE(bit_equal(first, again));
  EXPECT_TRUE(bit_equal(first, p.eval_range(dom)));

  // A different poly, a derivative query, and the centered mode must all
  // miss the seed-eval entry and still be exact.
  EXPECT_TRUE(bit_equal(engine.eval_range(q, dom), q.eval_range(dom)));
  EXPECT_TRUE(bit_equal(engine.derivative_range(p, 0, dom),
                        p.derivative(0).eval_range(dom)));
  const Interval tight =
      engine.eval_range(p, dom, RangeOptions{RangeMode::kCenteredForm});
  EXPECT_TRUE(first.contains(tight));
  // Repeat queries of every kind now hit and reproduce their bits.
  const std::uint64_t hits = engine.stats().memo_hits;
  EXPECT_TRUE(bit_equal(engine.derivative_range(p, 0, dom),
                        p.derivative(0).eval_range(dom)));
  EXPECT_TRUE(bit_equal(
      engine.eval_range(p, dom, RangeOptions{RangeMode::kCenteredForm}),
      tight));
  EXPECT_EQ(engine.stats().memo_hits, hits + 2);

  // Memo off: same bits, no new hits.
  engine.set_result_memo(false);
  EXPECT_TRUE(bit_equal(engine.eval_range(p, dom), first));
  EXPECT_EQ(engine.stats().memo_hits, hits + 2);
}

TEST(RangeEngine, CenteredFormIsContainedAndSound) {
  std::mt19937_64 rng(99);
  RangeEngine engine;
  const RangeOptions centered{RangeMode::kCenteredForm};
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int iter = 0; iter < 300; ++iter) {
    const std::size_t nvars = 1 + rng() % 4;
    const Poly p = random_poly(rng, nvars, 1 + rng() % 10, 3);
    const IVec dom = random_domain(rng, nvars);

    const Interval naive = p.eval_range(dom);
    const Interval tight = engine.eval_range(p, dom, centered);
    // new subset of naive: never looser than the seed bound.
    EXPECT_TRUE(naive.contains(tight))
        << "centered form looser than naive at iter " << iter;

    // true range subset of new (sampled): every sampled value must lie
    // inside, modulo the float rounding of the sample evaluation itself.
    for (int s = 0; s < 32; ++s) {
      dwv::linalg::Vec x(nvars);
      for (std::size_t i = 0; i < nvars; ++i)
        x[i] = dom[i].lo() + unit(rng) * dom[i].width();
      const double v = p.eval(x);
      const double slack =
          1e-9 * (1.0 + std::abs(v) + tight.mag());
      EXPECT_GE(v, tight.lo() - slack) << "iter " << iter;
      EXPECT_LE(v, tight.hi() + slack) << "iter " << iter;
    }
  }
}

TEST(RangeEngine, DerivativeRangeMatchesMaterializedDerivative) {
  std::mt19937_64 rng(4242);
  RangeEngine engine;
  for (int iter = 0; iter < 300; ++iter) {
    const std::size_t nvars = 1 + rng() % 5;
    const Poly p = random_poly(rng, nvars, 1 + rng() % 10, 4);
    const IVec dom = random_domain(rng, nvars);
    for (std::size_t v = 0; v < nvars; ++v) {
      const Interval expect = p.derivative(v).eval_range(dom);
      const Interval got = engine.derivative_range(p, v, dom);
      ASSERT_TRUE(bit_equal(got, expect)) << "iter " << iter << " var " << v;
    }
  }
}

// Binomial coefficients: exact up to the representable range, +inf (never
// a silently rounded finite value) beyond it. The oracle builds Pascal's
// triangle in 128-bit integers.
TEST(RangeEngine, BinomialExactOrInfinite) {
  constexpr double kExactLimit = 9007199254740992.0;  // 2^53
  const std::uint32_t nmax = 80;
  std::vector<std::vector<unsigned __int128>> tri(nmax + 1);
  for (std::uint32_t n = 0; n <= nmax; ++n) {
    tri[n].assign(n + 1, 1);
    for (std::uint32_t k = 1; k < n; ++k)
      tri[n][k] = tri[n - 1][k - 1] + tri[n - 1][k];
  }
  bool guard_hit = false;
  for (std::uint32_t n = 0; n <= nmax; ++n) {
    for (std::uint32_t k = 0; k <= n; ++k) {
      const double got = dwv::poly::binomial(n, k);
      if (tri[n][k] < static_cast<unsigned __int128>(kExactLimit)) {
        ASSERT_EQ(got, static_cast<double>(tri[n][k]))
            << "C(" << n << ", " << k << ") not exact";
      } else {
        ASSERT_TRUE(std::isinf(got) && got > 0.0)
            << "C(" << n << ", " << k << ") silently rounded";
        guard_hit = true;
      }
    }
  }
  EXPECT_TRUE(guard_hit);  // the sweep must actually exercise the guard
  // The degree budget of 2-variable packed keys allows huge exponents;
  // row degrees up to the single-byte budget of 8-variable keys stay well
  // within the exact range used by the Bernstein conversion loops.
  EXPECT_EQ(dwv::poly::binomial(255, 2), 255.0 * 254.0 / 2.0);
  EXPECT_EQ(dwv::poly::binomial(3, 7), 0.0);
}

TEST(RangeEngine, BinomialRowsMatchBinomial) {
  const auto& rows = dwv::poly::binomial_rows(24);
  ASSERT_GE(rows.size(), 25u);
  for (std::uint32_t i = 0; i <= 24; ++i) {
    ASSERT_EQ(rows[i].size(), i + 1u);
    for (std::uint32_t j = 0; j <= i; ++j)
      EXPECT_EQ(rows[i][j], dwv::poly::binomial(i, j));
  }
}

// The seed's bernstein_range_1d, re-implemented verbatim (pre-hoist) as a
// differential oracle for the row-table version.
Interval bernstein_range_1d_seed(const Poly& p, double lo, double hi) {
  const std::uint32_t d = p.degree();
  std::vector<double> a(d + 1, 0.0);
  const double w = hi - lo;
  for (const auto& [key, c] : p.terms()) {
    const std::uint32_t k = dwv::poly::key_exp(key, 1, 0);
    for (std::uint32_t j = 0; j <= k; ++j) {
      a[j] += c * dwv::poly::binomial(k, j) *
              std::pow(lo, static_cast<int>(k - j)) *
              std::pow(w, static_cast<int>(j));
    }
  }
  double bmin = a[0];
  double bmax = a[0];
  for (std::uint32_t i = 0; i <= d; ++i) {
    double b = 0.0;
    for (std::uint32_t j = 0; j <= std::min(i, d); ++j) {
      b += dwv::poly::binomial(i, j) / dwv::poly::binomial(d, j) * a[j];
    }
    bmin = std::min(bmin, b);
    bmax = std::max(bmax, b);
  }
  return dwv::interval::outward(Interval(bmin, bmax));
}

TEST(RangeEngine, BernsteinRange1dBitIdenticalAfterHoist) {
  std::mt19937_64 rng(555);
  std::uniform_real_distribution<double> endpoint(-2.0, 2.0);
  for (int iter = 0; iter < 200; ++iter) {
    const Poly p = random_poly(rng, 1, 1 + rng() % 8, 6);
    if (p.is_zero()) continue;
    double lo = endpoint(rng);
    double hi = endpoint(rng);
    if (lo > hi) std::swap(lo, hi);
    const Interval seed = bernstein_range_1d_seed(p, lo, hi);
    const Interval got = dwv::poly::bernstein_range_1d(p, lo, hi);
    ASSERT_TRUE(bit_equal(got, seed)) << "iter " << iter;
  }
}

// One validated flowpipe step under both modes: polynomials are identical,
// the centered-form remainders must be contained in the seed's.
TEST(RangeEngine, CenteredFormStepIsContainedInSeedStep) {
  using dwv::reach::TmReachOptions;
  using dwv::taylor::TmEnv;

  Poly f0(3);
  f0.add_term({0, 1, 0}, 1.0);
  Poly f1(3);
  f1.add_term({1, 0, 0}, -1.0);
  f1.add_term({0, 1, 0}, -0.5);
  f1.add_term({2, 1, 0}, 0.4);
  f1.add_term({0, 0, 1}, 1.0);
  const dwv::reach::PolyTmDynamics dyn({f0, f1});

  const auto run = [&](RangeMode mode) {
    TmEnv env;
    env.dom = IVec(2, Interval(-1.0, 1.0));
    env.order = 3;
    env.range_mode = mode;
    dwv::taylor::TmVec state;
    state.push_back({Poly::constant(2, 0.3) + Poly::variable(2, 0) * 0.1,
                     Interval(0.0)});
    state.push_back({Poly::constant(2, -0.2) + Poly::variable(2, 1) * 0.1,
                     Interval(0.0)});
    dwv::taylor::TmVec control;
    control.push_back(dwv::taylor::TaylorModel::constant(env, 0.25));
    TmReachOptions opt;
    opt.range_mode = mode;
    return dwv::reach::tm_integrate_step(env, state, control, dyn, 0.05,
                                         opt);
  };

  const auto seed = run(RangeMode::kSeedIdentical);
  const auto tight = run(RangeMode::kCenteredForm);
  ASSERT_TRUE(seed.ok);
  ASSERT_TRUE(tight.ok);
  for (std::size_t i = 0; i < seed.tube_range.size(); ++i) {
    EXPECT_TRUE(seed.tube_range[i].contains(tight.tube_range[i]))
        << "dim " << i << ": " << tight.tube_range[i] << " not within "
        << seed.tube_range[i];
    EXPECT_TRUE(seed.at_end[i].rem.contains(tight.at_end[i].rem));
    EXPECT_EQ(seed.at_end[i].poly.terms().size(),
              tight.at_end[i].poly.terms().size());
  }
}

// Pinned-domain streaming profile: identical bits to the classic path on
// a randomized query stream mixing pinned, unpinned, and re-pinned
// domains, in both range modes, with growth past the pre-extended cap.
TEST(RangeEngine, PinnedDomainIsBitIdenticalToClassicPath) {
  std::mt19937_64 rng(20260808);
  for (const RangeMode mode :
       {RangeMode::kSeedIdentical, RangeMode::kCenteredForm}) {
    RangeEngine pinned;
    RangeEngine classic;
    const RangeOptions opt{mode};
    const std::size_t nvars = 3;
    IVec dom_a = random_domain(rng, nvars);
    IVec dom_b = random_domain(rng, nvars);
    pinned.pin_domain(dom_a, 2);  // low cap: forces mid-stream row growth
    pinned.pin_domain(dom_b, 2);
    for (int iter = 0; iter < 600; ++iter) {
      const Poly p = random_poly(rng, nvars, 1 + rng() % 10, 1 + rng() % 5);
      const IVec& dom = (rng() % 3 == 0) ? dom_b : dom_a;
      const Interval a = pinned.eval_range(p, dom, opt);
      const Interval b = classic.eval_range(p, dom, opt);
      ASSERT_TRUE(bit_equal(a, b))
          << "pinned drifted from classic at iter " << iter << ": " << a
          << " vs " << b;
      if (iter % 50 == 17) {
        // Interleave an unpinned domain: must fall through unchanged and
        // must not disturb the pins.
        const IVec other = random_domain(rng, nvars);
        ASSERT_TRUE(bit_equal(pinned.eval_range(p, other, opt),
                              classic.eval_range(p, other, opt)));
      }
      if (iter == 300) {
        // Mutate + re-pin: the pin must follow the new bits.
        dom_a = random_domain(rng, nvars);
        pinned.pin_domain(dom_a, 2);
      }
    }
    EXPECT_GT(pinned.stats().pin_hits, 0u);
    pinned.unpin_all();
    const Poly p = random_poly(rng, nvars, 6, 3);
    EXPECT_TRUE(bit_equal(pinned.eval_range(p, dom_a, opt),
                          classic.eval_range(p, dom_a, opt)));
  }
}

// The domains TM verifiers actually bound over: the unit set-variable box
// [-1,1]^n and the time-extended box [-1,1]^n x [0,h]. Every power of
// [0,h] and every even power of [-1,1] has the lower bound outward(0) =
// -denorm_min, so the walks take the exact subnormal product path; the
// classic, pinned and derivative results must still be the seed's bits.
TEST(RangeEngine, StepDomainsMatchSeedBitForBit) {
  std::mt19937_64 rng(20261016);
  std::uniform_real_distribution<double> unit_coeff(-1.0, 1.0);
  RangeEngine classic;
  RangeEngine pinned;
  for (const double h : {0.05, 0x1p-1, 0x1p-4, 0x1p-10, 0x1p-20}) {
    for (std::size_t n = 1; n <= 4; ++n) {
      const IVec unit(n, Interval(-1.0, 1.0));
      IVec step(n + 1, Interval(-1.0, 1.0));
      step[n] = Interval(0.0, h);
      pinned.pin_domain(unit, 3);
      pinned.pin_domain(step, 3);
      for (int iter = 0; iter < 40; ++iter) {
        const IVec& dom = iter % 2 == 0 ? unit : step;
        const std::size_t nv = dom.size();
        // Step-sized degrees, and coefficients spanning TM magnitudes
        // (including |c| < 0.5, whose products with -denorm_min round
        // to zero).
        Poly p(nv);
        for (std::size_t t = 0, terms = 1 + rng() % 12; t < terms; ++t) {
          dwv::poly::Exponents e(nv);
          for (auto& x : e) x = static_cast<std::uint32_t>(rng() % 7);
          p.add_term(e, std::ldexp(unit_coeff(rng),
                                   static_cast<int>(rng() % 40) - 30));
        }
        const Interval direct = p.eval_range(dom);
        const Interval oracle = dwv::poly::ref::to_ref(p).eval_range(dom);
        ASSERT_TRUE(bit_equal(direct, oracle))
            << "h " << h << " n " << n << " iter " << iter;
        ASSERT_TRUE(bit_equal(classic.eval_range(p, dom), direct))
            << "classic, h " << h << " n " << n << " iter " << iter;
        ASSERT_TRUE(bit_equal(pinned.eval_range(p, dom), direct))
            << "pinned, h " << h << " n " << n << " iter " << iter;
        for (std::size_t v = 0; v < nv; ++v) {
          const Poly d = p.derivative(v);
          const Interval expect = d.eval_range(dom);
          ASSERT_TRUE(
              bit_equal(expect, dwv::poly::ref::to_ref(d).eval_range(dom)));
          ASSERT_TRUE(bit_equal(classic.derivative_range(p, v, dom), expect))
              << "derivative " << v << ", h " << h << " n " << n << " iter "
              << iter;
        }
      }
      pinned.unpin_all();
    }
  }
  EXPECT_GT(classic.stats().exact_products, 0u);
  EXPECT_GT(pinned.stats().exact_products, 0u);
  EXPECT_GT(pinned.stats().pin_hits, 0u);

  // Away from zero no bound is subnormal: the exact path never runs.
  RangeEngine normal;
  const Poly p = random_poly(rng, 3, 10, 4);
  EXPECT_TRUE(bit_equal(normal.eval_range(p, IVec(3, Interval(0.5, 2.0))),
                        p.eval_range(IVec(3, Interval(0.5, 2.0)))));
  EXPECT_EQ(normal.stats().exact_products, 0u);
}

// Pinned tables are exempt from MRU eviction: churning through many
// distinct domains must not invalidate a pin's table.
TEST(RangeEngine, PinnedTableSurvivesTableChurn) {
  std::mt19937_64 rng(42);
  RangeEngine engine;
  RangeEngine classic;
  const std::size_t nvars = 2;
  const IVec dom = random_domain(rng, nvars);
  engine.pin_domain(dom, 4);
  const Poly p = random_poly(rng, nvars, 8, 3);
  const Interval expect = classic.eval_range(p, dom);
  for (int churn = 0; churn < 20; ++churn) {
    const IVec other = random_domain(rng, nvars);
    (void)engine.eval_range(p, other);
    ASSERT_TRUE(bit_equal(engine.eval_range(p, dom), expect));
  }
  const auto& st = engine.stats();
  EXPECT_GE(st.pin_hits, 20u);
}

// Worker threads with copied TmEnvs own private engines (no sharing, no
// races); run under TSan via the `parallel` ctest label.
TEST(RangeEngine, CopiedEnvEnginesAreThreadPrivate) {
  dwv::taylor::TmEnv base;
  base.dom = IVec(3, Interval(-1.0, 1.0));
  std::mt19937_64 rng(31337);
  const Poly p = random_poly(rng, 3, 10, 3);
  const Interval expect = p.eval_range(base.dom);

  std::vector<std::thread> workers;
  std::vector<int> ok(8, 0);
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&, w] {
      dwv::taylor::TmEnv env = base;  // private scratch + engine
      dwv::taylor::TaylorModel tm{p, Interval(0.0)};
      bool all = true;
      for (int i = 0; i < 200; ++i) {
        const Interval r = dwv::taylor::tm_range(env, tm);
        all = all && bit_equal(r, expect + Interval(0.0));
      }
      ok[w] = all ? 1 : 0;
    });
  }
  for (auto& t : workers) t.join();
  for (int w = 0; w < 8; ++w) EXPECT_EQ(ok[w], 1) << "worker " << w;
}

}  // namespace
