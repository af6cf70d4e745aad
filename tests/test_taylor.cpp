#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include "taylor/activations.hpp"
#include "taylor/taylor_model.hpp"

namespace dwv::taylor {
namespace {

using interval::Interval;
using interval::IVec;
using linalg::Vec;
using poly::Poly;

TmEnv make_env(std::size_t nvars, std::uint32_t order = 3) {
  TmEnv env;
  env.dom = IVec(nvars, Interval(-1.0, 1.0));
  env.order = order;
  env.cutoff = 0.0;
  return env;
}

TEST(TaylorModel, ConstantsAndVariables) {
  const TmEnv env = make_env(2);
  const TaylorModel c = TaylorModel::constant(env, 2.5);
  EXPECT_NEAR(tm_range(env, c).mid(), 2.5, 1e-12);
  EXPECT_NEAR(tm_range(env, c).rad(), 0.0, 1e-12);
  const TaylorModel x = TaylorModel::variable(env, 0);
  const Interval r = tm_range(env, x);
  EXPECT_NEAR(r.lo(), -1.0, 1e-12);
  EXPECT_NEAR(r.hi(), 1.0, 1e-12);
}

TEST(TaylorModel, IntervalConstantKeepsRemainder) {
  const TmEnv env = make_env(1);
  const TaylorModel c = TaylorModel::constant(env, Interval(1.0, 3.0));
  const Interval r = tm_range(env, c);
  EXPECT_TRUE(r.contains(Interval(1.0, 3.0)));
  EXPECT_NEAR(r.width(), 2.0, 1e-12);
}

TEST(TaylorModel, AddSub) {
  const TmEnv env = make_env(2);
  const TaylorModel x = TaylorModel::variable(env, 0);
  const TaylorModel y = TaylorModel::variable(env, 1);
  const TaylorModel s = tm_add(x, y);
  EXPECT_NEAR(tm_range(env, s).hi(), 2.0, 1e-12);
  const TaylorModel d = tm_sub(x, x);
  EXPECT_NEAR(tm_range(env, d).rad(), 0.0, 1e-12);
}

TEST(TaylorModel, MulIsSound) {
  const TmEnv env = make_env(2);
  TaylorModel x = TaylorModel::variable(env, 0);
  x.rem = Interval(-0.01, 0.01);
  TaylorModel y = TaylorModel::variable(env, 1);
  y.rem = Interval(-0.02, 0.02);
  const TaylorModel p = tm_mul(env, x, y);
  // For any x0, y0 in [-1,1] and perturbations within the remainders,
  // the product must lie within the TM enclosure at (x0, y0).
  std::mt19937_64 rng(4);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (int i = 0; i < 200; ++i) {
    const Vec at{u(rng), u(rng)};
    const double vx = at[0] + 0.01 * u(rng);
    const double vy = at[1] + 0.02 * u(rng);
    const double truth = vx * vy;
    const double center = p.poly.eval(at);
    EXPECT_TRUE((truth >= center + p.rem.lo() - 1e-12) &&
                (truth <= center + p.rem.hi() + 1e-12))
        << "at " << at << ": " << truth << " vs " << center << " + "
        << p.rem;
  }
}

TEST(TaylorModel, TruncationFoldsHighDegreesIntoRemainder) {
  TmEnv env = make_env(1, 2);
  const TaylorModel x = TaylorModel::variable(env, 0);
  const TaylorModel x2 = tm_mul(env, x, x);
  const TaylorModel x4 = tm_mul(env, x2, x2);  // degree 4 > order 2
  EXPECT_LE(x4.poly.degree(), 2u);
  // Range must still contain [0, 1].
  const Interval r = tm_range(env, x4);
  EXPECT_TRUE(r.contains(Interval(0.0, 1.0)));
}

TEST(TaylorModel, EvalPolyMatchesDirectComposition) {
  const TmEnv env = make_env(2);
  // f(a, b) = a^2 - 2 a b (over TM args a = x0, b = 0.5 x1 + 0.1).
  Poly f(2);
  f.add_term({2, 0}, 1.0);
  f.add_term({1, 1}, -2.0);
  TmVec args(2);
  args[0] = TaylorModel::variable(env, 0);
  args[1] = tm_add_const(tm_scale(TaylorModel::variable(env, 1), 0.5), 0.1);
  const TaylorModel r = tm_eval_poly(env, f, args);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (int i = 0; i < 100; ++i) {
    const Vec at{u(rng), u(rng)};
    const double a = at[0];
    const double b = 0.5 * at[1] + 0.1;
    const double truth = a * a - 2.0 * a * b;
    const double center = r.poly.eval(at);
    EXPECT_TRUE(truth >= center + r.rem.lo() - 1e-12 &&
                truth <= center + r.rem.hi() + 1e-12);
  }
}

TEST(TaylorModel, IntegrateTimeAntiderivative) {
  // Integrate the constant 2 in variable tau over [0, 0.5]: result 2 tau.
  TmEnv env;
  env.dom = IVec{Interval(-1.0, 1.0), Interval(0.0, 0.5)};
  env.order = 3;
  const TaylorModel c = TaylorModel::constant(env, 2.0);
  const TaylorModel r = tm_integrate_time(env, c, 1);
  EXPECT_DOUBLE_EQ(r.poly.eval(Vec{0.0, 0.25}), 0.5);
  EXPECT_DOUBLE_EQ(r.poly.eval(Vec{0.0, 0.5}), 1.0);
}

TEST(TaylorModel, IntegrateTimeRemainderScalesWithH) {
  TmEnv env;
  env.dom = IVec{Interval(0.0, 0.1)};
  env.order = 3;
  TaylorModel c = TaylorModel::constant(env, 0.0);
  c.rem = Interval(-1.0, 1.0);
  const TaylorModel r = tm_integrate_time(env, c, 0);
  EXPECT_LE(r.rem.hi(), 0.1 + 1e-12);
  EXPECT_GE(r.rem.lo(), -0.1 - 1e-12);
  EXPECT_TRUE(r.rem.contains(0.0));
}

TEST(TaylorModel, SubstVarPartialEvaluation) {
  TmEnv env;
  env.dom = IVec{Interval(-1.0, 1.0), Interval(0.0, 1.0)};
  env.order = 3;
  // p = x0 * t + t^2 with t substituted at 0.5.
  TaylorModel p;
  p.poly = Poly(2);
  p.poly.add_term({1, 1}, 1.0);
  p.poly.add_term({0, 2}, 1.0);
  p.rem = Interval(-0.1, 0.1);
  // t is the last variable: the result lives over x0 alone.
  TaylorModel q;
  tm_subst_last_into(env, p, 0.5, q);
  ASSERT_EQ(q.poly.nvars(), 1u);
  EXPECT_NEAR(q.poly.eval(Vec{0.4}), 0.4 * 0.5 + 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(q.rem.rad(), p.rem.rad());
}

// --- activation abstractions ---

class ActivationSoundness
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ActivationSoundness, TanhEnclosesTruth) {
  const auto [center, halfwidth] = GetParam();
  const TmEnv env = make_env(1);
  // in = center + halfwidth * s, s in [-1, 1].
  TaylorModel in = tm_add_const(
      tm_scale(TaylorModel::variable(env, 0), halfwidth), center);
  for (ActOrder ord : {ActOrder::kLinear, ActOrder::kQuadratic}) {
    const TaylorModel out = tm_tanh(env, in, ord);
    for (int k = -10; k <= 10; ++k) {
      const Vec s{k / 10.0};
      const double x = center + halfwidth * s[0];
      const double truth = std::tanh(x);
      const double c = out.poly.eval(s);
      EXPECT_TRUE(truth >= c + out.rem.lo() - 1e-10 &&
                  truth <= c + out.rem.hi() + 1e-10)
          << "tanh at " << x << " order " << static_cast<int>(ord);
    }
  }
}

TEST_P(ActivationSoundness, SigmoidEnclosesTruth) {
  const auto [center, halfwidth] = GetParam();
  const TmEnv env = make_env(1);
  TaylorModel in = tm_add_const(
      tm_scale(TaylorModel::variable(env, 0), halfwidth), center);
  const TaylorModel out = tm_sigmoid(env, in);
  for (int k = -10; k <= 10; ++k) {
    const Vec s{k / 10.0};
    const double x = center + halfwidth * s[0];
    const double truth = 1.0 / (1.0 + std::exp(-x));
    const double c = out.poly.eval(s);
    EXPECT_TRUE(truth >= c + out.rem.lo() - 1e-10 &&
                truth <= c + out.rem.hi() + 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, ActivationSoundness,
    ::testing::Values(std::make_tuple(0.0, 0.1), std::make_tuple(0.5, 0.3),
                      std::make_tuple(-1.0, 0.05), std::make_tuple(2.0, 1.0),
                      std::make_tuple(0.0, 5.0),   // wide: secant path
                      std::make_tuple(-3.0, 4.0)));

TEST(Activations, TanhRemainderBoundedOnWideInputs) {
  // The remainder must never exceed the function's own range width.
  const TmEnv env = make_env(1);
  TaylorModel in = tm_scale(TaylorModel::variable(env, 0), 50.0);
  const TaylorModel out = tm_tanh(env, in);
  EXPECT_LE(out.rem.width(), 2.0 + 1e-9);
  const Interval r = tm_range(env, out);
  EXPECT_TRUE(r.contains(Interval(-0.9999, 0.9999)));
}

TEST(Activations, ReluThreeRegimes) {
  const TmEnv env = make_env(1);
  // Positive regime: identity.
  TaylorModel pos = tm_add_const(TaylorModel::variable(env, 0), 2.0);
  const TaylorModel rp = tm_relu(env, pos);
  EXPECT_NEAR(tm_range(env, rp).lo(), 1.0, 1e-12);
  // Negative regime: zero.
  TaylorModel neg = tm_add_const(TaylorModel::variable(env, 0), -2.0);
  const TaylorModel rn = tm_relu(env, neg);
  EXPECT_NEAR(tm_range(env, rn).rad(), 0.0, 1e-12);
  // Mixed regime: sound enclosure.
  TaylorModel mixed = TaylorModel::variable(env, 0);
  const TaylorModel rm = tm_relu(env, mixed);
  for (int k = -10; k <= 10; ++k) {
    const Vec s{k / 10.0};
    const double truth = std::max(0.0, s[0]);
    const double c = rm.poly.eval(s);
    EXPECT_TRUE(truth >= c + rm.rem.lo() - 1e-12 &&
                truth <= c + rm.rem.hi() + 1e-12);
  }
}

TEST(Activations, AffineCombination) {
  const TmEnv env = make_env(2);
  TmVec in{TaylorModel::variable(env, 0), TaylorModel::variable(env, 1)};
  const TaylorModel a = tm_affine(env, in, Vec{2.0, -1.0}, 0.5);
  EXPECT_NEAR(a.poly.eval(Vec{0.3, 0.4}), 2.0 * 0.3 - 0.4 + 0.5, 1e-12);
}

// --- tm_pow dispatch boundary --------------------------------------------

void expect_tm_bits(const TaylorModel& a, const TaylorModel& b) {
  ASSERT_EQ(a.poly.terms().size(), b.poly.terms().size());
  for (std::size_t i = 0; i < a.poly.terms().size(); ++i) {
    EXPECT_EQ(a.poly.terms()[i].key, b.poly.terms()[i].key);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.poly.terms()[i].coeff),
              std::bit_cast<std::uint64_t>(b.poly.terms()[i].coeff));
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.rem.lo()),
            std::bit_cast<std::uint64_t>(b.rem.lo()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.rem.hi()),
            std::bit_cast<std::uint64_t>(b.rem.hi()));
}

// Pins the documented dispatch (taylor_model.hpp): n <= 3 reproduces the
// legacy repeated-multiplication chain bit for bit — n = 3 specifically
// the LEFT-to-right ((a*a)*a), not square-and-multiply's a*(a*a), whose
// operand order rounds differently — while n >= 4 is the documented
// square-and-multiply form. Callers relying on the boundary:
// tm_eval_poly_into (exponents >= 2 after the e == 1 elision) and
// ExprTmDynamics powers (any n, including 0 and 1).
TEST(TaylorModel, PowDispatchBoundaryBitIdentical) {
  const TmEnv env = make_env(2);
  TaylorModel a = tm_add_const(
      tm_add(TaylorModel::variable(env, 0),
             tm_scale(tm_mul(env, TaylorModel::variable(env, 0),
                             TaylorModel::variable(env, 1)),
                      0.25)),
      0.3);
  a.rem = Interval(-1e-3, 2e-3);  // asymmetric: order-sensitive rounding

  const TaylorModel one = TaylorModel::constant(env, 1.0);
  expect_tm_bits(tm_pow(env, a, 0), one);
  expect_tm_bits(tm_pow(env, a, 1), a);

  const TaylorModel sq = tm_mul(env, a, a);
  expect_tm_bits(tm_pow(env, a, 2), sq);

  const TaylorModel cube_legacy = tm_mul(env, sq, a);
  expect_tm_bits(tm_pow(env, a, 3), cube_legacy);

  // n = 4: (a^2)^2; n = 5: a * (a^2)^2 (square-and-multiply shapes).
  const TaylorModel sq2 = tm_mul(env, sq, sq);
  expect_tm_bits(tm_pow(env, a, 4), sq2);
  expect_tm_bits(tm_pow(env, a, 5), tm_mul(env, a, sq2));
}

}  // namespace
}  // namespace dwv::taylor
