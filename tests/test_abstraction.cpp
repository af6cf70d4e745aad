#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "reach/control_abstraction.hpp"
#include "reach/serialize.hpp"

namespace dwv::reach {
namespace {

using interval::Interval;
using interval::IVec;
using linalg::Mat;
using linalg::Vec;
using taylor::TaylorModel;
using taylor::TmEnv;
using taylor::TmVec;

TmEnv make_env(std::size_t n) {
  TmEnv env;
  env.dom = IVec(n, Interval(-1.0, 1.0));
  env.order = 3;
  env.cutoff = 1e-14;
  return env;
}

// Affine state TMs x_i = c_i + r_i s_i.
TmVec affine_state(const TmEnv& env, const Vec& c, const Vec& r) {
  TmVec x(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    x[i] = {poly::Poly::constant(c.size(), c[i]) +
                poly::Poly::variable(c.size(), i) * r[i],
            Interval(0.0)};
  }
  return x;
}

// Checks that the abstraction encloses the true controller output on a
// sample grid of the state parameterization.
void check_enclosure(const TmEnv& env, const TmVec& state, const TmVec& u,
                     const nn::Controller& ctrl, double tol = 1e-9) {
  const std::size_t n = state.size();
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  for (int trial = 0; trial < 200; ++trial) {
    Vec s(n);
    for (std::size_t i = 0; i < n; ++i) s[i] = d(rng);
    Vec x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = state[i].poly.eval(s);
    const Vec truth = ctrl.act(x);
    for (std::size_t k = 0; k < u.size(); ++k) {
      const double center = u[k].poly.eval(s);
      EXPECT_TRUE(truth[k] >= center + u[k].rem.lo() - tol &&
                  truth[k] <= center + u[k].rem.hi() + tol)
          << "output " << k << " at s=" << s << ": " << truth[k]
          << " not in " << center << " + " << u[k].rem;
    }
  }
}

TEST(LinearAbstraction, ExactForLinearFeedback) {
  const TmEnv env = make_env(2);
  const TmVec state = affine_state(env, Vec{1.0, -0.5}, Vec{0.2, 0.3});
  nn::LinearController ctrl(Mat{{0.7, -1.3}});
  LinearAbstraction abs;
  const TmVec u = abs.abstract(env, state, ctrl);
  ASSERT_EQ(u.size(), 1u);
  EXPECT_NEAR(u[0].rem.rad(), 0.0, 1e-12);  // exact
  check_enclosure(env, state, u, ctrl);
}

std::uint64_t tm_digest(const TmVec& u) {
  ser::Writer w;
  ser::put(w, u);
  return ser::checksum64(w.bytes().data(), w.bytes().size());
}

// A 2-6-1 network whose hidden neurons, over the state
// x = (0.3 + 0.1 s1, -0.2 + 0.15 s2), put each activation in every regime
// of its TM abstraction:
//  0: pre-activation in [0.2025, 0.2375] (narrow: the Taylor expansion
//     beats the secant; relu identity region),
//  1: [-3.25, 5.25] (wide: the secant beats the Taylor expansion),
//  2: zero weights, a point range (hi - lo < 1e-12),
//  3: [-5.15, -4.65] (relu zero region),
//  4: [-0.4, 0.6] (relu mixed region),
//  5: a moderate mixed-sign neuron.
// The output layer is the identity.
nn::MlpController regime_net(nn::Activation hidden) {
  nn::MlpController ctrl({2, 6, 1}, 1.5, hidden, nn::Activation::kIdentity);
  ctrl.set_params(Vec{0.1, 0.05, 20.0, 15.0, 0.0, 0.0, 1.0, 1.0, 2.0, 2.0,
                      -0.5, 0.3,  // layer 0 weights
                      0.2, -2.0, 0.7, -5.0, -0.1, 0.1,  // layer 0 biases
                      0.5, -0.3, 0.2, 0.1, -0.4, 0.25,  // layer 1 weights
                      0.05});
  return ctrl;
}

TEST(Abstraction, PolarBitsPinned) {
  // Golden checksums of the serialized models PolarAbstraction and
  // LinearAbstraction return, recorded while every TM op of the
  // abstraction built its result as a fresh value (tm_affine, tm_tanh,
  // ... over tm_add / tm_scale / tm_add_const copies). In-place kernels are
  // pure speedups, so any moved bit is a regression. relu and identity
  // ignore the activation order, so their two entries agree.
  const TmEnv env = make_env(2);
  const TmVec state = affine_state(env, Vec{0.3, -0.2}, Vec{0.1, 0.15});
  struct Case {
    std::string name;
    std::uint64_t golden;
    std::uint64_t got;
  };
  std::vector<Case> cases;
  const auto pin = [&](std::string name, std::uint64_t golden,
                       const TmVec& u) {
    cases.push_back({std::move(name), golden, tm_digest(u)});
  };
  const std::pair<nn::Activation, const char*> acts[] = {
      {nn::Activation::kTanh, "tanh"},
      {nn::Activation::kSigmoid, "sigmoid"},
      {nn::Activation::kRelu, "relu"},
      {nn::Activation::kIdentity, "identity"}};
  const std::uint64_t regime_golden[4][2] = {
      {0x790faa4b3844d57cULL, 0x2df9c49aaa550dc4ULL},
      {0xd3199a8b0fb9915cULL, 0xeff15e384c389f3eULL},
      {0x817d3ec98525004bULL, 0x817d3ec98525004bULL},
      {0x1b045220b97f1954ULL, 0x1b045220b97f1954ULL}};
  for (std::size_t a = 0; a < 4; ++a) {
    const nn::MlpController ctrl = regime_net(acts[a].first);
    for (const taylor::ActOrder order :
         {taylor::ActOrder::kLinear, taylor::ActOrder::kQuadratic}) {
      const bool quad = order == taylor::ActOrder::kQuadratic;
      const TmVec u = PolarAbstraction({order}).abstract(env, state, ctrl);
      check_enclosure(env, state, u, ctrl);
      pin(std::string(acts[a].second) + (quad ? " quadratic" : " linear"),
          regime_golden[a][quad], u);
    }
  }
  // Deeper nets: the second hidden layer's activations see nonlinear
  // input models, and the tanh output layer a third one.
  const std::uint64_t deep_golden[3] = {
      0x9d239b1ea61f5b2eULL, 0x72e0cf436c76c1f2ULL, 0x884dcd80a058a8b5ULL};
  for (std::size_t a = 0; a < 3; ++a) {
    nn::MlpController ctrl({2, 5, 4, 1}, 2.0, acts[a].first,
                           nn::Activation::kTanh);
    std::mt19937_64 rng(31 + a);
    ctrl.init_random(rng, 0.9);
    const TmVec u = PolarAbstraction().abstract(env, state, ctrl);
    check_enclosure(env, state, u, ctrl);
    pin(std::string("deep ") + acts[a].second, deep_golden[a], u);
  }
  {
    const nn::LinearController lin(Mat{{0.7, 0.0}, {-1.3, 0.4}});
    const TmVec u = LinearAbstraction().abstract(env, state, lin);
    check_enclosure(env, state, u, lin);
    pin("linear, one zero gain", 0x5a5dfbce262f5424ULL, u);
  }
  for (const Case& c : cases) {
    EXPECT_EQ(c.got, c.golden)
        << c.name << ": got 0x" << std::hex << c.got << "ULL";
  }

  // The regime net covers both winners of the smooth activations: with the
  // quadratic order the Taylor expansion keeps a degree-2 term, the secant
  // only degree 1 (the first layer's pre-activations are affine).
  const nn::MlpController net = regime_net(nn::Activation::kTanh);
  const auto& l0 = net.mlp().layers()[0];
  std::uint32_t degree[2];
  for (std::size_t i = 0; i < 2; ++i) {
    const TaylorModel pre =
        taylor::tm_affine(env, state, l0.w.row(i), l0.b[i]);
    degree[i] = taylor::tm_tanh(env, pre).poly.degree();
  }
  EXPECT_EQ(degree[0], 2u);
  EXPECT_EQ(degree[1], 1u);
}

class NnAbstractionCase : public ::testing::TestWithParam<int> {};

TEST_P(NnAbstractionCase, PolarEnclosesReluTanhNet) {
  std::mt19937_64 rng(GetParam());
  const TmEnv env = make_env(2);
  const TmVec state = affine_state(env, Vec{0.3, -0.2}, Vec{0.1, 0.15});
  nn::MlpController ctrl({2, 8, 8, 1}, 1.5);
  ctrl.init_random(rng, 0.8);
  PolarAbstraction abs;
  const TmVec u = abs.abstract(env, state, ctrl);
  check_enclosure(env, state, u, ctrl);
}

TEST_P(NnAbstractionCase, PolarEnclosesTanhNet) {
  std::mt19937_64 rng(GetParam() + 100);
  const TmEnv env = make_env(2);
  const TmVec state = affine_state(env, Vec{-0.4, 0.5}, Vec{0.05, 0.05});
  nn::MlpController ctrl({2, 6, 1}, 2.0, nn::Activation::kTanh,
                         nn::Activation::kTanh);
  ctrl.init_random(rng, 0.6);
  PolarAbstraction abs;
  const TmVec u = abs.abstract(env, state, ctrl);
  check_enclosure(env, state, u, ctrl);
}

TEST_P(NnAbstractionCase, ReachNnEnclosesNet) {
  std::mt19937_64 rng(GetParam() + 200);
  const TmEnv env = make_env(2);
  const TmVec state = affine_state(env, Vec{0.0, 0.0}, Vec{0.1, 0.1});
  nn::MlpController ctrl({2, 6, 1}, 1.0, nn::Activation::kTanh,
                         nn::Activation::kTanh);
  ctrl.init_random(rng, 0.7);
  ReachNnAbstraction abs;
  const TmVec u = abs.abstract(env, state, ctrl);
  check_enclosure(env, state, u, ctrl);
}

TEST_P(NnAbstractionCase, IntervalAbstractionEnclosesNet) {
  std::mt19937_64 rng(GetParam() + 300);
  const TmEnv env = make_env(3);
  const TmVec state =
      affine_state(env, Vec{0.1, 0.2, -0.1}, Vec{0.1, 0.1, 0.1});
  nn::MlpController ctrl({3, 8, 1}, 1.0);
  ctrl.init_random(rng, 0.8);
  IntervalAbstraction abs;
  const TmVec u = abs.abstract(env, state, ctrl);
  check_enclosure(env, state, u, ctrl);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NnAbstractionCase,
                         ::testing::Values(1, 2, 3, 4));

TEST(AbstractionTightness, PolarTighterThanInterval) {
  std::mt19937_64 rng(5);
  const TmEnv env = make_env(2);
  const TmVec state = affine_state(env, Vec{0.2, -0.3}, Vec{0.1, 0.1});
  nn::MlpController ctrl({2, 8, 1}, 1.0, nn::Activation::kTanh,
                         nn::Activation::kTanh);
  ctrl.init_random(rng, 0.7);
  const TmVec up = PolarAbstraction().abstract(env, state, ctrl);
  const TmVec ui = IntervalAbstraction().abstract(env, state, ctrl);
  const Interval rp = taylor::tm_range(env, up[0]);
  const Interval ri = taylor::tm_range(env, ui[0]);
  EXPECT_LE(rp.width(), ri.width() + 1e-12);
}

TEST(AbstractionTightness, ReachNnSampledRemainderBeatsLipschitz) {
  std::mt19937_64 rng(8);
  const TmEnv env = make_env(2);
  const TmVec state = affine_state(env, Vec{0.0, 0.0}, Vec{0.05, 0.05});
  nn::MlpController ctrl({2, 6, 1}, 1.0, nn::Activation::kTanh,
                         nn::Activation::kTanh);
  ctrl.init_random(rng, 0.7);
  ReachNnOptions with;
  with.sampled_remainder = true;
  ReachNnOptions without;
  without.sampled_remainder = false;
  const TmVec uw = ReachNnAbstraction(with).abstract(env, state, ctrl);
  const TmVec uo = ReachNnAbstraction(without).abstract(env, state, ctrl);
  EXPECT_LE(uw[0].rem.width(), uo[0].rem.width() + 1e-12);
}

TEST(IntervalJacobian, BoundsSampledGradients) {
  std::mt19937_64 rng(21);
  nn::MlpController ctrl({2, 8, 2}, 1.0);
  ctrl.init_random(rng, 0.9);
  const IVec box{Interval(-0.3, 0.4), Interval(0.1, 0.6)};
  const auto jac = interval_jacobian(ctrl.mlp(), box);
  ASSERT_EQ(jac.size(), 2u);

  std::uniform_real_distribution<double> d(0.0, 1.0);
  const double h = 1e-6;
  for (int trial = 0; trial < 100; ++trial) {
    Vec x(2);
    x[0] = box[0].lo() + d(rng) * box[0].width();
    x[1] = box[1].lo() + d(rng) * box[1].width();
    for (std::size_t i = 0; i < 2; ++i) {
      Vec xp = x;
      xp[i] += h;
      const Vec yp = ctrl.mlp().forward(xp);
      const Vec y0 = ctrl.mlp().forward(x);
      for (std::size_t k = 0; k < 2; ++k) {
        const double g = (yp[k] - y0[k]) / h;
        EXPECT_TRUE(jac[k][i].contains(g) ||
                    std::abs(g - jac[k][i].lo()) < 1e-4 ||
                    std::abs(g - jac[k][i].hi()) < 1e-4)
            << "jac[" << k << "][" << i << "]=" << jac[k][i] << " g=" << g;
      }
    }
  }
}

}  // namespace
}  // namespace dwv::reach
