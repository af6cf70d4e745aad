#include <gtest/gtest.h>

#include <ostream>
#include <random>
#include <string>

#include "ode/benchmarks.hpp"
#include "reach/tm_flowpipe.hpp"
#include "sim/simulate.hpp"

namespace dwv::reach {
namespace {

using interval::Interval;
using interval::IVec;
using linalg::Mat;
using linalg::Vec;
using taylor::TaylorModel;
using taylor::TmEnv;
using taylor::TmVec;

// --- single validated integration step ---

TEST(TmIntegrateStep, LinearDecayMatchesClosedForm) {
  // x' = -x from [0.9, 1.1]: x(h) = x0 e^{-h}.
  TmEnv env;
  env.dom = IVec(1, Interval(-1.0, 1.0));
  env.order = 4;
  TmVec x(1);
  x[0] = {poly::Poly::constant(1, 1.0) + poly::Poly::variable(1, 0) * 0.1,
          Interval(0.0)};
  // f(x, u) = -x + 0*u over variables (x, u).
  poly::Poly f(2);
  f.add_term({1, 0}, -1.0);
  TmVec u{TaylorModel::constant(env, 0.0)};

  const double h = 0.1;
  const TmStepResult r = tm_integrate_step(env, x, u, {f}, h, {});
  ASSERT_TRUE(r.ok);
  const Interval end = taylor::tm_range(env, r.at_end[0]);
  const double lo_true = 0.9 * std::exp(-h);
  const double hi_true = 1.1 * std::exp(-h);
  EXPECT_LE(end.lo(), lo_true + 1e-9);
  EXPECT_GE(end.hi(), hi_true - 1e-9);
  // And reasonably tight (within 1e-5 of exact).
  EXPECT_NEAR(end.lo(), lo_true, 1e-5);
  EXPECT_NEAR(end.hi(), hi_true, 1e-5);
  // Tube covers the whole step.
  EXPECT_TRUE(r.tube_range[0].contains(1.1));
  EXPECT_TRUE(r.tube_range[0].contains(hi_true));
}

TEST(TmIntegrateStep, ConstantInputIntegrator) {
  // x' = u with u = 2: x(h) = x0 + 2 h exactly.
  TmEnv env;
  env.dom = IVec(1, Interval(-1.0, 1.0));
  env.order = 3;
  TmVec x(1);
  x[0] = {poly::Poly::variable(1, 0) * 0.5, Interval(0.0)};
  poly::Poly f(2);
  f.add_term({0, 1}, 1.0);
  TmVec u{TaylorModel::constant(env, 2.0)};
  const TmStepResult r = tm_integrate_step(env, x, u, {f}, 0.25, {});
  ASSERT_TRUE(r.ok);
  const Interval end = taylor::tm_range(env, r.at_end[0]);
  EXPECT_NEAR(end.lo(), -0.5 + 0.5, 1e-9);
  EXPECT_NEAR(end.hi(), 0.5 + 0.5, 1e-9);
}

// --- full verifier soundness on the paper systems ---

struct TmCase {
  std::string benchmark;
  std::string abstraction;
};

// gtest shows the param next to each case name; without a printer it dumps
// the struct's bytes, heap pointers included, so the names would shift with
// the allocation history of the binary.
void PrintTo(const TmCase& c, std::ostream* os) {
  *os << c.benchmark << '/' << c.abstraction;
}

class TmVerifierSoundness : public ::testing::TestWithParam<TmCase> {};

TEST_P(TmVerifierSoundness, FlowpipeEnclosesSimulations) {
  const auto& param = GetParam();
  ode::Benchmark bench = param.benchmark == "oscillator"
                             ? ode::make_oscillator_benchmark()
                             : ode::make_3d_benchmark();
  bench.spec.stop_at_goal = false;
  bench.spec.steps = 12;  // short horizon keeps the test fast

  ControlAbstractionPtr abs;
  if (param.abstraction == "polar") {
    abs = std::make_shared<PolarAbstraction>();
  } else if (param.abstraction == "reachnn") {
    abs = std::make_shared<ReachNnAbstraction>();
  } else {
    abs = std::make_shared<IntervalAbstraction>();
  }
  TmVerifier verifier(bench.system, bench.spec, abs, {});

  std::mt19937_64 rng(13);
  nn::MlpController ctrl({bench.system->state_dim(), 6, 1}, 1.0,
                         nn::Activation::kTanh, nn::Activation::kTanh);
  ctrl.init_random(rng, 0.3);

  const Flowpipe fp = verifier.compute(bench.spec.x0, ctrl);
  ASSERT_TRUE(fp.valid) << fp.failure;

  for (int trial = 0; trial < 20; ++trial) {
    const Vec x0 = bench.spec.x0.sample(rng);
    const sim::Trace tr = sim::simulate(*bench.system, ctrl, x0,
                                        bench.spec.delta, bench.spec.steps,
                                        {.substeps = 16});
    for (std::size_t k = 0; k < tr.states.size(); ++k) {
      EXPECT_TRUE(fp.step_sets[k].contains(tr.states[k]))
          << param.benchmark << "/" << param.abstraction << " trial "
          << trial << " step " << k;
    }
    for (std::size_t i = 0; i < tr.fine_states.size(); ++i) {
      const std::size_t k = std::min(i / 16, bench.spec.steps - 1);
      EXPECT_TRUE(fp.interval_hulls[k].contains(tr.fine_states[i]))
          << param.benchmark << "/" << param.abstraction << " fine " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TmVerifierSoundness,
    ::testing::Values(TmCase{"oscillator", "polar"},
                      TmCase{"oscillator", "reachnn"},
                      TmCase{"oscillator", "interval"},
                      TmCase{"sys3d", "polar"}, TmCase{"sys3d", "reachnn"}),
    [](const auto& info) {
      return info.param.benchmark + "_" + info.param.abstraction;
    });

TEST(TmVerifier, LinearControllerViaLinearAbstraction) {
  // The TM machinery also handles linear controllers on nonlinear systems.
  auto bench = ode::make_oscillator_benchmark();
  bench.spec.steps = 10;
  bench.spec.stop_at_goal = false;
  TmVerifier verifier(bench.system, bench.spec,
                      std::make_shared<LinearAbstraction>(), {});
  nn::LinearController ctrl(Mat{{-0.5, -1.0}});
  const Flowpipe fp = verifier.compute(bench.spec.x0, ctrl);
  ASSERT_TRUE(fp.valid) << fp.failure;

  std::mt19937_64 rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const Vec x0 = bench.spec.x0.sample(rng);
    const sim::Trace tr = sim::simulate(*bench.system, ctrl, x0,
                                        bench.spec.delta, bench.spec.steps);
    for (std::size_t k = 0; k < tr.states.size(); ++k) {
      EXPECT_TRUE(fp.step_sets[k].contains(tr.states[k]));
    }
  }
}

TEST(TmVerifier, HigherOrderIsTighter) {
  auto bench = ode::make_oscillator_benchmark();
  bench.spec.steps = 10;
  bench.spec.stop_at_goal = false;
  std::mt19937_64 rng(5);
  nn::MlpController ctrl({2, 6, 1}, 1.0, nn::Activation::kTanh,
                         nn::Activation::kTanh);
  ctrl.init_random(rng, 0.3);

  TmReachOptions low;
  low.order = 2;
  TmReachOptions high;
  high.order = 4;
  const Flowpipe fl =
      TmVerifier(bench.system, bench.spec,
                 std::make_shared<PolarAbstraction>(), low)
          .compute(bench.spec.x0, ctrl);
  const Flowpipe fh =
      TmVerifier(bench.system, bench.spec,
                 std::make_shared<PolarAbstraction>(), high)
          .compute(bench.spec.x0, ctrl);
  ASSERT_TRUE(fl.valid && fh.valid);
  double wl = 0.0;
  double wh = 0.0;
  for (std::size_t k = 1; k <= 10; ++k) {
    wl += fl.step_sets[k][0].width() + fl.step_sets[k][1].width();
    wh += fh.step_sets[k][0].width() + fh.step_sets[k][1].width();
  }
  EXPECT_LE(wh, wl + 1e-9);
}

TEST(TmVerifier, DivergentControllerFailsGracefully) {
  auto bench = ode::make_oscillator_benchmark();
  bench.spec.steps = 60;
  TmVerifier verifier(bench.system, bench.spec,
                      std::make_shared<LinearAbstraction>(), {});
  // Destabilizing feedback.
  nn::LinearController ctrl(Mat{{5.0, 5.0}});
  const Flowpipe fp = verifier.compute(bench.spec.x0, ctrl);
  EXPECT_FALSE(fp.valid);
  EXPECT_FALSE(fp.failure.empty());
  // Partial pipe is still reported.
  EXPECT_GE(fp.step_sets.size(), 1u);
}

TEST(TmVerifier, StopAtGoalShortensPipe) {
  const auto bench = ode::make_3d_benchmark();
  TmVerifier verifier(bench.system, bench.spec,
                      std::make_shared<LinearAbstraction>(), {});
  // A gain that drives x1 down into the goal region (found empirically via
  // the learner family): u = -k x3 - c pushes x3 negative, x1 follows.
  nn::LinearController ctrl(Mat{{-0.2, -1.5, -2.0}});
  const Flowpipe fp = verifier.compute(bench.spec.x0, ctrl);
  if (fp.valid && bench.spec.goal.contains(fp.step_sets.back())) {
    EXPECT_LE(fp.steps(), bench.spec.steps);
  }
  // Either way the pipe must be well-formed.
  EXPECT_EQ(fp.interval_hulls.size() + 1, fp.step_sets.size());
}

}  // namespace
}  // namespace dwv::reach
