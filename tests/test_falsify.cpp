#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>

#include "core/falsify.hpp"
#include "ode/benchmarks.hpp"
#include "sim/simulate.hpp"

namespace dwv::core {
namespace {

using linalg::Mat;
using linalg::Vec;

TEST(Robustness, SafetySignedDistance) {
  const auto bench = ode::make_oscillator_benchmark();
  // Trace passing straight through the unsafe box [-0.3,-0.25]x[0.2,0.35].
  sim::Trace inside;
  inside.states = {Vec{-0.28, 0.3}};
  inside.fine_states = inside.states;
  EXPECT_LT(safety_robustness(inside, bench.spec), 0.0);

  sim::Trace outside;
  outside.states = {Vec{0.5, 0.5}};
  outside.fine_states = outside.states;
  EXPECT_GT(safety_robustness(outside, bench.spec), 0.0);

  sim::Trace diverged;
  diverged.diverged = true;
  diverged.states = {Vec{0.0, 0.0}};
  diverged.fine_states = diverged.states;
  EXPECT_LT(safety_robustness(diverged, bench.spec), 0.0);
}

TEST(Robustness, GoalSignedDistance) {
  const auto bench = ode::make_oscillator_benchmark();
  sim::Trace reaches;
  reaches.states = {Vec{0.5, 0.5}, Vec{0.0, 0.0}};
  reaches.fine_states = reaches.states;
  EXPECT_LT(goal_robustness(reaches, bench.spec), 0.0);

  sim::Trace misses;
  misses.states = {Vec{0.5, 0.5}, Vec{0.3, 0.3}};
  misses.fine_states = misses.states;
  EXPECT_GT(goal_robustness(misses, bench.spec), 0.0);
}

TEST(Robustness, StopAtGoalIgnoresPostReachUnsafety) {
  // Trace: reach the goal at step 1, then enter the unsafe set. Under
  // stop-at-goal semantics the safety robustness ignores the tail.
  auto spec = ode::make_oscillator_benchmark().spec;
  sim::Trace tr;
  tr.states = {Vec{0.5, 0.5}, Vec{0.0, 0.0}, Vec{-0.28, 0.3}};
  tr.fine_states = tr.states;
  spec.stop_at_goal = true;
  EXPECT_GT(safety_robustness(tr, spec), 0.0);
  spec.stop_at_goal = false;
  EXPECT_LT(safety_robustness(tr, spec), 0.0);
}

TEST(Falsify, FindsAccSafetyViolationForZeroGain) {
  const auto bench = ode::make_acc_benchmark();
  nn::LinearController zero(Mat{{0.0, 0.0}});
  FalsifyOptions opt;
  opt.seed = 3;
  const FalsifyResult res =
      falsify_safety(*bench.system, zero, bench.spec, opt);
  ASSERT_TRUE(res.falsified);
  EXPECT_LT(res.robustness, 0.0);
  EXPECT_TRUE(bench.spec.x0.contains(res.witness));
  // Confirm the witness by direct simulation.
  const sim::Trace tr = sim::simulate(*bench.system, zero, res.witness,
                                      bench.spec.delta, bench.spec.steps);
  EXPECT_FALSE(sim::evaluate_trace(tr, bench.spec).safe);
}

TEST(Falsify, CannotFalsifyCertifiedController) {
  const auto bench = ode::make_acc_benchmark();
  nn::LinearController good(Mat{{0.8, -2.75}});
  FalsifyOptions opt;
  opt.seed = 5;
  opt.restarts = 4;
  const FalsifyResult safety =
      falsify_safety(*bench.system, good, bench.spec, opt);
  EXPECT_FALSE(safety.falsified);
  EXPECT_GT(safety.robustness, 0.0);
  const FalsifyResult goal =
      falsify_goal(*bench.system, good, bench.spec, opt);
  EXPECT_FALSE(goal.falsified);
}

TEST(Falsify, GoalFalsificationOnLazyController) {
  // A weak gain that parks far from the goal: every initial state is a
  // goal-violation witness.
  const auto bench = ode::make_acc_benchmark();
  nn::LinearController weak(Mat{{0.01, -0.1}});
  FalsifyOptions opt;
  opt.seed = 2;
  opt.restarts = 2;
  const FalsifyResult res =
      falsify_goal(*bench.system, weak, bench.spec, opt);
  EXPECT_TRUE(res.falsified);
}

TEST(Falsify, BeatsBlindSamplingOnRareViolations) {
  // A controller whose violations hide in a thin corner of X0: the local
  // descent finds them while counting evaluations.
  const auto bench = ode::make_acc_benchmark();
  // Marginal braking: only the highest-speed starts dip below s = 120.
  nn::LinearController marginal(Mat{{0.45, -1.55}});
  FalsifyOptions opt;
  opt.seed = 4;
  opt.restarts = 10;
  const FalsifyResult res =
      falsify_safety(*bench.system, marginal, bench.spec, opt);
  // Either it finds the violation or the minimum robustness it reports is
  // small (the controller is near the boundary); both are informative.
  if (res.falsified) {
    EXPECT_LT(res.robustness, 0.0);
  } else {
    EXPECT_LT(res.robustness, 2.0);
  }
  EXPECT_GT(res.evaluations, 0u);
}


// --- centre_rollout_fails: the falsify-first test of the X_I search -----

// x' = -x + u: under a zero gain the state decays monotonically, so the
// closest approach to a goal {x <= g} is the last control instant.
class DecaySystem final : public ode::System {
 public:
  std::string name() const override { return "decay"; }
  std::size_t state_dim() const override { return 1; }
  std::size_t input_dim() const override { return 1; }
  void f_into(const double* x, const double* u, double* dx) const override {
    dx[0] = -x[0] + u[0];
  }
  Mat dfdx(const Vec&, const Vec&) const override { return Mat{{-1.0}}; }
  Mat dfdu(const Vec&, const Vec&) const override { return Mat{{1.0}}; }
  std::vector<poly::Poly> poly_dynamics() const override {
    poly::Poly p(2);
    p.add_term({1, 0}, -1.0);
    p.add_term({0, 1}, 1.0);
    return {p};
  }
};

// A verifier that only names its plant (or none, when `spec` is unset).
class PlantOnlyVerifier final : public reach::Verifier {
 public:
  PlantOnlyVerifier(ode::SystemPtr sys, std::optional<ode::ReachAvoidSpec> spec)
      : sys_(std::move(sys)), spec_(std::move(spec)) {}
  std::string name() const override { return "plant-only"; }
  reach::Flowpipe compute(const geom::Box&,
                          const nn::Controller&) const override {
    return {};
  }
  std::optional<reach::Plant> plant() const override {
    if (!spec_) return std::nullopt;
    return reach::Plant{sys_, &*spec_};
  }

 private:
  ode::SystemPtr sys_;
  std::optional<ode::ReachAvoidSpec> spec_;
};

constexpr double kInf = std::numeric_limits<double>::infinity();

// Decay from the cell [0.9, 1.1] over three periods of 1 s; goal {x <= g},
// unsafe set far away unless a test moves it.
ode::ReachAvoidSpec decay_spec(double g) {
  ode::ReachAvoidSpec spec;
  spec.x0 = geom::Box({interval::Interval(0.9, 1.1)});
  spec.goal = geom::Box({interval::Interval(-kInf, g)});
  spec.unsafe = geom::Box({interval::Interval(50.0, kInf)});
  spec.goal_dims = {0};
  spec.unsafe_dims = {0};
  spec.delta = 1.0;
  spec.steps = 3;
  spec.state_bounds = geom::Box({interval::Interval(-100.0, 100.0)});
  return spec;
}

// Final state of the centre rollout at `substeps` RK4 steps per period.
double decay_end(const ode::System& sys, const nn::Controller& ctrl,
                 const ode::ReachAvoidSpec& spec, std::size_t substeps) {
  sim::SimOptions o;
  o.substeps = substeps;
  return sim::simulate(sys, ctrl, spec.x0.center(), spec.delta, spec.steps, o)
      .states.back()[0];
}

TEST(CentreRollout, GoalMissWithinMarginDoesNotPrune) {
  const auto sys = std::make_shared<const DecaySystem>();
  const nn::LinearController zero(Mat{{0.0}});
  const ode::ReachAvoidSpec probe = decay_spec(0.0);
  const double coarse = decay_end(*sys, zero, probe, 8);
  const double fine = decay_end(*sys, zero, probe, 16);
  const double gap = std::abs(coarse - fine);
  ASSERT_GT(gap, 0.0);
  ASSERT_LT(gap, 1e-3);

  // Both rollouts miss the goal by about 50 gaps: under the margin.
  const ode::ReachAvoidSpec near = decay_spec(fine - 50.0 * gap);
  const PlantOnlyVerifier v_near(sys, near);
  EXPECT_GT(goal_robustness(sim::simulate(*sys, zero, near.x0.center(),
                                          near.delta, near.steps),
                            near),
            0.0);
  EXPECT_FALSE(centre_rollout_fails(v_near, near, zero, near.x0, true));

  // About 200 gaps: both clear the margin, so the cell is falsified.
  const ode::ReachAvoidSpec far = decay_spec(fine - 200.0 * gap);
  const PlantOnlyVerifier v_far(sys, far);
  EXPECT_TRUE(centre_rollout_fails(v_far, far, zero, far.x0, true));
  EXPECT_TRUE(centre_rollout_fails(v_far, far, zero, far.x0, false));
}

TEST(CentreRollout, HorizonMismatchDoesNotPrune) {
  const auto sys = std::make_shared<const DecaySystem>();
  const nn::LinearController zero(Mat{{0.0}});
  // The goal lies far below every state: a clear miss.
  const ode::ReachAvoidSpec spec = decay_spec(-10.0);
  EXPECT_TRUE(centre_rollout_fails(PlantOnlyVerifier(sys, spec), spec, zero,
                                   spec.x0, true));

  ode::ReachAvoidSpec longer = spec;
  longer.steps += 1;
  EXPECT_FALSE(centre_rollout_fails(PlantOnlyVerifier(sys, longer), spec,
                                    zero, spec.x0, true));
  ode::ReachAvoidSpec slower = spec;
  slower.delta = 0.5;
  EXPECT_FALSE(centre_rollout_fails(PlantOnlyVerifier(sys, slower), spec,
                                    zero, spec.x0, true));
  ode::ReachAvoidSpec no_stop = spec;
  no_stop.stop_at_goal = false;
  EXPECT_FALSE(centre_rollout_fails(PlantOnlyVerifier(sys, no_stop), spec,
                                    zero, spec.x0, true));
  // A verifier that names no plant never prunes.
  EXPECT_FALSE(centre_rollout_fails(PlantOnlyVerifier(sys, std::nullopt),
                                    spec, zero, spec.x0, true));
}

TEST(CentreRollout, UnsafeOnlyRolloutPrunesOnlyWithSafetyCheck) {
  const auto sys = std::make_shared<const DecaySystem>();
  const nn::LinearController zero(Mat{{0.0}});
  // The rollout reaches {x <= 0.5} at t = 1 (x = e^-1), and on the way,
  // at t = 3/8 on both substep grids, lies 0.087 deep inside [0.6, 0.8].
  ode::ReachAvoidSpec spec = decay_spec(0.5);
  spec.unsafe = geom::Box({interval::Interval(0.6, 0.8)});
  const PlantOnlyVerifier v(sys, spec);
  const sim::Trace tr =
      sim::simulate(*sys, zero, spec.x0.center(), spec.delta, spec.steps);
  ASSERT_LT(goal_robustness(tr, spec), 0.0);
  ASSERT_LT(safety_robustness(tr, spec), -0.08);
  EXPECT_FALSE(centre_rollout_fails(v, spec, zero, spec.x0, false));
  EXPECT_TRUE(centre_rollout_fails(v, spec, zero, spec.x0, true));
}

}  // namespace
}  // namespace dwv::core
