// Bringing your own system: defines a custom 2-D polynomial system (a
// damped Duffing-style oscillator), its reach-avoid spec, and runs the full
// design-while-verify pipeline on it. Demonstrates everything a user needs
// to implement: the System interface (numeric f_into, Jacobians, polynomial
// face) and a ReachAvoidSpec.
//
//   $ ./custom_system
#include <cstdio>

#include "core/learner.hpp"
#include "core/verdict.hpp"
#include "ode/spec.hpp"
#include "ode/system.hpp"
#include "reach/tm_flowpipe.hpp"
#include "sim/monte_carlo.hpp"

using namespace dwv;

namespace {

/// Duffing-style oscillator: x1' = x2, x2' = -0.5 x2 - x1 - x1^3 + u.
class DuffingSystem final : public ode::System {
 public:
  std::string name() const override { return "duffing"; }
  std::size_t state_dim() const override { return 2; }
  std::size_t input_dim() const override { return 1; }

  void f_into(const double* x, const double* u, double* dx) const override {
    dx[0] = x[1];
    dx[1] = -0.5 * x[1] - x[0] - x[0] * x[0] * x[0] + u[0];
  }
  linalg::Mat dfdx(const linalg::Vec& x,
                   const linalg::Vec&) const override {
    return linalg::Mat{{0.0, 1.0}, {-1.0 - 3.0 * x[0] * x[0], -0.5}};
  }
  linalg::Mat dfdu(const linalg::Vec&, const linalg::Vec&) const override {
    return linalg::Mat{{0.0}, {1.0}};
  }
  std::vector<poly::Poly> poly_dynamics() const override {
    // Variables (x1, x2, u).
    std::vector<poly::Poly> f(2, poly::Poly(3));
    f[0].add_term({0, 1, 0}, 1.0);
    f[1].add_term({0, 1, 0}, -0.5);
    f[1].add_term({1, 0, 0}, -1.0);
    f[1].add_term({3, 0, 0}, -1.0);
    f[1].add_term({0, 0, 1}, 1.0);
    return f;
  }
};

}  // namespace

int main() {
  using interval::Interval;

  // 1. System + reach-avoid specification.
  const auto system = std::make_shared<DuffingSystem>();
  ode::ReachAvoidSpec spec;
  spec.x0 = geom::Box{Interval(0.58, 0.62), Interval(-0.02, 0.02)};
  spec.goal = geom::Box{Interval(-0.06, 0.06), Interval(-0.08, 0.08)};
  spec.unsafe = geom::Box{Interval(0.2, 0.3), Interval(-0.5, -0.35)};
  spec.goal_dims = {0, 1};
  spec.unsafe_dims = {0, 1};
  spec.delta = 0.1;
  spec.steps = 35;
  spec.state_bounds = geom::Box{Interval(-3.0, 3.0), Interval(-3.0, 3.0)};

  std::printf("custom system: %s\n", system->name().c_str());
  std::printf("steer (0.6, 0) -> origin, avoiding a box on the way down\n\n");

  // 2. Verifier: POLAR-lite Taylor-model flowpipes.
  const auto verifier = std::make_shared<reach::TmVerifier>(
      system, spec, std::make_shared<reach::PolarAbstraction>(),
      reach::TmReachOptions{});

  // 3. Algorithm 1 with the geometric metric.
  core::LearnerOptions opt;
  opt.metric = core::MetricKind::kGeometric;
  opt.max_iters = 200;
  opt.step_size = 0.25;
  opt.require_containment = true;
  opt.restarts = 4;
  opt.restart_scale = 0.4;
  opt.seed = 2;
  core::Learner learner(verifier, spec, opt);

  nn::MlpController ctrl({2, 6, 1}, 1.5, nn::Activation::kTanh,
                         nn::Activation::kTanh);
  std::mt19937_64 rng(11);
  ctrl.init_random(rng, 0.4);

  const core::LearnResult res = learner.learn(ctrl);
  std::printf("learning %s after %zu iterations\n",
              res.success ? "CONVERGED" : "did not converge",
              res.iterations);

  const sim::McStats mc =
      sim::monte_carlo_rates(*system, ctrl, spec, 500, 3);
  std::printf("simulation: safe %.1f%%, goal %.1f%%\n",
              100.0 * mc.safe_rate, 100.0 * mc.goal_rate);

  if (res.success) {
    const core::FlowpipeFacts facts =
        core::analyze_flowpipe(res.final_flowpipe, spec);
    std::printf("certificate: safety=%s, goal containment at step %zu\n",
                facts.safe_certified ? "yes" : "no", facts.goal_step);
  }
  return res.success ? 0 : 1;
}
