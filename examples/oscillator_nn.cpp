// Learning a formally verified *neural network* controller for the Van der
// Pol oscillator with the Wasserstein metric and the POLAR-lite verifier —
// the paper's flagship nonlinear experiment.
//
//   $ ./oscillator_nn [seed]
#include <cstdio>
#include <cstdlib>

#include "core/learner.hpp"
#include "core/verdict.hpp"
#include "ode/benchmarks.hpp"
#include "reach/tm_flowpipe.hpp"
#include "sim/monte_carlo.hpp"

using namespace dwv;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 3;

  const ode::Benchmark bench = ode::make_oscillator_benchmark();
  std::printf("Van der Pol oscillator: steer from around (-0.5, 0.5) into\n");
  std::printf("[-0.05,0.05]^2 while avoiding [-0.3,-0.25]x[0.2,0.35].\n\n");

  // POLAR-lite: Taylor models pushed through the network layer by layer.
  const auto verifier = std::make_shared<reach::TmVerifier>(
      bench.system, bench.spec, std::make_shared<reach::PolarAbstraction>(),
      reach::TmReachOptions{});

  core::LearnerOptions opt;
  opt.metric = core::MetricKind::kWasserstein;
  opt.alpha = 0.2;  // weight of the "stay away from Xu" objective
  opt.max_iters = 240;
  opt.step_size = 0.2;
  opt.require_containment = true;
  opt.restarts = 4;
  opt.restart_scale = 0.4;
  opt.seed = seed;
  core::Learner learner(verifier, bench.spec, opt);

  // 2-6-1 tanh network, outputs scaled to |u| <= 2.
  nn::MlpController ctrl({2, 6, 1}, 2.0, nn::Activation::kTanh,
                         nn::Activation::kTanh);
  std::mt19937_64 rng(seed * 7 + 1);
  ctrl.init_random(rng, 0.4);

  std::printf("learning (%s)...\n", ctrl.describe().c_str());
  const core::LearnResult res = learner.learn(ctrl);
  std::printf("%s after %zu iterations (%zu verifier calls, %.1f s in the "
              "verifier)\n\n",
              res.success ? "CONVERGED" : "did not converge", res.iterations,
              res.verifier_calls, res.verifier_seconds);

  // Wasserstein learning curve.
  std::printf("iter   W(r,g)    W(r,u)\n");
  for (std::size_t i = 0; i < res.history.size();
       i += std::max<std::size_t>(1, res.history.size() / 12)) {
    const auto& r = res.history[i];
    std::printf("%4zu  %8.4f  %8.4f\n", r.iter, r.wass->w_goal,
                r.wass->w_unsafe);
  }

  if (res.success) {
    const core::FlowpipeFacts facts =
        core::analyze_flowpipe(res.final_flowpipe, bench.spec);
    std::printf("\nformal certificate: safety for all of X0 = %s, goal "
                "containment at step %zu\n",
                facts.safe_certified ? "yes" : "no", facts.goal_step);
  }

  const sim::McStats mc = sim::monte_carlo_rates(
      *bench.system, ctrl, bench.spec, 500, 99);
  std::printf("simulation over 500 runs: safe %.1f%%, goal %.1f%% "
              "(mean reach step %.1f)\n",
              100.0 * mc.safe_rate, 100.0 * mc.goal_rate,
              mc.mean_reach_step);
  return res.success ? 0 : 1;
}
