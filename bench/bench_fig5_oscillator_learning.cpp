// Figure 5: learning curves of the Wasserstein metrics (W(r, g), W(r, u))
// per Algorithm-1 iteration on the Van der Pol oscillator with an NN
// controller under the POLAR-lite verifier. The paper's shape: W(r, g)
// decreasing towards 0 while W(r, u) stays bounded away from it.
#include "bench_common.hpp"

int main() {
  using namespace dwvbench;
  const auto bench = ode::make_oscillator_benchmark();
  const auto verifier = make_verifier(bench, "polar");

  auto opt = oscillator_learner_options(core::MetricKind::kWasserstein, 3);
  core::Learner learner(verifier, bench.spec, opt);
  nn::MlpController ctrl = make_nn_controller(bench, 3);
  const core::LearnResult res = learner.learn(ctrl);

  std::printf(
      "=== Fig. 5: learning with the Wasserstein metric (oscillator) ===\n");
  std::printf("# iter  W(r,g)  W(r,u)  feasible\n");
  for (const auto& rec : res.history) {
    std::printf("%4zu  %10.4f  %10.4f  %d\n", rec.iter, rec.wass->w_goal,
                rec.wass->w_unsafe, static_cast<int>(rec.feasible));
  }
  std::printf(
      "converged=%d at iteration %zu (paper: ~9 iterations; W(r,g) falls\n"
      "towards 0 while W(r,u) stays positive, as in Fig. 5)\n",
      static_cast<int>(res.success), res.iterations);
  return res.success ? 0 : 1;
}
