#include "sim/monte_carlo.hpp"

namespace dwv::sim {

McStats monte_carlo_rates(const ode::System& sys, const nn::Controller& ctrl,
                          const ode::ReachAvoidSpec& spec,
                          std::size_t samples, std::uint64_t seed,
                          const SimOptions& opt) {
  std::mt19937_64 rng(seed);
  McStats st;
  st.samples = samples;
  std::size_t safe = 0;
  std::size_t reached = 0;
  double reach_steps = 0.0;
  // One rollout scratch for every sample; no Trace is built.
  linalg::Vec x;
  Rk4Work work(sys.state_dim());
  for (std::size_t i = 0; i < samples; ++i) {
    x = spec.x0.sample(rng);
    VerdictStream stream(spec, spec.steps, opt.substeps);
    rollout(sys, ctrl, x, spec.delta, spec.steps, opt, work, stream);
    const TraceVerdict v = stream.verdict();
    if (v.safe) ++safe;
    if (v.reached) {
      ++reached;
      reach_steps += static_cast<double>(v.reach_step);
    }
  }
  st.safe_rate = static_cast<double>(safe) / static_cast<double>(samples);
  st.goal_rate = static_cast<double>(reached) / static_cast<double>(samples);
  st.mean_reach_step =
      reached ? reach_steps / static_cast<double>(reached) : 0.0;
  return st;
}

}  // namespace dwv::sim
