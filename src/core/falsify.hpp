// Falsification: search for concrete counterexample initial states by
// minimizing a trace-robustness function with restarted local search
// ((1+1)-evolution strategy over X0). The paper discusses falsification
// (VerifAI-style) as the closed-loop alternative that lacks guarantees —
// here it serves three roles:
//  * sharpening the design-then-verify baselines' verdicts (a found
//    counterexample turns Unknown into Unsafe),
//  * sanity-checking certificates (a falsifier must FAIL on a controller
//    that carries a reach-avoid certificate — tested in the suite),
//  * pruning Algorithm 2: a cell whose centre rollout fails skips the
//    verifier (centre_rollout_fails).
#pragma once

#include <random>

#include "geom/box.hpp"
#include "nn/controller.hpp"
#include "ode/spec.hpp"
#include "ode/system.hpp"
#include "reach/verifier.hpp"
#include "sim/simulate.hpp"

namespace dwv::core {

struct FalsifyOptions {
  std::size_t restarts = 8;          ///< independent local searches
  std::size_t iters_per_restart = 60;
  /// Initial mutation radius as a fraction of X0's half-width.
  double initial_step = 0.5;
  double step_decay = 0.97;
  std::uint64_t seed = 1;
  sim::SimOptions sim;
};

struct FalsifyResult {
  bool falsified = false;   ///< a violating initial state was found
  linalg::Vec witness;      ///< the counterexample (valid when falsified)
  double robustness = 0.0;  ///< best (lowest) robustness value reached
  std::size_t evaluations = 0;
};

/// Safety robustness of one trace: the minimum over time of the distance
/// to the unsafe set (negative depth when inside). Negative => violation.
double safety_robustness(const sim::Trace& trace,
                         const ode::ReachAvoidSpec& spec);

/// Goal robustness: negative iff the trace reaches the goal (we search for
/// initial states that do NOT reach, i.e. maximize distance-to-goal), so a
/// POSITIVE value is the violation here. Concretely: min over control
/// instants of the distance to the goal box; > 0 => never reached.
double goal_robustness(const sim::Trace& trace,
                       const ode::ReachAvoidSpec& spec);

/// Falsify before verify (Algorithm 2, DESIGN.md §16): true when one
/// rollout from the centre of `cell` robustly fails `spec` — it never
/// reaches Xg, or (with `check_safety`) it enters Xu — so no sound
/// verifier can certify the cell and the search may skip the call. The
/// rollout integrates the verifier's own plant over its own horizon, at 8
/// and (when that one fails) at 16 RK4 substeps per period; the failure
/// counts only when both robustness values exceed 100 times their
/// difference (a step-doubling estimate of the integration error).
/// Always false when the verifier names no plant or its delta, steps or
/// stop_at_goal differ from `spec`'s.
bool centre_rollout_fails(const reach::Verifier& verifier,
                          const ode::ReachAvoidSpec& spec,
                          const nn::Controller& ctrl, const geom::Box& cell,
                          bool check_safety);

/// Searches X0 for an initial state whose trace enters Xu.
FalsifyResult falsify_safety(const ode::System& sys,
                             const nn::Controller& ctrl,
                             const ode::ReachAvoidSpec& spec,
                             const FalsifyOptions& opt = {});

/// Searches X0 for an initial state whose trace never reaches Xg.
FalsifyResult falsify_goal(const ode::System& sys,
                           const nn::Controller& ctrl,
                           const ode::ReachAvoidSpec& spec,
                           const FalsifyOptions& opt = {});

}  // namespace dwv::core
