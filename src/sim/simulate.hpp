// Sampled-data closed-loop simulation: the controller reads the state every
// delta seconds and applies a zero-order-hold input; between samples the
// continuous dynamics are integrated with RK4.
//
// One rollout loop (rollout) drives every simulation. simulate() records
// the states into a Trace; monte_carlo_rates() streams them into a
// VerdictStream and never builds a Trace. Both integrate in place through
// rk4_step_into over caller-owned stage buffers (DESIGN.md §17).
#pragma once

#include <limits>
#include <vector>

#include "nn/controller.hpp"
#include "ode/spec.hpp"
#include "ode/system.hpp"

namespace dwv::sim {

/// Recorded closed-loop trajectory.
struct Trace {
  /// States at control instants t = 0, delta, 2 delta, ... (steps + 1).
  std::vector<linalg::Vec> states;
  /// Inputs held over each period (steps).
  std::vector<linalg::Vec> inputs;
  /// Fine-grained states at every RK4 substep (steps * substeps + 1),
  /// used for the continuous-time safety check.
  std::vector<linalg::Vec> fine_states;
  double delta = 0.0;
  /// True when the state left the finite range (NaN/inf or exploded).
  bool diverged = false;
};

/// RK4 stage buffers for one state dimension, owned by the caller and
/// reused across steps so the integration never touches the heap.
struct Rk4Work {
  explicit Rk4Work(std::size_t n) : k1(n), k2(n), k3(n), k4(n), stage(n) {}
  std::vector<double> k1, k2, k3, k4, stage;
};

/// One RK4 step of x' = f(x, u) with constant u over dt, in place on the
/// sys.state_dim() entries of x. Per component the operation order is
///   stage = x + k1*(0.5*dt), x + k2*(0.5*dt), x + k3*dt,
///   x     = x + (((k1 + k2*2) + k3*2) + k4) * (dt/6).
void rk4_step_into(const ode::System& sys, double* x, const double* u,
                   double dt, Rk4Work& work);

/// One RK4 step of x' = f(x, u) with constant u over dt.
linalg::Vec rk4_step(const ode::System& sys, const linalg::Vec& x,
                     const linalg::Vec& u, double dt);

struct SimOptions {
  std::size_t substeps = 8;        ///< RK4 sub-steps per control period.
  double divergence_bound = 1e6;   ///< |x|_inf beyond this flags divergence.
};

/// Simulates `steps` control periods of `delta` from x (advanced in place;
/// sys.state_dim() entries), reporting every state to `obs`:
///   obs.control(k, x)   state at control instant k = 0..steps,
///   obs.input(u)        input held over each period,
///   obs.fine(j, x)      state at fine index j = 0..steps*substeps,
///   obs.diverged(x)     the first state that left the finite range
///                       (NaN/inf or |x|_inf > divergence_bound); the
///                       rollout ends there.
/// The loop itself allocates only the controller's input vector.
template <class Observer>
void rollout(const ode::System& sys, const nn::Controller& ctrl,
             linalg::Vec& x, double delta, std::size_t steps,
             const SimOptions& opt, Rk4Work& work, Observer& obs) {
  obs.control(0, x);
  obs.fine(0, x);
  const double h = delta / static_cast<double>(opt.substeps);
  std::size_t j = 0;
  for (std::size_t i = 0; i < steps; ++i) {
    const linalg::Vec u = ctrl.act(x);
    obs.input(u);
    for (std::size_t k = 0; k < opt.substeps; ++k) {
      rk4_step_into(sys, x.data(), u.data(), h, work);
      if (!x.all_finite() || x.norm_inf() > opt.divergence_bound) {
        obs.diverged(x);
        return;
      }
      obs.fine(++j, x);
    }
    obs.control(i + 1, x);
  }
}

/// Simulates `steps` control periods from x0.
Trace simulate(const ode::System& sys, const nn::Controller& ctrl,
               const linalg::Vec& x0, double delta, std::size_t steps,
               const SimOptions& opt = {});

/// Reach-avoid verdict of a single trace against a spec (Definition 1),
/// checked at the fine-grained resolution.
struct TraceVerdict {
  bool safe = false;      ///< never entered Xu (and never diverged)
  bool reached = false;   ///< entered Xg at some checked instant
  std::size_t reach_step = 0;  ///< first control step index inside Xg
};

/// Streaming reach-avoid verdict: a rollout observer that keeps only the
/// first goal instant, the first unsafe fine index and divergence. The
/// rule (the one place it is written down):
///  * a diverged rollout is unsafe and not goal-reaching, even when it
///    reached the goal before diverging;
///  * reached = some control-instant state lies in Xg; reach_step is the
///    first such instant;
///  * safe = no fine state lies in Xu; under stop_at_goal semantics, and
///    when the rollout has control periods, only fine indices up to
///    reach_step * substeps count (the run ends at the reach time).
class VerdictStream {
 public:
  /// A rollout of `periods` control periods, `substeps` fine steps each.
  VerdictStream(const ode::ReachAvoidSpec& spec, std::size_t periods,
                std::size_t substeps)
      : spec_(&spec),
        substeps_(substeps),
        windowed_(spec.stop_at_goal && periods > 0) {}

  void control(std::size_t k, const linalg::Vec& x) {
    if (!reached_ && spec_->goal.contains(x)) {
      reached_ = true;
      reach_step_ = k;
    }
  }
  void input(const linalg::Vec&) {}
  void fine(std::size_t j, const linalg::Vec& x) {
    if (unsafe_ || j > window_end()) return;
    if (spec_->unsafe.contains(x)) {
      unsafe_ = true;
      first_unsafe_ = j;
    }
  }
  void diverged(const linalg::Vec&) { diverged_ = true; }

  TraceVerdict verdict() const;

 private:
  /// Last fine index whose safety counts.
  std::size_t window_end() const {
    return windowed_ && reached_ ? reach_step_ * substeps_
                                 : std::numeric_limits<std::size_t>::max();
  }

  const ode::ReachAvoidSpec* spec_;
  std::size_t substeps_;
  bool windowed_;
  bool reached_ = false;
  std::size_t reach_step_ = 0;
  bool unsafe_ = false;
  std::size_t first_unsafe_ = 0;
  bool diverged_ = false;
};

TraceVerdict evaluate_trace(const Trace& trace,
                            const ode::ReachAvoidSpec& spec);

}  // namespace dwv::sim
