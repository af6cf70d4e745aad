#include "sim/simulate.hpp"

#include <cassert>

namespace dwv::sim {

using linalg::Vec;

void rk4_step_into(const ode::System& sys, double* x, const double* u,
                   double dt, Rk4Work& work) {
  const std::size_t n = work.k1.size();
  double* k1 = work.k1.data();
  double* k2 = work.k2.data();
  double* k3 = work.k3.data();
  double* k4 = work.k4.data();
  double* stage = work.stage.data();
  const double half = 0.5 * dt;
  sys.f_into(x, u, k1);
  for (std::size_t i = 0; i < n; ++i) stage[i] = x[i] + k1[i] * half;
  sys.f_into(stage, u, k2);
  for (std::size_t i = 0; i < n; ++i) stage[i] = x[i] + k2[i] * half;
  sys.f_into(stage, u, k3);
  for (std::size_t i = 0; i < n; ++i) stage[i] = x[i] + k3[i] * dt;
  sys.f_into(stage, u, k4);
  const double sixth = dt / 6.0;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] += (((k1[i] + k2[i] * 2.0) + k3[i] * 2.0) + k4[i]) * sixth;
  }
}

Vec rk4_step(const ode::System& sys, const Vec& x, const Vec& u, double dt) {
  Vec next = x;
  Rk4Work work(sys.state_dim());
  rk4_step_into(sys, next.data(), u.data(), dt, work);
  return next;
}

namespace {

// Rollout observer that records every state into a Trace.
struct TraceRecorder {
  Trace& tr;
  void control(std::size_t, const Vec& x) { tr.states.push_back(x); }
  void input(const Vec& u) { tr.inputs.push_back(u); }
  void fine(std::size_t, const Vec& x) { tr.fine_states.push_back(x); }
  void diverged(const Vec& x) {
    tr.diverged = true;
    tr.fine_states.push_back(x);
    tr.states.push_back(x);
  }
};

}  // namespace

Trace simulate(const ode::System& sys, const nn::Controller& ctrl,
               const Vec& x0, double delta, std::size_t steps,
               const SimOptions& opt) {
  assert(x0.size() == sys.state_dim());
  Trace tr;
  tr.delta = delta;
  tr.states.reserve(steps + 1);
  tr.inputs.reserve(steps);
  tr.fine_states.reserve(steps * opt.substeps + 1);

  Vec x = x0;
  Rk4Work work(sys.state_dim());
  TraceRecorder rec{tr};
  rollout(sys, ctrl, x, delta, steps, opt, work, rec);
  return tr;
}

TraceVerdict VerdictStream::verdict() const {
  TraceVerdict v;
  if (diverged_) return v;  // unsafe and not goal-reaching
  v.reached = reached_;
  v.reach_step = reach_step_;
  v.safe = !(unsafe_ && first_unsafe_ <= window_end());
  return v;
}

TraceVerdict evaluate_trace(const Trace& trace,
                            const ode::ReachAvoidSpec& spec) {
  const std::size_t periods =
      trace.states.empty() ? 0 : trace.states.size() - 1;
  const std::size_t substeps =
      periods > 0 ? (trace.fine_states.size() - 1) / periods : 0;
  VerdictStream stream(spec, periods, substeps);
  if (trace.diverged) stream.diverged({});
  for (std::size_t k = 0; k < trace.states.size(); ++k) {
    stream.control(k, trace.states[k]);
  }
  for (std::size_t j = 0; j < trace.fine_states.size(); ++j) {
    stream.fine(j, trace.fine_states[j]);
  }
  return stream.verdict();
}

}  // namespace dwv::sim
