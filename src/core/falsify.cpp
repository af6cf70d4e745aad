#include "core/falsify.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>

namespace dwv::core {

using linalg::Vec;

namespace {

// How many times the gap between the 8- and 16-substep robustness values
// (the step-doubling error estimate) a failure must exceed to prune.
constexpr double kRolloutMargin = 100.0;

// Signed distance of a point to a box over the given dims: positive
// outside (Euclidean gap), negative inside (containment depth).
double signed_distance(const Vec& x, const geom::Box& box,
                       const std::vector<std::size_t>& dims) {
  bool inside = true;
  double gap2 = 0.0;
  double depth = std::numeric_limits<double>::infinity();
  for (std::size_t d : dims) {
    const double lo = box[d].lo();
    const double hi = box[d].hi();
    if (x[d] < lo) {
      inside = false;
      gap2 += (lo - x[d]) * (lo - x[d]);
    } else if (x[d] > hi) {
      inside = false;
      gap2 += (x[d] - hi) * (x[d] - hi);
    } else {
      const double margin_lo =
          std::isfinite(lo) ? x[d] - lo
                            : std::numeric_limits<double>::infinity();
      const double margin_hi =
          std::isfinite(hi) ? hi - x[d]
                            : std::numeric_limits<double>::infinity();
      depth = std::min({depth, margin_lo, margin_hi});
    }
  }
  if (!inside) return std::sqrt(gap2);
  return std::isfinite(depth) ? -depth : -1.0;
}

// Streaming trace robustness: a sim::rollout observer that keeps the
// running minima behind goal_robustness and safety_robustness. The rule
// (the one place it is written down):
//  * a diverged rollout scores 1 against the goal (it never reaches) and
//    -1 against Xu (a violation);
//  * goal: min over control instants of the signed distance to Xg;
//  * safety: min over fine states of the signed distance to Xu; under
//    stop_at_goal semantics, and when the rollout has control periods,
//    only fine indices up to reach_step * substeps count, reach_step being
//    the first control instant inside Xg.
class RobustnessStream {
 public:
  /// A rollout of `periods` control periods, `substeps` fine steps each;
  /// fine states are scored only when `safety` is set.
  RobustnessStream(const ode::ReachAvoidSpec& spec, std::size_t periods,
                   std::size_t substeps, bool safety)
      : spec_(&spec),
        substeps_(substeps),
        windowed_(spec.stop_at_goal && periods > 0),
        safety_on_(safety) {}

  void control(std::size_t k, const Vec& x) {
    goal_ = std::min(goal_, signed_distance(x, spec_->goal, spec_->goal_dims));
    if (windowed_ && !reached_ && spec_->goal.contains(x)) {
      reached_ = true;
      window_end_ = k * substeps_;
    }
  }
  void input(const Vec&) {}
  void fine(std::size_t j, const Vec& x) {
    if (!safety_on_ || j > window_end_) return;
    safety_ = std::min(
        safety_, signed_distance(x, spec_->unsafe, spec_->unsafe_dims));
  }
  void diverged(const Vec&) { diverged_ = true; }

  double goal() const { return diverged_ ? 1.0 : goal_; }
  double safety() const { return diverged_ ? -1.0 : safety_; }

 private:
  const ode::ReachAvoidSpec* spec_;
  std::size_t substeps_;
  bool windowed_;
  bool safety_on_;
  bool reached_ = false;
  /// Last fine index whose safety counts.
  std::size_t window_end_ = std::numeric_limits<std::size_t>::max();
  double goal_ = std::numeric_limits<double>::infinity();
  double safety_ = std::numeric_limits<double>::infinity();
  bool diverged_ = false;
};

// Feeds a recorded trace through a RobustnessStream: control instants
// first, so the stop-at-goal window is known before any fine state.
RobustnessStream replay(const sim::Trace& trace,
                        const ode::ReachAvoidSpec& spec, bool safety) {
  const std::size_t periods =
      trace.states.empty() ? 0 : trace.states.size() - 1;
  const std::size_t substeps =
      periods > 0 ? (trace.fine_states.size() - 1) / periods : 0;
  RobustnessStream s(spec, periods, substeps, safety);
  if (trace.diverged) {
    s.diverged({});
    return s;
  }
  for (std::size_t k = 0; k < trace.states.size(); ++k) {
    s.control(k, trace.states[k]);
  }
  for (std::size_t j = 0; j < trace.fine_states.size(); ++j) {
    s.fine(j, trace.fine_states[j]);
  }
  return s;
}

FalsifyResult minimize(
    const ode::System& sys, const nn::Controller& ctrl,
    const ode::ReachAvoidSpec& spec, const FalsifyOptions& opt,
    const std::function<double(const sim::Trace&)>& objective) {
  std::mt19937_64 rng(opt.seed);
  std::normal_distribution<double> gauss(0.0, 1.0);

  FalsifyResult best;
  best.robustness = std::numeric_limits<double>::infinity();

  const Vec radius = spec.x0.radius();
  const auto clamp_into_x0 = [&](Vec x) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = std::clamp(x[i], spec.x0[i].lo(), spec.x0[i].hi());
    }
    return x;
  };
  const auto evaluate = [&](const Vec& x0) {
    const sim::Trace tr =
        sim::simulate(sys, ctrl, x0, spec.delta, spec.steps, opt.sim);
    ++best.evaluations;
    return objective(tr);
  };

  for (std::size_t r = 0; r < opt.restarts; ++r) {
    Vec x = spec.x0.sample(rng);
    double fx = evaluate(x);
    double step = opt.initial_step;
    for (std::size_t it = 0; it < opt.iters_per_restart; ++it) {
      if (fx < best.robustness) {
        best.robustness = fx;
        best.witness = x;
      }
      if (fx < 0.0) {
        best.falsified = true;
        return best;
      }
      Vec cand(x.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        cand[i] = x[i] + step * radius[i] * gauss(rng);
      }
      cand = clamp_into_x0(cand);
      const double fc = evaluate(cand);
      if (fc < fx) {
        x = std::move(cand);
        fx = fc;
      } else {
        step *= opt.step_decay;
      }
    }
  }
  return best;
}

}  // namespace

double safety_robustness(const sim::Trace& trace,
                         const ode::ReachAvoidSpec& spec) {
  return replay(trace, spec, /*safety=*/true).safety();
}

double goal_robustness(const sim::Trace& trace,
                       const ode::ReachAvoidSpec& spec) {
  return replay(trace, spec, /*safety=*/false).goal();
}

bool centre_rollout_fails(const reach::Verifier& verifier,
                          const ode::ReachAvoidSpec& spec,
                          const nn::Controller& ctrl, const geom::Box& cell,
                          bool check_safety) {
  const std::optional<reach::Plant> plant = verifier.plant();
  if (!plant) return false;
  const ode::ReachAvoidSpec& own = *plant->spec;
  if (own.delta != spec.delta || own.steps != spec.steps ||
      own.stop_at_goal != spec.stop_at_goal) {
    return false;
  }
  // Both rollouts stream into robustness minima: no trace is recorded.
  const Vec centre = cell.center();
  Vec x = centre;
  sim::Rk4Work work(plant->system->state_dim());
  const auto rollout = [&](std::size_t substeps) {
    sim::SimOptions o;
    o.substeps = substeps;
    x = centre;
    RobustnessStream s(spec, spec.steps, substeps, check_safety);
    sim::rollout(*plant->system, ctrl, x, spec.delta, spec.steps, o, work,
                 s);
    return s;
  };
  // Violations as positive numbers: the goal missed, Xu entered.
  const RobustnessStream coarse = rollout(8);
  const double goal_a = coarse.goal();
  const double safety_a = check_safety ? -coarse.safety() : 0.0;
  // A rollout that does not fail cannot fail robustly: skip the second.
  if (!(goal_a > 0.0) && !(safety_a > 0.0)) return false;
  const RobustnessStream fine = rollout(16);
  // Both violations clear the margin over their gap.
  const auto robust = [](double va, double vb) {
    const double gap = std::abs(va - vb);
    return va > kRolloutMargin * gap && vb > kRolloutMargin * gap;
  };
  if (robust(goal_a, fine.goal())) return true;
  return check_safety && robust(safety_a, -fine.safety());
}

FalsifyResult falsify_safety(const ode::System& sys,
                             const nn::Controller& ctrl,
                             const ode::ReachAvoidSpec& spec,
                             const FalsifyOptions& opt) {
  return minimize(sys, ctrl, spec, opt, [&](const sim::Trace& tr) {
    return safety_robustness(tr, spec);
  });
}

FalsifyResult falsify_goal(const ode::System& sys,
                           const nn::Controller& ctrl,
                           const ode::ReachAvoidSpec& spec,
                           const FalsifyOptions& opt) {
  // Violation = the trace NEVER reaches the goal, i.e. goal robustness
  // stays positive; minimize its negation so "falsified" means f < 0.
  return minimize(sys, ctrl, spec, opt, [&](const sim::Trace& tr) {
    return -goal_robustness(tr, spec);
  });
}

}  // namespace dwv::core
