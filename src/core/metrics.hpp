// The paper's two verification-feedback metrics over a computed flowpipe:
//  * geometric distances d_u, d_g (Eq. 2 and 3),
//  * Wasserstein distances W(r_theta, u), W(r_theta, g) (Eq. 4), with the
//    final reachable segment viewed as a uniform distribution.
#pragma once

#include "ode/spec.hpp"
#include "reach/flowpipe.hpp"
#include "transport/emd.hpp"
#include "transport/sinkhorn.hpp"

namespace dwv::core {

/// d_u (Eq. 2): negative overlap measure when the tube intersects Xu, else
/// the squared distance from the tube to Xu. Positive iff verified safe.
/// Uses the whole-interval hulls (safety must hold in continuous time) and,
/// when the flowpipe carries exact 2-D polygons, polygon geometry.
double geometric_unsafe_distance(const reach::Flowpipe& fp,
                                 const ode::ReachAvoidSpec& spec);

/// d_g (Eq. 3): overlap measure when some step set intersects Xg, else the
/// negated squared distance from the reach set to Xg. Positive iff the
/// over-approximated reach set meets the goal at some control instant.
double geometric_goal_distance(const reach::Flowpipe& fp,
                               const ode::ReachAvoidSpec& spec);

struct GeometricMetrics {
  double d_u = 0.0;
  double d_g = 0.0;
  bool feasible() const { return d_u > 0.0 && d_g > 0.0; }
  bool operator==(const GeometricMetrics&) const = default;
};
GeometricMetrics geometric_metrics(const reach::Flowpipe& fp,
                                   const ode::ReachAvoidSpec& spec);

/// Goal-containment margin: max over step sets of the smallest face gap to
/// the goal box (min over dims of min(goal.hi - hi, lo - goal.lo)). A
/// positive margin certifies goal containment in the sense of
/// analyze_flowpipe (some whole step set inside Xg); unlike the overlap
/// measure d_g it keeps growing as the step set contracts INTO the goal,
/// so it is the right ascent objective for require_containment runs.
/// -infinity for invalid/empty flowpipes.
double goal_containment_margin(const reach::Flowpipe& fp,
                               const ode::ReachAvoidSpec& spec);

struct WassersteinOptions {
  /// Grid resolution per dimension for the uniform discretizations.
  std::size_t grid = 5;
  /// Use the Sinkhorn approximation instead of exact EMD.
  bool use_sinkhorn = false;
  transport::SinkhornOptions sinkhorn;
};

struct WassersteinMetrics {
  double w_goal = 0.0;    ///< W1(r_theta, g)
  double w_unsafe = 0.0;  ///< W1(r_theta, u)
  /// The paper's objective: minimize w_goal - w_unsafe.
  double objective() const { return w_goal - w_unsafe; }
  bool operator==(const WassersteinMetrics&) const = default;
};

/// Computes both Wasserstein metrics from the final reachable segment
/// (projected onto the dimensions each set constrains; unbounded sets are
/// clipped to spec.state_bounds).
WassersteinMetrics wasserstein_metrics(const reach::Flowpipe& fp,
                                       const ode::ReachAvoidSpec& spec,
                                       const WassersteinOptions& opt = {});

/// Penalty metric values used when the verifier failed (diverged pipe):
/// strongly infeasible, graded by how many steps completed before the blowup
/// so the learner still has a gradient toward longer-lived pipes.
GeometricMetrics geometric_penalty(const ode::ReachAvoidSpec& spec,
                                   const reach::Flowpipe& fp);
WassersteinMetrics wasserstein_penalty(const ode::ReachAvoidSpec& spec,
                                       const reach::Flowpipe& fp);

}  // namespace dwv::core
