#include "reach/linear_reach.hpp"

#include <bit>
#include <cassert>

#include "geom/zonotope.hpp"
#include "interval/ivec.hpp"
#include "reach/cache.hpp"

namespace dwv::reach {

using geom::Box;
using geom::Zonotope;
using interval::Interval;
using interval::IVec;
using linalg::Mat;
using linalg::Vec;

LinearVerifier::LinearVerifier(ode::SystemPtr sys, ode::ReachAvoidSpec spec,
                               LinearReachOptions opt)
    : sys_(std::move(sys)), spec_(std::move(spec)), opt_(opt) {
  const auto lti = sys_->lti();
  assert(lti && "LinearVerifier requires an LTI system");
  a_ = lti->a;
  b_ = lti->b;
  c_ = lti->c;
  // Fold the constant drift c into an extra input column held at 1, so the
  // ZOH discretization yields [Bd | cd] in one augmented exponential.
  linalg::Mat baug = b_;
  if (c_.size() == a_.rows()) {
    linalg::Mat cc(a_.rows(), 1);
    cc.set_col(0, c_);
    baug = linalg::Mat::hcat(b_, cc);
  }
  // Memoized: the discretizations depend only on (A, B, delta), so every
  // verifier constructed for the same plant (probe fan-outs, benches,
  // repeated CLI invocations in one process) reuses the first computation.
  full_ = linalg::discretize_zoh_cached(a_, baug, spec_.delta);
  partial_.reserve(opt_.subdivisions);
  for (std::size_t j = 1; j <= opt_.subdivisions; ++j) {
    const double t = spec_.delta * static_cast<double>(j) /
                     static_cast<double>(opt_.subdivisions);
    partial_.push_back(linalg::discretize_zoh_cached(a_, baug, t));
  }
}

std::uint64_t LinearVerifier::cache_salt() const {
  std::vector<std::uint64_t> w;
  const auto push_mat = [&w](const Mat& m) {
    w.push_back(m.rows());
    w.push_back(m.cols());
    for (std::size_t i = 0; i < m.rows(); ++i)
      for (std::size_t j = 0; j < m.cols(); ++j)
        w.push_back(std::bit_cast<std::uint64_t>(m(i, j)));
  };
  push_mat(a_);
  push_mat(b_);
  w.push_back(c_.size());
  for (std::size_t i = 0; i < c_.size(); ++i)
    w.push_back(std::bit_cast<std::uint64_t>(c_[i]));
  push_spec_words(w, spec_);
  return hash_words(0x452821e638d01377ull, w.data(), w.size());
}

Flowpipe LinearVerifier::compute(const Box& x0,
                                 const nn::Controller& ctrl) const {
  const auto* lin = dynamic_cast<const nn::LinearController*>(&ctrl);
  assert(lin && "LinearVerifier requires a LinearController");
  const Mat& k = lin->gain();
  const std::size_t n = a_.rows();
  const bool affine = c_.size() == n;
  const std::size_t m = b_.cols();

  // The closed-loop sub-sample maps x(t_j) = (Ad_j + Bd_j K) x + cd_j
  // depend only on K — hoist them out of the step loop (they used to be
  // rebuilt every period; same arithmetic, computed once per call) and,
  // via compute_batch, out of whole cell batches.
  std::vector<Mat> mj(opt_.subdivisions);
  std::vector<Vec> cd(opt_.subdivisions, Vec(n));
  for (std::size_t j = 0; j < opt_.subdivisions; ++j) {
    const Mat bd = partial_[j].bd.block(0, 0, n, m);
    mj[j] = partial_[j].ad + bd * k;
    if (affine) cd[j] = partial_[j].bd.col(m);
  }
  return compute_with_maps(x0, k, mj, cd);
}

std::vector<Flowpipe> LinearVerifier::compute_batch(
    const geom::Box* x0s, std::size_t count,
    const nn::Controller& ctrl) const {
  const auto* lin = dynamic_cast<const nn::LinearController*>(&ctrl);
  assert(lin && "LinearVerifier requires a LinearController");
  const Mat& k = lin->gain();
  const std::size_t n = a_.rows();
  const bool affine = c_.size() == n;
  const std::size_t m = b_.cols();

  std::vector<Mat> mj(opt_.subdivisions);
  std::vector<Vec> cd(opt_.subdivisions, Vec(n));
  for (std::size_t j = 0; j < opt_.subdivisions; ++j) {
    const Mat bd = partial_[j].bd.block(0, 0, n, m);
    mj[j] = partial_[j].ad + bd * k;
    if (affine) cd[j] = partial_[j].bd.col(m);
  }
  std::vector<Flowpipe> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(compute_with_maps(x0s[i], k, mj, cd));
  return out;
}

Flowpipe LinearVerifier::compute_with_maps(
    const Box& x0, const Mat& k, const std::vector<Mat>& mj,
    const std::vector<Vec>& cd) const {
  const std::size_t n = a_.rows();
  const bool affine = c_.size() == n;

  Flowpipe fp;
  fp.step_sets.reserve(spec_.steps + 1);
  fp.interval_hulls.reserve(spec_.steps);

  Zonotope z = Zonotope::from_box(x0);
  fp.step_sets.push_back(z.bounding_box());
  if (n == 2) fp.step_polys.push_back(z.to_polygon());

  for (std::size_t step = 0; step < spec_.steps; ++step) {
    // Sub-sampled sets within the period:
    // x(t_j) = (Ad_j + Bd_j K) x + cd_j (with u = K x held over the step).
    Box period_hull = z.bounding_box();
    Zonotope z_next = z;
    for (std::size_t j = 0; j < opt_.subdivisions; ++j) {
      Zonotope zj = z.affine(mj[j], cd[j]);
      period_hull = period_hull.hull_with(zj.bounding_box());
      if (j + 1 == opt_.subdivisions) z_next = zj;
    }

    // Curvature bloat: between consecutive sub-samples the trajectory
    // deviates from the chord by at most h^2/8 * max |x''|, with
    // x'' = A (A x + B u) and u = K x held over the step.
    const double h = spec_.delta / static_cast<double>(opt_.subdivisions);
    IVec hull_iv = period_hull.bounds();
    IVec u_iv = interval::mat_ivec(k, z.bounding_box().bounds());
    IVec xdot = interval::mat_ivec(a_, hull_iv);
    const IVec bu = interval::mat_ivec(b_, u_iv);
    for (std::size_t i = 0; i < n; ++i) {
      xdot[i] += bu[i];
      if (affine) xdot[i] += Interval(c_[i]);
    }
    const IVec xddot = interval::mat_ivec(a_, xdot);
    IVec bloated = period_hull.bounds();
    for (std::size_t i = 0; i < n; ++i) {
      const double dev = h * h / 8.0 * xddot[i].mag();
      bloated[i] += Interval(-dev, dev);
    }
    fp.interval_hulls.emplace_back(bloated);

    z = z_next.reduce_order(opt_.max_generators);
    fp.step_sets.push_back(z.bounding_box());
    if (n == 2) fp.step_polys.push_back(z.to_polygon());

    if (spec_.stop_at_goal && spec_.goal.contains(fp.step_sets.back())) {
      return fp;
    }

    if (z.bounding_box().bounds().max_mag() > 1e8) {
      fp.valid = false;
      fp.failure = "linear flowpipe diverged (unstable closed loop)";
      return fp;
    }
  }
  return fp;
}

}  // namespace dwv::reach
