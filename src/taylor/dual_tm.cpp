#include "taylor/dual_tm.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "taylor/tm_kernels.hpp"

namespace dwv::taylor {

using interval::DualInterval;
using interval::Interval;
using poly::DualPoly;
using poly::Poly;
using D = detail::DualOps;

DualTm dual_tm_add(const DualTm& a, const DualTm& b) {
  DualTm r;
  poly::dual_add_into(a.p, b.p, r.p);
  r.rem = dual_add(a.rem, b.rem);
  return r;
}

DualTm dual_tm_scale_dir(const DualTm& a, double s, std::size_t dir) {
  const std::size_t nd = a.p.dirs();
  DualTm r;
  r.p.val = a.p.val * s;
  r.p.tan.resize(nd);
  for (std::size_t k = 0; k < nd; ++k) {
    r.p.tan[k] = a.p.tan[k] * s;
    // d(s p) = s dp + p (the weight's own derivative is 1 along dir).
    if (k == dir) r.p.tan[k] += a.p.val;
  }
  DualInterval si = DualInterval::constant(Interval(s), nd);
  if (dir != kNoDir) {
    si.dlo[dir] = 1.0;
    si.dhi[dir] = 1.0;
  }
  r.rem = dual_mul(a.rem, si);
  return r;
}

void dual_tm_truncate_inplace(const DualTmEnv& env, DualTm& tm) {
  detail::truncate_inplace<D>(env, tm);
}

void dual_tm_mul_into(const DualTmEnv& env, const DualTm& a, const DualTm& b,
                      DualTm& out) {
  detail::mul_into<D>(env, a, b, out);
}

void dual_tm_pow_into(const DualTmEnv& env, const DualTm& a, std::uint32_t n,
                      DualTm& out) {
  detail::pow_into<D>(env, a, n, out);
}

DualInterval dual_tm_range(const DualTmEnv& env, const DualTm& tm) {
  return detail::range<D>(env, tm);
}

void dual_tm_eval_poly_into(const DualTmEnv& env, const DualPoly& f,
                            const DualTmVec& args, DualTm& out) {
  assert(f.val.nvars() == args.size());
  DualTmScratch& s = env.scratch();
  const std::size_t nd = env.dirs;
  const std::size_t fn = f.val.nvars();
  // Replay: same op sequence, remainder arithmetic only (tm_eval_poly_into).
  const bool rp = s.rem_tape.replaying();
  const DualInterval zero = DualInterval::constant(Interval(0.0), nd);

  if (rp) s.acc.rem = zero;
  else s.acc.assign_constant(env.nvars(), nd, 0.0, nullptr);
  double dc[DualInterval::kMaxDirs];
  // Merge cursors into f's tangent channels: f's keys ascend.
  std::size_t cur[DualInterval::kMaxDirs] = {};
  for (const auto& [key, c] : f.val.terms()) {
    if (rp) {
      s.term.rem = zero;
    } else {
      for (std::size_t k = 0; k < nd; ++k) {
        dc[k] = poly::coeff_at_cursor(f.tan[k], cur[k], key);
      }
      s.term.assign_constant(env.nvars(), nd, c, dc);
    }
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::uint32_t e = poly::key_exp(key, fn, i);
      if (e == 1) {
        dual_tm_mul_into(env, s.term, args[i], s.mul_out);
        std::swap(s.term, s.mul_out);
      } else if (e > 1) {
        dual_tm_pow_into(env, args[i], e, s.pow_out);
        dual_tm_mul_into(env, s.term, s.pow_out, s.mul_out);
        std::swap(s.term, s.mul_out);
      }
    }
    if (!rp) poly::dual_add_into(s.acc.p, s.term.p, s.add_out.p);
    s.add_out.rem = dual_add(s.acc.rem, s.term.rem);
    std::swap(s.acc, s.add_out);
  }

  // Keys present only in f's tangent channel (coefficient exactly 0 at the
  // current parameters, derivative nonzero — e.g. a controller gain at 0).
  // The value channel never sees them; the tangents pick up
  // dc * (monomial product over the argument VALUE channels), evaluated at
  // coefficient 1 through the scalar kernels in the private side env. The
  // remainder-channel sensitivity is the central-difference limit
  // dc * mid2(prod.rem) on both endpoints (dual_interval.hpp). The side
  // env's kernels run in this scratch's mode: poly_only, or replaying the
  // side tape that tape_record/tape_replay keep in step with ours.
  poly::tangent_only_keys(f, s.fkeys);
  if (!s.fkeys.empty()) {
    TmEnv& se = s.side_env;
    se.dom = env.dom;
    se.order = env.order;
    se.cutoff = env.cutoff;
    se.scratch().poly_only = s.poly_only;
    s.side_args.resize(args.size());
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (!rp) s.side_args[i].poly = args[i].p.val;
      s.side_args[i].rem = args[i].rem.v;
    }
    std::fill(cur, cur + nd, 0);
    for (std::uint64_t key : s.fkeys) {
      s.side_term.assign_constant(env.nvars(), 1.0);
      for (std::size_t i = 0; i < args.size(); ++i) {
        const std::uint32_t e = poly::key_exp(key, fn, i);
        if (e == 1) {
          tm_mul_into(se, s.side_term, s.side_args[i], s.side_mul);
          std::swap(s.side_term, s.side_mul);
        } else if (e > 1) {
          tm_pow_into(se, s.side_args[i], e, s.side_pow);
          tm_mul_into(se, s.side_term, s.side_pow, s.side_mul);
          std::swap(s.side_term, s.side_mul);
        }
      }
      const double m2 = interval::mid2(s.side_term.rem);
      for (std::size_t k = 0; k < nd; ++k) {
        const double d = poly::coeff_at_cursor(f.tan[k], cur[k], key);
        if (d == 0.0) continue;
        if (!rp) {
          s.dps.t1 = s.side_term.poly;
          s.dps.t1 *= d;
          Poly::add_into(s.acc.p.tan[k], s.dps.t1, s.dps.t2);
          std::swap(s.acc.p.tan[k], s.dps.t2);
        }
        s.acc.rem.dlo[k] += d * m2;
        s.acc.rem.dhi[k] += d * m2;
      }
    }
    se.scratch().poly_only = false;
  }

  std::swap(out, s.acc);
  dual_tm_truncate_inplace(env, out);
}

void dual_tm_integrate_time_into(const DualTmEnv& env, const DualTm& tm,
                                 std::size_t time_var, DualTm& out) {
  detail::integrate_time_into<D>(env, tm, time_var, out);
}

void dual_tm_subst_last_into(const DualTmEnv& env, const DualTm& tm, double c,
                             DualTm& out) {
  detail::subst_last_into<D>(env, tm, c, out);
}

DualTm dual_tm_affine(const DualTmEnv& env, const DualTmVec& in,
                      const linalg::Vec& w,
                      const std::vector<std::size_t>& wdir, double b) {
  assert(in.size() == w.size() && wdir.size() == w.size());
  const std::size_t nd = env.dirs;
  DualTm acc;
  acc.assign_constant(env.nvars(), nd, b, nullptr);
  for (std::size_t j = 0; j < in.size(); ++j) {
    if (w[j] != 0.0) {
      acc = dual_tm_add(acc, dual_tm_scale_dir(in[j], w[j], wdir[j]));
    } else if (wdir[j] != kNoDir) {
      // Scalar code skips w_j == 0; the value channel must too. The
      // contribution's derivative along wdir[j] is in_j itself (w d(in_j)
      // vanishes at w = 0): value-channel poly into the tangent poly,
      // mid2(in_j.rem) onto both remainder endpoints.
      const std::size_t k = wdir[j];
      acc.p.tan[k] += in[j].p.val;
      const double m2 = interval::mid2(in[j].rem.v);
      acc.rem.dlo[k] += m2;
      acc.rem.dhi[k] += m2;
    }
  }
  dual_tm_truncate_inplace(env, acc);
  return acc;
}

std::vector<DualInterval> dual_tm_vec_range(const DualTmEnv& env,
                                            const DualTmVec& v) {
  return detail::vec_range<D>(env, v);
}

}  // namespace dwv::taylor
