#include "taylor/dual_tm.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace dwv::taylor {

using interval::DualInterval;
using interval::Interval;
using poly::DualPoly;
using poly::Poly;

DualInterval dual_poly_range(const DualTmEnv& env, const DualPoly& p) {
  return poly::dual_range(p, env.dom, env.scratch().dps);
}

DualTm dual_tm_add(const DualTm& a, const DualTm& b) {
  assert(a.p.dirs() == b.p.dirs());
  DualTm r;
  r.p.tan.resize(a.p.dirs());
  Poly::add_into(a.p.val, b.p.val, r.p.val);
  for (std::size_t k = 0; k < a.p.dirs(); ++k) {
    Poly::add_into(a.p.tan[k], b.p.tan[k], r.p.tan[k]);
  }
  r.rem = dual_add(a.rem, b.rem);
  return r;
}

DualTm dual_tm_sub(const DualTm& a, const DualTm& b) {
  assert(a.p.dirs() == b.p.dirs());
  DualTm r;
  r.p.tan.resize(a.p.dirs());
  Poly::sub_into(a.p.val, b.p.val, r.p.val);
  for (std::size_t k = 0; k < a.p.dirs(); ++k) {
    Poly::sub_into(a.p.tan[k], b.p.tan[k], r.p.tan[k]);
  }
  r.rem = dual_sub(a.rem, b.rem);
  return r;
}

DualTm dual_tm_scale_dir(const DualTm& a, double s, std::size_t dir) {
  const std::size_t nd = a.p.dirs();
  DualTm r;
  r.p.val = a.p.val * s;
  r.p.tan.resize(nd);
  for (std::size_t k = 0; k < nd; ++k) {
    r.p.tan[k] = a.p.tan[k] * s;
    if (k == dir) {
      // d(s p) = s dp + p (the weight's own derivative is 1 along dir).
      Poly tmp;
      Poly::add_into(r.p.tan[k], a.p.val, tmp);
      r.p.tan[k] = std::move(tmp);
    }
  }
  DualInterval si = DualInterval::constant(Interval(s), nd);
  if (dir != kNoDir) {
    si.dlo[dir] = 1.0;
    si.dhi[dir] = 1.0;
  }
  r.rem = dual_mul(a.rem, si);
  return r;
}

DualTm dual_tm_scale(const DualTm& a, double s) {
  return dual_tm_scale_dir(a, s, kNoDir);
}

namespace {

// The full-channel tail of dual_tm_truncate_inplace, for a kernel that
// already left tm's terms above env.order in s.dropped (every channel):
// ranges the degree tail, then the value channel's cutoff sweep, and folds
// both into tm.rem (the same queries and tape push, in the same order, as
// the sweep-based truncation).
void fold_truncation_tail(const DualTmEnv& env, DualTm& tm) {
  DualTmScratch& s = env.scratch();
  const std::size_t nd = env.dirs;
  assert(s.dropped.dirs() == nd);
  bool tan_dropped = false;
  for (std::size_t k = 0; k < nd; ++k) {
    tan_dropped = tan_dropped || !s.dropped.tan[k].is_zero();
  }

  DualInterval extra = DualInterval::constant(Interval(0.0), nd);
  const bool val_dropped = !s.dropped.val.is_zero();
  if (val_dropped || tan_dropped) {
    const DualInterval dr = poly::dual_range(s.dropped, env.dom, s.dps);
    if (val_dropped) {
      extra = dual_add(extra, dr);
    } else {
      // Scalar code skips the range query entirely (dropped poly empty);
      // the value channel must keep skipping, tangents still accrue.
      dual_add_tangents(extra, dr);
    }
  }

  if (env.cutoff > 0.0) {
    // Value-channel sweep exactly as scalar. Tangent terms of the pruned
    // keys stay in the tangent polynomials: a +-h perturbation puts the
    // coefficient at ~h*dc, far above the cutoff, so perturbed runs KEEP
    // the term — the kept-path derivative is what central differences see.
    tm.p.val.prune_small_into(env.cutoff, s.small);
    if (!s.small.is_zero()) {
      extra = dual_add(
          extra, DualInterval::constant(s.small.eval_range(env.dom), nd));
    }
  }
  if (s.rem_tape.recording()) s.rem_tape.push(extra);
  tm.rem = dual_add(tm.rem, extra);
}

// The poly_only truncation of a kernel's output: the degree cap was already
// applied by the kernel, so only the value channel's cutoff prune is left.
void prune_value_channel(const DualTmEnv& env, DualTm& tm) {
  tm.rem = DualInterval::constant(Interval(0.0), env.dirs);
  tm.p.val.truncate_discard(poly::kNoDegreeCap, env.cutoff);
}

}  // namespace

void dual_tm_truncate_inplace(const DualTmEnv& env, DualTm& tm) {
  DualTmScratch& s = env.scratch();
  const std::size_t nd = env.dirs;
  if (s.rem_tape.replaying()) {
    // The polys (and hence the tail) repeat the recorded pass bitwise.
    tm.rem = dual_add(tm.rem, s.rem_tape.next());
    return;
  }
  if (s.poly_only) {
    // Same kept terms as the split + sweep below, without the dropped
    // buffers or their (dead) ranges.
    tm.p.val.truncate_discard(env.order, env.cutoff);
    for (std::size_t k = 0; k < nd; ++k) {
      tm.p.tan[k].truncate_discard(env.order, 0.0);
    }
    return;
  }
  // Degree split is structural (theta-independent), so both channels split.
  tm.p.val.split_by_degree_into(env.order, s.dropped.val);
  s.dropped.tan.resize(nd);
  for (std::size_t k = 0; k < nd; ++k) {
    tm.p.tan[k].split_by_degree_into(env.order, s.dropped.tan[k]);
  }
  fold_truncation_tail(env, tm);
}

void dual_tm_mul_into(const DualTmEnv& env, const DualTm& a, const DualTm& b,
                      DualTm& out) {
  assert(&out != &a && &out != &b);
  assert(a.p.dirs() == env.dirs);
  DualTmScratch& s = env.scratch();
  // ra * b.rem + rb * a.rem + a.rem * b.rem, left-associated as scalar.
  const auto remainder = [&](const DualInterval& ra, const DualInterval& rb) {
    out.rem = dual_add(dual_add(dual_mul(ra, b.rem), dual_mul(rb, a.rem)),
                       dual_mul(a.rem, b.rem));
  };
  if (s.rem_tape.replaying()) {
    const DualInterval& ra = s.rem_tape.next();
    remainder(ra, s.rem_tape.next());
    dual_tm_truncate_inplace(env, out);
    return;
  }
  // The kernel truncates while it multiplies: every channel's products
  // above env.order are never formed (poly_only) or land straight in
  // s.dropped.
  if (s.poly_only) {
    poly::dual_mul_trunc_into(a.p, b.p, env.order, out.p, nullptr, s.dps);
    prune_value_channel(env, out);
    return;
  }
  poly::dual_mul_trunc_into(a.p, b.p, env.order, out.p, &s.dropped, s.dps);
  const DualInterval ra = dual_poly_range(env, a.p);
  const DualInterval rb = dual_poly_range(env, b.p);
  if (s.rem_tape.recording()) {
    s.rem_tape.push(ra);
    s.rem_tape.push(rb);
  }
  remainder(ra, rb);
  fold_truncation_tail(env, out);
}

void dual_tm_pow_into(const DualTmEnv& env, const DualTm& a, std::uint32_t n,
                      DualTm& out) {
  assert(&out != &a);
  DualTmScratch& s = env.scratch();
  // In replay mode the copies below move only the remainder (as in
  // tm_pow_into: the poly channel is never read).
  const bool rp = s.rem_tape.replaying();
  switch (n) {
    case 0:
      if (rp) out.rem = DualInterval::constant(Interval(0.0), env.dirs);
      else out.assign_constant(env.nvars(), env.dirs, 1.0, nullptr);
      return;
    case 1:
      if (rp) out.rem = a.rem;
      else out = a;
      return;
    case 2:
      dual_tm_mul_into(env, a, a, out);
      return;
    case 3:
      dual_tm_mul_into(env, a, a, s.pow_tmp);
      dual_tm_mul_into(env, s.pow_tmp, a, out);
      return;
    default:
      break;
  }
  if (rp) s.pow_base.rem = a.rem;
  else s.pow_base = a;
  bool has_r = false;
  std::uint32_t k = n;
  while (k > 0) {
    if (k & 1u) {
      if (!has_r) {
        if (rp) out.rem = s.pow_base.rem;
        else out = s.pow_base;
        has_r = true;
      } else {
        dual_tm_mul_into(env, out, s.pow_base, s.pow_tmp);
        std::swap(out, s.pow_tmp);
      }
    }
    k >>= 1u;
    if (k) {
      dual_tm_mul_into(env, s.pow_base, s.pow_base, s.pow_tmp);
      std::swap(s.pow_base, s.pow_tmp);
    }
  }
}

DualInterval dual_tm_range(const DualTmEnv& env, const DualTm& tm) {
  return dual_add(dual_poly_range(env, tm.p), tm.rem);
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
    if (!rp) {
      Poly::add_into(s.acc.p.val, s.term.p.val, s.add_out.p.val);
      s.add_out.p.tan.resize(nd);
      for (std::size_t k = 0; k < nd; ++k) {
        Poly::add_into(s.acc.p.tan[k], s.term.p.tan[k], s.add_out.p.tan[k]);
      }
    }
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
    se.range_mode = poly::RangeMode::kSeedIdentical;
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
  assert(time_var < env.nvars());
  assert(&out != &tm);
  DualTmScratch& s = env.scratch();
  const std::size_t nd = env.dirs;
  const double tmax = env.dom[time_var].mag();
  // integral_0^tau e dtau' for |tau| <= tmax: in hull(0, rem * tmax).
  const auto transport = [&] {
    out.rem = dual_hull(DualInterval::constant(Interval(0.0), nd),
                        dual_mul_const(tm.rem, Interval(tmax)));
  };
  if (s.rem_tape.replaying()) {
    transport();
    dual_tm_truncate_inplace(env, out);
    return;
  }
  const std::size_t nv = tm.p.val.nvars();
  out.p.reset(nv, nd);
  s.dropped.reset(nv, nd);
  const std::uint64_t unit = 1ull << poly::key_shift(nv, time_var);
  const std::uint32_t cap = poly::key_max_exp(nv);
  // Terms the +1 degree lifts past env.order go straight to the truncation
  // tail (poly_only: nowhere), sparing dual_tm_truncate_inplace's split
  // sweep.
  const auto integrate_channel = [&](const Poly& in, Poly& dst, Poly& drop) {
    for (const auto& [key, c] : in.terms()) {
      const std::uint32_t e2t = poly::key_exp(key, nv, time_var) + 1;
      if (e2t > cap) {
        throw std::overflow_error(
            "tm_integrate_time: time exponent exceeds the packed-key budget");
      }
      const double q = c / static_cast<double>(e2t);
      if (q == 0.0) continue;
      if (poly::key_degree(key + unit, nv) <= env.order)
        dst.push_term(key + unit, q);
      else if (!s.poly_only)
        drop.push_term(key + unit, q);
    }
  };
  integrate_channel(tm.p.val, out.p.val, s.dropped.val);
  for (std::size_t k = 0; k < nd; ++k) {
    integrate_channel(tm.p.tan[k], out.p.tan[k], s.dropped.tan[k]);
  }
  if (s.poly_only) {
    prune_value_channel(env, out);
    return;
  }
  transport();
  fold_truncation_tail(env, out);
}

void dual_tm_subst_last_into(const DualTmEnv& env, const DualTm& tm, double c,
                             DualTm& out) {
  const std::size_t nd = env.dirs;
  const std::size_t nv = tm.p.val.nvars();
  assert(nv >= 1);
  assert(&out != &tm);
  const std::size_t new_nv = nv - 1;
  out.p.reset(new_nv, nd);
  poly::PolyScratch& ps = env.scratch().dps.ps;
  std::vector<poly::Term>& buf = ps.prod;
  const std::uint32_t new_bits = poly::key_bits(new_nv);
  const auto subst_channel = [&](const Poly& in, Poly& dst) {
    buf.clear();
    for (const auto& [key, coeff] : in.terms()) {
      double scale = 1.0;
      const std::uint32_t e = poly::key_exp(key, nv, nv - 1);
      for (std::uint32_t k = 0; k < e; ++k) scale *= c;
      std::uint64_t k2 = 0;
      for (std::size_t i = 0; i < new_nv; ++i) {
        k2 = (k2 << new_bits) |
             static_cast<std::uint64_t>(poly::key_exp(key, nv, i));
      }
      buf.push_back({k2, coeff * scale});
    }
    Poly::coalesce_into(buf, dst);
  };
  subst_channel(tm.p.val, out.p.val);
  for (std::size_t k = 0; k < nd; ++k) {
    subst_channel(tm.p.tan[k], out.p.tan[k]);
  }
  out.rem = tm.rem;
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
      Poly tmp;
      Poly::add_into(acc.p.tan[k], in[j].p.val, tmp);
      acc.p.tan[k] = std::move(tmp);
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
  std::vector<DualInterval> r(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) r[i] = dual_tm_range(env, v[i]);
  return r;
}

}  // namespace dwv::taylor
