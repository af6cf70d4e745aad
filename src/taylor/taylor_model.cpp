#include "taylor/taylor_model.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace dwv::taylor {

using interval::Interval;
using poly::Poly;

TaylorModel tm_add(const TaylorModel& a, const TaylorModel& b) {
  return {a.poly + b.poly, a.rem + b.rem};
}

TaylorModel tm_sub(const TaylorModel& a, const TaylorModel& b) {
  return {a.poly - b.poly, a.rem - b.rem};
}

TaylorModel tm_scale(const TaylorModel& a, double s) {
  return {a.poly * s, a.rem * Interval(s)};
}

TaylorModel tm_add_const(const TaylorModel& a, double c) {
  TaylorModel r = a;
  r.poly.add_term(poly::Exponents(r.poly.nvars(), 0), c);
  return r;
}

namespace {

// The full-channel tail of tm_truncate_inplace, for a kernel that already
// left tm's terms above env.order in s.dropped: ranges the degree tail, then
// the cutoff sweep of tm.poly, and folds both into tm.rem (same queries and
// tape push, in the same order, as the sweep-based truncation).
void fold_truncation_tail(const TmEnv& env, TaylorModel& tm) {
  TmScratch& s = env.scratch();
  Interval extra(0.0);
  if (!s.dropped.is_zero()) extra += env.poly_range(s.dropped);
  if (env.cutoff > 0.0) {
    tm.poly.prune_small_into(env.cutoff, s.small);
    if (!s.small.is_zero()) extra += env.poly_range(s.small);
  }
  if (s.rem_tape.recording()) s.rem_tape.push(extra);
  tm.rem += extra;
}

}  // namespace

void tm_truncate_inplace(const TmEnv& env, TaylorModel& tm) {
  TmScratch& s = env.scratch();
  if (s.rem_tape.replaying()) {
    // The poly (and hence its truncation tail) is bitwise-identical to the
    // recorded pass, so the taped tail range is the exact value the sweep
    // would recompute. The poly itself is left untouched.
    tm.rem += s.rem_tape.next();
    return;
  }
  if (s.poly_only) {
    // The truncation itself is polynomial-channel work; only ranging the
    // swept-away pieces feeds the (dead) remainder, so the sweeps fuse into
    // one discard pass.
    tm.poly.truncate_discard(env.order, env.cutoff);
    return;
  }
  tm.poly.split_by_degree_into(env.order, s.dropped);
  fold_truncation_tail(env, tm);
}

TaylorModel tm_truncate(const TmEnv& env, TaylorModel tm) {
  tm_truncate_inplace(env, tm);
  return tm;
}

void tm_mul_into(const TmEnv& env, const TaylorModel& a, const TaylorModel& b,
                 TaylorModel& out) {
  assert(&out != &a && &out != &b);
  TmScratch& s = env.scratch();
  if (s.rem_tape.replaying()) {
    const Interval ra = s.rem_tape.next();
    const Interval rb = s.rem_tape.next();
    out.rem = ra * b.rem + rb * a.rem + a.rem * b.rem;
    tm_truncate_inplace(env, out);
    return;
  }
  // The kernel truncates while it multiplies: products above env.order
  // are never formed (poly_only) or land straight in s.dropped.
  if (s.poly_only) {
    Poly::mul_trunc_into(a.poly, b.poly, env.order, out.poly, nullptr,
                         s.pscratch);
    out.rem = Interval(0.0);
    out.poly.truncate_discard(poly::kNoDegreeCap, env.cutoff);  // prune only
    return;
  }
  // (pa + Ia)(pb + Ib) = pa pb + pa Ib + pb Ia + Ia Ib.
  Poly::mul_trunc_into(a.poly, b.poly, env.order, out.poly, &s.dropped,
                       s.pscratch);
  const Interval ra = env.poly_range(a.poly);
  const Interval rb = env.poly_range(b.poly);
  if (s.rem_tape.recording()) {
    s.rem_tape.push(ra);
    s.rem_tape.push(rb);
  }
  out.rem = ra * b.rem + rb * a.rem + a.rem * b.rem;
  fold_truncation_tail(env, out);
}

TaylorModel tm_mul(const TmEnv& env, const TaylorModel& a,
                   const TaylorModel& b) {
  TaylorModel r;
  tm_mul_into(env, a, b, r);
  return r;
}

void tm_pow_into(const TmEnv& env, const TaylorModel& a, std::uint32_t n,
                 TaylorModel& out) {
  assert(&out != &a);
  TmScratch& s = env.scratch();
  // In replay mode the copies below move only the remainder: the poly
  // channel is never read (tm_mul_into takes its operand ranges from the
  // tape) and output polys are dead.
  const bool rp = s.rem_tape.replaying();
  switch (n) {
    case 0:
      if (rp) out.rem = Interval(0.0);
      else out.assign_constant(env.nvars(), 1.0);
      return;
    case 1:
      if (rp) out.rem = a.rem;
      else out = a;
      return;
    case 2:
      tm_mul_into(env, a, a, out);
      return;
    case 3:
      // Legacy left-to-right chain ((a*a)*a), kept bit-identical.
      tm_mul_into(env, a, a, s.pow_tmp);
      tm_mul_into(env, s.pow_tmp, a, out);
      return;
    default:
      break;
  }
  // Square-and-multiply; tm_mul truncates, so each squaring is truncated.
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
        tm_mul_into(env, out, s.pow_base, s.pow_tmp);
        std::swap(out, s.pow_tmp);
      }
    }
    k >>= 1u;
    if (k) {
      tm_mul_into(env, s.pow_base, s.pow_base, s.pow_tmp);
      std::swap(s.pow_base, s.pow_tmp);
    }
  }
}

TaylorModel tm_pow(const TmEnv& env, const TaylorModel& a, std::uint32_t n) {
  TaylorModel r;
  tm_pow_into(env, a, n, r);
  return r;
}

interval::Interval tm_range(const TmEnv& env, const TaylorModel& tm) {
  return env.poly_range(tm.poly) + tm.rem;
}

void tm_eval_poly_into(const TmEnv& env, const poly::Poly& f,
                       const TmVec& args, TaylorModel& out) {
  assert(f.nvars() == args.size());
  TmScratch& s = env.scratch();
  // Replay: same op sequence (f's terms and exponents fix the loop shape),
  // remainder arithmetic only; the poly adds are dead in replay because
  // every consumer takes its poly-derived constants from the tape.
  const bool rp = s.rem_tape.replaying();
  if (rp) s.acc.rem = Interval(0.0);
  else s.acc.assign_constant(env.nvars(), 0.0);
  for (const auto& [key, c] : f.terms()) {
    if (rp) s.term.rem = Interval(0.0);
    else s.term.assign_constant(env.nvars(), c);
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::uint32_t e = poly::key_exp(key, f.nvars(), i);
      if (e == 1) {
        // a^1 is a; multiplying by the argument directly skips tm_pow's
        // copy of it (the mul reads the same operand values either way).
        tm_mul_into(env, s.term, args[i], s.mul_out);
        std::swap(s.term, s.mul_out);
      } else if (e > 1) {
        tm_pow_into(env, args[i], e, s.pow_out);
        tm_mul_into(env, s.term, s.pow_out, s.mul_out);
        std::swap(s.term, s.mul_out);
      }
    }
    if (!rp) Poly::add_into(s.acc.poly, s.term.poly, s.add_out.poly);
    s.add_out.rem = s.acc.rem + s.term.rem;
    std::swap(s.acc, s.add_out);
  }
  std::swap(out, s.acc);
  tm_truncate_inplace(env, out);
}

TaylorModel tm_eval_poly(const TmEnv& env, const poly::Poly& f,
                         const TmVec& args) {
  TaylorModel r;
  tm_eval_poly_into(env, f, args, r);
  return r;
}

void tm_integrate_time_into(const TmEnv& env, const TaylorModel& tm,
                            std::size_t time_var, TaylorModel& out) {
  assert(time_var < env.nvars());
  assert(&out != &tm);
  if (env.scratch().rem_tape.replaying()) {
    const double rtmax = env.dom[time_var].mag();
    out.rem = interval::hull(Interval(0.0), tm.rem * Interval(rtmax));
    tm_truncate_inplace(env, out);
    return;
  }
  TmScratch& s = env.scratch();
  const std::size_t nv = tm.poly.nvars();
  out.poly.reset(nv);
  s.dropped.reset(nv);
  const std::uint64_t unit = 1ull << poly::key_shift(nv, time_var);
  const std::uint32_t cap = poly::key_max_exp(nv);
  // Adding `unit` to every key preserves order and injectivity, so terms
  // can be appended directly; zero quotients are skipped like add_term.
  // Terms the +1 degree lifts past env.order go straight to the truncation
  // tail (poly_only: nowhere), sparing tm_truncate_inplace's split sweep.
  for (const auto& [key, c] : tm.poly.terms()) {
    const std::uint32_t e2t = poly::key_exp(key, nv, time_var) + 1;
    if (e2t > cap) {
      throw std::overflow_error(
          "tm_integrate_time: time exponent exceeds the packed-key budget");
    }
    const double q = c / static_cast<double>(e2t);
    if (q == 0.0) continue;
    if (poly::key_degree(key + unit, nv) <= env.order)
      out.poly.push_term(key + unit, q);
    else if (!s.poly_only)
      s.dropped.push_term(key + unit, q);
  }
  // integral_0^tau e dtau' for |tau| <= tmax: contained in hull(0, rem*tmax).
  if (s.poly_only) {
    out.rem = Interval(0.0);
    out.poly.truncate_discard(poly::kNoDegreeCap, env.cutoff);  // prune only
    return;
  }
  const double tmax = env.dom[time_var].mag();
  out.rem = interval::hull(Interval(0.0), tm.rem * Interval(tmax));
  fold_truncation_tail(env, out);
}

TaylorModel tm_integrate_time(const TmEnv& env, const TaylorModel& tm,
                              std::size_t time_var) {
  TaylorModel r;
  tm_integrate_time_into(env, tm, time_var, r);
  return r;
}

void tm_subst_var_into(const TmEnv& env, const TaylorModel& tm,
                       std::size_t var, double c, TaylorModel& out) {
  assert(var < env.nvars());
  assert(env.dom[var].contains(c) && "substitution outside domain");
  assert(&out != &tm);
  const std::size_t nv = tm.poly.nvars();
  out.poly.reset(nv);
  poly::PolyScratch& ps = env.scratch().pscratch;
  std::vector<poly::Term>& buf = ps.prod;
  buf.clear();
  const std::uint64_t mask = poly::key_field_mask(nv)
                             << poly::key_shift(nv, var);
  for (const auto& [key, coeff] : tm.poly.terms()) {
    double scale = 1.0;
    const std::uint32_t e = poly::key_exp(key, nv, var);
    for (std::uint32_t k = 0; k < e; ++k) scale *= c;
    buf.push_back({key & ~mask, coeff * scale});
  }
  // Clearing the last variable's (least significant) field keeps keys
  // sorted; clearing any other field needs a stable re-sort so equal keys
  // stay in the original accumulation order.
  if (var + 1 != nv) poly::stable_sort_terms(buf, ps.tmp);
  Poly::coalesce_into(buf, out.poly);
  out.rem = tm.rem;
}

TaylorModel tm_subst_var(const TmEnv& env, const TaylorModel& tm,
                         std::size_t var, double c) {
  TaylorModel r;
  tm_subst_var_into(env, tm, var, c, r);
  return r;
}

void tm_subst_last_into(const TmEnv& env, const TaylorModel& tm, double c,
                        TaylorModel& out) {
  const std::size_t nv = tm.poly.nvars();
  assert(nv >= 1);
  assert(env.dom[nv - 1].contains(c) && "substitution outside domain");
  assert(&out != &tm);
  const std::size_t new_nv = nv - 1;
  out.poly.reset(new_nv);
  poly::PolyScratch& ps = env.scratch().pscratch;
  std::vector<poly::Term>& buf = ps.prod;
  buf.clear();
  const std::uint32_t new_bits = poly::key_bits(new_nv);
  for (const auto& [key, coeff] : tm.poly.terms()) {
    // Same repeated-multiplication power as tm_subst_var_into.
    double scale = 1.0;
    const std::uint32_t e = poly::key_exp(key, nv, nv - 1);
    for (std::uint32_t k = 0; k < e; ++k) scale *= c;
    // Re-pack without the substituted (least significant) field. Dropping a
    // field widens the per-field layout, so no exponent can overflow.
    std::uint64_t k2 = 0;
    for (std::size_t i = 0; i < new_nv; ++i) {
      k2 = (k2 << new_bits) |
           static_cast<std::uint64_t>(poly::key_exp(key, nv, i));
    }
    buf.push_back({k2, coeff * scale});
  }
  Poly::coalesce_into(buf, out.poly);
  out.rem = tm.rem;
}

double tm_eval_mid(const TaylorModel& tm, const linalg::Vec& x) {
  return tm.poly.eval(x);
}

interval::IVec tm_vec_range(const TmEnv& env, const TmVec& v) {
  interval::IVec r(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) r[i] = tm_range(env, v[i]);
  return r;
}

}  // namespace dwv::taylor
