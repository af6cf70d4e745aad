#include "taylor/taylor_model.hpp"

#include <cassert>
#include <utility>

#include "taylor/tm_kernels.hpp"

namespace dwv::taylor {

using interval::Interval;
using poly::Poly;
using S = detail::ScalarOps;

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

void tm_truncate_inplace(const TmEnv& env, TaylorModel& tm) {
  detail::truncate_inplace<S>(env, tm);
}

TaylorModel tm_truncate(const TmEnv& env, TaylorModel tm) {
  tm_truncate_inplace(env, tm);
  return tm;
}

void tm_mul_into(const TmEnv& env, const TaylorModel& a, const TaylorModel& b,
                 TaylorModel& out) {
  detail::mul_into<S>(env, a, b, out);
}

TaylorModel tm_mul(const TmEnv& env, const TaylorModel& a,
                   const TaylorModel& b) {
  TaylorModel r;
  tm_mul_into(env, a, b, r);
  return r;
}

void tm_pow_into(const TmEnv& env, const TaylorModel& a, std::uint32_t n,
                 TaylorModel& out) {
  detail::pow_into<S>(env, a, n, out);
}

TaylorModel tm_pow(const TmEnv& env, const TaylorModel& a, std::uint32_t n) {
  TaylorModel r;
  tm_pow_into(env, a, n, r);
  return r;
}

interval::Interval tm_range(const TmEnv& env, const TaylorModel& tm) {
  return detail::range<S>(env, tm);
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
  // tm_eval_poly_into swapped the scratch accumulator's buffer into r: hand
  // it back and return an exact-size copy, so a warm call allocates only
  // the result's terms.
  TaylorModel out = r;
  std::swap(env.scratch().acc, r);
  return out;
}

void tm_integrate_time_into(const TmEnv& env, const TaylorModel& tm,
                            std::size_t time_var, TaylorModel& out) {
  detail::integrate_time_into<S>(env, tm, time_var, out);
}

TaylorModel tm_integrate_time(const TmEnv& env, const TaylorModel& tm,
                              std::size_t time_var) {
  TaylorModel r;
  tm_integrate_time_into(env, tm, time_var, r);
  return r;
}

void tm_subst_last_into(const TmEnv& env, const TaylorModel& tm, double c,
                        TaylorModel& out) {
  detail::subst_last_into<S>(env, tm, c, out);
}

interval::IVec tm_vec_range(const TmEnv& env, const TmVec& v) {
  return detail::vec_range<S>(env, v);
}

}  // namespace dwv::taylor
