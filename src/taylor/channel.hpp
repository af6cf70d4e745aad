// The two coefficient channels of the Taylor-model arithmetic (internal to
// src/): ScalarOps over TaylorModel / Interval and DualOps over DualTm /
// DualInterval. The kernel templates (taylor/tm_kernels.hpp) and the
// validated step (reach/picard_step.hpp, whose ScalarChannel / DualChannel
// derive from these) are written once over them, so every remainder and
// poly op below is the one both use, and a dual computation's value channel
// runs the scalar operations one for one (DESIGN.md §12).
//
// A channel C supplies:
//  - types Env, Tm (the model), Vec (a vector of models), P (a model's
//    polynomial), Rem (its remainder) and Box (a vector of ranges);
//  - poly(tm), value(p or rem) (the value channel) and tangents_equal;
//  - each(f, p...), which calls f(is_value, channel...) on the value
//    channel of every p and then on each tangent in turn;
//  - the poly ops reset, size_dirs (sizes a poly's tangent list to
//    env.dirs), poly_add, poly_sub, mul_trunc, pscratch (the Poly-layer
//    scratch), poly_range and value_range (the range of a value-channel
//    polynomial, as a Rem);
//  - the remainder ops zero(env), symmetric(env, r), one(env, tm) (tm = 1),
//    add, sub, mul, mul_const, hull, widen and add_tangents (adds only the
//    tangents; a no-op on the scalar channel).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "interval/dual_interval.hpp"
#include "poly/dual_poly.hpp"
#include "taylor/dual_tm.hpp"
#include "taylor/taylor_model.hpp"

namespace dwv::taylor::detail {

struct ScalarOps {
  using Env = TmEnv;
  using Tm = TaylorModel;
  using Vec = TmVec;
  using P = poly::Poly;
  using Rem = interval::Interval;
  using Box = interval::IVec;

  static P& poly(Tm& tm) { return tm.poly; }
  static const P& poly(const Tm& tm) { return tm.poly; }
  static P& value(P& p) { return p; }
  static const P& value(const P& p) { return p; }
  static const Rem& value(const Rem& r) { return r; }
  static bool tangents_equal(const P&, const P&) { return true; }
  template <class F, class... Ps>
  static void each(F&& f, Ps&... p) { f(true, p...); }

  static void reset(const Env&, P& p, std::size_t nvars) { p.reset(nvars); }
  static void size_dirs(const Env&, P&) {}
  static constexpr auto poly_add = &P::add_into;
  static constexpr auto poly_sub = &P::sub_into;
  static void mul_trunc(const P& a, const P& b, std::uint32_t max_degree,
                        P& out, P* dropped, TmScratch& s) {
    P::mul_trunc_into(a, b, max_degree, out, dropped, s.pscratch);
  }
  static poly::PolyScratch& pscratch(TmScratch& s) { return s.pscratch; }
  static Rem poly_range(const Env& env, const P& p) {
    return env.poly_range(p);
  }
  static Rem value_range(const Env& env, const P& p) {
    return env.poly_range(p);
  }

  static Rem zero(const Env&) { return Rem(0.0); }
  static Rem symmetric(const Env&, double r) { return Rem::symmetric(r); }
  static void one(const Env& env, Tm& tm) {
    tm.assign_constant(env.nvars(), 1.0);
  }
  static Rem add(const Rem& a, const Rem& b) { return a + b; }
  static Rem sub(const Rem& a, const Rem& b) { return a - b; }
  static Rem mul(const Rem& a, const Rem& b) { return a * b; }
  static Rem mul_const(const Rem& a, const Rem& c) { return a * c; }
  static Rem hull(const Rem& a, const Rem& b) { return interval::hull(a, b); }
  static Rem widen(const Rem& v, double factor, double bump) {
    const double r = v.rad() * factor + bump;
    const double m = v.mid();
    return Rem(m - r, m + r);
  }
  static void add_tangents(Rem&, const Rem&) {}
};

struct DualOps {
  using Env = DualTmEnv;
  using Tm = DualTm;
  using Vec = DualTmVec;
  using P = poly::DualPoly;
  using Rem = interval::DualInterval;
  using Box = std::vector<interval::DualInterval>;

  static P& poly(Tm& tm) { return tm.p; }
  static const P& poly(const Tm& tm) { return tm.p; }
  static poly::Poly& value(P& p) { return p.val; }
  static const poly::Poly& value(const P& p) { return p.val; }
  static const interval::Interval& value(const Rem& r) { return r.v; }
  static bool tangents_equal(const P& a, const P& b) {
    for (std::size_t k = 0; k < a.tan.size(); ++k) {
      if (!(a.tan[k].terms() == b.tan[k].terms())) return false;
    }
    return true;
  }
  template <class F, class P0, class... Ps>
  static void each(F&& f, P0& p0, Ps&... p) {
    f(true, p0.val, p.val...);
    for (std::size_t k = 0; k < p0.tan.size(); ++k) {
      f(false, p0.tan[k], p.tan[k]...);
    }
  }

  static void reset(const Env& env, P& p, std::size_t nvars) {
    p.reset(nvars, env.dirs);
  }
  static void size_dirs(const Env& env, P& p) { p.tan.resize(env.dirs); }
  static constexpr auto poly_add = &poly::dual_add_into;
  static constexpr auto poly_sub = &poly::dual_sub_into;
  static void mul_trunc(const P& a, const P& b, std::uint32_t max_degree,
                        P& out, P* dropped, DualTmScratch& s) {
    poly::dual_mul_trunc_into(a, b, max_degree, out, dropped, s.dps);
  }
  static poly::PolyScratch& pscratch(DualTmScratch& s) { return s.dps.ps; }
  static Rem poly_range(const Env& env, const P& p) {
    return poly::dual_range(p, env.dom, env.scratch().dps);
  }
  static Rem value_range(const Env& env, const poly::Poly& p) {
    return Rem::constant(p.eval_range(env.dom), env.dirs);
  }

  static Rem zero(const Env& env) {
    return Rem::constant(interval::Interval(0.0), env.dirs);
  }
  static Rem symmetric(const Env& env, double r) {
    return Rem::constant(interval::Interval::symmetric(r), env.dirs);
  }
  static void one(const Env& env, Tm& tm) {
    tm.assign_constant(env.nvars(), env.dirs, 1.0, nullptr);
  }
  static constexpr auto add = &interval::dual_add;
  static constexpr auto sub = &interval::dual_sub;
  static constexpr auto mul = &interval::dual_mul;
  static constexpr auto mul_const = &interval::dual_mul_const;
  static constexpr auto hull = &interval::dual_hull;
  static constexpr auto widen = &interval::dual_widen;
  static constexpr auto add_tangents = &interval::dual_add_tangents;
};

}  // namespace dwv::taylor::detail
