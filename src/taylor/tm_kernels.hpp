// The Taylor-model kernels, written once over a coefficient channel C of
// taylor/channel.hpp (internal to src/taylor). taylor_model.cpp
// instantiates them with ScalarOps (the tm_* entry points), dual_tm.cpp
// with DualOps (the dual_tm_* ones), so a dual kernel's value channel runs
// its scalar twin's operations one for one: the same Poly kernels, interval
// op sequence, skip conditions, range queries and tape pushes. Tangents
// ride along:
//  - polynomial channel: the same truncating multiply and add kernels on
//    every tangent (product rule, poly::dual_mul_trunc_into);
//  - remainder channel: DualInterval ops with the central-difference tie
//    convention of dual_interval.hpp;
//  - skips the scalar code makes on value coefficients (cutoff sweeps):
//    the value channel keeps skipping, the tangents keep their terms.
//
// Every kernel honours the scratch's poly_only flag and remainder tape
// (RemTape, taylor_model.hpp); in replay mode it leaves output polys
// untouched. The kernels read the env's scratch by member name: dropped
// (a C::P), small (a value-channel Poly), pow_base, pow_tmp, rem_tape and
// poly_only, which TmScratch and DualTmScratch both hold.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "taylor/channel.hpp"

namespace dwv::taylor::detail {

// The full-channel tail of truncate_inplace, for a kernel that already
// left tm's terms above env.order in s.dropped (every channel): ranges the
// degree tail, then the value channel's cutoff sweep, and folds both into
// tm.rem (the same queries and tape push, in the same order, as the
// sweep-based truncation). The value remainder takes the tail range only
// when the value channel itself dropped terms (otherwise the scalar kernel
// queries nothing); the tangents take it when any channel did. Tangent
// terms of the swept value keys stay in the tangent polynomials: a +-h
// perturbation puts the coefficient at ~h*dc, far above the cutoff, so
// perturbed runs keep the term (central-difference consistency).
template <class C>
void fold_truncation_tail(const typename C::Env& env, typename C::Tm& tm) {
  auto& s = env.scratch();
  typename C::Rem extra = C::zero(env);
  bool dropped = false, value_dropped = false;
  C::each(
      [&](bool is_value, const poly::Poly& d) {
        if (d.is_zero()) return;
        dropped = true;
        value_dropped = value_dropped || is_value;
      },
      s.dropped);
  if (dropped) {
    const typename C::Rem dr = C::poly_range(env, s.dropped);
    if (value_dropped) extra = C::add(extra, dr);
    else C::add_tangents(extra, dr);
  }
  if (env.cutoff > 0.0) {
    C::value(C::poly(tm)).prune_small_into(env.cutoff, s.small);
    if (!s.small.is_zero()) {
      extra = C::add(extra, C::value_range(env, s.small));
    }
  }
  if (s.rem_tape.recording()) s.rem_tape.push(extra);
  tm.rem = C::add(tm.rem, extra);
}

// The poly_only truncation of a kernel's output: the degree cap was already
// applied by the kernel, so only the value channel's cutoff prune is left.
template <class C>
void prune_value_channel(const typename C::Env& env, typename C::Tm& tm) {
  tm.rem = C::zero(env);
  C::value(C::poly(tm)).truncate_discard(poly::kNoDegreeCap, env.cutoff);
}

template <class C>
void truncate_inplace(const typename C::Env& env, typename C::Tm& tm) {
  auto& s = env.scratch();
  if (s.rem_tape.replaying()) {
    // The poly (and hence its truncation tail) is bitwise-identical to the
    // recorded pass, so the taped tail range is the exact value the sweep
    // would recompute. The poly itself is left untouched.
    tm.rem = C::add(tm.rem, s.rem_tape.next());
    return;
  }
  if (s.poly_only) {
    // The truncation itself is polynomial-channel work; only ranging the
    // swept-away pieces feeds the (dead) remainder, so the sweeps fuse into
    // one discard pass. Only the value channel is swept.
    C::each(
        [&](bool is_value, poly::Poly& p) {
          p.truncate_discard(env.order, is_value ? env.cutoff : 0.0);
        },
        C::poly(tm));
    return;
  }
  // The degree split is structural (parameter-independent): every channel
  // splits.
  C::size_dirs(env, s.dropped);
  C::each(
      [&](bool, poly::Poly& p, poly::Poly& d) {
        p.split_by_degree_into(env.order, d);
      },
      C::poly(tm), s.dropped);
  fold_truncation_tail<C>(env, tm);
}

// (pa + Ia)(pb + Ib) = pa pb + pa Ib + pb Ia + Ia Ib. out must not alias a
// or b.
template <class C>
void mul_into(const typename C::Env& env, const typename C::Tm& a,
              const typename C::Tm& b, typename C::Tm& out) {
  using Rem = typename C::Rem;
  assert(&out != &a && &out != &b);
  auto& s = env.scratch();
  const auto remainder = [&](const Rem& ra, const Rem& rb) {
    out.rem = C::add(C::add(C::mul(ra, b.rem), C::mul(rb, a.rem)),
                     C::mul(a.rem, b.rem));
  };
  if (s.rem_tape.replaying()) {
    const Rem& ra = s.rem_tape.next();
    remainder(ra, s.rem_tape.next());
    truncate_inplace<C>(env, out);
    return;
  }
  // The kernel truncates while it multiplies: every channel's products
  // above env.order are never formed (poly_only) or land straight in
  // s.dropped.
  if (s.poly_only) {
    C::mul_trunc(C::poly(a), C::poly(b), env.order, C::poly(out), nullptr, s);
    prune_value_channel<C>(env, out);
    return;
  }
  C::mul_trunc(C::poly(a), C::poly(b), env.order, C::poly(out), &s.dropped,
               s);
  const Rem ra = C::poly_range(env, C::poly(a));
  const Rem rb = C::poly_range(env, C::poly(b));
  if (s.rem_tape.recording()) {
    s.rem_tape.push(ra);
    s.rem_tape.push(rb);
  }
  remainder(ra, rb);
  fold_truncation_tail<C>(env, out);
}

// n <= 3 multiplies left to right (the legacy chain), n >= 4 squares and
// multiplies. out must not alias a.
template <class C>
void pow_into(const typename C::Env& env, const typename C::Tm& a,
              std::uint32_t n, typename C::Tm& out) {
  assert(&out != &a);
  auto& s = env.scratch();
  // In replay mode the copies below move only the remainder: the poly
  // channel is never read (mul_into takes its operand ranges from the
  // tape) and output polys are dead.
  const bool rp = s.rem_tape.replaying();
  switch (n) {
    case 0:
      if (rp) out.rem = C::zero(env);
      else C::one(env, out);
      return;
    case 1:
      if (rp) out.rem = a.rem;
      else out = a;
      return;
    case 2:
      mul_into<C>(env, a, a, out);
      return;
    case 3:
      // Legacy left-to-right chain ((a*a)*a), kept bit-identical.
      mul_into<C>(env, a, a, s.pow_tmp);
      mul_into<C>(env, s.pow_tmp, a, out);
      return;
    default:
      break;
  }
  // Square-and-multiply; mul_into truncates, so each squaring is truncated.
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
        mul_into<C>(env, out, s.pow_base, s.pow_tmp);
        std::swap(out, s.pow_tmp);
      }
    }
    k >>= 1u;
    if (k) {
      mul_into<C>(env, s.pow_base, s.pow_base, s.pow_tmp);
      std::swap(s.pow_base, s.pow_tmp);
    }
  }
}

template <class C>
typename C::Rem range(const typename C::Env& env, const typename C::Tm& tm) {
  return C::add(C::poly_range(env, C::poly(tm)), tm.rem);
}

template <class C>
typename C::Box vec_range(const typename C::Env& env,
                          const typename C::Vec& v) {
  typename C::Box r(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) r[i] = range<C>(env, v[i]);
  return r;
}

// Antiderivative in `time_var` from 0, per channel; terms the +1 degree
// lifts past env.order go straight to the truncation tail (poly_only:
// nowhere), sparing truncate_inplace's split sweep. out must not alias tm.
template <class C>
void integrate_time_into(const typename C::Env& env, const typename C::Tm& tm,
                         std::size_t time_var, typename C::Tm& out) {
  assert(time_var < env.nvars());
  assert(&out != &tm);
  auto& s = env.scratch();
  // integral_0^tau e dtau' for |tau| <= tmax: contained in hull(0, rem*tmax).
  const auto transport = [&] {
    const interval::Interval tmax(env.dom[time_var].mag());
    out.rem = C::hull(C::zero(env), C::mul_const(tm.rem, tmax));
  };
  if (s.rem_tape.replaying()) {
    transport();
    truncate_inplace<C>(env, out);
    return;
  }
  const std::size_t nv = C::value(C::poly(tm)).nvars();
  C::reset(env, C::poly(out), nv);
  C::reset(env, s.dropped, nv);
  const std::uint64_t unit = 1ull << poly::key_shift(nv, time_var);
  const std::uint32_t cap = poly::key_max_exp(nv);
  constexpr const char* overflow =
      "tm_integrate_time: time exponent exceeds the packed-key budget";
  // Adding `unit` to every key preserves order and injectivity, so terms
  // can be appended directly; zero quotients are skipped like add_term.
  C::each(
      [&](bool, const poly::Poly& in, poly::Poly& dst, poly::Poly& drop) {
        for (const auto& [key, c] : in.terms()) {
          const std::uint32_t e2t = poly::key_exp(key, nv, time_var) + 1;
          if (e2t > cap) throw std::overflow_error(overflow);
          const double q = c / static_cast<double>(e2t);
          if (q == 0.0) continue;
          if (poly::key_degree(key + unit, nv) <= env.order)
            dst.push_term(key + unit, q);
          else if (!s.poly_only)
            drop.push_term(key + unit, q);
        }
      },
      C::poly(tm), C::poly(out), s.dropped);
  if (s.poly_only) {
    prune_value_channel<C>(env, out);
    return;
  }
  transport();
  fold_truncation_tail<C>(env, out);
}

// Substitutes the last variable at `c` and re-encodes every channel over
// nvars - 1 variables in one term walk. out must not alias tm.
template <class C>
void subst_last_into(const typename C::Env& env, const typename C::Tm& tm,
                     double c, typename C::Tm& out) {
  const std::size_t nv = C::value(C::poly(tm)).nvars();
  assert(nv >= 1);
  assert(env.dom[nv - 1].contains(c) && "substitution outside domain");
  assert(&out != &tm);
  const std::size_t new_nv = nv - 1;
  C::reset(env, C::poly(out), new_nv);
  std::vector<poly::Term>& buf = C::pscratch(env.scratch()).prod;
  const std::uint32_t new_bits = poly::key_bits(new_nv);
  C::each(
      [&](bool, const poly::Poly& in, poly::Poly& dst) {
        buf.clear();
        for (const auto& [key, coeff] : in.terms()) {
          double scale = 1.0;
          const std::uint32_t e = poly::key_exp(key, nv, nv - 1);
          for (std::uint32_t k = 0; k < e; ++k) scale *= c;
          // Re-pack without the substituted (least significant) field.
          // Dropping a field widens the per-field layout, so no exponent
          // can overflow.
          std::uint64_t k2 = 0;
          for (std::size_t i = 0; i < new_nv; ++i) {
            k2 = (k2 << new_bits) |
                 static_cast<std::uint64_t>(poly::key_exp(key, nv, i));
          }
          buf.push_back({k2, coeff * scale});
        }
        poly::Poly::coalesce_into(buf, dst);
      },
      C::poly(tm), C::poly(out));
  out.rem = tm.rem;
}

}  // namespace dwv::taylor::detail
