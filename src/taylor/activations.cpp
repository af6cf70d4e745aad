#include "taylor/activations.hpp"

#include <array>
#include <cassert>
#include <cmath>
#include <utility>

namespace dwv::taylor {

using interval::Interval;
using poly::Poly;

namespace {

struct SmoothAbstraction {
  double f0;        // f(c)
  double f1;        // f'(c)
  double f2;        // f''(c)
  Interval rem_hi;  // Lagrange remainder bound (already divided by k!)
};

// tm_scale(a, s) into out: a copy plus Poly::operator*= (which keeps zero
// products and clears on s == 0), remainder rem * s.
void scale_into(const TaylorModel& a, double s, TaylorModel& out) {
  out.poly = a.poly;
  out.poly *= s;
  out.rem = a.rem * Interval(s);
}

// tm_add_const(tm, c) in place: add_term_key(0, c) skips c == 0 and erases
// an exact-zero sum.
void add_const(TaylorModel& tm, double c) { tm.poly.add_term_key(0, c); }

// Shared expansion driver: out = f0 + f1*(t-c) [+ f2/2 (t-c)^2] + rem.
void expand_into(const TmEnv& env, const TaylorModel& in, double c,
                 const SmoothAbstraction& s, ActOrder order,
                 TaylorModel& out) {
  TmScratch& sc = env.scratch();
  TaylorModel& dt = sc.act_dt;
  dt = in;
  add_const(dt, -c);
  const bool quad = order == ActOrder::kQuadratic;
  // The quadratic order adds the square term to the linear part, writing
  // the sum into out.
  TaylorModel& lin = quad ? sc.act_lin : out;
  scale_into(dt, s.f1, lin);
  add_const(lin, s.f0);
  if (quad) {
    TaylorModel& sq = sc.act_sq;
    tm_mul_into(env, dt, dt, sq);
    const double h = 0.5 * s.f2;
    sq.poly *= h;
    sq.rem = sq.rem * Interval(h);
    Poly::add_into(lin.poly, sq.poly, out.poly);
    out.rem = lin.rem + sq.rem;
  }
  out.rem += s.rem_hi;
  tm_truncate_inplace(env, out);
}

// Interior points where a sigmoidal f' equals the secant slope (at most
// two).
struct Extrema {
  std::array<double, 2> x{};
  std::size_t n = 0;
};

// Secant (chord) relaxation for a bounded sigmoidal function: the line
// through the endpoints plus an interval covering the deviation. Unlike
// the Taylor expansion its remainder is globally bounded by the function's
// range, so it cannot blow up on wide inputs; used whenever it is tighter.
template <class F, class DInv>
void secant_sigmoidal_into(const TmEnv& env, const TaylorModel& in,
                           const Interval& range, F f, DInv extrema_at,
                           TaylorModel& out) {
  const double lo = range.lo();
  const double hi = range.hi();
  const double flo = f(lo);
  const double fhi = f(hi);
  if (hi - lo < 1e-12) {
    out.assign_constant(env.nvars(), 0.5 * (flo + fhi));
    out.rem += Interval::symmetric(std::abs(fhi - flo));
    return;
  }
  const double a = (fhi - flo) / (hi - lo);
  const double b = flo - a * lo;
  // Deviation extrema: endpoints (0) and interior points where f' = a.
  double dmin = 0.0;
  double dmax = 0.0;
  const Extrema xs = extrema_at(a);
  for (std::size_t k = 0; k < xs.n; ++k) {
    const double x = xs.x[k];
    if (x > lo && x < hi) {
      const double d = f(x) - (a * x + b);
      dmin = std::min(dmin, d);
      dmax = std::max(dmax, d);
    }
  }
  scale_into(in, a, out);
  add_const(out, b + 0.5 * (dmin + dmax));
  out.rem += Interval::symmetric(0.5 * (dmax - dmin) + 1e-12);
  tm_truncate_inplace(env, out);
}

// The Taylor expansion in out against the secant: keeps whichever
// remainder is narrower (the Taylor one on ties). A copy, so both buffers
// keep their storage.
void keep_tighter(TaylorModel& out, const TaylorModel& secant) {
  if (!(out.rem.width() <= secant.rem.width())) out = secant;
}

}  // namespace

void tm_tanh_into(const TmEnv& env, const TaylorModel& in, ActOrder order,
                  TaylorModel& out) {
  assert(&out != &in);
  const Interval range = tm_range(env, in);
  const double c = range.mid();
  const double y = std::tanh(c);

  SmoothAbstraction s;
  s.f0 = y;
  s.f1 = 1.0 - y * y;
  s.f2 = -2.0 * y * (1.0 - y * y);

  const Interval yr = interval::tanh(range);
  const Interval one(1.0);
  const Interval dev = range - Interval(c);
  if (order == ActOrder::kLinear) {
    // R = f''(xi)/2 * (t-c)^2 with f'' = -2 y (1 - y^2).
    const Interval f2r = Interval(-2.0) * yr * (one - interval::sqr(yr));
    s.rem_hi = f2r * interval::sqr(dev) * Interval(0.5);
  } else {
    // R = f'''(xi)/6 * (t-c)^3 with f''' = (1 - y^2)(6 y^2 - 2).
    const Interval f3r = (one - interval::sqr(yr)) *
                         (Interval(6.0) * interval::sqr(yr) - Interval(2.0));
    s.rem_hi = f3r * interval::pow_n(dev, 3) / 6.0;
  }
  // The remainder must contain 0 (the expansion is exact at t = c).
  s.rem_hi = interval::hull(Interval(0.0), s.rem_hi);
  expand_into(env, in, c, s, order, out);

  // The Taylor remainder grows like dev^3 and is useless on wide inputs;
  // the secant relaxation is bounded by the function range. Keep whichever
  // is tighter.
  TaylorModel& secant = env.scratch().act_secant;
  secant_sigmoidal_into(
      env, in, range, [](double x) { return std::tanh(x); },
      [](double a) {
        Extrema xs;
        if (a > 0.0 && a < 1.0) {
          const double t = std::sqrt(1.0 - a);
          const double x = 0.5 * std::log((1.0 + t) / (1.0 - t));  // atanh
          xs.x = {x, -x};
          xs.n = 2;
        }
        return xs;
      },
      secant);
  keep_tighter(out, secant);
}

TaylorModel tm_tanh(const TmEnv& env, const TaylorModel& in, ActOrder order) {
  TaylorModel r;
  tm_tanh_into(env, in, order, r);
  return r;
}

void tm_sigmoid_into(const TmEnv& env, const TaylorModel& in, ActOrder order,
                     TaylorModel& out) {
  assert(&out != &in);
  const Interval range = tm_range(env, in);
  const double c = range.mid();
  const double y = 1.0 / (1.0 + std::exp(-c));

  SmoothAbstraction s;
  s.f0 = y;
  s.f1 = y * (1.0 - y);
  s.f2 = y * (1.0 - y) * (1.0 - 2.0 * y);

  const Interval yr = interval::sigmoid(range);
  const Interval one(1.0);
  const Interval dev = range - Interval(c);
  if (order == ActOrder::kLinear) {
    const Interval f2r = yr * (one - yr) * (one - Interval(2.0) * yr);
    s.rem_hi = f2r * interval::sqr(dev) * Interval(0.5);
  } else {
    // f''' = y(1-y)(1 - 6y + 6y^2).
    const Interval f3r =
        yr * (one - yr) *
        (one - Interval(6.0) * yr + Interval(6.0) * interval::sqr(yr));
    s.rem_hi = f3r * interval::pow_n(dev, 3) / 6.0;
  }
  s.rem_hi = interval::hull(Interval(0.0), s.rem_hi);
  expand_into(env, in, c, s, order, out);

  TaylorModel& secant = env.scratch().act_secant;
  secant_sigmoidal_into(
      env, in, range, [](double x) { return 1.0 / (1.0 + std::exp(-x)); },
      [](double a) {
        Extrema xs;
        if (a > 0.0 && a < 0.25) {
          // s' = s(1-s) = a  =>  s = (1 +- sqrt(1-4a))/2.
          const double t = std::sqrt(1.0 - 4.0 * a);
          const double s1 = 0.5 * (1.0 + t);
          const double s2 = 0.5 * (1.0 - t);
          xs.x = {std::log(s1 / (1.0 - s1)), std::log(s2 / (1.0 - s2))};
          xs.n = 2;
        }
        return xs;
      },
      secant);
  keep_tighter(out, secant);
}

TaylorModel tm_sigmoid(const TmEnv& env, const TaylorModel& in,
                       ActOrder order) {
  TaylorModel r;
  tm_sigmoid_into(env, in, order, r);
  return r;
}

void tm_relu_into(const TmEnv& env, const TaylorModel& in, TaylorModel& out) {
  assert(&out != &in);
  const Interval range = tm_range(env, in);
  const double lo = range.lo();
  const double hi = range.hi();
  if (lo >= 0.0) {  // Identity region.
    out = in;
    return;
  }
  if (hi <= 0.0) {
    out.assign_constant(env.nvars(), 0.0);
    return;
  }
  // Mixed region: relu(t) in lambda*t + [0, mu] with the optimal (tightest)
  // single-slope relaxation lambda = hi/(hi-lo), mu = -hi*lo/(hi-lo).
  const double lambda = hi / (hi - lo);
  const double mu = -hi * lo / (hi - lo);
  scale_into(in, lambda, out);
  add_const(out, 0.5 * mu);
  out.rem += Interval(-0.5 * mu, 0.5 * mu);
  tm_truncate_inplace(env, out);
}

TaylorModel tm_relu(const TmEnv& env, const TaylorModel& in) {
  TaylorModel r;
  tm_relu_into(env, in, r);
  return r;
}

namespace {

// Quadratic Taylor expansion with a cubic Lagrange remainder for a smooth
// f, competing against the interval-constant enclosure.
TaylorModel smooth_or_interval(const TmEnv& env, const TaylorModel& in,
                               double f0, double f1, double f2,
                               const Interval& f3_range,
                               const Interval& out_range, double c) {
  const Interval range = tm_range(env, in);
  const Interval dev = range - Interval(c);
  TaylorModel dt = tm_add_const(in, -c);
  TaylorModel taylor_tm = tm_scale(dt, f1);
  taylor_tm = tm_add_const(taylor_tm, f0);
  taylor_tm = tm_add(taylor_tm, tm_scale(tm_mul(env, dt, dt), 0.5 * f2));
  taylor_tm.rem += interval::hull(Interval(0.0),
                                  f3_range * interval::pow_n(dev, 3) / 6.0);
  taylor_tm = tm_truncate(env, taylor_tm);

  TaylorModel const_tm = TaylorModel::constant(env, out_range.mid());
  const_tm.rem += Interval::symmetric(out_range.rad());

  return taylor_tm.rem.width() <= const_tm.rem.width() ? taylor_tm
                                                       : const_tm;
}

}  // namespace

TaylorModel tm_sin(const TmEnv& env, const TaylorModel& in) {
  const Interval range = tm_range(env, in);
  const double c = range.mid();
  // |sin'''| <= 1 everywhere.
  return smooth_or_interval(env, in, std::sin(c), std::cos(c), -std::sin(c),
                            Interval(-1.0, 1.0), interval::sin(range), c);
}

TaylorModel tm_cos(const TmEnv& env, const TaylorModel& in) {
  const Interval range = tm_range(env, in);
  const double c = range.mid();
  return smooth_or_interval(env, in, std::cos(c), -std::sin(c),
                            -std::cos(c), Interval(-1.0, 1.0),
                            interval::cos(range), c);
}

TaylorModel tm_exp(const TmEnv& env, const TaylorModel& in) {
  const Interval range = tm_range(env, in);
  const double c = range.mid();
  const double e = std::exp(c);
  // exp''' over the range is exp(range) itself (monotone).
  return smooth_or_interval(env, in, e, e, e, interval::exp(range),
                            interval::exp(range), c);
}

void tm_affine_into(const TmEnv& env, std::span<const TaylorModel> in,
                    std::span<const double> w, double b, TaylorModel& out) {
  assert(in.size() == w.size());
  TmScratch& s = env.scratch();
  // b + sum_j w_j in_j over the nonzero weights, left to right. The sum
  // builds in the scratch pair; the last nonzero weight's add writes into
  // out.
  std::size_t last = w.size();
  for (std::size_t j = 0; j < w.size(); ++j) {
    if (w[j] != 0.0) last = j;
  }
  TaylorModel& acc = last == w.size() ? out : s.aff_acc;
  acc.assign_constant(env.nvars(), b);
  for (std::size_t j = 0; j < w.size(); ++j) {
    if (w[j] == 0.0) continue;
    TaylorModel& term = s.aff_term;
    scale_into(in[j], w[j], term);
    if (j == last) {
      Poly::add_into(acc.poly, term.poly, out.poly);
      out.rem = acc.rem + term.rem;
      break;
    }
    Poly::add_into(acc.poly, term.poly, s.aff_sum);
    std::swap(acc.poly, s.aff_sum);
    acc.rem = acc.rem + term.rem;
  }
  tm_truncate_inplace(env, out);
}

TaylorModel tm_affine(const TmEnv& env, const TmVec& in, const linalg::Vec& w,
                      double b) {
  TaylorModel r;
  tm_affine_into(env, in, std::span<const double>(w.data(), w.size()), b, r);
  return r;
}

}  // namespace dwv::taylor
