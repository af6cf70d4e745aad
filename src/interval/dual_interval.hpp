// Forward-mode tangent bundle over Interval endpoints.
//
// A DualInterval carries an interval value plus, for each of `nd` parameter
// directions, the derivatives of its lower and upper endpoint. The value
// channel executes EXACTLY the same floating-point operation sequence as
// the plain Interval operators (same products, same min/max selection, same
// outward() widening), so a dual computation's value bits equal what the
// scalar computation produces; the tangent channel rides along.
//
// Differentiation convention at selection ties: when several endpoint
// candidates are exactly equal (min/max over the four products of a
// multiplication, hull endpoints, ...), the tangent is the average of the
// smallest and largest candidate tangent over the tied set. This is the
// central-difference limit: a +h perturbation selects the candidate with
// the smallest tangent, a -h perturbation the largest, and
// (f(h) - f(-h)) / 2h averages the two. Matching central differences is
// what the gradient-check CI gate compares against.
//
// outward() widens by a fixed 1 ulp regardless of the operands, so its
// derivative is the identity on tangents.
//
// Directions are capped at kMaxDirs so the type stays a flat POD (no
// per-operation heap allocation in the flowpipe hot loop). The gradient
// engine refuses controllers with more parameters.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>

#include "interval/interval.hpp"

namespace dwv::interval {

struct DualInterval {
  static constexpr std::size_t kMaxDirs = 16;

  Interval v;
  std::size_t nd = 0;
  std::array<double, kMaxDirs> dlo{};
  std::array<double, kMaxDirs> dhi{};

  DualInterval() = default;

  /// Constant (parameter-independent) interval: all tangents zero.
  static DualInterval constant(const Interval& x, std::size_t nd) {
    DualInterval r;
    r.v = x;
    r.nd = nd;
    return r;
  }

  /// Point value x with d(x)/d(theta_k) = seed[k] on both endpoints.
  static DualInterval point(double x, std::size_t nd, const double* seed) {
    DualInterval r;
    r.v = Interval(x);
    r.nd = nd;
    if (seed != nullptr) {
      for (std::size_t k = 0; k < nd; ++k) {
        r.dlo[k] = seed[k];
        r.dhi[k] = seed[k];
      }
    }
    return r;
  }

  bool tangents_zero() const {
    for (std::size_t k = 0; k < nd; ++k) {
      if (dlo[k] != 0.0 || dhi[k] != 0.0) return false;
    }
    return true;
  }

  /// d(mid)/d(theta_k) and d(rad)/d(theta_k).
  double dmid(std::size_t k) const { return 0.5 * (dlo[k] + dhi[k]); }
  double drad(std::size_t k) const { return 0.5 * (dhi[k] - dlo[k]); }
};

/// (I.lo + I.hi) / 2 — the tie-averaged sensitivity a contribution whose
/// value coefficient sits exactly at zero has on BOTH endpoints of a sum
/// (see the tangent-only accumulation paths in poly::dual_range and the
/// dual TM kernels).
inline double mid2(const Interval& x) { return 0.5 * (x.lo() + x.hi()); }

inline DualInterval dual_add(const DualInterval& a, const DualInterval& b) {
  assert(a.nd == b.nd);
  DualInterval r;
  r.nd = a.nd;
  r.v = outward(Interval(a.v.lo() + b.v.lo(), a.v.hi() + b.v.hi()));
  for (std::size_t k = 0; k < r.nd; ++k) {
    r.dlo[k] = a.dlo[k] + b.dlo[k];
    r.dhi[k] = a.dhi[k] + b.dhi[k];
  }
  return r;
}

inline DualInterval dual_sub(const DualInterval& a, const DualInterval& b) {
  assert(a.nd == b.nd);
  DualInterval r;
  r.nd = a.nd;
  r.v = outward(Interval(a.v.lo() - b.v.hi(), a.v.hi() - b.v.lo()));
  for (std::size_t k = 0; k < r.nd; ++k) {
    r.dlo[k] = a.dlo[k] - b.dhi[k];
    r.dhi[k] = a.dhi[k] - b.dlo[k];
  }
  return r;
}

inline DualInterval dual_neg(const DualInterval& a) {
  DualInterval r;
  r.nd = a.nd;
  r.v = Interval(-a.v.hi(), -a.v.lo());
  for (std::size_t k = 0; k < r.nd; ++k) {
    r.dlo[k] = -a.dhi[k];
    r.dhi[k] = -a.dlo[k];
  }
  return r;
}

namespace detail {

/// Tie-averaged tangents of one endpoint of a product: over the candidate
/// products selected by `mask` (bit i: candidate i = (a side i >> 1, b side
/// i & 1), 0 = lo, 1 = hi), folded in ascending candidate order, out[k] =
/// 0.5 * (min + max) of the product-rule tangents
/// da[k] * xb + xa * db[k]. An empty mask gives 0.5 * (0 + 0). `db` null
/// means b's tangents are all zero: xa * 0.0 is then the same for every k.
/// Exact: the products go through mul_exact (a value bound is subnormal).
template <bool Exact>
inline void tied_tangents(unsigned mask, const DualInterval& a,
                          const double* const db[2], const double xa[2],
                          const double xb[2], double* out) {
  const auto mul = [](double x, double y) {
    if constexpr (Exact) return mul_exact(x, y);
    else return x * y;
  };
  const std::size_t nd = a.nd;
  if (mask == 0) {
    for (std::size_t k = 0; k < nd; ++k) out[k] = 0.5 * (0.0 + 0.0);
    return;
  }
  double lo[DualInterval::kMaxDirs];
  double hi[DualInterval::kMaxDirs];
  for (bool first = true; mask != 0; mask &= mask - 1, first = false) {
    const int i = std::countr_zero(mask);
    const double* const da = (i >> 1) != 0 ? a.dhi.data() : a.dlo.data();
    const double x_a = xa[i >> 1];
    const double x_b = xb[i & 1];
    const double* const d_b = db[i & 1];
    const auto fold = [&](std::size_t k, double t) {
      lo[k] = first ? t : std::min(lo[k], t);
      hi[k] = first ? t : std::max(hi[k], t);
    };
    if (d_b == nullptr) {
      const double z = mul(x_a, 0.0);
      for (std::size_t k = 0; k < nd; ++k) fold(k, mul(da[k], x_b) + z);
    } else {
      for (std::size_t k = 0; k < nd; ++k)
        fold(k, mul(da[k], x_b) + mul(x_a, d_b[k]));
    }
  }
  for (std::size_t k = 0; k < nd; ++k) out[k] = 0.5 * (lo[k] + hi[k]);
}

/// a * [bl, bh] with b's tangent rows db (null: all zero). The value is
/// Interval::operator*='s bits; when a value bound is subnormal every
/// product, value and tangent, goes through mul_exact (no microcode
/// assists, same bits). The tie masks are computed once per call.
inline DualInterval dual_mul_rows(const DualInterval& a, double bl, double bh,
                                  const double* const db[2]) {
  const double xa[2] = {a.v.lo(), a.v.hi()};
  const double xb[2] = {bl, bh};
  const bool exact = is_subnormal(xa[0]) | is_subnormal(xa[1]) |
                     is_subnormal(bl) | is_subnormal(bh);
  double p[4];
  if (exact) {
    for (int i = 0; i < 4; ++i) p[i] = mul_exact(xa[i >> 1], xb[i & 1]);
  } else {
    for (int i = 0; i < 4; ++i) p[i] = xa[i >> 1] * xb[i & 1];
  }
  const double mn = std::min({p[0], p[1], p[2], p[3]});
  const double mx = std::max({p[0], p[1], p[2], p[3]});
  unsigned mn_mask = 0, mx_mask = 0;
  for (int i = 0; i < 4; ++i) {
    mn_mask |= static_cast<unsigned>(p[i] == mn) << i;
    mx_mask |= static_cast<unsigned>(p[i] == mx) << i;
  }

  DualInterval r;
  r.nd = a.nd;
  r.v = outward(Interval(mn, mx));
  if (exact) {
    tied_tangents<true>(mn_mask, a, db, xa, xb, r.dlo.data());
    tied_tangents<true>(mx_mask, a, db, xa, xb, r.dhi.data());
  } else {
    tied_tangents<false>(mn_mask, a, db, xa, xb, r.dlo.data());
    tied_tangents<false>(mx_mask, a, db, xa, xb, r.dhi.data());
  }
  return r;
}

}  // namespace detail

/// Product mirroring Interval::operator*= (min/max of the four endpoint
/// products, then outward), with tie-averaged tangent selection: over the
/// candidates equal to the min (max) product, the lower (upper) tangent
/// is 0.5 * (min + max) of their product-rule tangents.
inline DualInterval dual_mul(const DualInterval& a, const DualInterval& b) {
  assert(a.nd == b.nd);
  const double* const db[2] = {b.dlo.data(), b.dhi.data()};
  return detail::dual_mul_rows(a, b.v.lo(), b.v.hi(), db);
}

/// dual_mul(a, DualInterval::constant(c, a.nd)), bit for bit, without
/// forming the zero tangent rows.
inline DualInterval dual_mul_const(const DualInterval& a, const Interval& c) {
  const double* const db[2] = {nullptr, nullptr};
  return detail::dual_mul_rows(a, c.lo(), c.hi(), db);
}

/// Mirrors interval::hull (no outward), tie-averaging equal endpoints.
inline DualInterval dual_hull(const DualInterval& a, const DualInterval& b) {
  assert(a.nd == b.nd);
  DualInterval r;
  r.nd = a.nd;
  r.v = Interval(std::min(a.v.lo(), b.v.lo()), std::max(a.v.hi(), b.v.hi()));
  for (std::size_t k = 0; k < r.nd; ++k) {
    if (a.v.lo() < b.v.lo()) {
      r.dlo[k] = a.dlo[k];
    } else if (b.v.lo() < a.v.lo()) {
      r.dlo[k] = b.dlo[k];
    } else {
      r.dlo[k] = 0.5 * (std::min(a.dlo[k], b.dlo[k]) +
                        std::max(a.dlo[k], b.dlo[k]));
    }
    if (a.v.hi() > b.v.hi()) {
      r.dhi[k] = a.dhi[k];
    } else if (b.v.hi() > a.v.hi()) {
      r.dhi[k] = b.dhi[k];
    } else {
      r.dhi[k] = 0.5 * (std::min(a.dhi[k], b.dhi[k]) +
                        std::max(a.dhi[k], b.dhi[k]));
    }
  }
  return r;
}

/// Mirrors the remainder-validation widen() of reach/tm_flowpipe.cpp:
/// r = rad * factor + bump, m = mid, result [m - r, m + r] (no outward).
inline DualInterval dual_widen(const DualInterval& x, double factor,
                               double bump) {
  const double r = x.v.rad() * factor + bump;
  const double m = x.v.mid();
  DualInterval out;
  out.nd = x.nd;
  out.v = Interval(m - r, m + r);
  for (std::size_t k = 0; k < x.nd; ++k) {
    const double dr = x.drad(k) * factor;
    const double dm = x.dmid(k);
    out.dlo[k] = dm - dr;
    out.dhi[k] = dm + dr;
  }
  return out;
}

/// Accumulates ONLY the tangents of `m` into `s` (value untouched). Used
/// where the scalar pipeline skips an operation for an exactly-zero
/// coefficient whose perturbation would re-introduce it: the value channel
/// must keep skipping (bit-identity), the tangents must not.
inline void dual_add_tangents(DualInterval& s, const DualInterval& m) {
  assert(s.nd == m.nd);
  for (std::size_t k = 0; k < s.nd; ++k) {
    s.dlo[k] += m.dlo[k];
    s.dhi[k] += m.dhi[k];
  }
}

}  // namespace dwv::interval
