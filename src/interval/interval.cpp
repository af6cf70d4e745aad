#include "interval/interval.hpp"

#include <limits>

namespace dwv::interval {

Interval& Interval::operator/=(const Interval& o) {
  if (o.contains(0.0)) {
    // Division by an interval containing zero: the result is unbounded.
    *this = Interval::entire();
    return *this;
  }
  const double p1 = lo_ / o.lo_;
  const double p2 = lo_ / o.hi_;
  const double p3 = hi_ / o.lo_;
  const double p4 = hi_ / o.hi_;
  *this = outward(Interval(std::min({p1, p2, p3, p4}),
                           std::max({p1, p2, p3, p4})));
  return *this;
}

// Exactness: a finite double is f * 2^(E - 1075) with an integer
// significand f < 2^53 (hidden bit set for normals, E = 1 for subnormals),
// so a * b = fa * fb * 2^(Ea + Eb - 2150) exactly, with fa * fb < 2^106 in
// an unsigned __int128. Rounding that integer to the result's quantum
// (2^(lead - 52) for a normal result, 2^-1074 for a subnormal one) with
// round-half-even is the IEEE rule by definition. Adding the quantum
// count to the exponent field lets a carry out of the significand bump the
// exponent, which covers both the round-up to 2^(lead + 1) and the
// round-up of the largest subnormals to DBL_MIN. A subnormal operand is
// below 2^-1022 and any double below 2^1024, so the product cannot
// overflow.
double mul_exact(double a, double b) {
  if (!detail::is_subnormal(a) && !detail::is_subnormal(b)) return a * b;
  if (!std::isfinite(a) || !std::isfinite(b)) return a * b;
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  constexpr std::uint64_t kHidden = std::uint64_t{1} << 52;
  const std::uint64_t ua = std::bit_cast<std::uint64_t>(a);
  const std::uint64_t ub = std::bit_cast<std::uint64_t>(b);
  const std::uint64_t sign = (ua ^ ub) & kSign;
  const std::uint64_t ma = ua & ~kSign;
  const std::uint64_t mb = ub & ~kSign;

  // Fast case: +-denorm_min * x is |x| * 2^-1074, i.e. RNE(|x|) quanta of
  // the subnormal grid; below 2^52 that integer is (|x| + 2^52) - 2^52,
  // and its bits are the result's magnitude bits (2^52 quanta = DBL_MIN).
  if (ma == 1 || mb == 1) {
    const double x = std::bit_cast<double>(ma == 1 ? mb : ma);
    if (x < 0x1p52) {
      const double n = (x + 0x1p52) - 0x1p52;
      return std::bit_cast<double>(sign | static_cast<std::uint64_t>(n));
    }
  }

  // Significand and biased exponent of a nonzero finite magnitude.
  const auto split = [](std::uint64_t m, std::uint64_t& f) {
    const int e = static_cast<int>(m >> 52);
    f = e == 0 ? m : (m & (kHidden - 1)) | kHidden;
    return e == 0 ? 1 : e;
  };
  std::uint64_t fa = 0;
  std::uint64_t fb = 0;
  const int k = split(ma, fa) + split(mb, fb) - 2150;
  if (fa == 0 || fb == 0) return std::bit_cast<double>(sign);  // +-0

  // prod * 2^k is the exact product.
  using u128 = unsigned __int128;
  const u128 prod = static_cast<u128>(fa) * fb;
  const std::uint64_t hi = static_cast<std::uint64_t>(prod >> 64);
  const std::uint64_t lo = static_cast<std::uint64_t>(prod);
  const int len =
      hi != 0 ? 128 - std::countl_zero(hi) : 64 - std::countl_zero(lo);
  // Exponent of the result's leading significand position and the number
  // of low product bits below its quantum.
  const int top = std::max(len - 1 + k, -1022);
  const int shift = top - 52 - k;
  std::uint64_t q = 0;
  if (shift <= 0) {
    q = lo << -shift;
  } else if (shift < 128) {
    q = static_cast<std::uint64_t>(prod >> shift);
    const u128 rem = prod - (static_cast<u128>(q) << shift);
    const u128 half = static_cast<u128>(1) << (shift - 1);
    if (rem > half || (rem == half && (q & 1) != 0)) ++q;
  }  // else prod * 2^k < 2^-1075: rounds to zero
  const std::uint64_t mag =
      (static_cast<std::uint64_t>(top + 1022) << 52) + q;
  return std::bit_cast<double>(sign | mag);
}

IntersectResult intersect(const Interval& a, const Interval& b) {
  const double lo = std::max(a.lo(), b.lo());
  const double hi = std::min(a.hi(), b.hi());
  if (lo > hi) return {Interval(), false};
  return {Interval(lo, hi), true};
}

Interval hull(const Interval& a, const Interval& b) {
  return Interval(std::min(a.lo(), b.lo()), std::max(a.hi(), b.hi()));
}

Interval sqr(const Interval& v) {
  const double m = v.mag();
  const double lo = v.mig();
  return outward(Interval(lo * lo, m * m));
}

Interval pow_n(const Interval& v, unsigned n) {
  if (n == 0) return Interval(1.0);
  if (n % 2 == 1) {
    // Odd powers are monotone.
    return outward(Interval(std::pow(v.lo(), n), std::pow(v.hi(), n)));
  }
  const double m = std::pow(v.mag(), n);
  const double lo = std::pow(v.mig(), n);
  return outward(Interval(lo, m));
}

Interval exp(const Interval& v) {
  return outward(Interval(std::exp(v.lo()), std::exp(v.hi())));
}

Interval sqrt(const Interval& v) {
  assert(v.lo() >= 0.0);
  return outward(Interval(std::sqrt(v.lo()), std::sqrt(v.hi())));
}

Interval tanh(const Interval& v) {
  return outward(Interval(std::tanh(v.lo()), std::tanh(v.hi())));
}

Interval sigmoid(const Interval& v) {
  const auto sig = [](double x) { return 1.0 / (1.0 + std::exp(-x)); };
  return outward(Interval(sig(v.lo()), sig(v.hi())));
}

Interval relu(const Interval& v) {
  return Interval(std::max(0.0, v.lo()), std::max(0.0, v.hi()));
}

namespace {
// True when [lo, hi] contains a point equal to k (mod 2*pi) for integer k
// offsets of `target`.
bool contains_multiple(double lo, double hi, double target) {
  constexpr double two_pi = 6.283185307179586476925286766559;
  const double k = std::ceil((lo - target) / two_pi);
  return target + k * two_pi <= hi;
}
}  // namespace

namespace {
// libm's sin/cos are accurate to ~1 ulp but not correctly rounded; widen
// endpoint evaluations by a safe absolute margin before clamping to the
// function range.
constexpr double kTrigSlack = 4e-15;
}  // namespace

Interval sin(const Interval& v) {
  constexpr double pi = 3.1415926535897932384626433832795;
  if (v.width() >= 2.0 * pi) return Interval(-1.0, 1.0);
  const double lo = v.lo();
  const double hi = v.hi();
  double out_lo = std::min(std::sin(lo), std::sin(hi)) - kTrigSlack;
  double out_hi = std::max(std::sin(lo), std::sin(hi)) + kTrigSlack;
  if (contains_multiple(lo, hi, pi / 2.0)) out_hi = 1.0;
  if (contains_multiple(lo, hi, -pi / 2.0)) out_lo = -1.0;
  return Interval(std::max(-1.0, out_lo), std::min(1.0, out_hi));
}

Interval cos(const Interval& v) {
  constexpr double pi = 3.1415926535897932384626433832795;
  if (v.width() >= 2.0 * pi) return Interval(-1.0, 1.0);
  const double lo = v.lo();
  const double hi = v.hi();
  double out_lo = std::min(std::cos(lo), std::cos(hi)) - kTrigSlack;
  double out_hi = std::max(std::cos(lo), std::cos(hi)) + kTrigSlack;
  if (contains_multiple(lo, hi, 0.0)) out_hi = 1.0;
  if (contains_multiple(lo, hi, pi)) out_lo = -1.0;
  return Interval(std::max(-1.0, out_lo), std::min(1.0, out_hi));
}

Interval abs(const Interval& v) { return Interval(v.mig(), v.mag()); }

}  // namespace dwv::interval
