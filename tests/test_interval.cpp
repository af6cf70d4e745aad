#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <random>

#include "interval/interval.hpp"
#include "interval/ivec.hpp"

namespace dwv::interval {
namespace {

TEST(Interval, BasicAccessors) {
  const Interval v(-1.0, 3.0);
  EXPECT_DOUBLE_EQ(v.mid(), 1.0);
  EXPECT_DOUBLE_EQ(v.rad(), 2.0);
  EXPECT_DOUBLE_EQ(v.width(), 4.0);
  EXPECT_DOUBLE_EQ(v.mag(), 3.0);
  EXPECT_DOUBLE_EQ(v.mig(), 0.0);
  EXPECT_DOUBLE_EQ(Interval(2.0, 3.0).mig(), 2.0);
  EXPECT_DOUBLE_EQ(Interval(-3.0, -2.0).mig(), 2.0);
}

TEST(Interval, ContainsAndIntersects) {
  const Interval v(0.0, 2.0);
  EXPECT_TRUE(v.contains(1.0));
  EXPECT_TRUE(v.contains(0.0));
  EXPECT_FALSE(v.contains(2.1));
  EXPECT_TRUE(v.contains(Interval(0.5, 1.5)));
  EXPECT_FALSE(v.contains(Interval(0.5, 2.5)));
  EXPECT_TRUE(v.intersects(Interval(2.0, 3.0)));
  EXPECT_FALSE(v.intersects(Interval(2.01, 3.0)));
}

TEST(Interval, AdditionIsSoundAndTight) {
  const Interval a(1.0, 2.0);
  const Interval b(-0.5, 0.25);
  const Interval c = a + b;
  EXPECT_LE(c.lo(), 0.5);
  EXPECT_GE(c.hi(), 2.25);
  // Outward rounding widens by at most a few ULP.
  EXPECT_NEAR(c.lo(), 0.5, 1e-12);
  EXPECT_NEAR(c.hi(), 2.25, 1e-12);
}

TEST(Interval, MultiplicationSignCases) {
  EXPECT_NEAR((Interval(2, 3) * Interval(4, 5)).lo(), 8.0, 1e-12);
  EXPECT_NEAR((Interval(-3, -2) * Interval(4, 5)).hi(), -8.0, 1e-12);
  const Interval m = Interval(-1, 2) * Interval(-3, 4);
  EXPECT_NEAR(m.lo(), -6.0, 1e-12);
  EXPECT_NEAR(m.hi(), 8.0, 1e-12);
}

TEST(Interval, DivisionByZeroContainingIsEntire) {
  const Interval r = Interval(1.0, 2.0) / Interval(-1.0, 1.0);
  EXPECT_TRUE(std::isinf(r.lo()));
  EXPECT_TRUE(std::isinf(r.hi()));
}

TEST(Interval, IntersectAndHull) {
  const auto r = intersect(Interval(0, 2), Interval(1, 3));
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.value.lo(), 1.0);
  EXPECT_DOUBLE_EQ(r.value.hi(), 2.0);
  EXPECT_FALSE(intersect(Interval(0, 1), Interval(2, 3)).ok);
  const Interval h = hull(Interval(0, 1), Interval(2, 3));
  EXPECT_DOUBLE_EQ(h.lo(), 0.0);
  EXPECT_DOUBLE_EQ(h.hi(), 3.0);
}

TEST(Interval, SqrNonNegativeAndTight) {
  const Interval s = sqr(Interval(-2.0, 1.0));
  EXPECT_DOUBLE_EQ(s.lo(), 0.0);
  EXPECT_NEAR(s.hi(), 4.0, 1e-12);
  const Interval s2 = sqr(Interval(2.0, 3.0));
  EXPECT_NEAR(s2.lo(), 4.0, 1e-12);
}

TEST(Interval, PowOddEven) {
  const Interval p3 = pow_n(Interval(-2.0, 1.0), 3);
  EXPECT_NEAR(p3.lo(), -8.0, 1e-12);
  EXPECT_NEAR(p3.hi(), 1.0, 1e-12);
  const Interval p4 = pow_n(Interval(-2.0, 1.0), 4);
  EXPECT_DOUBLE_EQ(p4.lo(), 0.0);
  EXPECT_NEAR(p4.hi(), 16.0, 1e-12);
  EXPECT_DOUBLE_EQ(pow_n(Interval(-5, 5), 0).lo(), 1.0);
}

TEST(Interval, SinCoversCriticalPoints) {
  // [0, pi] contains the max of sin at pi/2.
  const Interval s = sin(Interval(0.0, 3.14159265358979));
  EXPECT_DOUBLE_EQ(s.hi(), 1.0);
  EXPECT_LE(s.lo(), 1e-10);
  // Width >= 2 pi saturates.
  const Interval w = sin(Interval(0.0, 10.0));
  EXPECT_DOUBLE_EQ(w.lo(), -1.0);
  EXPECT_DOUBLE_EQ(w.hi(), 1.0);
}

// Property check: f([a,b]) soundly encloses pointwise samples.
class ElementaryEnclosure : public ::testing::TestWithParam<int> {};

TEST_P(ElementaryEnclosure, RandomIntervalsEnclosePointValues) {
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  for (int trial = 0; trial < 100; ++trial) {
    double a = u(rng);
    double b = u(rng);
    if (a > b) std::swap(a, b);
    const Interval v(a, b);
    const Interval t = tanh(v);
    const Interval s = sigmoid(v);
    const Interval q = sqr(v);
    const Interval sn = sin(v);
    const Interval cs = cos(v);
    for (int k = 0; k <= 10; ++k) {
      const double x = std::clamp(a + (b - a) * k / 10.0, a, b);
      EXPECT_TRUE(t.contains(std::tanh(x)));
      EXPECT_TRUE(s.contains(1.0 / (1.0 + std::exp(-x))));
      EXPECT_TRUE(q.contains(x * x));
      EXPECT_TRUE(sn.contains(std::sin(x)));
      EXPECT_TRUE(cs.contains(std::cos(x)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ElementaryEnclosure,
                         ::testing::Values(1, 2, 3, 4, 5));

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }
double from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }

constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
constexpr double kMin = std::numeric_limits<double>::min();
constexpr double kMaxSubnormal = kMin - kDenormMin;
constexpr double kMax = std::numeric_limits<double>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kBelowOne = 1.0 - 0x1p-53;

// Seed of the randomized exact-product checks: fixed, overridable with
// DWV_TEST_SEED to explore further; every failure message prints it.
std::uint64_t test_seed() {
  const char* env = std::getenv("DWV_TEST_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 20261016;
}

bool is_pow2(double x) {
  int e = 0;
  return std::isfinite(x) && x != 0.0 && std::frexp(std::abs(x), &e) == 0.5;
}

// An operand from one of the classes the exact product must get right:
// random, tiny, extreme subnormals; normals over the whole exponent range,
// near 1, near DBL_MIN and around the 2^52 fast-case boundary; powers of
// two and 1 + 2^-j (ties and near-ties); zeros and non-finite values.
double draw_operand(std::mt19937_64& rng) {
  constexpr std::uint64_t kFrac = (std::uint64_t{1} << 52) - 1;
  double x = 0.0;
  switch (rng() % 13) {
    case 0:  // random subnormal
      x = from_bits((rng() & kFrac) | 1);
      break;
    case 1:  // subnormal with few significant bits
      x = from_bits((rng() & ((std::uint64_t{1} << (1 + rng() % 24)) - 1)) |
                    1);
      break;
    case 2:
      x = rng() % 2 == 0 ? kDenormMin : kMaxSubnormal;
      break;
    case 3: {  // normal, any exponent
      const std::uint64_t e = 1 + rng() % 2046;
      x = from_bits((e << 52) | (rng() & kFrac));
      break;
    }
    case 4:  // [1, 2) times a small power of two
      x = std::ldexp(from_bits((std::uint64_t{1023} << 52) | (rng() & kFrac)),
                     static_cast<int>(rng() % 8) - 3);
      break;
    case 5:  // power of two
      x = std::ldexp(1.0, static_cast<int>(rng() % 1100) - 1060);
      break;
    case 6:  // 1 + 2^-j
      x = 1.0 + std::ldexp(1.0, -static_cast<int>(1 + rng() % 52));
      break;
    case 7:  // normal with a large exponent: subnormal * x is normal
      x = from_bits(((1023 + 40 + rng() % 983) << 52) | (rng() & kFrac));
      break;
    case 8:  // just above DBL_MIN
      x = from_bits((std::uint64_t{1} << 52) | (rng() & 0xffff));
      break;
    case 9: {  // integers around the 2^52 and 2^53 boundaries
      const double base = rng() % 2 == 0 ? 0x1p52 : 0x1p53;
      x = base + static_cast<double>(static_cast<int>(rng() % 9) - 4);
      break;
    }
    case 10: {  // zero, tie multipliers and other special roles
      const double special[] = {0.0, 0.5, 1.5, 2.5, kMin, kMax, kBelowOne};
      x = special[rng() % std::size(special)];
      break;
    }
    case 11:
      x = rng() % 2 == 0 ? kInf : kNaN;
      break;
    default:  // odd-significand subnormal, for ties against powers of two
      x = from_bits((rng() & kFrac) | 1);
      break;
  }
  return rng() % 2 == 0 ? x : -x;
}

// mul_exact against the hardware multiply, bit for bit, over 10M seeded
// random pairs; the class counters prove every hard case actually ran.
TEST(Interval, MulExactMatchesHardwareBitForBit) {
  const std::uint64_t seed = test_seed();
  std::mt19937_64 rng(seed);
  std::size_t subnormal_operand = 0, ties = 0, round_up_to_min = 0;
  std::size_t zero_results = 0, subnormal_results = 0, normal_results = 0;
  std::size_t non_finite = 0, denorm_min_operand = 0;
  constexpr std::size_t kPairs = 10'000'000;
  for (std::size_t i = 0; i < kPairs; ++i) {
    const double a = draw_operand(rng);
    const double b = draw_operand(rng);
    const double hw = a * b;
    const double ex = mul_exact(a, b);
    ASSERT_EQ(bits(ex), bits(hw))
        << "seed " << seed << " pair " << i << std::hexfloat << ": " << a
        << " * " << b << " = " << hw << ", mul_exact gave " << ex;
    const bool sa = detail::is_subnormal(a);
    const bool sb = detail::is_subnormal(b);
    if (!sa && !sb) continue;
    ++subnormal_operand;
    if (!std::isfinite(a) || !std::isfinite(b)) {
      ++non_finite;
      continue;
    }
    if (std::abs(a) == kDenormMin || std::abs(b) == kDenormMin)
      ++denorm_min_operand;
    if (hw == 0.0 && a != 0.0 && b != 0.0) ++zero_results;
    if (detail::is_subnormal(hw)) ++subnormal_results;
    if (std::abs(hw) >= kMin) ++normal_results;
    // Odd subnormal significand times 2^-1: exactly half a quantum.
    if ((sa && std::abs(b) == 0.5 && (bits(a) & 1) != 0) ||
        (sb && std::abs(a) == 0.5 && (bits(b) & 1) != 0))
      ++ties;
    // DBL_MIN from a subnormal and a non-power-of-two is inexact, i.e. a
    // round-up across the subnormal/normal boundary.
    if (std::abs(hw) == kMin && !(is_pow2(a) && is_pow2(b))) ++round_up_to_min;
  }
  EXPECT_GT(subnormal_operand, kPairs / 3) << "seed " << seed;
  EXPECT_GT(ties, 100u) << "seed " << seed;
  EXPECT_GT(round_up_to_min, 0u) << "seed " << seed;
  EXPECT_GT(zero_results, 1000u) << "seed " << seed;
  EXPECT_GT(subnormal_results, 1000u) << "seed " << seed;
  EXPECT_GT(normal_results, 1000u) << "seed " << seed;
  EXPECT_GT(non_finite, 100u) << "seed " << seed;
  EXPECT_GT(denorm_min_operand, 1000u) << "seed " << seed;
}

// Hand-picked cases with known results: the fast +-denorm_min path (RNE
// ties to even, the 2^52 boundary), signed zeros, the round-up of the
// largest subnormal to DBL_MIN, and non-finite operands.
TEST(Interval, MulExactEdgeCases) {
  // Ties round to even: 0.5 and 2.5 quanta to 0 and 2, 1.5 to 2, and
  // (2^52 - 1) / 2 quanta to 2^51; (2^52 - 1) * (1 + 2^-52) quanta round
  // up across the subnormal/normal boundary to DBL_MIN.
  const struct {
    double a, b, want;
  } cases[] = {
      {kDenormMin, 0.5, 0.0},
      {kDenormMin, 1.5, 2 * kDenormMin},
      {-kDenormMin, 2.5, -2 * kDenormMin},
      {kDenormMin, 0.75, kDenormMin},
      {-kDenormMin, 0.25, -0.0},
      {kDenormMin, -0.0, -0.0},
      {-kDenormMin, -kDenormMin, 0.0},
      {kDenormMin, 0x1p52, kMin},
      {kDenormMin, 0x1p52 + 1.0, from_bits((std::uint64_t{1} << 52) + 1)},
      {kDenormMin, 0x1p53 + 2.0, from_bits((std::uint64_t{2} << 52) + 1)},
      {kMaxSubnormal, 1.0 + 0x1p-52, kMin},
      {kMaxSubnormal, 1.0, kMaxSubnormal},
      {kMaxSubnormal, 0.5, from_bits(std::uint64_t{1} << 51)},
      {from_bits(3), 0.5, from_bits(2)},
      {kMaxSubnormal, 4.0, 4.0 * kMaxSubnormal},
      {kMaxSubnormal, kMaxSubnormal, 0.0},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(bits(mul_exact(c.a, c.b)), bits(c.want))
        << std::hexfloat << c.a << " * " << c.b;
    EXPECT_EQ(bits(mul_exact(c.b, c.a)), bits(c.want))
        << std::hexfloat << c.b << " * " << c.a;
    EXPECT_EQ(bits(c.a * c.b), bits(c.want))
        << std::hexfloat << "hardware " << c.a << " * " << c.b;
  }
  EXPECT_EQ(bits(mul_exact(kDenormMin, -kInf)), bits(-kInf));
  EXPECT_TRUE(std::isnan(mul_exact(kDenormMin, kNaN)));
  EXPECT_TRUE(std::isnan(mul_exact(kInf, 0.0)));
}

// mul_assign_exact against Interval::operator*= on random intervals whose
// bounds mix subnormals (the -denorm_min of outward-rounded zeros above
// all), zeros and normals: same bits, and the exact path reports itself.
TEST(Interval, MulAssignExactMatchesOperatorTimes) {
  const std::uint64_t seed = test_seed();
  std::mt19937_64 rng(seed);
  const auto bound = [&rng] {
    double x = 0.0;
    switch (rng() % 6) {
      case 0:
        x = kDenormMin;
        break;
      case 1:
        x = 0.0;
        break;
      case 2:
        x = from_bits(1 + (rng() & ((std::uint64_t{1} << 52) - 2)));
        break;
      default:
        x = draw_operand(rng);
        if (!std::isfinite(x)) x = 1.0;
        break;
    }
    return rng() % 2 == 0 ? x : -x;
  };
  std::size_t exact_runs = 0;
  for (std::size_t i = 0; i < 1'000'000; ++i) {
    double lo = bound(), hi = bound();
    if (lo > hi) std::swap(lo, hi);
    double olo = bound(), ohi = bound();
    if (olo > ohi) std::swap(olo, ohi);
    Interval want(lo, hi);
    want *= Interval(olo, ohi);
    Interval got(lo, hi);
    const bool ran = mul_assign_exact(got, Interval(olo, ohi));
    ASSERT_EQ(ran, detail::is_subnormal(lo) || detail::is_subnormal(hi) ||
                       detail::is_subnormal(olo) || detail::is_subnormal(ohi))
        << "seed " << seed << " iteration " << i;
    ASSERT_TRUE(bits(got.lo()) == bits(want.lo()) &&
                bits(got.hi()) == bits(want.hi()))
        << "seed " << seed << " iteration " << i << std::hexfloat << ": ["
        << lo << ", " << hi << "] * [" << olo << ", " << ohi << "] = " << want
        << ", mul_assign_exact gave " << got;
    exact_runs += ran;
  }
  EXPECT_GT(exact_runs, 100'000u) << "seed " << seed;
}

TEST(IVec, MidRadContains) {
  IVec v{Interval(0.0, 2.0), Interval(-1.0, 1.0)};
  EXPECT_DOUBLE_EQ(v.mid()[0], 1.0);
  EXPECT_DOUBLE_EQ(v.rad()[1], 1.0);
  EXPECT_TRUE(v.contains(linalg::Vec{1.0, 0.0}));
  EXPECT_FALSE(v.contains(linalg::Vec{3.0, 0.0}));
  EXPECT_DOUBLE_EQ(v.max_width(), 2.0);
}

TEST(IVec, MatIvecEnclosure) {
  const linalg::Mat a{{1.0, -2.0}, {0.5, 0.5}};
  IVec x{Interval(-1.0, 1.0), Interval(0.0, 2.0)};
  const IVec y = mat_ivec(a, x);
  // Corner checks.
  for (double x0 : {-1.0, 1.0}) {
    for (double x1 : {0.0, 2.0}) {
      EXPECT_TRUE(y[0].contains(x0 - 2.0 * x1));
      EXPECT_TRUE(y[1].contains(0.5 * x0 + 0.5 * x1));
    }
  }
}

TEST(IVec, ArithmeticAndHull) {
  IVec a{Interval(0.0, 1.0)};
  IVec b{Interval(2.0, 3.0)};
  const IVec s = a + b;
  EXPECT_NEAR(s[0].lo(), 2.0, 1e-12);
  const IVec h = hull(a, b);
  EXPECT_DOUBLE_EQ(h[0].lo(), 0.0);
  EXPECT_DOUBLE_EQ(h[0].hi(), 3.0);
}

}  // namespace
}  // namespace dwv::interval
