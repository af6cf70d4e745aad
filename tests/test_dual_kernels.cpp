// Differential tests for the dual (forward-mode) kernels: dual_mul,
// dual_mul_const, dual_range and dual_mul_trunc_into must reproduce the
// straightforward formulations kept below as test-local oracles bit for
// bit, on the value and on every tangent (dlo / dhi). The oracles are the
// reference definitions: four hardware products with a per-direction tie
// fold, a range walk that recomputes every power and binary-searches every
// tangent coefficient, and the full product followed by a degree split.
// A warm dual_tm_mul_into must also perform no heap allocation.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "interval/dual_interval.hpp"
#include "poly/dual_poly.hpp"
#include "taylor/dual_tm.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter (the pattern of test_poly_packed.cpp): every
// path through operator new bumps it.

std::atomic<std::size_t> g_alloc_count{0};

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n ? n : 1) != 0)
    throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using dwv::interval::DualInterval;
using dwv::interval::Interval;
using dwv::interval::IVec;
using dwv::poly::DualPoly;
using dwv::poly::DualPolyScratch;
using dwv::poly::Poly;
using dwv::poly::Term;

constexpr std::size_t kMaxDirs = DualInterval::kMaxDirs;
constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
constexpr double kInf = std::numeric_limits<double>::infinity();
const double kMaxSubnormal =
    std::bit_cast<double>(std::uint64_t{0x000fffffffffffff});

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Bits with every NaN mapped to one pattern. Which payload survives a
// NaN + NaN or NaN * NaN depends on the operand order the compiler picks
// for a commutative operation, so payloads are not part of the contract;
// everything else (signed zeros, the subnormal grid, infinities) is.
std::uint64_t bits_nan_canonical(double x) {
  return std::isnan(x) ? 0x7ff8000000000000ULL : bits(x);
}

bool is_subnormal(double x) {
  return x != 0.0 && std::fpclassify(x) == FP_SUBNORMAL;
}

// ---------------------------------------------------------------------------
// Oracles.

DualInterval ref_dual_mul(const DualInterval& a, const DualInterval& b) {
  const double al = a.v.lo(), ah = a.v.hi();
  const double bl = b.v.lo(), bh = b.v.hi();
  const double p[4] = {al * bl, al * bh, ah * bl, ah * bh};
  const double mn = std::min({p[0], p[1], p[2], p[3]});
  const double mx = std::max({p[0], p[1], p[2], p[3]});
  DualInterval r;
  r.nd = a.nd;
  r.v = dwv::interval::outward(Interval(mn, mx));
  for (std::size_t k = 0; k < r.nd; ++k) {
    const double dp[4] = {
        a.dlo[k] * bl + al * b.dlo[k], a.dlo[k] * bh + al * b.dhi[k],
        a.dhi[k] * bl + ah * b.dlo[k], a.dhi[k] * bh + ah * b.dhi[k]};
    double mn_lo = 0.0, mn_hi = 0.0, mx_lo = 0.0, mx_hi = 0.0;
    bool mn_first = true, mx_first = true;
    for (int i = 0; i < 4; ++i) {
      if (p[i] == mn) {
        mn_lo = mn_first ? dp[i] : std::min(mn_lo, dp[i]);
        mn_hi = mn_first ? dp[i] : std::max(mn_hi, dp[i]);
        mn_first = false;
      }
      if (p[i] == mx) {
        mx_lo = mx_first ? dp[i] : std::min(mx_lo, dp[i]);
        mx_hi = mx_first ? dp[i] : std::max(mx_hi, dp[i]);
        mx_first = false;
      }
    }
    r.dlo[k] = 0.5 * (mn_lo + mn_hi);
    r.dhi[k] = 0.5 * (mx_lo + mx_hi);
  }
  return r;
}

double ref_coeff_of_key(const Poly& p, std::uint64_t key) {
  const std::vector<Term>& t = p.terms();
  auto it = std::lower_bound(
      t.begin(), t.end(), key,
      [](const Term& a, std::uint64_t k) { return a.key < k; });
  return (it != t.end() && it->key == key) ? it->coeff : 0.0;
}

std::vector<std::uint64_t> ref_tangent_only_keys(const DualPoly& p) {
  std::vector<std::uint64_t> out;
  for (const Poly& t : p.tan) {
    for (const Term& term : t.terms()) out.push_back(term.key);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  out.erase(std::remove_if(out.begin(), out.end(),
                           [&](std::uint64_t k) {
                             return ref_coeff_of_key(p.val, k) != 0.0;
                           }),
            out.end());
  return out;
}

DualInterval ref_dual_range(const DualPoly& p, const IVec& dom) {
  const std::size_t nvars = p.val.nvars();
  const std::size_t nd = p.dirs();
  const std::uint32_t kb = dwv::poly::key_bits(nvars);
  const std::uint64_t mask = dwv::poly::key_field_mask(nvars);
  const auto exp_of = [&](std::uint64_t key, std::size_t i) {
    return static_cast<std::uint32_t>((key >> (kb * (nvars - 1 - i))) & mask);
  };
  DualInterval acc = DualInterval::constant(Interval(0.0), nd);
  for (const Term& t : p.val.terms()) {
    DualInterval m = DualInterval::constant(Interval(t.coeff), nd);
    for (std::size_t k = 0; k < nd; ++k) {
      const double dc = ref_coeff_of_key(p.tan[k], t.key);
      m.dlo[k] = dc;
      m.dhi[k] = dc;
    }
    for (std::size_t i = 0; i < nvars; ++i) {
      const std::uint32_t e = exp_of(t.key, i);
      if (e > 0) {
        m = ref_dual_mul(
            m, DualInterval::constant(dwv::interval::pow_n(dom[i], e), nd));
      }
    }
    acc = dwv::interval::dual_add(acc, m);
  }
  for (std::uint64_t key : ref_tangent_only_keys(p)) {
    Interval kprod(1.0);
    for (std::size_t i = 0; i < nvars; ++i) {
      const std::uint32_t e = exp_of(key, i);
      if (e > 0) kprod *= dwv::interval::pow_n(dom[i], e);
    }
    const double m2 = dwv::interval::mid2(kprod);
    for (std::size_t k = 0; k < nd; ++k) {
      const double dc = ref_coeff_of_key(p.tan[k], key);
      if (dc == 0.0) continue;
      acc.dlo[k] += dc * m2;
      acc.dhi[k] += dc * m2;
    }
  }
  return acc;
}

// The full product in every channel (value, then the product rule per
// tangent), each channel then split at `cap`.
void ref_dual_mul_split(const DualPoly& a, const DualPoly& b,
                        std::uint32_t cap, DualPoly& out, DualPoly& dropped) {
  dwv::poly::PolyScratch ps;
  Poly t1, t2;
  out.tan.resize(a.dirs());
  dropped.tan.resize(a.dirs());
  Poly::mul_into(a.val, b.val, out.val, ps);
  out.val.split_by_degree_into(cap, dropped.val);
  for (std::size_t k = 0; k < a.dirs(); ++k) {
    Poly::mul_into(a.tan[k], b.val, t1, ps);
    Poly::mul_into(a.val, b.tan[k], t2, ps);
    Poly::add_into(t1, t2, out.tan[k]);
    out.tan[k].split_by_degree_into(cap, dropped.tan[k]);
  }
}

// ---------------------------------------------------------------------------
// Bit comparison.

void expect_same_bits(const DualInterval& got, const DualInterval& want,
                      const std::string& what) {
  ASSERT_EQ(got.nd, want.nd) << what;
  const auto b = bits_nan_canonical;
  EXPECT_EQ(b(got.v.lo()), b(want.v.lo())) << what << " lo";
  EXPECT_EQ(b(got.v.hi()), b(want.v.hi())) << what << " hi";
  for (std::size_t k = 0; k < kMaxDirs; ++k) {
    EXPECT_EQ(b(got.dlo[k]), b(want.dlo[k])) << what << " dlo " << k;
    EXPECT_EQ(b(got.dhi[k]), b(want.dhi[k])) << what << " dhi " << k;
  }
}

void expect_same_terms(const Poly& got, const Poly& want,
                       const std::string& what) {
  ASSERT_EQ(got.nvars(), want.nvars()) << what;
  ASSERT_EQ(got.term_count(), want.term_count()) << what;
  for (std::size_t i = 0; i < got.term_count(); ++i) {
    EXPECT_EQ(got.terms()[i].key, want.terms()[i].key) << what << " " << i;
    EXPECT_EQ(bits(got.terms()[i].coeff), bits(want.terms()[i].coeff))
        << what << " " << i;
  }
}

// ---------------------------------------------------------------------------
// Generators.

struct Gen {
  std::mt19937_64 rng;
  explicit Gen(std::uint64_t seed) : rng(seed) {}

  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  }

  // A bound or tangent from the classes the kernels must get right: the
  // subnormal extremes, random subnormals, signed zeros, non-finite
  // values, small integers (exact ties) and random normals.
  double special() {
    switch (rng() % 14) {
      case 0: return kDenormMin;
      case 1: return -kDenormMin;
      case 2: return kMaxSubnormal;
      case 3: return -kMaxSubnormal;
      case 4:
        return std::bit_cast<double>(rng() & 0x000fffffffffffffULL) *
               (rng() % 2 ? 1.0 : -1.0);
      case 5: return 0.0;
      case 6: return -0.0;
      case 7: return kInf;
      case 8: return -kInf;
      case 9: return std::numeric_limits<double>::quiet_NaN();
      case 10: return static_cast<double>(static_cast<int>(rng() % 5) - 2);
      default: return uniform(-3.0, 3.0);
    }
  }

  Interval interval() {
    const double x = special();
    if (rng() % 4 == 0) return Interval(x);  // point interval
    const double y = special();
    if (std::isnan(x) || std::isnan(y)) return Interval(x, y);
    return Interval(std::min(x, y), std::max(x, y));
  }

  DualInterval dual(std::size_t nd) {
    DualInterval d = DualInterval::constant(interval(), nd);
    for (std::size_t k = 0; k < nd; ++k) {
      d.dlo[k] = special();
      d.dhi[k] = rng() % 3 == 0 ? d.dlo[k] : special();
    }
    return d;
  }

  double coeff() {
    switch (rng() % 10) {
      case 0: return 0.0;  // stored zero: a key the value channel lacks
      case 1: return 1e-14;
      case 2: return -1.0;
      default: return uniform(-2.0, 2.0);
    }
  }

  std::uint64_t key(std::size_t nvars, std::uint32_t max_per_var) {
    std::uint64_t k = 0;
    for (std::size_t i = 0; i < nvars; ++i) {
      const std::uint64_t e = rng() % (max_per_var + 1);
      k |= e << dwv::poly::key_shift(nvars, i);
    }
    return k;
  }

  // Sorted unique keys drawn from `pool`, each with probability 1/2.
  Poly poly_over(std::size_t nvars, const std::vector<std::uint64_t>& pool) {
    std::vector<Term> terms;
    for (std::uint64_t k : pool) {
      if (rng() % 2 == 0) terms.push_back({k, coeff()});
    }
    return Poly::from_sorted_terms(nvars, std::move(terms));
  }

  // A dual poly whose channels share a key pool, so the tangents hold
  // keys the value channel has, keys it stores with coefficient 0.0 and
  // keys it lacks (tangent-only keys).
  DualPoly dual_poly(std::size_t nvars, std::size_t nd, std::size_t pool_size,
                     std::uint32_t max_per_var) {
    std::vector<std::uint64_t> pool;
    for (std::size_t i = 0; i < pool_size; ++i)
      pool.push_back(key(nvars, max_per_var));
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    DualPoly p;
    p.val = poly_over(nvars, pool);
    for (std::size_t k = 0; k < nd; ++k)
      p.tan.push_back(poly_over(nvars, pool));
    return p;
  }
};

// [-1, 1]^(n-1) x [0, h]: the TM step domain with its time variable last.
IVec step_domain(std::size_t n, double h) {
  IVec dom(n, Interval(-1.0, 1.0));
  if (n > 0) dom[n - 1] = Interval(0.0, h);
  return dom;
}

// ---------------------------------------------------------------------------
// dual_mul / dual_mul_const.

TEST(DualKernels, MulMatchesOracleBitForBit) {
  Gen g(20261017);
  std::size_t exact_calls = 0, ties[5] = {};
  for (const std::size_t nd : {std::size_t{1}, std::size_t{2}, kMaxDirs}) {
    for (int it = 0; it < 50000; ++it) {
      const DualInterval a = g.dual(nd);
      const DualInterval b = g.dual(nd);
      const std::string what =
          "nd " + std::to_string(nd) + " it " + std::to_string(it);
      expect_same_bits(dwv::interval::dual_mul(a, b), ref_dual_mul(a, b),
                       what);
      expect_same_bits(dwv::interval::dual_mul_const(a, b.v),
                       ref_dual_mul(a, DualInterval::constant(b.v, nd)),
                       what + " const");
      if (HasFailure()) return;

      // Coverage of the classes: subnormal bounds, 1- to 4-way min ties.
      if (is_subnormal(a.v.lo()) || is_subnormal(a.v.hi()) ||
          is_subnormal(b.v.lo()) || is_subnormal(b.v.hi()))
        ++exact_calls;
      const double p[4] = {a.v.lo() * b.v.lo(), a.v.lo() * b.v.hi(),
                           a.v.hi() * b.v.lo(), a.v.hi() * b.v.hi()};
      const double mn = std::min({p[0], p[1], p[2], p[3]});
      int tied = 0;
      for (double x : p) tied += x == mn;
      ++ties[tied];
    }
  }
  EXPECT_GT(exact_calls, 10000u);
  for (int t = 1; t <= 4; ++t) EXPECT_GT(ties[t], 100u) << t << "-way ties";
}

TEST(DualKernels, MulTieAndSubnormalCases) {
  // Hand-picked: every candidate tied (point intervals), 2- and 3-way ties,
  // products at +-denorm_min, subnormal tangents, signed zeros, +-Inf, NaN.
  const std::vector<std::pair<Interval, Interval>> cases = {
      {Interval(2.0), Interval(3.0)},
      {Interval(-1.0, 1.0), Interval(-1.0, 1.0)},
      {Interval(0.0, 1.0), Interval(0.0, 2.0)},
      {Interval(-kDenormMin, 0.5), Interval(-kDenormMin, 0.05)},
      {Interval(-kDenormMin, kDenormMin), Interval(-kMaxSubnormal, 1.0)},
      {Interval(kMaxSubnormal), Interval(-2.0, 0.5)},
      {Interval(-0.0, 0.0), Interval(-1.0, 1.0)},
      {Interval(-kInf, 1.0), Interval(0.0, 2.0)},
      {Interval(1.0, kInf), Interval(-kInf, -0.0)},
      {Interval(std::numeric_limits<double>::quiet_NaN()),
       Interval(1.0, 2.0)},
  };
  const double tangents[] = {1.0, -0.5, kDenormMin, -kMaxSubnormal, 0.0,
                             -0.0, 3.0, kInf};
  for (const std::size_t nd : {std::size_t{1}, std::size_t{2}, kMaxDirs}) {
    for (std::size_t c = 0; c < cases.size(); ++c) {
      DualInterval a = DualInterval::constant(cases[c].first, nd);
      DualInterval b = DualInterval::constant(cases[c].second, nd);
      for (std::size_t k = 0; k < nd; ++k) {
        a.dlo[k] = tangents[k % 8];
        a.dhi[k] = tangents[(k + 3) % 8];
        b.dlo[k] = tangents[(k + 5) % 8];
        b.dhi[k] = tangents[(k + 1) % 8];
      }
      const std::string what =
          "case " + std::to_string(c) + " nd " + std::to_string(nd);
      expect_same_bits(dwv::interval::dual_mul(a, b), ref_dual_mul(a, b),
                       what);
      expect_same_bits(dwv::interval::dual_mul(b, a), ref_dual_mul(b, a),
                       what + " swapped");
      expect_same_bits(dwv::interval::dual_mul_const(a, b.v),
                       ref_dual_mul(a, DualInterval::constant(b.v, nd)),
                       what + " const");
    }
  }
}

// ---------------------------------------------------------------------------
// dual_range.

TEST(DualKernels, RangeMatchesOracleOnStepDomains) {
  Gen g(7);
  std::size_t tangent_only = 0;
  for (const std::size_t nd : {std::size_t{1}, std::size_t{2}, kMaxDirs}) {
    for (std::size_t n = 1; n <= 4; ++n) {
      for (const double h : {0.05, 0.125, 1.0}) {
        const IVec dom = step_domain(n, h);
        DualPolyScratch s;  // shared: queries also pass through the memo
        for (int it = 0; it < 150; ++it) {
          const DualPoly p = g.dual_poly(n, nd, 12, 4);
          tangent_only += !ref_tangent_only_keys(p).empty();
          std::vector<std::uint64_t> keys;
          dwv::poly::tangent_only_keys(p, keys);
          EXPECT_EQ(keys, ref_tangent_only_keys(p));
          const std::string what = "nd " + std::to_string(nd) + " n " +
                                   std::to_string(n) + " it " +
                                   std::to_string(it);
          expect_same_bits(dwv::poly::dual_range(p, dom, s),
                           ref_dual_range(p, dom), what);
          if (HasFailure()) return;
        }
      }
    }
  }
  EXPECT_GT(tangent_only, 1000u);
}

TEST(DualKernels, RangeMatchesOracleOnSpecialDomains) {
  // Domains with subnormal, signed-zero, infinite and NaN bounds.
  Gen g(11);
  for (int it = 0; it < 3000; ++it) {
    const std::size_t n = 1 + g.rng() % 3;
    const std::size_t nd = it % 2 ? 2 : 1;
    IVec dom(n);
    for (Interval& x : dom) x = g.interval();
    const DualPoly p = g.dual_poly(n, nd, 8, 3);
    DualPolyScratch s;
    expect_same_bits(dwv::poly::dual_range(p, dom, s), ref_dual_range(p, dom),
                     "it " + std::to_string(it));
    if (HasFailure()) return;
  }
}

TEST(DualKernels, RangeMemoReturnsRecordedBits) {
  Gen g(3);
  const std::size_t nd = 3;
  const IVec dom = step_domain(3, 0.05);
  std::vector<DualPoly> polys;
  std::vector<DualInterval> want;
  const std::size_t count = DualPolyScratch::kRangeMemo + 5;
  for (std::size_t i = 0; i < count; ++i) {
    polys.push_back(g.dual_poly(3, nd, 10, 3));
    want.push_back(ref_dual_range(polys.back(), dom));
  }
  DualPolyScratch s;
  const auto query = [&](std::size_t i, const char* what) {
    expect_same_bits(dwv::poly::dual_range(polys[i], dom, s), want[i],
                     std::string(what) + " " + std::to_string(i));
  };

  // Repeated: the second query hits.
  query(0, "first");
  query(0, "repeat");
  EXPECT_EQ(s.memo_hits, 1u);

  // Interleaved: 1, 2, 1, 2 hit after their first queries.
  query(1, "interleaved");
  query(2, "interleaved");
  query(1, "interleaved");
  query(2, "interleaved");
  EXPECT_EQ(s.memo_hits, 3u);

  // Evicted: more distinct queries than entries push 0 out; its next
  // query recomputes the same bits.
  for (std::size_t i = 3; i < count; ++i) query(i, "fill");
  const std::uint64_t hits = s.memo_hits;
  query(0, "evicted");
  EXPECT_EQ(s.memo_hits, hits);
  EXPECT_LE(s.memo.size(), DualPolyScratch::kRangeMemo);

  // Two domains one ulp apart are different queries.
  IVec next = dom;
  next[2] = Interval(next[2].lo(), std::nextafter(next[2].hi(), 1.0));
  const DualInterval r0 = dwv::poly::dual_range(polys[0], dom, s);
  const std::uint64_t before = s.memo_hits;
  expect_same_bits(dwv::poly::dual_range(polys[0], next, s),
                   ref_dual_range(polys[0], next), "next domain");
  EXPECT_EQ(s.memo_hits, before);
  expect_same_bits(r0, want[0], "domain");

  // A coefficient one ulp apart in one tangent channel is a different
  // query too.
  DualPoly q = polys[0];
  std::vector<Term> t = q.tan[nd - 1].terms();
  ASSERT_FALSE(t.empty());
  t.back().coeff = std::nextafter(t.back().coeff, 10.0);
  q.tan[nd - 1] = Poly::from_sorted_terms(3, std::move(t));
  const std::uint64_t before2 = s.memo_hits;
  expect_same_bits(dwv::poly::dual_range(q, dom, s), ref_dual_range(q, dom),
                   "tangent coefficient");
  EXPECT_EQ(s.memo_hits, before2);
}

// ---------------------------------------------------------------------------
// dual_mul_trunc_into.

TEST(DualKernels, MulTruncMatchesFullProductAndSplit) {
  Gen g(5);
  DualPolyScratch s;
  for (std::size_t n = 0; n <= 4; ++n) {
    for (std::uint32_t cap = 0; cap <= 6; ++cap) {
      for (int it = 0; it < 60; ++it) {
        const std::size_t nd = 1 + g.rng() % 3;
        const DualPoly a = g.dual_poly(n, nd, 10, 3);
        const DualPoly b = g.dual_poly(n, nd, 10, 3);
        DualPoly want, want_drop;
        ref_dual_mul_split(a, b, cap, want, want_drop);

        DualPoly out, drop, kept;
        dwv::poly::dual_mul_trunc_into(a, b, cap, out, &drop, s);
        dwv::poly::dual_mul_trunc_into(a, b, cap, kept, nullptr, s);
        const std::string what = "n " + std::to_string(n) + " cap " +
                                 std::to_string(cap) + " it " +
                                 std::to_string(it);
        expect_same_terms(out.val, want.val, what + " val");
        expect_same_terms(drop.val, want_drop.val, what + " val dropped");
        expect_same_terms(kept.val, want.val, what + " val kept-only");
        ASSERT_EQ(out.dirs(), nd);
        ASSERT_EQ(drop.dirs(), nd);
        for (std::size_t k = 0; k < nd; ++k) {
          const std::string tk = what + " tan " + std::to_string(k);
          expect_same_terms(out.tan[k], want.tan[k], tk);
          expect_same_terms(drop.tan[k], want_drop.tan[k], tk + " dropped");
          expect_same_terms(kept.tan[k], want.tan[k], tk + " kept-only");
        }
        if (HasFailure()) return;

        // The uncapped case is the full product.
        DualPoly full, none;
        dwv::poly::dual_mul_into(a, b, full, s);
        ref_dual_mul_split(a, b, dwv::poly::kNoDegreeCap, want, none);
        expect_same_terms(full.val, want.val, what + " uncapped");
        for (std::size_t k = 0; k < nd; ++k)
          expect_same_terms(full.tan[k], want.tan[k], what + " uncapped tan");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Warm dual_tm_mul_into allocates nothing.

dwv::taylor::DualTm random_dual_tm(Gen& g, std::size_t n, std::size_t nd) {
  dwv::taylor::DualTm tm;
  tm.p = g.dual_poly(n, nd, 10, 2);
  tm.rem = DualInterval::constant(Interval(-1e-6, 2e-6), nd);
  for (std::size_t k = 0; k < nd; ++k) {
    tm.rem.dlo[k] = g.uniform(-1e-6, 1e-6);
    tm.rem.dhi[k] = g.uniform(-1e-6, 1e-6);
  }
  return tm;
}

TEST(DualKernels, WarmDualTmMulIsAllocationFree) {
  // Order-3 products over [-1,1]^2 x [0,h] with 4 directions. With three
  // operands every range query of a pass hits the memo. With eight, a pass
  // makes more distinct queries than the memo holds, so it keeps evicting
  // and re-recording entries; each record reuses the evicted entry's key
  // buffer, whose capacity only grows, so after a few warm passes (eight
  // here, as entries rotate through the slots) a whole pass allocates
  // nothing.
  Gen g(41);
  dwv::taylor::DualTmEnv env;
  env.dom = step_domain(3, 0.05);
  env.order = 3;
  env.dirs = 4;
  for (const std::size_t count : {std::size_t{3}, std::size_t{8}}) {
    std::vector<dwv::taylor::DualTm> ops;
    for (std::size_t i = 0; i < count; ++i)
      ops.push_back(random_dual_tm(g, 3, env.dirs));
    dwv::taylor::DualTm out;
    const auto allocs_of_pass = [&] {
      const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
      for (const auto& a : ops)
        for (const auto& b : ops) dwv::taylor::dual_tm_mul_into(env, a, b, out);
      return g_alloc_count.load(std::memory_order_relaxed) - before;
    };
    int warm = 0;
    while (allocs_of_pass() != 0 && warm < 16) ++warm;
    const DualPolyScratch& s = env.scratch().dps;
    const std::uint64_t hits = s.memo_hits, stores = s.memo_stores;
    EXPECT_EQ(allocs_of_pass(), 0u)
        << "warm dual_tm_mul_into allocated with " << count << " operands";
    EXPECT_LT(warm, 16) << "key buffers still growing with " << count
                       << " operands";
    EXPECT_GT(s.memo_hits, hits);
    if (count == 3) EXPECT_EQ(s.memo_stores, stores);
    else EXPECT_GT(s.memo_stores, stores + DualPolyScratch::kRangeMemo);
  }
}

}  // namespace
