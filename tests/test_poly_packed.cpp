// Differential tests for the packed-monomial polynomial kernel: every
// operation must reproduce the retained map-based reference implementation
// (poly/poly_ref.hpp) bit for bit, the key codec must reject exponents that
// exceed the bit budget, and a warm Taylor-model flowpipe step must perform
// zero heap allocations (the perf contract of DESIGN.md section 9).
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <new>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "interval/ivec.hpp"
#include "poly/poly.hpp"
#include "poly/poly_ref.hpp"
#include "reach/tm_dynamics.hpp"
#include "reach/tm_flowpipe.hpp"
#include "taylor/taylor_model.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: every path through operator new bumps it, so a
// test can assert that a code region performs no heap allocations.
// ---------------------------------------------------------------------------

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

using dwv::interval::Interval;
using dwv::interval::IVec;
using dwv::poly::decode_key;
using dwv::poly::encode_key;
using dwv::poly::Exponents;
using dwv::poly::key_bits;
using dwv::poly::key_max_exp;
using dwv::poly::kMulSlotCap;
using dwv::poly::kNoDegreeCap;
using dwv::poly::Poly;
using dwv::poly::PolyScratch;
using dwv::poly::Term;
using dwv::poly::try_encode_key;
using dwv::poly::ref::RefPoly;
using dwv::poly::ref::to_packed;
using dwv::poly::ref::to_ref;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Packed and reference polynomials must hold the same terms in the same
// order with bit-identical coefficients (including signed zeros).
void expect_same(const Poly& p, const RefPoly& r, const char* what) {
  ASSERT_EQ(p.nvars(), r.nvars()) << what;
  ASSERT_EQ(p.term_count(), r.term_count()) << what;
  auto it = r.terms().begin();
  Exponents e;
  for (const Term& t : p.terms()) {
    decode_key(t.key, p.nvars(), e);
    EXPECT_EQ(e, it->first) << what;
    EXPECT_EQ(bits(t.coeff), bits(it->second)) << what;
    ++it;
  }
}

struct PairGen {
  std::mt19937_64 rng;

  explicit PairGen(std::uint64_t seed) : rng(seed) {}

  double coeff() {
    // Mix smooth values with exact zeros, negatives, and tiny magnitudes
    // so cancellation, zero-dropping, and prune paths all fire.
    switch (rng() % 8) {
      case 0:
        return 0.0;
      case 1:
        return -1.0;
      case 2:
        return 1e-14;
      default: {
        std::uniform_real_distribution<double> d(-2.0, 2.0);
        return d(rng);
      }
    }
  }

  Exponents exps(std::size_t nvars, std::uint32_t max_per_var) {
    Exponents e(nvars);
    for (auto& x : e)
      x = static_cast<std::uint32_t>(rng() % (max_per_var + 1));
    return e;
  }

  // Builds a packed/reference pair through the identical add_term sequence.
  std::pair<Poly, RefPoly> make(std::size_t nvars, std::size_t max_terms,
                                std::uint32_t max_per_var) {
    Poly p(nvars);
    RefPoly r(nvars);
    const std::size_t k = rng() % (max_terms + 1);
    for (std::size_t t = 0; t < k; ++t) {
      const Exponents e = exps(nvars, max_per_var);
      const double c = coeff();
      p.add_term(e, c);
      r.add_term(e, c);
    }
    return {std::move(p), std::move(r)};
  }
};

// ---------------------------------------------------------------------------
// Key codec
// ---------------------------------------------------------------------------

TEST(PolyPackedKeys, BitBudgetPerVariableCount) {
  EXPECT_EQ(key_bits(1), 32u);
  EXPECT_EQ(key_bits(2), 32u);
  EXPECT_EQ(key_bits(3), 21u);
  EXPECT_EQ(key_bits(4), 16u);
  EXPECT_EQ(key_bits(8), 8u);
  EXPECT_EQ(key_bits(64), 1u);
  EXPECT_EQ(key_bits(65), 0u);
  EXPECT_EQ(key_max_exp(2), 0xffffffffu);
  EXPECT_EQ(key_max_exp(8), 255u);
  EXPECT_EQ(key_max_exp(65), 0u);
}

TEST(PolyPackedKeys, RoundTripAndLexOrder) {
  PairGen g(101);
  for (std::size_t nvars : {1u, 2u, 3u, 5u, 8u}) {
    const std::uint32_t cap = std::min<std::uint32_t>(key_max_exp(nvars), 9);
    Exponents prev_e;
    std::uint64_t prev_k = 0;
    for (int i = 0; i < 500; ++i) {
      const Exponents e = g.exps(nvars, cap);
      const std::uint64_t k = encode_key(e);
      Exponents back;
      decode_key(k, nvars, back);
      ASSERT_EQ(back, e);
      if (i > 0) {
        // Key order must equal exponent-vector lexicographic order: that
        // equivalence is what makes packed iteration reproduce the old
        // std::map iteration (and its floating-point accumulation order).
        EXPECT_EQ(prev_k < k, prev_e < e);
        EXPECT_EQ(prev_k == k, prev_e == e);
      }
      prev_e = e;
      prev_k = k;
    }
  }
}

TEST(PolyPackedKeys, OverflowIsAHardError) {
  // nvars = 3 gives 21 bits per field.
  Exponents big{1u << 21, 0, 0};
  std::uint64_t k = 0;
  EXPECT_FALSE(try_encode_key(big, k));
  EXPECT_THROW(encode_key(big), std::overflow_error);

  Poly p(3);
  EXPECT_THROW(p.add_term(big, 1.0), std::overflow_error);

  // Multiplication whose product degree exceeds the field must throw, not
  // silently wrap into a neighboring variable's field.
  Poly a(8);
  a.add_term(Exponents{200, 0, 0, 0, 0, 0, 0, 0}, 1.0);
  Poly b(8);
  b.add_term(Exponents{100, 0, 0, 0, 0, 0, 0, 0}, 1.0);
  EXPECT_THROW(a * b, std::overflow_error);

  // More than 64 variables: only constants are representable.
  EXPECT_NO_THROW(Poly::constant(70, 2.5));
  EXPECT_THROW(Poly::variable(70, 0), std::overflow_error);
}

// ---------------------------------------------------------------------------
// Randomized differential suite vs the map-based reference
// ---------------------------------------------------------------------------

TEST(PolyPackedDifferential, AllOpsBitIdenticalToReference) {
  PairGen g(7);
  for (int iter = 0; iter < 1000; ++iter) {
    const std::size_t nvars = 1 + iter % 4;
    auto [pa, ra] = g.make(nvars, 6, 3);
    auto [pb, rb] = g.make(nvars, 6, 3);

    expect_same(pa, ra, "build a");
    expect_same(to_packed(ra), ra, "to_packed");
    expect_same(pa, to_ref(pa), "to_ref");

    expect_same(pa + pb, ra + rb, "add");
    expect_same(pa - pb, ra - rb, "sub");
    expect_same(-pa, -ra, "negate");
    expect_same(pa * pb, ra * rb, "mul");

    const double s = iter % 5 == 0 ? 0.0 : g.coeff();
    expect_same(pa * s, ra * s, "scale");

    for (std::size_t i = 0; i < nvars; ++i)
      expect_same(pa.derivative(i), ra.derivative(i), "derivative");

    expect_same(dwv::poly::pow(pa, 3), dwv::poly::ref::pow(ra, 3), "pow");

    // Composition: substitute a fresh random polynomial per variable.
    std::vector<Poly> psubs;
    std::vector<RefPoly> rsubs;
    for (std::size_t i = 0; i < nvars; ++i) {
      auto [ps, rs] = g.make(nvars, 3, 2);
      psubs.push_back(std::move(ps));
      rsubs.push_back(std::move(rs));
    }
    expect_same(pa.compose(psubs), ra.compose(rsubs), "compose");

    // Point evaluation and interval range: bit-identical scalars.
    dwv::linalg::Vec x(nvars);
    IVec dom;
    dom.resize(nvars);
    for (std::size_t i = 0; i < nvars; ++i) {
      x[i] = g.coeff();
      const double lo = -std::abs(g.coeff());
      dom[i] = Interval(lo, lo + std::abs(g.coeff()));
    }
    EXPECT_EQ(bits(pa.eval(x)), bits(ra.eval(x)));
    const Interval pr = pa.eval_range(dom);
    const Interval rr = ra.eval_range(dom);
    EXPECT_EQ(bits(pr.lo()), bits(rr.lo()));
    EXPECT_EQ(bits(pr.hi()), bits(rr.hi()));

    // Truncation helpers.
    const auto [pkeep, pdrop] = pa.split_by_degree(2);
    const auto [rkeep, rdrop] = ra.split_by_degree(2);
    expect_same(pkeep, rkeep, "split keep");
    expect_same(pdrop, rdrop, "split drop");

    Poly pp = pa;
    RefPoly rp = ra;
    expect_same(pp.prune_small(1e-12), rp.prune_small(1e-12), "prune drop");
    expect_same(pp, rp, "prune keep");

    EXPECT_EQ(bits(pa.max_abs_coeff()), bits(ra.max_abs_coeff()));
    EXPECT_EQ(pa.degree(), ra.degree());
    EXPECT_EQ(bits(pa.constant_term()), bits(ra.constant_term()));
  }
}

TEST(PolyPackedDifferential, EmptyAndConstantEdgeCases) {
  const Poly zero(2);
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.degree(), 0u);
  EXPECT_EQ((zero * zero).term_count(), 0u);
  EXPECT_EQ((zero + zero).term_count(), 0u);

  const Poly c = Poly::constant(2, 3.5);
  EXPECT_EQ(c.constant_term(), 3.5);
  EXPECT_EQ((c * zero).term_count(), 0u);
  expect_same(c * c, to_ref(c) * to_ref(c), "const mul");

  // Exact cancellation drops the term, as add_term always did.
  Poly a(2);
  a.add_term({1, 0}, 1.5);
  Poly b(2);
  b.add_term({1, 0}, 1.5);
  EXPECT_TRUE((a - b).is_zero());

  // Scalar multiply by exact zero clears all terms (the map implementation
  // special-cased s == 0.0); any other scale keeps zero-underflowed
  // coefficients in place.
  Poly k = a;
  k *= 0.0;
  EXPECT_TRUE(k.is_zero());
  RefPoly rk = to_ref(a);
  rk *= 0.0;
  expect_same(k, rk, "scale by zero");

  // Zero-variable polynomials are constants.
  const Poly c0 = Poly::constant(0, 2.0);
  EXPECT_EQ(c0.eval(dwv::linalg::Vec{}), 2.0);
}

// ---------------------------------------------------------------------------
// Truncating multiply: kept and dropped parts formed in one pass must equal
// the full product split by degree, and the map-based reference.
// ---------------------------------------------------------------------------

// Bit equality, except that two NaNs match whatever their payloads: which
// payload survives NaN + NaN depends on the operand order the compiler
// picks for a commutative add, in the kernel and the reference alike.
bool same_coeff(double x, double y) {
  return bits(x) == bits(y) || (std::isnan(x) && std::isnan(y));
}

void expect_same_terms(const Poly& p, const Poly& q, const char* what) {
  ASSERT_EQ(p.nvars(), q.nvars()) << what;
  ASSERT_EQ(p.term_count(), q.term_count()) << what;
  for (std::size_t i = 0; i < p.term_count(); ++i) {
    EXPECT_EQ(p.terms()[i].key, q.terms()[i].key) << what;
    EXPECT_TRUE(same_coeff(p.terms()[i].coeff, q.terms()[i].coeff))
        << what << ": " << p.terms()[i].coeff << " vs "
        << q.terms()[i].coeff;
  }
}

void expect_same_terms(const Poly& p, const RefPoly& r, const char* what) {
  expect_same_terms(p, to_packed(r), what);
}

// The slot table and bitmap must be all-zero after every call: the next
// call accumulates from +0.0 and trusts an unset bit to mean "untouched".
void expect_scratch_zeroed(const PolyScratch& s) {
  for (const Term& t : s.table) ASSERT_EQ(bits(t.coeff), 0u);
  for (std::uint64_t w : s.touched) ASSERT_EQ(w, 0u);
}

struct OperandGen {
  std::mt19937_64 rng;
  bool specials = false;  // ±0.0 operands, underflow, Inf and NaN

  explicit OperandGen(std::uint64_t seed) : rng(seed) {}

  double coeff() {
    // Small dyadic values make exact cancellation (and re-accumulation
    // into the cancelled key) frequent; 1e-160 squares to a subnormal and
    // 1e-200 * 1e-160 underflows to zero.
    static constexpr double kDyadic[] = {1.0, -1.0, 0.5, -0.5, 1.5, -1.5,
                                         2.0, -2.0, 0.25};
    static constexpr double kSpecial[] = {
        0.0, -0.0, 1e-160, -1e-160, 1e-200,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()};
    const std::uint64_t r = rng() % 20;
    if (specials && r < 4) return kSpecial[rng() % std::size(kSpecial)];
    if (r < 15) return kDyadic[rng() % std::size(kDyadic)];
    std::uniform_real_distribution<double> d(-2.0, 2.0);
    return d(rng);
  }

  // Operand adopted verbatim (zero coefficients kept, as a scalar multiply
  // can leave them), with between 1 and max_terms distinct monomials.
  Poly make(std::size_t nvars, std::size_t max_terms,
            std::uint32_t max_per_var) {
    std::map<std::uint64_t, double> terms;
    const std::size_t k = 1 + rng() % max_terms;
    Exponents e(nvars);
    for (std::size_t t = 0; t < k; ++t) {
      for (auto& x : e)
        x = static_cast<std::uint32_t>(rng() % (max_per_var + 1));
      terms[encode_key(e)] = coeff();
    }
    std::vector<Term> v;
    for (const auto& [key, c] : terms) v.push_back({key, c});
    return Poly::from_sorted_terms(nvars, std::move(v));
  }
};

// mul_trunc_into(a, b, cap) against mul_into + split_by_degree_into, the
// poly-only (no dropped buffer) form against mul_into + degree discard, and
// both against the map-based reference product split by degree.
void check_mul_trunc(const Poly& a, const Poly& b, std::uint32_t cap,
                     PolyScratch& s) {
  Poly kept, dropped, kept_only, full, full_drop;
  Poly::mul_trunc_into(a, b, cap, kept, &dropped, s);
  expect_scratch_zeroed(s);
  Poly::mul_trunc_into(a, b, cap, kept_only, nullptr, s);
  expect_scratch_zeroed(s);
  Poly::mul_into(a, b, full, s);
  Poly full_discard = full;
  full_discard.truncate_discard(cap, 0.0);
  full.split_by_degree_into(cap, full_drop);
  expect_same_terms(kept, full, "kept vs mul_into + split");
  expect_same_terms(dropped, full_drop, "dropped vs mul_into + split");
  expect_same_terms(kept_only, full_discard, "poly-only vs discard");

  const auto [rk, rd] = (to_ref(a) * to_ref(b)).split_by_degree(cap);
  expect_same_terms(kept, rk, "kept vs reference");
  expect_same_terms(dropped, rd, "dropped vs reference");
}

TEST(PolyMulTrunc, RandomizedMatchesSplitAndReference) {
  OperandGen g(29);
  PolyScratch s;  // shared: every call must leave it clean for the next
  const std::uint32_t caps[] = {0, 1, 2, 3, 4, 6, kNoDegreeCap};
  const std::uint32_t per_var[] = {8, 6, 4, 3, 2, 2, 1, 1, 1};
  for (int iter = 0; iter < 3000; ++iter) {
    const std::size_t nvars = static_cast<std::size_t>(iter % 9);
    g.specials = (iter / 9) % 2 == 1;
    // Every third pair has a one-term operand (the direct-emission path).
    const std::size_t max_a = iter % 3 == 0 ? 1 : 8;
    const Poly a = g.make(nvars, max_a, per_var[nvars]);
    const Poly b = g.make(nvars, 8, per_var[nvars]);
    const std::uint32_t cap = caps[(iter / 18) % std::size(caps)];
    SCOPED_TRACE(testing::Message() << "iter " << iter << " nvars " << nvars
                                    << " cap " << cap);
    check_mul_trunc(a, b, cap, s);
    check_mul_trunc(b, a, cap, s);
    if (HasFatalFailure()) return;
  }
}

TEST(PolyMulTrunc, CancellationThenReaccumulation) {
  // Key x0^2 receives 1 (ia=0), -1 (ia=1, the running sum cancels to an
  // exact zero and the term is erased), then 1 again (ia=2, re-inserted);
  // x0^3 cancels for good and must not appear at all.
  Poly a(2);
  a.add_term({0, 0}, 1.0);
  a.add_term({1, 0}, 1.0);
  a.add_term({2, 0}, 1.0);
  Poly b(2);
  b.add_term({0, 0}, 1.0);
  b.add_term({1, 0}, -1.0);
  b.add_term({2, 0}, 1.0);
  PolyScratch s;
  for (std::uint32_t cap : {1u, 2u, 3u, kNoDegreeCap}) check_mul_trunc(a, b, cap, s);
  Poly out;
  Poly::mul_into(a, b, out, s);
  EXPECT_EQ(out.coeff({2, 0}), 1.0);
  EXPECT_EQ(out.coeff({3, 0}), 0.0);
  EXPECT_EQ(out.term_count(), 3u);  // 1, x0^2, x0^4
}

TEST(PolyMulTrunc, SignedZerosUnderflowInfAndNan) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // a = -0.0 + 1e-200 x0 + inf x1 + nan x0 x1, b = 1e-160 + 0.0 x0 - inf x1
  const Poly a = Poly::from_sorted_terms(
      2, {{encode_key({0, 0}), -0.0},
          {encode_key({0, 1}), inf},
          {encode_key({1, 0}), 1e-200},
          {encode_key({1, 1}), nan}});
  const Poly b = Poly::from_sorted_terms(
      2, {{encode_key({0, 0}), 1e-160},
          {encode_key({0, 1}), -inf},
          {encode_key({1, 0}), 0.0}});
  PolyScratch s;
  for (std::uint32_t cap : {0u, 1u, 2u, kNoDegreeCap}) {
    check_mul_trunc(a, b, cap, s);
    check_mul_trunc(b, a, cap, s);
  }
  Poly out;
  Poly::mul_into(a, b, out, s);
  // Zero and underflowing products never create a term: x0 gets only
  // 1e-200 * 1e-160 (underflows to zero), so it is absent.
  EXPECT_EQ(out.coeff({1, 0}), 0.0);
  EXPECT_EQ(out.term_count(), 5u);      // x1, x1^2, x0 x1, x0 x1^2, x0^2 x1
  EXPECT_TRUE(std::isnan(out.coeff({0, 1})));  // -0.0 * -inf, then + inf
  EXPECT_EQ(out.coeff({0, 2}), -inf);          // inf * -inf
  EXPECT_TRUE(std::isnan(out.coeff({1, 1})));
}

TEST(PolyMulTrunc, FallbackAboveTableCap) {
  OperandGen g(57);
  PolyScratch s;
  int fallbacks = 0;
  for (int iter = 0; iter < 200; ++iter) {
    g.specials = iter % 2 == 1;
    const Poly a = g.make(2, 10, 40);
    const Poly b = g.make(2, 10, 40);
    const std::size_t radix = a.degree() + b.degree() + 1;
    if (a.term_count() < 2 || b.term_count() < 2 ||
        radix * radix <= kMulSlotCap)
      continue;  // one-term or dense path: covered above
    ++fallbacks;
    for (std::uint32_t cap : {3u, 40u, 80u, kNoDegreeCap})
      check_mul_trunc(a, b, cap, s);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(fallbacks, 100);
}

TEST(PolyMulTrunc, OverflowThrowsEvenWhenTruncatedAway) {
  // nvars = 8: 8-bit fields. Every product that overflows x0's field has
  // degree >= 300, far above the cap, yet the key-budget error stands.
  Poly a(8);
  a.add_term(Exponents{200, 0, 0, 0, 0, 0, 0, 0}, 1.0);
  Poly b(8);
  b.add_term(Exponents{100, 0, 0, 0, 0, 0, 0, 0}, 1.0);
  Poly a2 = a;
  a2.add_term(Exponents(8, 0), 1.0);
  Poly b2 = b;
  b2.add_term(Exponents(8, 0), 1.0);
  PolyScratch s;
  Poly out, dropped;
  for (const auto& [x, y] : {std::pair{&a, &b}, std::pair{&a2, &b2}}) {
    EXPECT_THROW(Poly::mul_trunc_into(*x, *y, 3, out, &dropped, s),
                 std::overflow_error);
    EXPECT_THROW(Poly::mul_trunc_into(*x, *y, 3, out, nullptr, s),
                 std::overflow_error);
    expect_scratch_zeroed(s);
  }
}

// ---------------------------------------------------------------------------
// Taylor-model layer: in-place kernels match the value API, and the legacy
// multiplication chain is preserved for small powers.
// ---------------------------------------------------------------------------

namespace taylor_tests {

using dwv::taylor::TaylorModel;
using dwv::taylor::TmEnv;
using dwv::taylor::TmVec;

TmEnv make_env(std::size_t nvars) {
  TmEnv env;
  env.dom.resize(nvars);
  for (std::size_t i = 0; i < nvars; ++i) env.dom[i] = Interval(-0.5, 0.5);
  env.order = 3;
  env.cutoff = 1e-12;
  return env;
}

TaylorModel random_tm(PairGen& g, std::size_t nvars) {
  auto [p, r] = g.make(nvars, 5, 2);
  const double w = std::abs(g.coeff()) * 1e-3;
  return {std::move(p), Interval(-w, w)};
}

void expect_tm_equal(const TaylorModel& a, const TaylorModel& b,
                     const char* what) {
  ASSERT_EQ(a.poly.term_count(), b.poly.term_count()) << what;
  EXPECT_TRUE(a.poly.terms() == b.poly.terms()) << what;
  EXPECT_EQ(bits(a.rem.lo()), bits(b.rem.lo())) << what;
  EXPECT_EQ(bits(a.rem.hi()), bits(b.rem.hi())) << what;
}

TEST(TmPacked, IntoKernelsMatchValueApi) {
  PairGen g(23);
  const std::size_t nvars = 3;
  const dwv::taylor::TmEnv env = make_env(nvars);
  for (int iter = 0; iter < 200; ++iter) {
    const TaylorModel a = random_tm(g, nvars);
    const TaylorModel b = random_tm(g, nvars);

    TaylorModel out;
    dwv::taylor::tm_mul_into(env, a, b, out);
    expect_tm_equal(out, dwv::taylor::tm_mul(env, a, b), "tm_mul");

    dwv::taylor::tm_pow_into(env, a, 1 + iter % 5, out);
    expect_tm_equal(out, dwv::taylor::tm_pow(env, a, 1 + iter % 5),
                    "tm_pow");

    TaylorModel t = a;
    dwv::taylor::tm_truncate_inplace(env, t);
    expect_tm_equal(t, dwv::taylor::tm_truncate(env, a), "tm_truncate");

    dwv::taylor::tm_integrate_time_into(env, a, nvars - 1, out);
    expect_tm_equal(out, dwv::taylor::tm_integrate_time(env, a, nvars - 1),
                    "tm_integrate_time");

    dwv::taylor::tm_subst_var_into(env, a, iter % nvars, 0.25, out);
    expect_tm_equal(
        out, dwv::taylor::tm_subst_var(env, a, iter % nvars, 0.25),
        "tm_subst_var");

    auto [fp, fr] = g.make(2, 4, 2);
    (void)fr;
    const TmVec args{a, b};
    dwv::taylor::tm_eval_poly_into(env, fp, args, out);
    expect_tm_equal(out, dwv::taylor::tm_eval_poly(env, fp, args),
                    "tm_eval_poly");
  }
}

// Reference for the truncating kernels: form every term, then let
// tm_truncate_inplace sweep the tail (and push its range to the tape).
TaylorModel integrate_then_sweep(const TmEnv& env, const TaylorModel& tm,
                                 std::size_t tv) {
  const std::size_t nv = tm.poly.nvars();
  TaylorModel out;
  out.poly.reset(nv);
  const std::uint64_t unit = 1ull << dwv::poly::key_shift(nv, tv);
  for (const Term& t : tm.poly.terms()) {
    const double q = t.coeff / (dwv::poly::key_exp(t.key, nv, tv) + 1.0);
    if (q != 0.0) out.poly.push_term(t.key + unit, q);
  }
  out.rem = env.scratch().poly_only
                ? Interval(0.0)
                : dwv::interval::hull(
                      Interval(0.0), tm.rem * Interval(env.dom[tv].mag()));
  dwv::taylor::tm_truncate_inplace(env, out);
  return out;
}

TaylorModel mul_then_sweep(const TmEnv& env, const TaylorModel& a,
                           const TaylorModel& b) {
  dwv::taylor::TmScratch& s = env.scratch();
  TaylorModel out;
  Poly::mul_into(a.poly, b.poly, out.poly, s.pscratch);
  if (s.poly_only) {
    out.rem = Interval(0.0);
  } else {
    const Interval ra = env.poly_range(a.poly);
    const Interval rb = env.poly_range(b.poly);
    s.rem_tape.push(ra);
    s.rem_tape.push(rb);
    out.rem = ra * b.rem + rb * a.rem + a.rem * b.rem;
  }
  dwv::taylor::tm_truncate_inplace(env, out);
  return out;
}

void expect_tapes_equal(const std::vector<Interval>& x,
                        const std::vector<Interval>& y, const char* what) {
  ASSERT_EQ(x.size(), y.size()) << what;
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(bits(x[i].lo()), bits(y[i].lo())) << what;
    EXPECT_EQ(bits(x[i].hi()), bits(y[i].hi())) << what;
  }
}

TEST(TmPacked, TruncatingKernelsMatchSweep) {
  // tm_mul_into and tm_integrate_time_into route terms above the order
  // while forming them; the results and the recorded tail ranges must be
  // those of the full product / integral swept by tm_truncate_inplace, in
  // the full channel and the poly_only channel alike.
  PairGen g(47);
  const std::size_t nvars = 3;
  const TmEnv env = make_env(nvars);
  dwv::taylor::TmScratch& s = env.scratch();
  for (const bool poly_only : {false, true}) {
    s.poly_only = poly_only;
    for (int iter = 0; iter < 200; ++iter) {
      const TaylorModel a = random_tm(g, nvars);
      const TaylorModel b = random_tm(g, nvars);
      TaylorModel fused;

      s.rem_tape.start_record();
      dwv::taylor::tm_mul_into(env, a, b, fused);
      const std::vector<Interval> fused_tape = s.rem_tape.consts;
      s.rem_tape.start_record();
      const TaylorModel swept = mul_then_sweep(env, a, b);
      expect_tm_equal(fused, swept, "tm_mul_into");
      expect_tapes_equal(fused_tape, s.rem_tape.consts, "tm_mul_into tape");

      const std::size_t tv = static_cast<std::size_t>(iter) % nvars;
      s.rem_tape.start_record();
      dwv::taylor::tm_integrate_time_into(env, a, tv, fused);
      const std::vector<Interval> integ_tape = s.rem_tape.consts;
      s.rem_tape.start_record();
      const TaylorModel integ = integrate_then_sweep(env, a, tv);
      expect_tm_equal(fused, integ, "tm_integrate_time_into");
      expect_tapes_equal(integ_tape, s.rem_tape.consts,
                         "tm_integrate_time_into tape");
      s.rem_tape.stop();
    }
  }
  s.poly_only = false;
}

TEST(TmPacked, SmallPowersMatchLegacyChain) {
  PairGen g(31);
  const dwv::taylor::TmEnv env = make_env(2);
  for (int iter = 0; iter < 50; ++iter) {
    const TaylorModel a = random_tm(g, 2);

    expect_tm_equal(dwv::taylor::tm_pow(env, a, 0),
                    TaylorModel::constant(env, 1.0), "pow 0");
    expect_tm_equal(dwv::taylor::tm_pow(env, a, 1), a, "pow 1");

    // The legacy implementation multiplied left to right; orders <= 3 must
    // keep that exact chain (they are the orders the verifiers run at).
    TaylorModel chain = a;
    for (std::uint32_t n = 2; n <= 3; ++n) {
      chain = dwv::taylor::tm_mul(env, chain, a);
      expect_tm_equal(dwv::taylor::tm_pow(env, a, n), chain, "pow chain");
    }
  }
}

// ---------------------------------------------------------------------------
// Flowpipe step: concurrency (fresh scratch per env copy) and the
// zero-allocation steady state.
// ---------------------------------------------------------------------------

struct StepFixture {
  TmEnv env;
  TmVec state;
  TmVec control;
  dwv::reach::PolyTmDynamics dyn;
  dwv::reach::TmReachOptions opt;

  StepFixture()
      : dyn([] {
          // f over (x0, x1, u): a damped oscillator with a quadratic
          // coupling term and additive control.
          Poly f0(3);
          f0.add_term({0, 1, 0}, 1.0);
          Poly f1(3);
          f1.add_term({1, 0, 0}, -1.0);
          f1.add_term({0, 1, 0}, -0.5);
          f1.add_term({1, 1, 0}, 0.1);
          f1.add_term({0, 0, 1}, 1.0);
          return std::vector<Poly>{f0, f1};
        }()) {
    env = make_env(2);
    for (std::size_t i = 0; i < 2; ++i) env.dom[i] = Interval(-0.1, 0.1);
    state.push_back(TaylorModel::variable(env, 0));
    state.push_back(TaylorModel::variable(env, 1));
    control.push_back(TaylorModel::constant(env, 0.25));
  }
};

TEST(TmPacked, ConcurrentStepsMatchSerial) {
  const StepFixture fx;
  const dwv::reach::TmStepResult base = dwv::reach::tm_integrate_step(
      fx.env, fx.state, fx.control, fx.dyn, 0.05, fx.opt);
  ASSERT_TRUE(base.ok) << base.failure;

  // Copied envs build private scratch, so threads never share buffers;
  // results must still be deterministic and equal to the serial run.
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const TmEnv env = fx.env;  // fresh scratch for this thread
      dwv::reach::TmStepResult res;
      for (int i = 0; i < 25; ++i) {
        dwv::reach::tm_integrate_step(env, fx.state, fx.control, fx.dyn,
                                      0.05, fx.opt, res);
        if (!res.ok || !(res.at_end[0].poly.terms() ==
                         base.at_end[0].poly.terms()) ||
            !(res.at_end[1].poly.terms() == base.at_end[1].poly.terms()) ||
            bits(res.at_end[0].rem.lo()) != bits(base.at_end[0].rem.lo()) ||
            bits(res.at_end[1].rem.hi()) != bits(base.at_end[1].rem.hi())) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(TmPacked, WarmTmMulIsAllocationFree) {
  // Order-3 products over 3 variables, both channels: the full-channel
  // pass (kept and dropped parts, tail ranges) and the poly_only pass.
  // Three operands keep every range query of a pass (operands, degree
  // tails, cutoff sweeps) inside the range engine's result memo, whose
  // evictions re-copy terms.
  PairGen g(41);
  const TmEnv env = make_env(3);
  std::vector<TaylorModel> ops;
  for (int i = 0; i < 3; ++i) ops.push_back(random_tm(g, 3));
  TaylorModel out;
  const auto run = [&] {
    for (const TaylorModel& a : ops)
      for (const TaylorModel& b : ops) dwv::taylor::tm_mul_into(env, a, b, out);
  };
  for (const bool poly_only : {false, true}) {
    env.scratch().poly_only = poly_only;
    run();  // warm the scratch, the output and the range engine
    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    run();
    const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "warm tm_mul_into allocated (poly_only = " << poly_only << ")";
  }
  env.scratch().poly_only = false;
}

TEST(TmPacked, SteadyStateStepIsAllocationFree) {
  const StepFixture fx;
  dwv::reach::TmStepResult res;
  // Warm every scratch buffer and the result's own vectors.
  for (int i = 0; i < 10; ++i) {
    dwv::reach::tm_integrate_step(fx.env, fx.state, fx.control, fx.dyn, 0.05,
                                  fx.opt, res);
  }
  ASSERT_TRUE(res.ok) << res.failure;

  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 20; ++i) {
    dwv::reach::tm_integrate_step(fx.env, fx.state, fx.control, fx.dyn, 0.05,
                                  fx.opt, res);
  }
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state flowpipe step performed heap allocations";
  ASSERT_TRUE(res.ok) << res.failure;
}

}  // namespace taylor_tests

}  // namespace
