// Sparse multivariate polynomials over a fixed number of variables.
//
// These are the symbolic backbone of the Taylor-model arithmetic: a Taylor
// model is a Poly plus an interval remainder. Terms are stored as a single
// sorted vector of packed monomials: each exponent vector is encoded into
// one uint64_t key with a fixed bit-field per variable, variable 0 in the
// MOST significant field, so numeric key order equals the lexicographic
// order the previous std::map<Exponents, double> representation iterated
// in. Every operation visits terms in that same order, which keeps all
// floating-point results bit-identical to the map-based implementation
// (DESIGN.md section 9) while replacing per-term heap nodes with flat,
// cache-friendly scans.
//
// Bit budget: key_bits(nvars) bits per variable (32 for nvars <= 2, else
// 64 / nvars). Exponents that do not fit are a hard error at encode time
// (std::overflow_error) — never silent wraparound. Polynomials over more
// than 64 variables can only represent constants.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <ostream>
#include <vector>

#include "interval/ivec.hpp"
#include "linalg/vec.hpp"

namespace dwv::poly {

/// Exponent vector of a monomial; exps.size() == number of variables.
using Exponents = std::vector<std::uint32_t>;

/// Total degree of an exponent vector.
std::uint32_t total_degree(const Exponents& e);

/// One packed monomial: bit-packed exponents plus coefficient.
struct Term {
  std::uint64_t key = 0;
  double coeff = 0.0;

  friend bool operator==(const Term& a, const Term& b) {
    return a.key == b.key && a.coeff == b.coeff;
  }
};

/// Bits per exponent field for a given variable count.
inline std::uint32_t key_bits(std::size_t nvars) {
  if (nvars <= 2) return 32;
  if (nvars > 64) return 0;
  return static_cast<std::uint32_t>(64 / nvars);
}

/// Largest exponent a field can hold (0 when nvars > 64: constants only).
inline std::uint32_t key_max_exp(std::size_t nvars) {
  const std::uint32_t b = key_bits(nvars);
  if (b == 0) return 0;
  if (b >= 32) return 0xffffffffu;
  return (1u << b) - 1u;
}

/// Bit offset of variable i's field (variable 0 is most significant).
inline std::uint32_t key_shift(std::size_t nvars, std::size_t i) {
  assert(i < nvars);
  return key_bits(nvars) * static_cast<std::uint32_t>(nvars - 1 - i);
}

inline std::uint64_t key_field_mask(std::size_t nvars) {
  const std::uint32_t b = key_bits(nvars);
  if (b == 0) return 0;
  if (b >= 32) return 0xffffffffull;
  return (1ull << b) - 1ull;
}

/// Packs an exponent vector; throws std::overflow_error when a component
/// exceeds the bit budget.
std::uint64_t encode_key(const Exponents& e);

/// Packs without throwing; returns false on overflow.
bool try_encode_key(const Exponents& e, std::uint64_t& key);

/// Exponent of variable i in a packed key.
inline std::uint32_t key_exp(std::uint64_t key, std::size_t nvars,
                             std::size_t i) {
  return static_cast<std::uint32_t>((key >> key_shift(nvars, i)) &
                                    key_field_mask(nvars));
}

/// Total degree of a packed key.
inline std::uint32_t key_degree(std::uint64_t key, std::size_t nvars) {
  const std::uint32_t b = key_bits(nvars);
  if (nvars == 0 || b == 0) return 0;
  const std::uint64_t mask = key_field_mask(nvars);
  std::uint32_t d = 0;
  for (std::size_t i = 0; i < nvars; ++i) {
    d += static_cast<std::uint32_t>(key & mask);
    key >>= b;
  }
  return d;
}

/// Unpacks a key into an exponent vector (resized to nvars).
void decode_key(std::uint64_t key, std::size_t nvars, Exponents& out);

/// Degree cap of Poly::mul_trunc_into that keeps every product.
inline constexpr std::uint32_t kNoDegreeCap = 0xffffffffu;

/// Largest exponent box (radix^nvars slots) the dense-slot multiply
/// accumulates in; larger boxes take the stable-merge fallback.
inline constexpr std::size_t kMulSlotCap = 4096;

/// Reusable buffers for the multiply kernel (and stable key sorts). One
/// per computation context; see TmScratch ownership rules in DESIGN.md §9.
struct PolyScratch {
  std::vector<Term> prod;
  std::vector<Term> tmp;
  /// Dense-slot multiply: per-term total degree and slot, a's terms first
  /// and then b's.
  std::vector<std::uint32_t> deg;
  std::vector<std::size_t> slot;
  /// Slot table and its touched bitmaps (kept slots, then slots above the
  /// degree cap); all-zero between calls.
  std::vector<Term> table;
  std::vector<std::uint64_t> touched;
};

/// Stable bottom-up merge sort of terms by key (equal keys keep their
/// input order — the property the bit-identity argument rests on). Uses
/// `tmp` as scratch; no allocation once both vectors are warm. When v is
/// already made of key-sorted runs of length `run`, merging starts there.
void stable_sort_terms(std::vector<Term>& v, std::vector<Term>& tmp,
                       std::size_t run = 1);

/// Sparse polynomial in `nvars` real variables.
class Poly {
 public:
  Poly() = default;
  explicit Poly(std::size_t nvars) : nvars_(nvars) {}

  /// The constant polynomial c.
  static Poly constant(std::size_t nvars, double c);
  /// The coordinate polynomial x_i.
  static Poly variable(std::size_t nvars, std::size_t i);
  /// Adopts `terms` verbatim (must be sorted by key strictly ascending, in
  /// this nvars layout). The deserialization hook: a stored term vector is
  /// re-adopted without re-sorting or zero-dropping, so the round-tripped
  /// polynomial carries exactly the bits that were written.
  static Poly from_sorted_terms(std::size_t nvars, std::vector<Term> terms) {
    Poly p(nvars);
    assert(std::is_sorted(
        terms.begin(), terms.end(),
        [](const Term& a, const Term& b) { return a.key < b.key; }));
    p.terms_ = std::move(terms);
    return p;
  }

  std::size_t nvars() const { return nvars_; }
  bool is_zero() const { return terms_.empty(); }
  std::size_t term_count() const { return terms_.size(); }
  std::uint32_t degree() const;

  /// Clears terms and re-targets the variable count (capacity retained).
  void reset(std::size_t nvars) {
    nvars_ = nvars;
    terms_.clear();
  }

  /// Coefficient of a monomial (0 when absent or not encodable).
  double coeff(const Exponents& e) const;
  /// Adds `c` to the coefficient of monomial `e`; drops resulting zeros.
  void add_term(const Exponents& e, double c);
  /// Same, with a pre-packed key (must belong to this poly's layout).
  void add_term_key(std::uint64_t key, double c);
  /// Appends a term whose key is strictly above every stored key. The
  /// fast path for kernels that produce terms already in order.
  void push_term(std::uint64_t key, double c) {
    assert(terms_.empty() || terms_.back().key < key);
    terms_.push_back({key, c});
  }
  /// The constant term.
  double constant_term() const {
    return (!terms_.empty() && terms_.front().key == 0) ? terms_.front().coeff
                                                        : 0.0;
  }

  /// Terms sorted by packed key ascending (== the old map's lex order).
  const std::vector<Term>& terms() const { return terms_; }

  /// Exponent of variable i in term t (decoded in this poly's layout).
  std::uint32_t exp_of(const Term& t, std::size_t i) const {
    return key_exp(t.key, nvars_, i);
  }

  Poly& operator+=(const Poly& o);
  Poly& operator-=(const Poly& o);
  Poly& operator*=(double s);
  friend Poly operator+(Poly a, const Poly& b) { return a += b; }
  friend Poly operator-(Poly a, const Poly& b) { return a -= b; }
  friend Poly operator*(Poly a, double s) { return a *= s; }
  friend Poly operator*(double s, Poly a) { return a *= s; }
  friend Poly operator-(Poly a) { return a *= -1.0; }
  friend Poly operator*(const Poly& a, const Poly& b);

  /// out = a + b (merge; out must not alias a or b). Accumulation order
  /// per key matches the old add_term loop, so results are bit-identical.
  static void add_into(const Poly& a, const Poly& b, Poly& out);
  /// out = a - b.
  static void sub_into(const Poly& a, const Poly& b, Poly& out);
  /// out = a * b: mul_trunc_into without a degree cap.
  static void mul_into(const Poly& a, const Poly& b, Poly& out,
                       PolyScratch& s) {
    mul_trunc_into(a, b, kNoDegreeCap, out, nullptr, s);
  }
  /// Truncated product: out receives the terms of a * b of total degree
  /// <= max_degree. With `dropped` the terms above it land there; without,
  /// products above it are never formed. Bit-identical to mul_into
  /// followed by split_by_degree_into(max_degree, *dropped) (or a degree
  /// discard): the row-major products accumulate per key in ascending
  /// a-term order, the exact order of the old nested add_term loop
  /// (DESIGN.md section 9). Throws std::overflow_error when some variable's
  /// exponents can sum past its key field, truncated or not. out and
  /// dropped must not alias a, b or each other.
  static void mul_trunc_into(const Poly& a, const Poly& b,
                             std::uint32_t max_degree, Poly& out,
                             Poly* dropped, PolyScratch& s);
  /// Appends a key-sorted contribution stream to out's terms, accumulating
  /// equal keys with add_term semantics (skip zero contributions, drop
  /// exact-zero running sums). The stream must be sorted with equal keys in
  /// accumulation order; out must already target the right variable count.
  static void coalesce_into(const std::vector<Term>& in, Poly& out);

  /// Point evaluation.
  double eval(const linalg::Vec& x) const;

  /// Sound interval enclosure of the range over box `dom` (naive interval
  /// extension; adequate for the short, low-degree polynomials used here).
  interval::Interval eval_range(const interval::IVec& dom) const;

  /// Substitutes polynomial `subs[i]` for variable i (composition). All
  /// substituted polynomials must share a variable count, which becomes the
  /// variable count of the result.
  Poly compose(const std::vector<Poly>& subs) const;

  /// Partial derivative with respect to variable i.
  Poly derivative(std::size_t i) const;
  void derivative_into(std::size_t i, Poly& out) const;

  /// Splits into (kept, dropped): kept has total degree <= max_degree,
  /// dropped contains the rest. Used for TM truncation.
  std::pair<Poly, Poly> split_by_degree(std::uint32_t max_degree) const;
  /// In-place variant: *this becomes the kept part (single linear pass).
  void split_by_degree_into(std::uint32_t max_degree, Poly& dropped);

  /// Removes terms with |coeff| <= tol, returning the dropped part.
  Poly prune_small(double tol);
  /// In-place variant writing the dropped part into `dropped`.
  void prune_small_into(double tol, Poly& dropped);

  /// Fused split_by_degree + prune_small for callers that discard the
  /// swept-away terms: one linear pass, no dropped/small buffers. The kept
  /// term list is exactly what split_by_degree_into(max_degree, _) followed
  /// by prune_small_into(tol, _) (the latter only when tol > 0) would leave.
  void truncate_discard(std::uint32_t max_degree, double tol);

  /// Re-encodes into a layout with more variables (appended, exponent 0).
  /// Skips zero coefficients, matching the old lift's add_term semantics.
  void lift_vars_into(std::size_t new_nvars, Poly& out) const;
  /// Drops the last variable (must have exponent 0 everywhere).
  void drop_last_var_into(Poly& out) const;

  double max_abs_coeff() const;

  friend std::ostream& operator<<(std::ostream& os, const Poly& p);

 private:
  static void merge_into(const Poly& a, const Poly& b, bool negate,
                         Poly& out);

  std::size_t nvars_ = 0;
  /// Sorted by key ascending; keys unique. Zero coefficients can persist
  /// (scalar multiply keeps them, exactly like the map representation did);
  /// only the add/accumulate paths drop exact zeros.
  std::vector<Term> terms_;
};

/// Power of a polynomial by repeated squaring.
Poly pow(const Poly& base, std::uint32_t n);

}  // namespace dwv::poly
