// Forward-mode tangent bundle over Poly: a value polynomial plus one
// tangent polynomial per parameter direction, all sharing the packed-
// monomial representation and the *_into scratch discipline.
//
// The value channel of every dual operation performs EXACTLY the scalar
// Poly operation (same kernels, same term order), so dual pipelines keep
// their value bits identical to the scalar pipeline. Tangent polynomials
// ride along through the linear kernels (add/sub/mul are exact on the
// polynomial channel: d(ab) = (da)b + a(db) with the same mul_into code).
//
// Tangent-only keys — monomials whose value coefficient is exactly zero
// but whose theta-derivative is not (a controller gain currently at 0,
// a cancelled product term) — are first-class: they stay in the tangent
// polynomials (a +-h perturbation re-introduces the term with coefficient
// h*dc, far above the sweep cutoff, so perturbed runs keep it), and range
// queries account for them with the central-difference limit derived in
// dual_interval.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "interval/dual_interval.hpp"
#include "interval/ivec.hpp"
#include "poly/poly.hpp"

namespace dwv::poly {

struct DualPoly {
  Poly val;
  /// tan[k] = d(val)/d(theta_k); tan.size() == direction count.
  std::vector<Poly> tan;

  std::size_t dirs() const { return tan.size(); }

  /// Clears both channels and re-targets nvars/dirs (capacity retained).
  void reset(std::size_t nvars, std::size_t dirs) {
    val.reset(nvars);
    tan.resize(dirs);
    for (Poly& t : tan) t.reset(nvars);
  }

  /// Value-only initialization (all tangents zero).
  static DualPoly constant_like(const Poly& v, std::size_t dirs) {
    DualPoly r;
    r.val = v;
    r.tan.assign(dirs, Poly(v.nvars()));
    return r;
  }
};

/// Scratch for the dual poly/TM kernels (the dual analogue of PolyScratch;
/// see DualTmScratch for ownership rules).
struct DualPolyScratch {
  PolyScratch ps;
  /// dual_mul_trunc_into: a tangent's two product-rule terms, kept parts
  /// (t1, t2) and parts above the degree cap (d1, d2).
  Poly t1;
  Poly t2;
  Poly d1;
  Poly d2;
  std::vector<std::uint64_t> keys;  ///< tangent-only key enumeration
  /// dual_range's per-call power table: pow[i * stride + e] is
  /// interval::pow_n(dom[i], e) once have[i * stride + e] is set.
  std::vector<interval::Interval> pow;
  std::vector<std::uint8_t> have;

  /// dual_range result memo: the exact input bits (nvars, dirs, domain,
  /// every channel's keys and coefficients) and the recorded result. A
  /// lookup matches on the hash, then compares the full key; a miss
  /// evicts the least recently used entry, reusing its key buffer.
  struct RangeMemoEntry {
    std::uint64_t hash = 0;
    std::vector<std::uint64_t> key;
    interval::DualInterval result;
    std::uint64_t last_use = 0;
  };
  static constexpr std::size_t kRangeMemo = 32;
  std::vector<RangeMemoEntry> memo;
  std::uint64_t memo_clock = 0;
  std::uint64_t memo_hits = 0;    ///< queries answered from the memo
  std::uint64_t memo_stores = 0;  ///< results recorded in the memo
};

/// Collects, sorted ascending, every key present in some tangent channel
/// of `p` whose value coefficient is zero (absent, or stored as 0.0).
void tangent_only_keys(const DualPoly& p, std::vector<std::uint64_t>& out);

/// Coefficient of `key` in `p` (0 when absent), for a caller that visits
/// keys in ascending order: `cur` is the caller's cursor into p's terms,
/// advanced past every key below `key` (start it at 0).
inline double coeff_at_cursor(const Poly& p, std::size_t& cur,
                              std::uint64_t key) {
  const std::vector<Term>& t = p.terms();
  while (cur < t.size() && t[cur].key < key) ++cur;
  return (cur < t.size() && t[cur].key == key) ? t[cur].coeff : 0.0;
}

/// out = a + b per channel (Poly::add_into; out must not alias a or b).
void dual_add_into(const DualPoly& a, const DualPoly& b, DualPoly& out);
/// out = a - b per channel.
void dual_sub_into(const DualPoly& a, const DualPoly& b, DualPoly& out);
/// Truncated product: out receives the terms of a * b of total degree <=
/// max_degree in every channel, `dropped` (when given) the terms above it.
/// The value channel is Poly::mul_trunc_into; each tangent is the product
/// rule tan_k = a.tan_k * b.val + a.val * b.tan_k with both terms
/// truncated, the kept parts added into out and the dropped parts into
/// dropped. The add merges key by key and a key fixes its degree, so this
/// is bit-identical to the full product followed by split_by_degree_into
/// in every channel. out and dropped must not alias a, b or each other.
void dual_mul_trunc_into(const DualPoly& a, const DualPoly& b,
                         std::uint32_t max_degree, DualPoly& out,
                         DualPoly* dropped, DualPolyScratch& s);
/// out = a * b: the uncapped dual_mul_trunc_into.
inline void dual_mul_into(const DualPoly& a, const DualPoly& b, DualPoly& out,
                          DualPolyScratch& s) {
  dual_mul_trunc_into(a, b, kNoDegreeCap, out, nullptr, s);
}

/// Forward-mode analogue of Poly::eval_range over domain `dom`: the value
/// channel replicates Poly::eval_range bit for bit (which RangeEngine
/// also reproduces, so this matches TmEnv::poly_range); the tangent
/// channel differentiates it.
///
/// Value-present terms chain dual multiplications whose selection follows
/// the actual endpoint comparisons. Tangent-only keys contribute
/// dc_k * mid2(K) to both endpoints, where K is the monomial's interval
/// product chain — the central-difference limit of re-introducing the term
/// with coefficient +-h*dc (see dual_interval.hpp).
///
/// Each pow_n(dom[i], e) is computed once per call, and results are
/// memoized in `s` by exact input bits (DualPolyScratch::memo): a repeated
/// query returns the recorded bits of the identical earlier one.
interval::DualInterval dual_range(const DualPoly& p,
                                  const interval::IVec& dom,
                                  DualPolyScratch& s);

}  // namespace dwv::poly
