#include "poly/dual_poly.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace dwv::poly {

using interval::DualInterval;
using interval::Interval;

void tangent_only_keys(const DualPoly& p, std::vector<std::uint64_t>& out) {
  out.clear();
  const std::size_t nd = p.dirs();
  assert(nd <= DualInterval::kMaxDirs);
  // Merge the sorted tangent channels (smallest head key first, every
  // channel holding it advanced past it) against the value channel.
  std::size_t cur[DualInterval::kMaxDirs] = {};
  std::size_t vcur = 0;
  for (;;) {
    bool any = false;
    std::uint64_t key = 0;
    for (std::size_t k = 0; k < nd; ++k) {
      const std::vector<Term>& t = p.tan[k].terms();
      if (cur[k] == t.size()) continue;
      if (!any || t[cur[k]].key < key) key = t[cur[k]].key;
      any = true;
    }
    if (!any) return;
    for (std::size_t k = 0; k < nd; ++k) {
      const std::vector<Term>& t = p.tan[k].terms();
      if (cur[k] < t.size() && t[cur[k]].key == key) ++cur[k];
    }
    if (coeff_at_cursor(p.val, vcur, key) == 0.0) out.push_back(key);
  }
}

void dual_add_into(const DualPoly& a, const DualPoly& b, DualPoly& out) {
  assert(a.dirs() == b.dirs());
  out.tan.resize(a.dirs());
  Poly::add_into(a.val, b.val, out.val);
  for (std::size_t k = 0; k < a.dirs(); ++k) {
    Poly::add_into(a.tan[k], b.tan[k], out.tan[k]);
  }
}

void dual_sub_into(const DualPoly& a, const DualPoly& b, DualPoly& out) {
  assert(a.dirs() == b.dirs());
  out.tan.resize(a.dirs());
  Poly::sub_into(a.val, b.val, out.val);
  for (std::size_t k = 0; k < a.dirs(); ++k) {
    Poly::sub_into(a.tan[k], b.tan[k], out.tan[k]);
  }
}

void dual_mul_trunc_into(const DualPoly& a, const DualPoly& b,
                         std::uint32_t max_degree, DualPoly& out,
                         DualPoly* dropped, DualPolyScratch& s) {
  assert(a.dirs() == b.dirs());
  assert(&out != &a && &out != &b && &out != dropped);
  const std::size_t nd = a.dirs();
  out.tan.resize(nd);
  if (dropped) dropped->tan.resize(nd);
  Poly::mul_trunc_into(a.val, b.val, max_degree, out.val,
                       dropped ? &dropped->val : nullptr, s.ps);
  Poly* const d1 = dropped ? &s.d1 : nullptr;
  Poly* const d2 = dropped ? &s.d2 : nullptr;
  for (std::size_t k = 0; k < nd; ++k) {
    Poly::mul_trunc_into(a.tan[k], b.val, max_degree, s.t1, d1, s.ps);
    Poly::mul_trunc_into(a.val, b.tan[k], max_degree, s.t2, d2, s.ps);
    Poly::add_into(s.t1, s.t2, out.tan[k]);
    if (dropped) Poly::add_into(s.d1, s.d2, dropped->tan[k]);
  }
}

namespace {

// Visits the words of dual_range's memo key in order: nvars, dirs, the
// domain's exact bits, then per channel (value first) the term count and
// every (key, coefficient bits) pair.
template <class F>
void visit_range_key(const DualPoly& p, const interval::IVec& dom, F&& f) {
  f(p.val.nvars());
  f(p.dirs());
  for (const Interval& x : dom) {
    f(std::bit_cast<std::uint64_t>(x.lo()));
    f(std::bit_cast<std::uint64_t>(x.hi()));
  }
  const auto channel = [&](const Poly& c) {
    f(c.term_count());
    for (const Term& t : c.terms()) {
      f(t.key);
      f(std::bit_cast<std::uint64_t>(t.coeff));
    }
  };
  channel(p.val);
  for (const Poly& t : p.tan) channel(t);
}

}  // namespace

DualInterval dual_range(const DualPoly& p, const interval::IVec& dom,
                        DualPolyScratch& s) {
  const std::size_t nvars = p.val.nvars();
  const std::size_t nd = p.dirs();
  assert(dom.size() == nvars);
  assert(nd <= DualInterval::kMaxDirs);

  // Result memo: hash the exact input bits, then compare the full key.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  visit_range_key(p, dom, [&h](std::uint64_t w) {
    h = (h ^ w) * 0x2545f4914f6cdd1dULL;
  });
  h ^= h >> 29;
  ++s.memo_clock;
  for (DualPolyScratch::RangeMemoEntry& e : s.memo) {
    if (e.hash != h) continue;
    const std::uint64_t* q = e.key.data();
    const std::uint64_t* const end = q + e.key.size();
    bool same = true;
    visit_range_key(p, dom, [&](std::uint64_t w) {
      same = same && q != end && *q++ == w;
    });
    if (same && q == end) {
      e.last_use = s.memo_clock;
      ++s.memo_hits;
      return e.result;
    }
  }

  const std::uint32_t bits = key_bits(nvars);
  const std::uint64_t mask = key_field_mask(nvars);
  const auto exp_of = [&](std::uint64_t key, std::size_t i) {
    return static_cast<std::uint32_t>((key >> (bits * (nvars - 1 - i))) &
                                      mask);
  };

  // Power table over every exponent the walks below can read.
  tangent_only_keys(p, s.keys);
  std::uint32_t max_e = 0;
  const auto scan = [&](std::uint64_t key) {
    for (std::size_t i = 0; i < nvars; ++i)
      max_e = std::max(max_e, exp_of(key, i));
  };
  for (const Term& t : p.val.terms()) scan(t.key);
  for (std::uint64_t key : s.keys) scan(key);
  const std::size_t stride = static_cast<std::size_t>(max_e) + 1;
  s.pow.resize(nvars * stride);
  s.have.assign(nvars * stride, 0);
  const auto power = [&](std::size_t i, std::uint32_t e) -> const Interval& {
    const std::size_t j = i * stride + e;
    if (!s.have[j]) {
      s.pow[j] = interval::pow_n(dom[i], e);
      s.have[j] = 1;
    }
    return s.pow[j];
  };

  // Value-present terms: the exact Poly::eval_range loop on the value
  // channel, with the coefficient's tangents threaded through the same
  // endpoint selections.
  DualInterval acc = DualInterval::constant(Interval(0.0), nd);
  std::size_t cur[DualInterval::kMaxDirs] = {};
  for (const Term& t : p.val.terms()) {
    DualInterval m = DualInterval::constant(Interval(t.coeff), nd);
    for (std::size_t k = 0; k < nd; ++k) {
      const double dc = coeff_at_cursor(p.tan[k], cur[k], t.key);
      m.dlo[k] = dc;
      m.dhi[k] = dc;
    }
    for (std::size_t i = 0; i < nvars; ++i) {
      const std::uint32_t e = exp_of(t.key, i);
      if (e > 0) m = dual_mul_const(m, power(i, e));
    }
    acc = dual_add(acc, m);
  }

  // Tangent-only keys: the value channel never sees them (bit-identity),
  // both endpoints pick up dc_k * mid2(K) with K the monomial's interval
  // product chain (central-difference limit, see header).
  std::fill(cur, cur + nd, 0);
  for (std::uint64_t key : s.keys) {
    Interval kprod(1.0);
    for (std::size_t i = 0; i < nvars; ++i) {
      const std::uint32_t e = exp_of(key, i);
      if (e > 0) interval::mul_assign_exact(kprod, power(i, e));
    }
    const double m2 = interval::mid2(kprod);
    for (std::size_t k = 0; k < nd; ++k) {
      const double dc = coeff_at_cursor(p.tan[k], cur[k], key);
      if (dc == 0.0) continue;
      acc.dlo[k] += dc * m2;
      acc.dhi[k] += dc * m2;
    }
  }

  // Record: a fresh entry while below capacity, else the least recently
  // used one (its key buffer keeps its capacity).
  ++s.memo_stores;
  DualPolyScratch::RangeMemoEntry* slot = nullptr;
  if (s.memo.size() < DualPolyScratch::kRangeMemo) {
    slot = &s.memo.emplace_back();
  } else {
    slot = &s.memo.front();
    for (DualPolyScratch::RangeMemoEntry& e : s.memo) {
      if (e.last_use < slot->last_use) slot = &e;
    }
  }
  slot->hash = h;
  slot->key.clear();
  visit_range_key(p, dom, [slot](std::uint64_t w) { slot->key.push_back(w); });
  slot->result = acc;
  slot->last_use = s.memo_clock;
  return acc;
}

}  // namespace dwv::poly
