#include "poly/range_engine.hpp"

#include <bit>
#include <cassert>
#include <cstring>

namespace dwv::poly {

using interval::Interval;
using interval::IVec;

namespace {

// Exact bit equality of two term vectors (memcmp: Term is a {u64, double}
// POD, and coefficient identity must be by bits, not operator==).
bool terms_equal(const std::vector<Term>& a, const std::vector<Term>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Term)) == 0);
}

// Exact-bits domain identity: bit_cast comparison so signed zeros and NaN
// payloads count as distinct (the table caches pow_n of these exact bits).
bool same_bits(const IVec& a, const IVec& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i].lo()) !=
            std::bit_cast<std::uint64_t>(b[i].lo()) ||
        std::bit_cast<std::uint64_t>(a[i].hi()) !=
            std::bit_cast<std::uint64_t>(b[i].hi())) {
      return false;
    }
  }
  return true;
}

// Cheap multiplicative hash over the exact term bytes and query kind, used
// by both result memos. Hash quality affects only the collision rate (a
// full term-byte compare gates every hit), so two fused multiply-xor
// rounds per term are enough.
std::uint64_t hash_terms(const Poly& p, std::uint32_t kind) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^
                    (static_cast<std::uint64_t>(kind) << 32) ^
                    p.terms().size();
  for (const Term& t : p.terms()) {
    h = (h ^ t.key) * 0x2545f4914f6cdd1dULL;
    h = (h ^ std::bit_cast<std::uint64_t>(t.coeff)) * 0x2545f4914f6cdd1dULL;
  }
  return h ^ (h >> 29);
}

}  // namespace

RangeEngine::DomainTable& RangeEngine::table_for(const IVec& dom) {
  ++clock_;
  // Fast path: the previous query's table (flowpipe runs alternate between
  // at most two domains, so this hits nearly always).
  if (mru_ < tables_.size() && same_bits(tables_[mru_].dom, dom)) {
    DomainTable& t = tables_[mru_];
    t.last_use = clock_;
    ++stats_.table_reuses;
    return t;
  }
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    if (same_bits(tables_[i].dom, dom)) {
      mru_ = i;
      tables_[i].last_use = clock_;
      ++stats_.table_reuses;
      return tables_[i];
    }
  }
  ++stats_.table_builds;
  std::size_t slot = tables_.size();
  if (tables_.size() < kMaxTables) {
    tables_.emplace_back();
  } else {
    // Evict the least-recently-used UNPINNED table; when everything is
    // pinned, grow past kMaxTables rather than invalidating a pin.
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      if (tables_[i].pinned) continue;
      if (slot == tables_.size() ||
          tables_[i].last_use < tables_[slot].last_use) {
        slot = i;
      }
    }
    if (slot == tables_.size()) tables_.emplace_back();
  }
  DomainTable& t = tables_[slot];
  t.dom = dom;
  t.powers.assign(dom.size(), {});
  t.memo.clear();
  t.smemo.clear();
  t.smemo_clock = 0;
  t.last_use = clock_;
  t.pinned = false;
  mru_ = slot;
  return t;
}

const Interval* RangeEngine::memo_find(DomainTable& t, const Poly& p,
                                       std::uint32_t kind, std::uint64_t h) {
  for (DomainTable::MemoEntry& e : t.memo) {
    if (e.kind == kind && e.hash == h && terms_equal(e.terms, p.terms())) {
      e.last_use = clock_;
      ++stats_.memo_hits;
      return &e.result;
    }
  }
  return nullptr;
}

void RangeEngine::memo_store(DomainTable& t, const Poly& p,
                             std::uint32_t kind, std::uint64_t h,
                             const Interval& r) {
  ++stats_.memo_stores;
  DomainTable::MemoEntry* slot = nullptr;
  if (t.memo.size() < kMaxMemo) {
    slot = &t.memo.emplace_back();
  } else {
    slot = &t.memo.front();
    for (DomainTable::MemoEntry& e : t.memo) {
      if (e.last_use < slot->last_use) slot = &e;
    }
  }
  slot->hash = h;
  slot->kind = kind;
  slot->terms = p.terms();
  slot->result = r;
  slot->last_use = clock_;
}

const Interval& RangeEngine::power(DomainTable& t, std::size_t v,
                                   std::uint32_t e) {
  std::vector<Interval>& row = t.powers[v];
  if (e >= row.size()) {
    if (row.empty()) row.push_back(Interval(1.0));
    for (std::uint32_t k = static_cast<std::uint32_t>(row.size()); k <= e;
         ++k) {
      row.push_back(interval::pow_n(t.dom[v], k));
      ++stats_.pow_evals;
    }
  }
  return row[e];
}

namespace {

// RN(x * y) for non-negative x, y; mul_exact takes the subnormal operands
// (same bits, no assist).
double mul_rn(double x, double y, std::uint64_t& exact) {
  if (interval::detail::is_subnormal(x) | interval::detail::is_subnormal(y))
      [[unlikely]] {
    ++exact;
    return interval::mul_exact(x, y);
  }
  return x * y;
}

// Zero-term and constant-only polys: the walk's result without the walk,
// the hash or the memo (a derivative of either is zero-term).
bool trivial_range(const Poly& p, bool deriv, Interval& out) {
  const std::vector<Term>& ts = p.terms();
  const bool constant = ts.size() == 1 && ts[0].key == 0;
  if (ts.empty() || (constant && deriv)) {
    out = Interval(0.0);
    return true;
  }
  if (constant) {
    out = Interval(0.0) + Interval(ts[0].coeff);
    return true;
  }
  return false;
}

}  // namespace

// The seed kernel: identical walk, multiply, and accumulation order as
// Poly::eval_range (and, for kDeriv, as derivative(var).eval_range: the
// surviving terms in key order with coefficient coeff * e_var, exact zeros
// skipped), with pow_n values read from the table instead of being
// recomputed per term. Each term's running product m is the point [c, c]
// before its first factor, symmetric [-M, M], or general. Once a factor is
// symmetric, so is the product, and operator*='s min/max of four products
// is +-RN(M * mag(row)) (or +-RN(mag(m) * a) for a row [-a, a]): RN is
// sign-symmetric and monotone in magnitude, and outward() treats +-0
// alike, so the product is [-ulp_up(R), ulp_up(R)] for that one rounded
// R. Non-finite values take mul_assign_exact, which gives operator*='s
// bits without the subnormal assists of the -denorm_min lower bounds
// (DESIGN.md section 10), as does every other product.
template <bool kDeriv>
Interval RangeEngine::naive_range(const Poly& p, DomainTable& t,
                                  std::size_t var) {
  const std::size_t n = p.nvars();
  const std::uint32_t bits = key_bits(n);
  const std::uint64_t mask = key_field_mask(n);
  row_ptrs_.resize(n);
  row_lens_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    row_ptrs_[i] = t.powers[i].data();
    row_lens_[i] = t.powers[i].size();
  }
  std::uint64_t exact = 0;
  Interval s(0.0);
  for (const Term& term : p.terms()) {
    double c = term.coeff;
    if constexpr (kDeriv) {
      const std::uint32_t ev = static_cast<std::uint32_t>(
          (term.key >> (bits * (n - 1 - var))) & mask);
      if (ev == 0) continue;
      c *= static_cast<double>(ev);
      if (c == 0.0) continue;
    }
    Interval m(c);
    bool sym = false;  // m is [-half, half]
    double half = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t e = static_cast<std::uint32_t>(
          (term.key >> (bits * (n - 1 - i))) & mask);
      if constexpr (kDeriv) {
        if (i == var) --e;
      }
      if (e == 0) continue;
      if (e >= row_lens_[i]) [[unlikely]] {
        (void)power(t, i, e);
        row_ptrs_[i] = t.powers[i].data();
        row_lens_[i] = t.powers[i].size();
      }
      const Interval& r = row_ptrs_[i][e];
      if (sym) {
        if (std::isfinite(half) && r.is_finite()) {
          half = interval::detail::ulp_up(mul_rn(half, r.mag(), exact));
          continue;
        }
        m = Interval(-half, half);
        sym = false;
      } else if (r.lo() == -r.hi() && r.is_finite() && m.is_finite()) {
        half = interval::detail::ulp_up(mul_rn(m.mag(), r.hi(), exact));
        sym = true;
        continue;
      }
      exact += interval::mul_assign_exact(m, r);
    }
    if (sym) m = Interval(-half, half);
    s += m;
  }
  stats_.exact_products += exact;
  return s;
}

void RangeEngine::pin_domain(const IVec& dom, std::uint32_t cap_hint) {
  DomainTable& t = table_for(dom);
  t.pinned = true;
  if (t.smemo.empty()) t.smemo.resize(kStreamMemo);
  for (std::size_t v = 0; v < dom.size(); ++v) (void)power(t, v, cap_hint);
  Pin* pin = find_pin(dom);
  if (pin == nullptr) {
    pins_.emplace_back();
    pin = &pins_.back();
    pin->dom = &dom;
  }
  pin->slot = static_cast<std::size_t>(&t - tables_.data());
  // A re-pin can move to a different table (same address, new bits);
  // recompute which tables still hold a pin.
  for (DomainTable& tab : tables_) tab.pinned = false;
  for (const Pin& pn : pins_) tables_[pn.slot].pinned = true;
}

void RangeEngine::unpin_all() {
  pins_.clear();
  for (DomainTable& t : tables_) t.pinned = false;
}

Interval RangeEngine::eval_range_pinned(const Poly& p, Pin& pin) {
  ++stats_.pin_hits;
  ++stats_.table_reuses;
  DomainTable& t = tables_[pin.slot];
  constexpr std::uint32_t kind = 0;  // eval (derivatives use 2 + var)
  const bool memo = memo_enabled_ &&
                    p.terms().size() >= kStreamMemoMinTerms &&
                    p.terms().size() <= kMaxMemoTerms;
  std::uint64_t h = 0;
  DomainTable::StreamMemoEntry* slot = nullptr;
  if (memo) {
    h = hash_terms(p, kind);
    DomainTable::StreamMemoEntry* set =
        &t.smemo[(h % (kStreamMemo / kStreamMemoWays)) * kStreamMemoWays];
    slot = set;
    for (std::size_t w = 0; w < kStreamMemoWays; ++w) {
      DomainTable::StreamMemoEntry& e = set[w];
      if (e.kind == kind && e.hash == h && terms_equal(e.terms, p.terms())) {
        e.last_use = ++t.smemo_clock;
        ++stats_.memo_hits;
        return e.result;
      }
      if (e.last_use < slot->last_use) slot = &e;
    }
  }
  const Interval out = naive_range<false>(p, t);
  if (memo) {
    ++stats_.memo_stores;
    slot->hash = h;
    slot->kind = kind;
    slot->terms = p.terms();
    slot->result = out;
    slot->last_use = ++t.smemo_clock;
  }
  return out;
}

Interval RangeEngine::eval_range(const Poly& p, const IVec& dom) {
  assert(dom.size() == p.nvars());
  ++stats_.queries;
  Interval trivial;
  if (trivial_range(p, false, trivial)) return trivial;
  if (!pins_.empty()) {
    if (Pin* pin = find_pin(dom)) {
      assert(same_bits(*pin->dom, tables_[pin->slot].dom) &&
             "pinned domain mutated without re-pinning");
      return eval_range_pinned(p, *pin);
    }
  }
  DomainTable& t = table_for(dom);
  constexpr std::uint32_t kind = 0;  // eval (derivatives use 2 + var)
  const bool memo = memo_enabled_ && p.terms().size() <= kMaxMemoTerms;
  std::uint64_t h = 0;
  if (memo) {
    h = hash_terms(p, kind);
    if (const Interval* r = memo_find(t, p, kind, h)) return *r;
  }
  const Interval out = naive_range<false>(p, t);
  if (memo) memo_store(t, p, kind, h, out);
  return out;
}

Interval RangeEngine::derivative_range(const Poly& p, std::size_t var,
                                       const IVec& dom) {
  assert(var < p.nvars());
  assert(dom.size() == p.nvars());
  ++stats_.queries;
  Interval trivial;
  if (trivial_range(p, true, trivial)) return trivial;
  DomainTable& t = table_for(dom);
  const std::uint32_t kind = 2u + static_cast<std::uint32_t>(var);
  const bool memo = memo_enabled_ && p.terms().size() <= kMaxMemoTerms;
  std::uint64_t h = 0;
  if (memo) {
    h = hash_terms(p, kind);
    if (const Interval* r = memo_find(t, p, kind, h)) return *r;
  }
  const Interval s = naive_range<true>(p, t, var);
  if (memo) memo_store(t, p, kind, h, s);
  return s;
}

void RangeLanes::bind(const double* lo, const double* hi,
                      std::size_t nvars) {
  nvars_ = nvars;
  dom_lo_.assign(lo, lo + nvars * kWidth);
  dom_hi_.assign(hi, hi + nvars * kWidth);
  powers_.resize(nvars);
  max_e_.assign(nvars, 0);
  for (std::size_t v = 0; v < nvars; ++v) {
    powers_[v].clear();
    // Exponent 0 row: the multiplicative identity in every lane (never
    // multiplied in — naive_range skips e == 0 — but keeps row indexing
    // uniform with RangeEngine's tables).
    powers_[v].resize(2 * kWidth, 1.0);
  }
  m_lo_.resize(kWidth);
  m_hi_.resize(kWidth);
}

void RangeLanes::extend_row(std::size_t v, std::uint32_t e) {
  std::vector<double>& row = powers_[v];
  row.resize((e + 1) * 2 * kWidth);
  for (std::uint32_t k = max_e_[v] + 1; k <= e; ++k) {
    double* blk = row.data() + k * 2 * kWidth;
    for (std::size_t lane = 0; lane < kWidth; ++lane) {
      const Interval p =
          interval::pow_n(Interval(dom_lo_[v * kWidth + lane],
                                   dom_hi_[v * kWidth + lane]),
                          k);
      blk[lane] = p.lo();
      blk[kWidth + lane] = p.hi();
    }
  }
  max_e_[v] = e;
}

void RangeLanes::eval(const Poly& p, double* out_lo, double* out_hi) {
  assert(p.nvars() == nvars_);
  const std::size_t n = nvars_;
  const std::uint32_t bits = key_bits(n);
  const std::uint64_t mask = key_field_mask(n);
  for (const Term& term : p.terms()) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t e = static_cast<std::uint32_t>(
          (term.key >> (bits * (n - 1 - i))) & mask);
      if (e > max_e_[i]) extend_row(i, e);
    }
  }
  const interval::lanes::Ops& ops = interval::lanes::active_ops();
  // s = Interval(0.0), accumulated in seed term order per lane.
  for (std::size_t lane = 0; lane < kWidth; ++lane) {
    out_lo[lane] = 0.0;
    out_hi[lane] = 0.0;
  }
  for (const Term& term : p.terms()) {
    // m = Interval(term.coeff), a degenerate interval in every lane.
    for (std::size_t lane = 0; lane < kWidth; ++lane) {
      m_lo_[lane] = term.coeff;
      m_hi_[lane] = term.coeff;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t e = static_cast<std::uint32_t>(
          (term.key >> (bits * (n - 1 - i))) & mask);
      if (e > 0) {
        const double* blk = powers_[i].data() + e * 2 * kWidth;
        ops.mul(m_lo_.data(), m_hi_.data(), blk, blk + kWidth, m_lo_.data(),
                m_hi_.data());
      }
    }
    ops.add(out_lo, out_hi, m_lo_.data(), m_hi_.data(), out_lo, out_hi);
  }
}

}  // namespace dwv::poly
