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
  t.mid.clear();
  t.mid_powers.assign(dom.size(), {});
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

const Interval& RangeEngine::mid_power(DomainTable& t, std::size_t v,
                                       std::uint32_t e) {
  if (t.mid.size() != t.dom.size()) {
    t.mid.resize(t.dom.size());
    for (std::size_t i = 0; i < t.dom.size(); ++i) t.mid[i] = t.dom[i].mid();
  }
  std::vector<Interval>& row = t.mid_powers[v];
  if (e >= row.size()) {
    if (row.empty()) row.push_back(Interval(1.0));
    const Interval m(t.mid[v]);
    for (std::uint32_t k = static_cast<std::uint32_t>(row.size()); k <= e;
         ++k) {
      row.push_back(interval::pow_n(m, k));
      ++stats_.pow_evals;
    }
  }
  return row[e];
}

// Extends every power row of `t` to the exponents this poly uses and
// returns raw row pointers, so the walk kernels below read `rows[i][e]`
// with no growth checks or stats bookkeeping per multiply. The pointer
// array is engine-owned scratch (engines are single-threaded by contract):
// valid until the next prepare call on this engine, which is fine because
// the kernels never nest.
const Interval* const* RangeEngine::prepare_rows(const Poly& p,
                                                 DomainTable& t) {
  const std::size_t n = p.nvars();
  const std::uint32_t bits = key_bits(n);
  const std::uint64_t mask = key_field_mask(n);
  for (const Term& term : p.terms()) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t e = static_cast<std::uint32_t>(
          (term.key >> (bits * (n - 1 - i))) & mask);
      if (e >= t.powers[i].size()) (void)power(t, i, e);
    }
  }
  row_ptrs_.resize(n);
  for (std::size_t i = 0; i < n; ++i) row_ptrs_[i] = t.powers[i].data();
  return row_ptrs_.data();
}

// The seed kernel: identical walk, multiply, and accumulation order as
// Poly::eval_range, with pow_n values read from the table instead of being
// recomputed per term. mul_assign_exact gives operator*='s bits without
// the subnormal assists of the -denorm_min lower bounds (DESIGN.md §10).
Interval RangeEngine::naive_range(const Poly& p, const Interval* const* rows) {
  const std::size_t n = p.nvars();
  const std::uint32_t bits = key_bits(n);
  const std::uint64_t mask = key_field_mask(n);
  std::uint64_t exact = 0;
  Interval s(0.0);
  for (const Term& term : p.terms()) {
    Interval m(term.coeff);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t e = static_cast<std::uint32_t>(
          (term.key >> (bits * (n - 1 - i))) & mask);
      if (e > 0) exact += interval::mul_assign_exact(m, rows[i][e]);
    }
    s += m;
  }
  stats_.exact_products += exact;
  return s;
}

// Mean-value form: f(x) = f(m) + grad f(xi) . (x - m) for some xi on the
// segment [m, x] subset dom, so f(m) + grad f(dom) . (dom - m) encloses the
// range. Every operation is outward-rounded interval arithmetic, hence the
// result is sound (but not bit-comparable to the seed).
Interval RangeEngine::centered_range(const Poly& p, DomainTable& t) {
  const std::size_t n = p.nvars();
  const std::uint32_t bits = key_bits(n);
  const std::uint64_t mask = key_field_mask(n);

  // f(mid), evaluated in point-interval arithmetic for soundness.
  std::uint64_t exact = 0;
  Interval c(0.0);
  for (const Term& term : p.terms()) {
    Interval m(term.coeff);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t e = static_cast<std::uint32_t>(
          (term.key >> (bits * (n - 1 - i))) & mask);
      if (e > 0) exact += interval::mul_assign_exact(m, mid_power(t, i, e));
    }
    c += m;
  }

  const Interval* const* rows = prepare_rows(p, t);
  for (std::size_t v = 0; v < n; ++v) {
    if (t.dom[v].is_point()) continue;  // zero offset contributes nothing
    // grad_v over the full domain, from the same power table.
    Interval g(0.0);
    bool any = false;
    for (const Term& term : p.terms()) {
      const std::uint32_t ev = static_cast<std::uint32_t>(
          (term.key >> (bits * (n - 1 - v))) & mask);
      if (ev == 0) continue;
      const double dc = term.coeff * static_cast<double>(ev);
      if (dc == 0.0) continue;
      Interval m(dc);
      for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t e = static_cast<std::uint32_t>(
            (term.key >> (bits * (n - 1 - i))) & mask);
        if (i == v) --e;
        if (e > 0) exact += interval::mul_assign_exact(m, rows[i][e]);
      }
      g += m;
      any = true;
    }
    if (!any) continue;
    const Interval offset = t.dom[v] - Interval(t.dom[v].mid());
    exact += interval::mul_assign_exact(g, offset);
    c += g;
  }
  stats_.exact_products += exact;
  return c;
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

Interval RangeEngine::eval_range_pinned(const Poly& p, Pin& pin,
                                        const RangeOptions& opt) {
  ++stats_.pin_hits;
  ++stats_.table_reuses;
  DomainTable& t = tables_[pin.slot];
  const std::uint32_t kind =
      opt.mode == RangeMode::kSeedIdentical ? 0u : 1u;
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
  Interval out = naive_range(p, prepare_rows(p, t));
  if (opt.mode != RangeMode::kSeedIdentical) {
    const Interval centered = centered_range(p, t);
    const interval::IntersectResult r = interval::intersect(out, centered);
    out = r.ok ? r.value : out;
  }
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

Interval RangeEngine::eval_range(const Poly& p, const IVec& dom,
                                 const RangeOptions& opt) {
  assert(dom.size() == p.nvars());
  ++stats_.queries;
  if (!pins_.empty()) {
    if (Pin* pin = find_pin(dom)) {
      assert(same_bits(*pin->dom, tables_[pin->slot].dom) &&
             "pinned domain mutated without re-pinning");
      return eval_range_pinned(p, *pin, opt);
    }
  }
  DomainTable& t = table_for(dom);
  const std::uint32_t kind =
      opt.mode == RangeMode::kSeedIdentical ? 0u : 1u;
  const bool memo = memo_enabled_ && p.terms().size() <= kMaxMemoTerms;
  std::uint64_t h = 0;
  if (memo) {
    h = hash_terms(p, kind);
    if (const Interval* r = memo_find(t, p, kind, h)) return *r;
  }
  const Interval naive = naive_range(p, prepare_rows(p, t));
  Interval out = naive;
  if (opt.mode != RangeMode::kSeedIdentical) {
    const Interval centered = centered_range(p, t);
    const interval::IntersectResult r = interval::intersect(naive, centered);
    // Two sound enclosures always intersect; the guard only protects
    // against NaN bounds from overflowed coefficients.
    out = r.ok ? r.value : naive;
  }
  if (memo) memo_store(t, p, kind, h, out);
  return out;
}

// Identical to p.derivative(var).eval_range(dom): derivative_into appends
// the surviving terms in key order with coefficient coeff * e_var (skipping
// exact zeros), and eval_range then walks them in that same order — which
// is exactly the filtered walk below.
Interval RangeEngine::derivative_range(const Poly& p, std::size_t var,
                                       const IVec& dom) {
  assert(var < p.nvars());
  assert(dom.size() == p.nvars());
  ++stats_.queries;
  DomainTable& t = table_for(dom);
  const std::uint32_t kind = 2u + static_cast<std::uint32_t>(var);
  const bool memo = memo_enabled_ && p.terms().size() <= kMaxMemoTerms;
  std::uint64_t h = 0;
  if (memo) {
    h = hash_terms(p, kind);
    if (const Interval* r = memo_find(t, p, kind, h)) return *r;
  }
  const std::size_t n = p.nvars();
  const std::uint32_t bits = key_bits(n);
  const std::uint64_t mask = key_field_mask(n);
  const Interval* const* rows = prepare_rows(p, t);
  std::uint64_t exact = 0;
  Interval s(0.0);
  for (const Term& term : p.terms()) {
    const std::uint32_t ev = static_cast<std::uint32_t>(
        (term.key >> (bits * (n - 1 - var))) & mask);
    if (ev == 0) continue;
    const double dc = term.coeff * static_cast<double>(ev);
    if (dc == 0.0) continue;
    Interval m(dc);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t e = static_cast<std::uint32_t>(
          (term.key >> (bits * (n - 1 - i))) & mask);
      if (i == var) --e;
      if (e > 0) exact += interval::mul_assign_exact(m, rows[i][e]);
    }
    s += m;
  }
  stats_.exact_products += exact;
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
