#include "poly/poly.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace dwv::poly {

std::uint32_t total_degree(const Exponents& e) {
  std::uint32_t d = 0;
  for (auto x : e) d += x;
  return d;
}

namespace {

[[noreturn]] void throw_key_overflow(std::size_t nvars, std::size_t var,
                                     std::uint64_t exp) {
  std::ostringstream os;
  os << "poly: exponent " << exp << " of variable " << var
     << " exceeds the packed-key budget (" << key_bits(nvars)
     << " bits per variable over " << nvars
     << " variables, max exponent " << key_max_exp(nvars) << ")";
  throw std::overflow_error(os.str());
}

}  // namespace

bool try_encode_key(const Exponents& e, std::uint64_t& key) {
  const std::size_t n = e.size();
  const std::uint32_t bits = key_bits(n);
  const std::uint32_t cap = key_max_exp(n);
  std::uint64_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (e[i] > cap) return false;
    k = (k << bits) | static_cast<std::uint64_t>(e[i]);
  }
  key = k;
  return true;
}

std::uint64_t encode_key(const Exponents& e) {
  const std::size_t n = e.size();
  const std::uint32_t cap = key_max_exp(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (e[i] > cap) throw_key_overflow(n, i, e[i]);
  }
  std::uint64_t k = 0;
  const std::uint32_t bits = key_bits(n);
  for (std::size_t i = 0; i < n; ++i) {
    k = (k << bits) | static_cast<std::uint64_t>(e[i]);
  }
  return k;
}

void decode_key(std::uint64_t key, std::size_t nvars, Exponents& out) {
  out.resize(nvars);
  for (std::size_t i = 0; i < nvars; ++i) out[i] = key_exp(key, nvars, i);
}

void stable_sort_terms(std::vector<Term>& v, std::vector<Term>& tmp,
                       std::size_t run) {
  const std::size_t total = v.size();
  if (total < 2) return;
  std::vector<Term>* src = &v;
  std::vector<Term>* dst = &tmp;
  for (std::size_t width = run; width < total; width *= 2) {
    dst->resize(total);
    for (std::size_t start = 0; start < total; start += 2 * width) {
      const std::size_t mid = std::min(start + width, total);
      const std::size_t end = std::min(start + 2 * width, total);
      std::size_t i = start, j = mid, w = start;
      // <= keeps equal keys in input order (left run first): stability.
      while (i < mid && j < end) {
        if ((*src)[i].key <= (*src)[j].key)
          (*dst)[w++] = (*src)[i++];
        else
          (*dst)[w++] = (*src)[j++];
      }
      while (i < mid) (*dst)[w++] = (*src)[i++];
      while (j < end) (*dst)[w++] = (*src)[j++];
    }
    std::swap(src, dst);
  }
  if (src != &v) v.swap(*src);
}

Poly Poly::constant(std::size_t nvars, double c) {
  Poly p(nvars);
  if (c != 0.0) p.terms_.push_back({0, c});
  return p;
}

Poly Poly::variable(std::size_t nvars, std::size_t i) {
  assert(i < nvars);
  if (key_max_exp(nvars) < 1) throw_key_overflow(nvars, i, 1);
  Poly p(nvars);
  p.terms_.push_back({1ull << key_shift(nvars, i), 1.0});
  return p;
}

std::uint32_t Poly::degree() const {
  std::uint32_t d = 0;
  for (const Term& t : terms_) d = std::max(d, key_degree(t.key, nvars_));
  return d;
}

double Poly::coeff(const Exponents& e) const {
  if (e.size() != nvars_) return 0.0;
  std::uint64_t key = 0;
  if (!try_encode_key(e, key)) return 0.0;
  const auto it = std::lower_bound(
      terms_.begin(), terms_.end(), key,
      [](const Term& t, std::uint64_t k) { return t.key < k; });
  return (it != terms_.end() && it->key == key) ? it->coeff : 0.0;
}

void Poly::add_term(const Exponents& e, double c) {
  assert(e.size() == nvars_);
  if (c == 0.0) return;
  add_term_key(encode_key(e), c);
}

void Poly::add_term_key(std::uint64_t key, double c) {
  if (c == 0.0) return;
  const auto it = std::lower_bound(
      terms_.begin(), terms_.end(), key,
      [](const Term& t, std::uint64_t k) { return t.key < k; });
  if (it != terms_.end() && it->key == key) {
    it->coeff += c;
    if (it->coeff == 0.0) terms_.erase(it);
  } else {
    terms_.insert(it, Term{key, c});
  }
}

// Merge a and b into out. Per common key the single addition a.c + (+-b.c)
// matches what the old `for (o terms) add_term(e, c)` loop computed; zero
// contributions are skipped and exactly-zero sums dropped, replicating
// add_term's semantics bit for bit.
void Poly::merge_into(const Poly& a, const Poly& b, bool negate, Poly& out) {
  assert(&out != &a && &out != &b);
  assert(a.nvars_ == b.nvars_ || a.is_zero() || b.is_zero());
  out.reset(a.nvars_ != 0 ? a.nvars_ : b.nvars_);
  const std::size_t na = a.terms_.size(), nb = b.terms_.size();
  std::size_t i = 0, j = 0;
  while (i < na && j < nb) {
    const Term& ta = a.terms_[i];
    const Term& tb = b.terms_[j];
    if (ta.key < tb.key) {
      out.terms_.push_back(ta);
      ++i;
    } else if (ta.key > tb.key) {
      const double cb = negate ? -tb.coeff : tb.coeff;
      if (cb != 0.0) out.terms_.push_back({tb.key, cb});
      ++j;
    } else {
      const double cb = negate ? -tb.coeff : tb.coeff;
      if (cb == 0.0) {
        out.terms_.push_back(ta);
      } else {
        const double sum = ta.coeff + cb;
        if (sum != 0.0) out.terms_.push_back({ta.key, sum});
      }
      ++i;
      ++j;
    }
  }
  for (; i < na; ++i) out.terms_.push_back(a.terms_[i]);
  for (; j < nb; ++j) {
    const double cb = negate ? -b.terms_[j].coeff : b.terms_[j].coeff;
    if (cb != 0.0) out.terms_.push_back({b.terms_[j].key, cb});
  }
}

void Poly::add_into(const Poly& a, const Poly& b, Poly& out) {
  merge_into(a, b, false, out);
}

void Poly::sub_into(const Poly& a, const Poly& b, Poly& out) {
  merge_into(a, b, true, out);
}

Poly& Poly::operator+=(const Poly& o) {
  thread_local Poly tmp;
  merge_into(*this, o, false, tmp);
  nvars_ = tmp.nvars_;
  terms_.swap(tmp.terms_);
  return *this;
}

Poly& Poly::operator-=(const Poly& o) {
  thread_local Poly tmp;
  merge_into(*this, o, true, tmp);
  nvars_ = tmp.nvars_;
  terms_.swap(tmp.terms_);
  return *this;
}

Poly& Poly::operator*=(double s) {
  if (s == 0.0) {
    terms_.clear();
    return *this;
  }
  for (Term& t : terms_) t.coeff *= s;
  return *this;
}

// Replicates add_term applied to a key-sorted contribution stream: zero
// contributions are skipped without touching the accumulator, exact-zero
// running sums are erased (a later contribution to the same key then
// re-inserts fresh, exactly like the map's erase + emplace).
void Poly::coalesce_into(const std::vector<Term>& in, Poly& out) {
  std::vector<Term>& t = out.terms_;
  for (const Term& x : in) {
    if (x.coeff == 0.0) continue;
    if (!t.empty() && t.back().key == x.key) {
      t.back().coeff += x.coeff;
      if (t.back().coeff == 0.0) t.pop_back();
    } else {
      t.push_back(x);
    }
  }
}

namespace {

// Calls fn with the variable count as a compile-time constant for the
// verifiers' shapes (2-4 variables), so the per-field loops unroll.
template <typename Fn>
void with_nvars(std::size_t nv, Fn&& fn) {
  switch (nv) {
    case 2: return fn(std::integral_constant<std::size_t, 2>{});
    case 3: return fn(std::integral_constant<std::size_t, 3>{});
    case 4: return fn(std::integral_constant<std::size_t, 4>{});
    default: return fn(nv);
  }
}

// Total degree of a packed key, free of key_degree's 32-bit wrap (two
// 32-bit fields can sum past 2^32).
template <typename N>
std::uint64_t degree64(std::uint64_t key, N nv) {
  const std::uint32_t b = key_bits(nv);
  if (b == 0) return 0;
  const std::uint64_t mask = key_field_mask(nv);
  std::uint64_t d = 0;
  for (std::size_t i = 0; i < nv; ++i, key >>= b) d += key & mask;
  return d;
}

// Exact overflow guard for key addition: when some variable's exponents in
// a and b can sum past its field, adding keys could silently corrupt the
// neighbouring field — a documented hard error instead.
void check_mul_overflow(const Poly& a, const Poly& b, std::size_t nv) {
  const std::uint32_t cap = key_max_exp(nv);
  assert(nv <= 64);
  std::array<std::uint32_t, 64> ma{}, mb{};
  for (const Term& t : a.terms()) {
    for (std::size_t i = 0; i < nv; ++i)
      ma[i] = std::max(ma[i], key_exp(t.key, nv, i));
  }
  for (const Term& t : b.terms()) {
    for (std::size_t i = 0; i < nv; ++i)
      mb[i] = std::max(mb[i], key_exp(t.key, nv, i));
  }
  for (std::size_t i = 0; i < nv; ++i) {
    const std::uint64_t sum =
        static_cast<std::uint64_t>(ma[i]) + static_cast<std::uint64_t>(mb[i]);
    if (sum > cap) throw_key_overflow(nv, i, sum);
  }
}

}  // namespace

void Poly::mul_trunc_into(const Poly& a, const Poly& b,
                          std::uint32_t max_degree, Poly& out, Poly* dropped,
                          PolyScratch& s) {
  assert(&out != &a && &out != &b && &out != dropped);
  assert(dropped != &a && dropped != &b);
  assert(a.nvars_ == b.nvars_ || a.is_zero() || b.is_zero());
  const std::size_t nv = std::max(a.nvars_, b.nvars_);
  out.reset(nv);
  if (dropped) dropped->reset(nv);
  if (a.terms_.empty() || b.terms_.empty()) return;

  // Term degrees (the truncation test) and the operands' maximum degrees
  // (the overflow fast path and the slot radix), once per term.
  const std::size_t na = a.terms_.size(), nb = b.terms_.size();
  s.deg.resize(na + nb);
  std::uint64_t da = 0, db = 0;
  with_nvars(nv, [&](auto n) {
    for (std::size_t i = 0; i < na; ++i) {
      const std::uint64_t d = degree64(a.terms_[i].key, n);
      s.deg[i] = static_cast<std::uint32_t>(d);
      da = std::max(da, d);
    }
    for (std::size_t i = 0; i < nb; ++i) {
      const std::uint64_t d = degree64(b.terms_[i].key, n);
      s.deg[na + i] = static_cast<std::uint32_t>(d);
      db = std::max(db, d);
    }
  });
  // No variable's exponent exceeds the total degree, so only a degree sum
  // past the field capacity needs the exact per-variable check.
  if (key_bits(nv) != 0 && da + db > key_max_exp(nv))
    check_mul_overflow(a, b, nv);
  const bool cut = max_degree < da + db;  // some product may be truncated

  // A one-term operand makes the products' keys ascend strictly: one
  // contribution per key, emitted as formed. Zero products are skipped,
  // like every accumulation path skips zero contributions.
  if (na == 1 || nb == 1) {
    for (std::size_t ia = 0; ia < na; ++ia) {
      const Term& ta = a.terms_[ia];
      for (std::size_t ib = 0; ib < nb; ++ib) {
        const Term& tb = b.terms_[ib];
        const double c = ta.coeff * tb.coeff;
        if (c == 0.0) continue;
        const std::uint64_t key = ta.key + tb.key;
        // Wrapping degree sums equal key_degree(key): no field overflows.
        if (cut && s.deg[ia] + s.deg[na + ib] > max_degree) {
          if (dropped) dropped->terms_.push_back({key, c});
        } else {
          out.terms_.push_back({key, c});
        }
      }
    }
    return;
  }

  // Dense slots: a mixed-radix exponent index, variable 0 most significant,
  // with a radix above every accumulated product's per-variable exponent —
  // so slot order is key order and slot(a-term) + slot(b-term) is the
  // product's slot. Products that are never formed do not bound the radix.
  const std::uint64_t top =
      dropped ? da + db : std::min<std::uint64_t>(da + db, max_degree);
  const std::size_t radix = static_cast<std::size_t>(top) + 1;
  bool dense = da + db < kMulSlotCap;
  std::size_t slots = 1;
  for (std::size_t i = 0; dense && i < nv; ++i) {
    slots *= radix;
    dense = slots <= kMulSlotCap;
  }
  if (!dense) {
    // Exponent box above the table cap: the row-major products are |a|
    // key-sorted runs; a stable merge keeps equal keys in ascending a-term
    // order. Coalesce, then split.
    s.prod.clear();
    for (const Term& ta : a.terms_) {
      for (const Term& tb : b.terms_)
        s.prod.push_back({ta.key + tb.key, ta.coeff * tb.coeff});
    }
    stable_sort_terms(s.prod, s.tmp, nb);
    coalesce_into(s.prod, out);
    if (cut && dropped) out.split_by_degree_into(max_degree, *dropped);
    else if (cut) out.truncate_discard(max_degree, 0.0);
    return;
  }

  s.slot.resize(na + nb);
  with_nvars(nv, [&](auto n) {
    const std::uint32_t bits = key_bits(n);
    const std::uint64_t mask = key_field_mask(n);
    const auto slot_of = [&](std::uint64_t key) {
      std::size_t k = 0;
      for (std::size_t i = 0; i < n; ++i)
        k = k * radix + ((key >> (bits * (n - 1 - i))) & mask);
      return k;  // out of range only for terms above `top`: never formed
    };
    for (std::size_t i = 0; i < na; ++i) s.slot[i] = slot_of(a.terms_[i].key);
    for (std::size_t i = 0; i < nb; ++i)
      s.slot[na + i] = slot_of(b.terms_[i].key);
  });
  if (s.table.size() < slots) s.table.resize(slots);
  // Two touched bitmaps: slots of kept products, then of products above
  // max_degree (only with `dropped`; a slot's degree is fixed).
  const std::size_t words = (slots + 63) / 64;
  if (s.touched.size() < 2 * words) s.touched.resize(2 * words);

  // Row-major accumulation: per slot the contributions arrive in ascending
  // ia, the stable merge's order. A slot starts at +0.0 and 0.0 + x == x
  // for every nonzero x, so accumulating from zero — also after an exact
  // cancellation — is the merge's erase-and-reinsert bit for bit.
  Term* const tab = s.table.data();
  std::uint64_t* const touched = s.touched.data();
  const std::uint32_t* const deg_b = s.deg.data() + na;
  const std::size_t* const slot_b = s.slot.data() + na;
  const bool skip = cut && !dropped;
  for (std::size_t ia = 0; ia < na; ++ia) {
    const Term& ta = a.terms_[ia];
    const std::uint32_t dga = s.deg[ia];
    const std::size_t sa = s.slot[ia];
    for (std::size_t ib = 0; ib < nb; ++ib) {
      if (skip && dga + deg_b[ib] > max_degree) continue;
      const Term& tb = b.terms_[ib];
      const double c = ta.coeff * tb.coeff;
      if (c == 0.0) continue;
      const std::size_t k = sa + slot_b[ib];
      tab[k].key = ta.key + tb.key;
      tab[k].coeff += c;
      const std::size_t high = dga + deg_b[ib] > max_degree ? words : 0;
      touched[high + (k >> 6)] |= 1ull << (k & 63);
    }
  }

  // Emit the nonzero slots in slot (= key) order, re-zeroing as we go.
  const auto emit = [&](std::uint64_t* bitmap, std::vector<Term>& dst) {
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t m = bitmap[w];
      bitmap[w] = 0;
      while (m != 0) {
        Term& t = tab[w * 64 + static_cast<std::size_t>(std::countr_zero(m))];
        m &= m - 1;
        if (t.coeff != 0.0) dst.push_back(t);
        t.coeff = 0.0;
      }
    }
  };
  emit(touched, out.terms_);
  if (dropped) emit(touched + words, dropped->terms_);
}

Poly operator*(const Poly& a, const Poly& b) {
  thread_local PolyScratch scratch;
  Poly r;
  Poly::mul_into(a, b, r, scratch);
  return r;
}

double Poly::eval(const linalg::Vec& x) const {
  assert(x.size() == nvars_);
  const std::uint32_t bits = key_bits(nvars_);
  const std::uint64_t mask = key_field_mask(nvars_);
  double s = 0.0;
  for (const Term& t : terms_) {
    double m = t.coeff;
    for (std::size_t i = 0; i < nvars_; ++i) {
      const std::uint32_t e = static_cast<std::uint32_t>(
          (t.key >> (bits * (nvars_ - 1 - i))) & mask);
      for (std::uint32_t k = 0; k < e; ++k) m *= x[i];
    }
    s += m;
  }
  return s;
}

interval::Interval Poly::eval_range(const interval::IVec& dom) const {
  assert(dom.size() == nvars_);
  const std::uint32_t bits = key_bits(nvars_);
  const std::uint64_t mask = key_field_mask(nvars_);
  interval::Interval s(0.0);
  for (const Term& t : terms_) {
    interval::Interval m(t.coeff);
    for (std::size_t i = 0; i < nvars_; ++i) {
      const std::uint32_t e = static_cast<std::uint32_t>(
          (t.key >> (bits * (nvars_ - 1 - i))) & mask);
      if (e > 0) m *= interval::pow_n(dom[i], e);
    }
    s += m;
  }
  return s;
}

Poly Poly::compose(const std::vector<Poly>& subs) const {
  assert(subs.size() == nvars_);
  const std::size_t out_vars = subs.empty() ? 0 : subs[0].nvars();
  Poly r(out_vars);
  for (const Term& t : terms_) {
    Poly m = Poly::constant(out_vars, t.coeff);
    for (std::size_t i = 0; i < nvars_; ++i) {
      const std::uint32_t e = key_exp(t.key, nvars_, i);
      if (e > 0) m = m * pow(subs[i], e);
    }
    r += m;
  }
  return r;
}

void Poly::derivative_into(std::size_t i, Poly& out) const {
  assert(i < nvars_);
  assert(&out != this);
  out.reset(nvars_);
  // d/dx_i subtracts the same key delta from every term with e_i > 0:
  // strictly order-preserving and collision-free, so a plain append keeps
  // the invariant. Zero products are skipped like add_term would.
  const std::uint64_t unit = 1ull << key_shift(nvars_, i);
  for (const Term& t : terms_) {
    const std::uint32_t e = key_exp(t.key, nvars_, i);
    if (e == 0) continue;
    const double c = t.coeff * static_cast<double>(e);
    if (c == 0.0) continue;
    out.terms_.push_back({t.key - unit, c});
  }
}

Poly Poly::derivative(std::size_t i) const {
  Poly r;
  derivative_into(i, r);
  return r;
}

std::pair<Poly, Poly> Poly::split_by_degree(std::uint32_t max_degree) const {
  Poly kept(nvars_);
  Poly dropped(nvars_);
  for (const Term& t : terms_) {
    if (key_degree(t.key, nvars_) <= max_degree)
      kept.terms_.push_back(t);
    else
      dropped.terms_.push_back(t);
  }
  return {kept, dropped};
}

void Poly::split_by_degree_into(std::uint32_t max_degree, Poly& dropped) {
  assert(&dropped != this);
  dropped.reset(nvars_);
  std::size_t w = 0;
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    if (key_degree(terms_[i].key, nvars_) <= max_degree)
      terms_[w++] = terms_[i];
    else
      dropped.terms_.push_back(terms_[i]);
  }
  terms_.resize(w);
}

void Poly::prune_small_into(double tol, Poly& dropped) {
  assert(&dropped != this);
  dropped.reset(nvars_);
  std::size_t w = 0;
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    if (std::abs(terms_[i].coeff) <= tol && terms_[i].key != 0)
      dropped.terms_.push_back(terms_[i]);
    else
      terms_[w++] = terms_[i];
  }
  terms_.resize(w);
}

void Poly::truncate_discard(std::uint32_t max_degree, double tol) {
  const bool by_degree = max_degree != kNoDegreeCap;
  std::size_t w = 0;
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    const Term& t = terms_[i];
    if (by_degree && key_degree(t.key, nvars_) > max_degree) continue;
    if (tol > 0.0 && std::abs(t.coeff) <= tol && t.key != 0) continue;
    terms_[w++] = t;
  }
  terms_.resize(w);
}

Poly Poly::prune_small(double tol) {
  Poly dropped;
  prune_small_into(tol, dropped);
  return dropped;
}

void Poly::lift_vars_into(std::size_t new_nvars, Poly& out) const {
  assert(new_nvars >= nvars_);
  assert(&out != this);
  out.reset(new_nvars);
  const std::uint32_t cap = key_max_exp(new_nvars);
  const std::uint32_t new_bits = key_bits(new_nvars);
  for (const Term& t : terms_) {
    if (t.coeff == 0.0) continue;  // the old lift's add_term skipped zeros
    std::uint64_t k = 0;
    for (std::size_t i = 0; i < nvars_; ++i) {
      const std::uint32_t e = key_exp(t.key, nvars_, i);
      if (e > cap) throw_key_overflow(new_nvars, i, e);
      k = (k << new_bits) | static_cast<std::uint64_t>(e);
    }
    k <<= new_bits * (new_nvars - nvars_);
    out.terms_.push_back({k, t.coeff});
  }
}

void Poly::drop_last_var_into(Poly& out) const {
  assert(nvars_ >= 1);
  assert(&out != this);
  const std::size_t new_nvars = nvars_ - 1;
  out.reset(new_nvars);
  const std::uint32_t new_bits = key_bits(new_nvars);
  const std::uint32_t cap = key_max_exp(new_nvars);
  for (const Term& t : terms_) {
    assert(key_exp(t.key, nvars_, nvars_ - 1) == 0 &&
           "cannot drop a live variable");
    if (t.coeff == 0.0) continue;  // add_term semantics of the old drop
    std::uint64_t k = 0;
    for (std::size_t i = 0; i < new_nvars; ++i) {
      const std::uint32_t e = key_exp(t.key, nvars_, i);
      if (e > cap) throw_key_overflow(new_nvars, i, e);
      k = (k << new_bits) | static_cast<std::uint64_t>(e);
    }
    out.terms_.push_back({k, t.coeff});
  }
}

double Poly::max_abs_coeff() const {
  double m = 0.0;
  for (const Term& t : terms_) m = std::max(m, std::abs(t.coeff));
  return m;
}

std::ostream& operator<<(std::ostream& os, const Poly& p) {
  if (p.terms_.empty()) return os << '0';
  bool first = true;
  for (const Term& t : p.terms_) {
    const double c = t.coeff;
    if (!first) os << (c >= 0 ? " + " : " - ");
    else if (c < 0) os << '-';
    first = false;
    os << std::abs(c);
    for (std::size_t i = 0; i < p.nvars_; ++i) {
      const std::uint32_t e = key_exp(t.key, p.nvars_, i);
      if (e == 0) continue;
      os << "*x" << i;
      if (e > 1) os << '^' << e;
    }
  }
  return os;
}

Poly pow(const Poly& base, std::uint32_t n) {
  Poly r = Poly::constant(base.nvars(), 1.0);
  Poly b = base;
  std::uint32_t k = n;
  while (k > 0) {
    if (k & 1u) r = r * b;
    k >>= 1u;
    if (k) b = b * b;
  }
  return r;
}

}  // namespace dwv::poly
