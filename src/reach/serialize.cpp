#include "reach/serialize.hpp"

#include <bit>
#include <cstring>

#include "reach/grad_flowpipe.hpp"

namespace dwv::reach::ser {

// --- Writer -------------------------------------------------------------

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(std::uint8_t(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(std::uint8_t(v >> (8 * i)));
}

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(const std::string& s) {
  u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

// --- Reader -------------------------------------------------------------

std::uint8_t Reader::u8() {
  if (!ok_ || n_ - pos_ < 1) {
    ok_ = false;
    return 0;
  }
  return p_[pos_++];
}

std::uint32_t Reader::u32() {
  if (!ok_ || n_ - pos_ < 4) {
    ok_ = false;
    return 0;
  }
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t(p_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  if (!ok_ || n_ - pos_ < 8) {
    ok_ = false;
    return 0;
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(p_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string Reader::str() {
  const std::uint64_t len = count(1);
  if (!ok_) return {};
  std::string s(reinterpret_cast<const char*>(p_ + pos_),
                static_cast<std::size_t>(len));
  pos_ += static_cast<std::size_t>(len);
  return s;
}

std::uint64_t Reader::count(std::size_t min_elem_bytes) {
  const std::uint64_t c = u64();
  if (!ok_) return 0;
  const std::uint64_t need = min_elem_bytes == 0 ? 0 : c;
  if (need > (n_ - pos_) / (min_elem_bytes == 0 ? 1 : min_elem_bytes)) {
    ok_ = false;
    return 0;
  }
  return c;
}

// --- Checksum -----------------------------------------------------------

std::uint64_t checksum64(const std::uint8_t* data, std::size_t n) {
  // One multiply/xor-shift round per 8-byte word (the cache key mixer's
  // recipe), tail bytes zero-padded into a final word, length folded into
  // the finalizer so truncation at a word boundary still changes the sum.
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ n;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, data + i, 8);
    h ^= w;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
  }
  if (i < n) {
    std::uint64_t w = 0;
    std::memcpy(&w, data + i, n - i);
    h ^= w;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
  }
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

// --- Values -------------------------------------------------------------

void put(Writer& w, const interval::Interval& v) {
  w.f64(v.lo());
  w.f64(v.hi());
}

bool get(Reader& r, interval::Interval& out) {
  const double lo = r.f64();
  const double hi = r.f64();
  // lo > hi (comparison false for NaN bounds, which remainder intervals
  // never carry but corrupt bytes might) would trip the Interval invariant
  // assert downstream — reject here.
  if (!r.ok() || !(lo <= hi)) {
    r.fail();
    return false;
  }
  out = interval::Interval(lo, hi);
  return true;
}

void put(Writer& w, const interval::IVec& v) {
  w.u64(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) put(w, v[i]);
}

bool get(Reader& r, interval::IVec& out) {
  const std::uint64_t n = r.count(16);
  if (!r.ok()) return false;
  out.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    if (!get(r, out[i])) return false;
  }
  return true;
}

void put(Writer& w, const geom::Box& v) { put(w, v.bounds()); }

bool get(Reader& r, geom::Box& out) {
  interval::IVec b;
  if (!get(r, b)) return false;
  out = geom::Box(std::move(b));
  return true;
}

void put(Writer& w, const geom::Polygon2d& v) {
  w.u64(v.size());
  for (const geom::P2& p : v.vertices()) {
    w.f64(p.x);
    w.f64(p.y);
  }
}

bool get(Reader& r, geom::Polygon2d& out) {
  const std::uint64_t n = r.count(16);
  if (!r.ok()) return false;
  std::vector<geom::P2> vs(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    vs[i].x = r.f64();
    vs[i].y = r.f64();
  }
  if (!r.ok()) return false;
  out = geom::Polygon2d::from_hull_vertices(std::move(vs));
  return true;
}

void put(Writer& w, const poly::Poly& v) {
  w.u64(v.nvars());
  w.u64(v.term_count());
  for (const poly::Term& t : v.terms()) {
    w.u64(t.key);
    w.f64(t.coeff);
  }
}

bool get(Reader& r, poly::Poly& out) {
  const std::uint64_t nvars = r.u64();
  const std::uint64_t n = r.count(16);
  if (!r.ok()) return false;
  std::vector<poly::Term> terms(static_cast<std::size_t>(n));
  std::uint64_t prev_key = 0;
  for (std::size_t i = 0; i < n; ++i) {
    terms[i].key = r.u64();
    terms[i].coeff = r.f64();
    // Stored term vectors are sorted by key strictly ascending; anything
    // else is corruption (and would break the merge kernels' invariant).
    if (i > 0 && terms[i].key <= prev_key) {
      r.fail();
      return false;
    }
    prev_key = terms[i].key;
  }
  if (!r.ok()) return false;
  out = poly::Poly::from_sorted_terms(static_cast<std::size_t>(nvars),
                                      std::move(terms));
  return true;
}

void put(Writer& w, const taylor::TaylorModel& v) {
  put(w, v.poly);
  put(w, v.rem);
}

bool get(Reader& r, taylor::TaylorModel& out) {
  return get(r, out.poly) && get(r, out.rem);
}

void put(Writer& w, const taylor::TmVec& v) {
  w.u64(v.size());
  for (const taylor::TaylorModel& tm : v) put(w, tm);
}

bool get(Reader& r, taylor::TmVec& out) {
  // A TM is at least nvars + term count + remainder = 32 bytes.
  const std::uint64_t n = r.count(32);
  if (!r.ok()) return false;
  out.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    if (!get(r, out[i])) return false;
  }
  return true;
}

void put(Writer& w, const TmReachStats& v) {
  w.u64(v.substeps);
  w.u64(v.rejects);
  w.u64(v.order_escalations);
  w.u64(v.order_reductions);
  w.u64(v.reinits);
  w.u64(v.sym_flushes);
  w.f64(v.h_min);
  w.f64(v.h_max);
}

bool get(Reader& r, TmReachStats& out) {
  out.substeps = static_cast<std::size_t>(r.u64());
  out.rejects = static_cast<std::size_t>(r.u64());
  out.order_escalations = static_cast<std::size_t>(r.u64());
  out.order_reductions = static_cast<std::size_t>(r.u64());
  out.reinits = static_cast<std::size_t>(r.u64());
  out.sym_flushes = static_cast<std::size_t>(r.u64());
  out.h_min = r.f64();
  out.h_max = r.f64();
  return r.ok();
}

void put(Writer& w, const Flowpipe& v) {
  w.u64(v.step_sets.size());
  for (const geom::Box& b : v.step_sets) put(w, b);
  w.u64(v.interval_hulls.size());
  for (const geom::Box& b : v.interval_hulls) put(w, b);
  w.u64(v.step_polys.size());
  for (const geom::Polygon2d& p : v.step_polys) put(w, p);
  w.u8(v.valid ? 1 : 0);
  w.str(v.failure);
  put(w, v.tm_stats);
}

bool get(Reader& r, Flowpipe& out) {
  std::uint64_t n = r.count(8);
  if (!r.ok()) return false;
  out.step_sets.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    if (!get(r, out.step_sets[i])) return false;
  }
  n = r.count(8);
  if (!r.ok()) return false;
  out.interval_hulls.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    if (!get(r, out.interval_hulls[i])) return false;
  }
  n = r.count(8);
  if (!r.ok()) return false;
  out.step_polys.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    if (!get(r, out.step_polys[i])) return false;
  }
  out.valid = r.u8() != 0;
  out.failure = r.str();
  return get(r, out.tm_stats) && r.ok();
}

namespace {

using DualRows = std::vector<std::vector<interval::DualInterval>>;

void put_tangents(Writer& w, const DualRows& rows, std::size_t dirs) {
  w.u64(rows.size());
  for (const std::vector<interval::DualInterval>& row : rows) {
    w.u64(row.size());
    for (const interval::DualInterval& d : row) {
      for (std::size_t k = 0; k < dirs; ++k) w.f64(d.dlo[k]);
      for (std::size_t k = 0; k < dirs; ++k) w.f64(d.dhi[k]);
    }
  }
}

// Rebuilds dual rows over `boxes`, whose bits are the value channel.
bool get_tangents(Reader& r, const std::vector<geom::Box>& boxes,
                  std::size_t dirs, DualRows& out) {
  if (r.u64() != boxes.size()) r.fail();
  if (!r.ok()) return false;
  out.assign(boxes.size(), {});
  for (std::size_t s = 0; s < boxes.size(); ++s) {
    const geom::Box& b = boxes[s];
    if (r.u64() != b.dim()) r.fail();
    if (!r.ok()) return false;
    out[s].resize(b.dim());
    for (std::size_t i = 0; i < b.dim(); ++i) {
      interval::DualInterval& d = out[s][i];
      d.v = b[i];
      d.nd = dirs;
      for (std::size_t k = 0; k < dirs; ++k) d.dlo[k] = r.f64();
      for (std::size_t k = 0; k < dirs; ++k) d.dhi[k] = r.f64();
    }
  }
  return r.ok();
}

}  // namespace

void put(Writer& w, const GradFlowpipe& v) {
  put(w, v.fp);
  w.u64(v.dirs);
  put_tangents(w, v.step_sets_d, v.dirs);
  put_tangents(w, v.interval_hulls_d, v.dirs);
}

bool get(Reader& r, GradFlowpipe& out, std::size_t dirs) {
  if (!get(r, out.fp)) return false;
  if (r.u64() != dirs || dirs > interval::DualInterval::kMaxDirs) r.fail();
  if (!r.ok()) return false;
  out.dirs = dirs;
  return get_tangents(r, out.fp.step_sets, dirs, out.step_sets_d) &&
         get_tangents(r, out.fp.interval_hulls, dirs, out.interval_hulls_d);
}

}  // namespace dwv::reach::ser
