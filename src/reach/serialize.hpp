// Versioned binary serialization for verifier results (DESIGN.md §15).
//
// The format is the persistence layer under the two-tier FlowpipeCache:
// a deserialized record must be BIT-IDENTICAL to what recomputation would
// return, so every floating-point value travels as its exact IEEE-754 bit
// pattern (one canonical little-endian u64), never through text round-trip
// or re-normalization. Packed-monomial polynomials serialize as their raw
// (u64 key, f64 coeff) term vectors in stored order; convex polygons as
// their stored hull vertices (re-running the hull would re-order them);
// intervals as (lo, hi) bit patterns.
//
// Readers NEVER trust input: every get() validates lengths against the
// remaining bytes, term keys against the sorted-ascending invariant, and
// interval bounds against lo <= hi, and returns false on any violation —
// the cache treats a failed get() as a miss, not an error. Integrity of
// whole records is the caller's job via checksum64 (the on-disk record
// framing in reach/cache.cpp pairs every payload with one).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geom/box.hpp"
#include "geom/polygon2d.hpp"
#include "reach/flowpipe.hpp"
#include "taylor/taylor_model.hpp"

namespace dwv::reach {
struct GradFlowpipe;
}

namespace dwv::reach::ser {

using Bytes = std::vector<std::uint8_t>;

/// Append-only little-endian byte sink.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Exact bit pattern; -0.0, NaN payloads, infinities all round-trip.
  void f64(double v);
  /// u64 length + raw bytes.
  void str(const std::string& s);

  const Bytes& bytes() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Bounds-checked reader over a byte span. The first failed read latches
/// ok() to false and every subsequent read returns a zero value, so
/// callers may chain reads and check once.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : p_(data), n_(size) {}
  explicit Reader(const Bytes& b) : Reader(b.data(), b.size()) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return n_ - pos_; }
  void fail() { ok_ = false; }

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();
  /// Reads a u64 element count and fails unless count * min_elem_bytes
  /// still fits in the remaining input — the guard that keeps corrupt
  /// length fields from turning into huge allocations.
  std::uint64_t count(std::size_t min_elem_bytes);

 private:
  const std::uint8_t* p_ = nullptr;
  std::size_t n_ = 0;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// 64-bit streaming checksum (xxhash-style multiply/xor-shift rounds over
/// 8-byte words with a length-salted finalizer). Not cryptographic — it
/// guards against truncation and bit rot, not adversaries.
std::uint64_t checksum64(const std::uint8_t* data, std::size_t n);

// --- Value serializers --------------------------------------------------
// put() appends the value to the writer; get() parses it back, returning
// false (and leaving `out` unspecified) on malformed input. A get() after
// any previous failure on the same Reader also returns false.

void put(Writer& w, const interval::Interval& v);
bool get(Reader& r, interval::Interval& out);

void put(Writer& w, const interval::IVec& v);
bool get(Reader& r, interval::IVec& out);

void put(Writer& w, const geom::Box& v);
bool get(Reader& r, geom::Box& out);

void put(Writer& w, const geom::Polygon2d& v);
bool get(Reader& r, geom::Polygon2d& out);

void put(Writer& w, const poly::Poly& v);
bool get(Reader& r, poly::Poly& out);

void put(Writer& w, const taylor::TaylorModel& v);
bool get(Reader& r, taylor::TaylorModel& out);

void put(Writer& w, const taylor::TmVec& v);
bool get(Reader& r, taylor::TmVec& out);

void put(Writer& w, const TmReachStats& v);
bool get(Reader& r, TmReachStats& out);

void put(Writer& w, const Flowpipe& v);
bool get(Reader& r, Flowpipe& out);

/// A dual gradient pass: `fp`, then `dirs`, then only the `dirs` tangent
/// columns (lo, then hi) of each step_sets_d and interval_hulls_d bound,
/// each row set behind its row count and each row behind its dimension.
/// The value channel is not stored twice: get() rebuilds it from fp's
/// bits. get() rejects a record whose dirs differs from `dirs` (the
/// parameter count) or exceeds DualInterval::kMaxDirs, and one whose row
/// counts or dimensions differ from fp's.
void put(Writer& w, const GradFlowpipe& v);
bool get(Reader& r, GradFlowpipe& out, std::size_t dirs);

}  // namespace dwv::reach::ser
