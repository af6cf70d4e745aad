// Batched range-bounding engine for the interval hot path.
//
// Every validated flowpipe step bounds dozens of polynomials over the SAME
// domain box (the unit set-variable box, or the time-extended box with
// tau in [0, h]): truncation remainders, multiplication cross terms,
// tm_range calls during remainder validation, tube hulls. The naive
// Poly::eval_range recomputes interval::pow_n (two std::pow calls) for
// every (term, variable) pair of every query. This engine amortizes that
// work: it keeps a small MRU cache of per-domain tables of interval powers
// dom[v]^k — built once per distinct domain (keyed by the domain's EXACT
// bits, invalidated on any change) — and walks the packed uint64 term
// vector directly, multiplying table entries. On top of the walk, each
// table carries a small result memo keyed by the exact poly bits and query
// kind: verifiers bound the SAME models repeatedly (one verdict check per
// constraint, tube hulls, remainder validation retries), and a memo hit
// returns the recorded bits of the earlier identical query.
//
// Bit-identity contract (DESIGN.md section 10): in the default
// kSeedIdentical mode the engine reproduces Poly::eval_range (and the
// map-based poly::ref::RefPoly::eval_range oracle) bit for bit. The table
// entries are exactly interval::pow_n(dom[v], k), and the kernel preserves
// the seed's term order and per-term accumulation order, so every
// floating-point operation sequence is unchanged — only redundant pow_n
// evaluations disappear.
//
// The opt-in kCenteredForm mode additionally intersects the naive
// extension with a mean-value (centered) form f(m) + grad_f(dom)·(dom - m)
// computed from the same cached tables. It is sound (always contains the
// true range, verified by containment tests, not bit tests) but NOT
// bit-identical to the seed; keep it off when reproducibility against
// recorded trajectories matters.
//
// Ownership / threading: engines are NOT thread-safe. Each
// taylor::TmScratch owns one (so every TmEnv copy handed to a worker
// thread gets private engine state, matching the scratch ownership rules
// of DESIGN.md section 9); free functions without an env use a
// thread_local engine.
#pragma once

#include <cstdint>
#include <vector>

#include "interval/ivec.hpp"
#include "interval/lanes.hpp"
#include "poly/poly.hpp"

namespace dwv::poly {

/// Range-bounding mode; see the bit-identity contract above.
enum class RangeMode {
  /// Bit-identical to the seed's Poly::eval_range (default).
  kSeedIdentical,
  /// Naive extension intersected with the mean-value/centered form.
  /// Sound but tighter: results are contained in the kSeedIdentical ones.
  kCenteredForm,
};

struct RangeOptions {
  RangeMode mode = RangeMode::kSeedIdentical;
};

/// Counters for cache behaviour (per engine, monotone).
struct RangeStats {
  std::uint64_t queries = 0;       ///< eval_range/derivative_range calls
  std::uint64_t table_builds = 0;  ///< new domain tables built
  std::uint64_t table_reuses = 0;  ///< queries served by a cached table
  std::uint64_t pow_evals = 0;     ///< interval::pow_n table fills
  std::uint64_t memo_hits = 0;     ///< queries answered from the result memo
  std::uint64_t memo_stores = 0;   ///< results recorded in the memo
  std::uint64_t pin_hits = 0;      ///< queries served by a pinned domain
  /// Interval products that took the exact subnormal-operand path
  /// (interval::mul_assign_exact); counted in the walk kernels only.
  std::uint64_t exact_products = 0;
};

/// Amortizing range bounder; one per computation context (see above).
class RangeEngine {
 public:
  /// Sound enclosure of p's range over dom in the given mode.
  interval::Interval eval_range(const Poly& p, const interval::IVec& dom,
                                const RangeOptions& opt);
  /// Default-mode (seed-identical) convenience overload.
  interval::Interval eval_range(const Poly& p, const interval::IVec& dom) {
    return eval_range(p, dom, RangeOptions{});
  }

  /// Sound enclosure of (d p / d x_var)'s range over dom — what
  /// p.derivative(var).eval_range(dom) computes, bit for bit, without
  /// materializing the derivative polynomial.
  interval::Interval derivative_range(const Poly& p, std::size_t var,
                                      const interval::IVec& dom);

  const RangeStats& stats() const { return stats_; }
  /// Drops every cached table (stats are kept).
  void clear() { tables_.clear(); }

  /// Toggles the per-table result memo (default on). The memo returns the
  /// recorded bits of an earlier identical query — verifiers re-bound the
  /// same models several times (per-constraint verdict checks, tube hulls,
  /// remainder validation retries) — so results are unchanged either way;
  /// benchmarks turn it off to time the walk kernels themselves.
  void set_result_memo(bool on) { memo_enabled_ = on; }

  // --- Pinned-domain streaming profile -----------------------------------
  // A long-lived caller that owns its query domains (a TM driver lane:
  // one set-variable box and one time-extended box, both with
  // stable addresses and stable bits across thousands of queries) can pin
  // them. Pinned queries skip the per-query table search (same_bits scan)
  // and the linear memo scan in favour of pointer identity and a
  // set-associative memo. Results are BIT-IDENTICAL to the unpinned path:
  // the same power tables feed the same seed-order kernel, and the memo
  // still verifies full term bytes before a hit — only bookkeeping cost
  // changes.
  //
  // Contract: after pin_domain(dom), the caller must not change dom's bits
  // (nor destroy it) without re-pinning; queries on `dom` must pass THAT
  // object (identity, not just equal bits) to take the fast path — other
  // domains fall through to the classic path unchanged. Pinned tables are
  // exempt from MRU eviction until unpin_all().

  /// Pins `dom` (building its table as needed), pre-extending power rows
  /// to exponent `cap_hint`. Re-pinning the same address revalidates bits.
  void pin_domain(const interval::IVec& dom, std::uint32_t cap_hint = 8);
  /// Drops every pin (tables stay cached, eviction protection ends).
  void unpin_all();

 private:
  struct DomainTable {
    /// The domain this table was built for — the cache key (compared by
    /// exact bits) and the source for lazy power extension.
    interval::IVec dom;
    /// powers[v][k] == interval::pow_n(dom[v], k); [v] grown on demand.
    std::vector<std::vector<interval::Interval>> powers;
    /// mid[v] == dom[v].mid(); mid_powers like powers but for the point
    /// interval [mid, mid]. Filled only when kCenteredForm queries run.
    std::vector<double> mid;
    std::vector<std::vector<interval::Interval>> mid_powers;
    /// Memoized query results for this domain: exact poly bits + query
    /// kind -> recorded result. Hash for quick reject, full term-byte
    /// compare before a hit, LRU within kMaxMemo entries.
    struct MemoEntry {
      std::uint64_t hash = 0;
      std::uint32_t kind = 0;  ///< 0 seed eval, 1 centered eval, 2+v deriv
      std::vector<Term> terms;
      interval::Interval result;
      std::uint64_t last_use = 0;
    };
    std::vector<MemoEntry> memo;
    /// Set-associative result memo for pinned queries (lazily sized to
    /// kStreamMemo entries = kStreamMemo / kStreamMemoWays sets): the hash
    /// picks a set, every way is probed (hash + kind reject, then full
    /// term-byte compare), and a miss replaces the least-recently-used way.
    /// The streaming query mix has strong temporal locality (validation
    /// retries and tube hulls re-issue the same polys back to back), so a
    /// direct-mapped memo loses hot entries to conflict evictions; a few
    /// ways with per-set LRU recover the classic memo's hit rate at stream
    /// probe cost.
    struct StreamMemoEntry {
      std::uint64_t hash = 0;
      std::uint32_t kind = 0xffffffffu;
      std::vector<Term> terms;
      interval::Interval result;
      std::uint64_t last_use = 0;
    };
    std::vector<StreamMemoEntry> smemo;
    std::uint64_t smemo_clock = 0;  ///< per-set LRU stamp source
    std::uint64_t last_use = 0;
    bool pinned = false;  ///< exempt from MRU eviction while true
  };

  /// A pinned domain: pointer identity -> table slot.
  struct Pin {
    const interval::IVec* dom = nullptr;
    std::size_t slot = 0;
  };

  /// Finds or builds the table for dom (MRU, capacity kMaxTables).
  DomainTable& table_for(const interval::IVec& dom);

  /// dom[v]^e from the table, extending the row as needed.
  const interval::Interval& power(DomainTable& t, std::size_t v,
                                  std::uint32_t e);
  /// [mid_v, mid_v]^e from the table, extending the row as needed.
  const interval::Interval& mid_power(DomainTable& t, std::size_t v,
                                      std::uint32_t e);

  /// Extends t's power rows to the exponents p uses and returns
  /// raw row pointers (engine-owned scratch; valid until the next call) so
  /// the kernels index powers with no growth checks per multiply.
  const interval::Interval* const* prepare_rows(const Poly& p,
                                                DomainTable& t);

  /// The seed-identical kernel over packed terms: the seed's term walk,
  /// multiply and accumulation order, with dom[i]^e read from rows[i][e]
  /// (prepare_rows). Both the classic and the pinned paths run it.
  interval::Interval naive_range(const Poly& p,
                                 const interval::Interval* const* rows);
  /// The pinned fast path of eval_range (same result bits).
  interval::Interval eval_range_pinned(const Poly& p, Pin& pin,
                                       const RangeOptions& opt);
  Pin* find_pin(const interval::IVec& dom) {
    for (Pin& pin : pins_)
      if (pin.dom == &dom) return &pin;
    return nullptr;
  }
  /// Mean-value form f(mid) + sum_v df/dx_v(dom) * (dom_v - mid_v).
  interval::Interval centered_range(const Poly& p, DomainTable& t);

  /// Result-memo lookup/insert for query `kind` on poly `p` (hash `h`).
  const interval::Interval* memo_find(DomainTable& t, const Poly& p,
                                      std::uint32_t kind, std::uint64_t h);
  void memo_store(DomainTable& t, const Poly& p, std::uint32_t kind,
                  std::uint64_t h, const interval::Interval& r);

  static constexpr std::size_t kMaxTables = 4;
  static constexpr std::size_t kMaxMemo = 32;       ///< entries per table
  static constexpr std::size_t kMaxMemoTerms = 128; ///< memoizable poly size
  static constexpr std::size_t kStreamMemo = 1024;      ///< total entries
  static constexpr std::size_t kStreamMemoWays = 4;     ///< entries per set
  /// Minimum poly size the stream memo caches. 1: with the remainder tape
  /// absorbing most repeat queries, even one-term walks lose to the cheap
  /// hash + probe on the remaining streaming traffic (measured on the
  /// 36-cell TM batch bench).
  static constexpr std::size_t kStreamMemoMinTerms = 1;
  std::vector<DomainTable> tables_;
  std::vector<Pin> pins_;
  std::size_t mru_ = 0;  ///< index of the last-hit table (fast path)
  std::uint64_t clock_ = 0;
  bool memo_enabled_ = true;
  RangeStats stats_;
  // prepare_rows scratch, reused across queries to avoid reallocation.
  std::vector<const interval::Interval*> row_ptrs_;
};

/// SoA lane-batched range bounder: evaluates one polynomial over
/// interval::lanes::kWidth independent domain boxes at once, through the
/// lane kernels (AVX2 or scalar, runtime-dispatched). Per lane it performs
/// EXACTLY the operation sequence of RangeEngine::naive_range — power
/// tables filled with interval::pow_n per lane, seed term order, seed
/// accumulation order — so each lane's result is bit-identical to a
/// scalar eval_range over that lane's domain. Unlike RangeEngine there is
/// no MRU table cache, result memo, or hashing: the batched flowpipe
/// stepper rebinds the domain every query anyway, so the bookkeeping
/// would be pure overhead.
///
/// Usage: bind() the SoA domain block (lo[v * kWidth + k] / hi likewise,
/// unused lanes padded with any valid interval), then eval() per poly.
/// Not thread-safe; one instance per worker.
class RangeLanes {
 public:
  static constexpr std::size_t kWidth = interval::lanes::kWidth;

  /// Rebinds the evaluation domain: nvars components of kWidth lanes in
  /// SoA layout. Invalidates the cached power rows.
  void bind(const double* lo, const double* hi, std::size_t nvars);

  /// Lane-parallel naive_range of p over the bound domain; p.nvars() must
  /// equal the bound nvars. Results written SoA (kWidth lo, kWidth hi).
  void eval(const Poly& p, double* out_lo, double* out_hi);

 private:
  /// Grows var v's power row up to exponent e (scalar pow_n per lane).
  void extend_row(std::size_t v, std::uint32_t e);

  std::size_t nvars_ = 0;
  std::vector<double> dom_lo_, dom_hi_;  // nvars * kWidth each
  /// powers_[v] holds blocks of 2*kWidth doubles per exponent: lanes of
  /// pow_n(dom_v, e).lo then lanes of .hi; rows grown on demand.
  std::vector<std::vector<double>> powers_;
  std::vector<std::uint32_t> max_e_;  // exponent filled so far, per var
  // Term accumulator scratch (kWidth lanes each).
  std::vector<double> m_lo_, m_hi_;
};

}  // namespace dwv::poly
