// Taylor models: polynomial + interval remainder, the Flow*-style symbolic
// enclosure. A TaylorModel tm over an environment env represents the set of
// functions { x -> tm.poly(x) + e(x) : |e(x)| within tm.rem, x in env.dom }.
//
// The environment (domain box over the symbolic variables, truncation order,
// coefficient cutoff) is shared by all models of a computation and passed
// explicitly, mirroring how Flow* scopes its TM arithmetic settings. It also
// owns the scratch buffers (TmScratch) that the in-place `*_into` kernels
// reuse, so steady-state flowpipe arithmetic performs no heap allocations
// (ownership rules: DESIGN.md section 9).
#pragma once

#include <memory>
#include <vector>

#include "interval/ivec.hpp"
#include "poly/poly.hpp"
#include "poly/range_engine.hpp"

namespace dwv::taylor {

struct TmScratch;

/// Shared settings for a Taylor-model computation.
struct TmEnv {
  /// Domain of the symbolic variables.
  interval::IVec dom;
  /// Maximum kept total degree; higher-degree terms are folded into the
  /// interval remainder (sound truncation).
  std::uint32_t order = 3;
  /// Coefficients with magnitude <= cutoff are swept into the remainder to
  /// keep polynomials short. 0 disables sweeping.
  double cutoff = 1e-12;
  /// Range-bounding mode for every polynomial range query made through
  /// this env (truncation remainders, tm_mul cross terms, tm_range). The
  /// default is bit-identical to the seed; kCenteredForm is tighter but
  /// only containment-comparable (DESIGN.md section 10).
  poly::RangeMode range_mode = poly::RangeMode::kSeedIdentical;

  TmEnv() = default;
  /// Copies settings but NOT the scratch: each copy lazily builds its own
  /// buffers, so envs handed to different worker threads never race.
  TmEnv(const TmEnv& o)
      : dom(o.dom), order(o.order), cutoff(o.cutoff),
        range_mode(o.range_mode) {}
  TmEnv& operator=(const TmEnv& o) {
    dom = o.dom;
    order = o.order;
    cutoff = o.cutoff;
    range_mode = o.range_mode;
    return *this;  // this env keeps its own (possibly borrowed) scratch
  }

  std::size_t nvars() const { return dom.size(); }

  /// Scratch buffers for the in-place TM kernels; created lazily, private
  /// to this env instance (copies do not share them).
  TmScratch& scratch() const;
  /// Points this env's scratch at `owner`'s without taking ownership — used
  /// for envs stored inside a TmScratch (non-owning aliasing pointer avoids
  /// a shared_ptr cycle).
  void borrow_scratch(const TmEnv& owner) const;

  /// Range of `p` over this env's domain through the scratch's shared
  /// range engine (amortized interval power tables, mode = range_mode).
  interval::Interval poly_range(const poly::Poly& p) const;

 private:
  mutable std::shared_ptr<TmScratch> scratch_;
};

/// Polynomial with interval remainder.
struct TaylorModel {
  poly::Poly poly;
  interval::Interval rem;

  TaylorModel() = default;
  TaylorModel(poly::Poly p, interval::Interval r)
      : poly(std::move(p)), rem(r) {}

  static TaylorModel constant(const TmEnv& env, double c) {
    return {poly::Poly::constant(env.nvars(), c), interval::Interval(0.0)};
  }
  static TaylorModel constant(const TmEnv& env, interval::Interval c) {
    return {poly::Poly::constant(env.nvars(), c.mid()),
            c - interval::Interval(c.mid())};
  }
  /// The identity model for symbolic variable i.
  static TaylorModel variable(const TmEnv& env, std::size_t i) {
    return {poly::Poly::variable(env.nvars(), i), interval::Interval(0.0)};
  }

  /// In-place equivalent of constant(env, c): reuses the poly's storage.
  void assign_constant(std::size_t nvars, double c) {
    poly.reset(nvars);
    if (c != 0.0) poly.push_term(0, c);
    rem = interval::Interval(0.0);
  }
};

/// Vector of Taylor models (one per state/output dimension).
using TmVec = std::vector<TaylorModel>;

/// Remainder-replay tape (DESIGN.md section 12). Every interval constant a
/// TM kernel's remainder formula consumes — operand poly ranges in
/// tm_mul_into, truncation-tail ranges in tm_truncate_inplace — depends
/// only on the polynomial channel, never on the input remainders. So when
/// a computation is re-run with bitwise-identical polynomials and only
/// different remainders (the Picard validation loop does exactly this),
/// one recorded pass captures those constants and later passes replay the
/// remainder arithmetic from the tape, skipping polynomial multiplication
/// and range bounding entirely. The replay executes the same interval-op
/// sequence a full evaluation would, with the same operand values, so the
/// results are bit-identical by construction.
///
/// `I` is the remainder's interval type: Interval for the scalar kernels
/// (TmScratch), interval::DualInterval for the dual kernels (DualTmScratch
/// in dual_tm.hpp), whose recorded constants carry their tangents along.
///
/// Kernels leave the output polynomial untouched in replay mode; the
/// driver is responsible for materializing any output poly it still needs
/// (reach::tm_integrate_step and reach::dual_integrate_step copy the
/// converged fixpoint polynomial). Those two drivers run the tape on every
/// replay-safe dynamics (reach::TmDynamics::replay_safe); the kernels only
/// look at `mode`.
template <class I>
struct RemTape {
  enum Mode : int { kOff = 0, kRecord = 1, kReplay = 2 };
  int mode = kOff;
  std::vector<I> consts;
  std::size_t pos = 0;  ///< replay cursor

  bool recording() const { return mode == kRecord; }
  bool replaying() const { return mode == kReplay; }
  void start_record() {
    consts.clear();
    mode = kRecord;
  }
  void start_replay() {
    pos = 0;
    mode = kReplay;
  }
  void stop() { mode = kOff; }
  void push(const I& v) { consts.push_back(v); }
  /// The next recorded constant; the reference stays valid until the next
  /// start_record (replay never pushes).
  const I& next() { return consts[pos++]; }
};

/// Reusable buffers for allocation-free TM arithmetic. Owned by a TmEnv and
/// handed to every `*_into` kernel through env.scratch(). Buffer ownership
/// is static (each kernel touches a fixed, disjoint subset — see DESIGN.md
/// section 9), so kernels can nest without clobbering each other:
///  - Poly layer: pscratch (multiply/sort), dropped/small (truncation).
///  - tm_mul_into: leaf — uses only the Poly-layer buffers.
///  - tm_pow_into: pow_base, pow_tmp (and the Poly layer via tm_mul_into).
///  - tm_eval_poly_into: acc, term, add_out, mul_out, pow_out (and tm_pow).
///  - tm_subst_var_into: pscratch (as the term stream buffer).
///  - Flowpipe step (tm_integrate_step): the step workspace below.
struct TmScratch {
  // Poly layer.
  poly::PolyScratch pscratch;
  poly::Poly dropped;
  poly::Poly small;
  /// Shared range-bounding engine: every range query routed through a
  /// TmEnv that owns (or borrows) this scratch reuses its per-domain
  /// interval power tables. Private per scratch, so the engine state
  /// follows the same no-sharing-across-threads rules as the buffers.
  poly::RangeEngine range;

  // TM composition buffers.
  TaylorModel acc;
  TaylorModel term;
  TaylorModel add_out;
  TaylorModel mul_out;
  TaylorModel pow_out;
  TaylorModel pow_base;
  TaylorModel pow_tmp;
  TaylorModel integ;
  TaylorModel diff;
  TaylorModel subst;

  /// Remainder-replay tape shared by the TM kernels (record/replay of the
  /// remainder-channel constants; see RemTape).
  RemTape<interval::Interval> rem_tape;
  /// When set, the TM kernels compute only the polynomial channel: the
  /// remainder arithmetic — and, crucially, the range queries feeding it —
  /// is skipped and output remainders are zeroed. Sound only while the
  /// remainders are dead (the Picard polynomial-fixpoint passes, which
  /// zero them between passes) AND the dynamics' polynomial outputs never
  /// read remainders (TmDynamics::replay_safe); the polynomial bits are
  /// unchanged either way.
  bool poly_only = false;
  /// Picard pass index at which the polynomial fixpoint converged on the
  /// previous step. Structural (the tau-degree saturates at the order), so
  /// it is a near-perfect predictor of where remainder recording has to
  /// start; 0 until first observed (record everything).
  std::size_t conv_pred = 0;

  // Flowpipe-step workspace (reach::tm_integrate_step).
  TmVec x0;
  TmVec u;
  TmVec args;
  TmVec g;
  TmVec phi;
  TmVec picard_out;
  TmVec cand;
  TmVec pnext;
  TmVec validated;
  std::vector<interval::Interval> rem_j;
  std::vector<interval::Interval> d_range;
  /// Per-component range of the defect polynomial P(cand)_i - cand_i.poly;
  /// fixed across validation attempts (only the remainder guess changes),
  /// so tape-on steps compute it once per step and reuse it.
  std::vector<interval::Interval> diff_poly_range;

  /// The step's time-extended environment; its scratch borrows from the
  /// owner env's (aliasing pointer — no ownership cycle).
  TmEnv env_time;
  bool env_time_init = false;
};

inline TmScratch& TmEnv::scratch() const {
  if (!scratch_) scratch_ = std::make_shared<TmScratch>();
  return *scratch_;
}

inline void TmEnv::borrow_scratch(const TmEnv& owner) const {
  scratch_ = std::shared_ptr<TmScratch>(std::shared_ptr<TmScratch>(),
                                        &owner.scratch());
}

inline interval::Interval TmEnv::poly_range(const poly::Poly& p) const {
  return scratch().range.eval_range(p, dom, poly::RangeOptions{range_mode});
}

TaylorModel tm_add(const TaylorModel& a, const TaylorModel& b);
TaylorModel tm_sub(const TaylorModel& a, const TaylorModel& b);
TaylorModel tm_scale(const TaylorModel& a, double s);
TaylorModel tm_add_const(const TaylorModel& a, double c);

/// Product with truncation to env.order and remainder bookkeeping.
TaylorModel tm_mul(const TmEnv& env, const TaylorModel& a,
                   const TaylorModel& b);
/// In-place product: out must not alias a or b.
void tm_mul_into(const TmEnv& env, const TaylorModel& a, const TaylorModel& b,
                 TaylorModel& out);

/// Integer power. n <= 3 multiplies left to right exactly like the legacy
/// repeated-multiplication loop (bit-identical); n >= 4 switches to
/// square-and-multiply, truncating after each squaring (fewer tm_mul calls;
/// results may differ from the legacy loop at those orders).
TaylorModel tm_pow(const TmEnv& env, const TaylorModel& a, std::uint32_t n);
/// In-place power: out must not alias a.
void tm_pow_into(const TmEnv& env, const TaylorModel& a, std::uint32_t n,
                 TaylorModel& out);

/// Folds terms above env.order (and below env.cutoff) into the remainder.
TaylorModel tm_truncate(const TmEnv& env, TaylorModel tm);
/// In-place truncation (single linear pass per sweep).
void tm_truncate_inplace(const TmEnv& env, TaylorModel& tm);

/// Sound enclosure of the model's range over env.dom.
interval::Interval tm_range(const TmEnv& env, const TaylorModel& tm);

/// Evaluates a polynomial f(y_0..y_{k-1}) with Taylor-model arguments;
/// the composition engine used to push dynamics and controllers through TMs.
TaylorModel tm_eval_poly(const TmEnv& env, const poly::Poly& f,
                         const TmVec& args);
/// In-place evaluation: out must not alias any element of args.
void tm_eval_poly_into(const TmEnv& env, const poly::Poly& f,
                       const TmVec& args, TaylorModel& out);

/// Integrates with respect to variable `time_var` from 0 to that variable
/// (antiderivative with zero constant). The remainder is scaled by the
/// maximal |time| in the domain. Used by the Picard operator.
TaylorModel tm_integrate_time(const TmEnv& env, const TaylorModel& tm,
                              std::size_t time_var);
/// In-place integration: out must not alias tm.
void tm_integrate_time_into(const TmEnv& env, const TaylorModel& tm,
                            std::size_t time_var, TaylorModel& out);

/// Partially evaluates variable `var` at scalar value `c` (e.g. advancing a
/// flowpipe segment to the end of its step).
TaylorModel tm_subst_var(const TmEnv& env, const TaylorModel& tm,
                         std::size_t var, double c);
/// In-place substitution: out must not alias tm.
void tm_subst_var_into(const TmEnv& env, const TaylorModel& tm,
                       std::size_t var, double c, TaylorModel& out);

/// Fused tm_subst_var(last var, c) + Poly::drop_last_var_into: substitutes
/// the last variable at `c` and re-encodes the result over nvars-1
/// variables in one term walk. Bit-identical to the two-step sequence
/// (clearing the least-significant field keeps the term stream sorted, and
/// the re-pack to the wider per-field layout is order- and
/// equality-preserving, so the coalesce sees the same adjacency). out must
/// not alias tm; out's poly gets tm.poly.nvars() - 1 variables.
void tm_subst_last_into(const TmEnv& env, const TaylorModel& tm, double c,
                        TaylorModel& out);

/// Point evaluation of the polynomial part (center of the enclosure).
double tm_eval_mid(const TaylorModel& tm, const linalg::Vec& x);

/// Box hull of a TM vector's range.
interval::IVec tm_vec_range(const TmEnv& env, const TmVec& v);

}  // namespace dwv::taylor
