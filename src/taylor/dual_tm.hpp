// Forward-mode dual-number Taylor models: DualPoly + DualInterval remainder.
//
// Each kernel here mirrors its scalar counterpart in taylor_model.cpp
// OPERATION FOR OPERATION on the value channel — same Poly kernels, same
// interval op sequence, same skip conditions — so a dual pipeline's value
// bits are identical to the scalar pipeline's (tested bitwise in
// tests/test_grad.cpp). Tangents ride along:
//  - polynomial channel: exact product-rule arithmetic with the same
//    truncating multiply and add kernels (d(ab) = (da)b + a(db));
//  - remainder channel: DualInterval ops with the central-difference tie
//    convention of dual_interval.hpp;
//  - zero-coefficient skips the scalar code makes (assign_constant drops
//    c == 0, tm_affine skips w_j == 0, sweep cutoffs): the value channel
//    keeps skipping, tangent contributions are accumulated separately via
//    the tangent-only paths (see dual_poly.hpp).
//
// The value channel's range queries replicate Poly::eval_range directly
// (dual_range), which matches TmEnv::poly_range bit for bit in the default
// kSeedIdentical mode — the only mode the gradient engine supports. The
// dual kernels are therefore stateless w.r.t. the scalar RangeEngine:
// running a dual computation can never perturb scalar results.
//
// Like their scalar counterparts, the kernels honour the scratch's
// poly_only flag and remainder tape (DualTmScratch), so the dual Picard
// step runs the scalar step's kernel sequence (DESIGN.md §12).
//
// Scratch ownership follows TmScratch's rules (DESIGN.md §9): one
// DualTmScratch per DualTmEnv, never shared across threads, each kernel
// touching a fixed disjoint buffer subset.
#pragma once

#include <memory>
#include <vector>

#include "interval/dual_interval.hpp"
#include "poly/dual_poly.hpp"
#include "taylor/taylor_model.hpp"

namespace dwv::taylor {

struct DualTmScratch;

/// Shared settings of a dual TM computation (the TmEnv analogue, plus the
/// tangent direction count).
struct DualTmEnv {
  interval::IVec dom;
  std::uint32_t order = 3;
  double cutoff = 1e-12;
  std::size_t dirs = 0;

  DualTmEnv() = default;
  DualTmEnv(const DualTmEnv& o)
      : dom(o.dom), order(o.order), cutoff(o.cutoff), dirs(o.dirs) {}
  DualTmEnv& operator=(const DualTmEnv& o) {
    dom = o.dom;
    order = o.order;
    cutoff = o.cutoff;
    dirs = o.dirs;
    return *this;  // keeps its own scratch, like TmEnv
  }

  std::size_t nvars() const { return dom.size(); }

  DualTmScratch& scratch() const;
  /// Aliases this env's scratch to `owner`'s (the borrow_scratch pattern of
  /// TmEnv, used by the step's time-extended env).
  void borrow_scratch(const DualTmEnv& owner) const;

 private:
  mutable std::shared_ptr<DualTmScratch> scratch_;
};

/// Dual Taylor model: value + tangent polynomials, dual remainder.
struct DualTm {
  poly::DualPoly p;
  interval::DualInterval rem;

  /// In-place analogue of TaylorModel::assign_constant, with optional
  /// coefficient tangents dc (length = dirs; may be null for a plain
  /// constant). Pushes only nonzero coefficients, like the scalar code.
  void assign_constant(std::size_t nvars, std::size_t dirs, double c,
                       const double* dc) {
    p.reset(nvars, dirs);
    if (c != 0.0) p.val.push_term(0, c);
    if (dc != nullptr) {
      for (std::size_t k = 0; k < dirs; ++k) {
        if (dc[k] != 0.0) p.tan[k].push_term(0, dc[k]);
      }
    }
    rem = interval::DualInterval::constant(interval::Interval(0.0), dirs);
  }
};

using DualTmVec = std::vector<DualTm>;

/// Scratch buffers for the dual kernels; the layout parallels TmScratch.
struct DualTmScratch {
  poly::DualPolyScratch dps;
  poly::DualPoly dropped;
  poly::Poly small;

  DualTm acc;
  DualTm term;
  DualTm add_out;
  DualTm mul_out;
  DualTm pow_out;
  DualTm pow_base;
  DualTm pow_tmp;
  DualTm integ;
  DualTm diff;

  /// Scalar TM side-environment for the tangent-only composition chains of
  /// dual_tm_eval_poly_into (monomial products evaluated at coefficient 1
  /// over the arguments' value channels). Owns its own TmScratch, so the
  /// side computations can never touch a scalar pipeline's engine state.
  TmEnv side_env;
  TmVec side_args;
  TaylorModel side_term;
  TaylorModel side_mul;
  TaylorModel side_pow;
  std::vector<std::uint64_t> fkeys;

  /// Remainder-replay tape of the dual kernels (RemTape over DualInterval;
  /// the constants are the same poly-channel ranges the scalar tape holds,
  /// tangents included). The tangent-only-key chains of
  /// dual_tm_eval_poly_into run scalar kernels in side_env, whose own tape
  /// must follow this one: drive both through tape_record / tape_replay /
  /// tape_stop.
  RemTape<interval::DualInterval> rem_tape;
  /// TmScratch::poly_only for the dual kernels: every channel's polynomial
  /// is computed exactly (value-channel cutoff prune included), while the
  /// remainder arithmetic and the range queries feeding it are skipped and
  /// output remainders zeroed. Sound only while the remainders are dead
  /// (the Picard polynomial-fixpoint passes); the side_env chains follow it.
  bool poly_only = false;

  void tape_record() {
    rem_tape.start_record();
    side_env.scratch().rem_tape.start_record();
  }
  void tape_replay() {
    rem_tape.start_replay();
    side_env.scratch().rem_tape.start_replay();
  }
  void tape_stop() {
    rem_tape.stop();
    side_env.scratch().rem_tape.stop();
  }

  /// The step's time-extended dual environment (reach::dual_integrate_step).
  DualTmEnv env_time;
  bool env_time_init = false;
};

inline DualTmScratch& DualTmEnv::scratch() const {
  if (!scratch_) scratch_ = std::make_shared<DualTmScratch>();
  return *scratch_;
}

inline void DualTmEnv::borrow_scratch(const DualTmEnv& owner) const {
  scratch_ = std::shared_ptr<DualTmScratch>(std::shared_ptr<DualTmScratch>(),
                                            &owner.scratch());
}

/// dual_range of the model's polynomial through the env (value channel ==
/// TmEnv::poly_range bits in kSeedIdentical mode).
interval::DualInterval dual_poly_range(const DualTmEnv& env,
                                       const poly::DualPoly& p);

DualTm dual_tm_add(const DualTm& a, const DualTm& b);
DualTm dual_tm_sub(const DualTm& a, const DualTm& b);
/// Scale by a parameter-independent scalar (mirrors tm_scale).
DualTm dual_tm_scale(const DualTm& a, double s);
/// Scale by scalar s whose derivative is e_dir (dir < dirs); pass
/// dir = npos for a parameter-independent s.
DualTm dual_tm_scale_dir(const DualTm& a, double s, std::size_t dir);

/// Mirrors tm_truncate_inplace: value-channel degree split + cutoff sweep
/// exactly as scalar; tangent polynomials are degree-split alongside
/// (structural), but cutoff-pruned VALUE keys keep their tangent terms — a
/// +-h perturbation re-introduces the coefficient far above the cutoff, so
/// perturbed runs keep the term (central-difference consistency).
void dual_tm_truncate_inplace(const DualTmEnv& env, DualTm& tm);

/// Mirrors tm_mul_into (same remainder formula, left-associated): every
/// channel's products above env.order go straight to the truncation tail
/// (poly::dual_mul_trunc_into), no degree sweep.
void dual_tm_mul_into(const DualTmEnv& env, const DualTm& a, const DualTm& b,
                      DualTm& out);

/// Mirrors tm_pow_into (n <= 3 legacy chain, square-and-multiply above).
void dual_tm_pow_into(const DualTmEnv& env, const DualTm& a, std::uint32_t n,
                      DualTm& out);

/// Mirrors tm_range.
interval::DualInterval dual_tm_range(const DualTmEnv& env, const DualTm& tm);

/// Mirrors tm_eval_poly_into, with a DUAL coefficient polynomial `f` (the
/// controller's output polynomial differentiates w.r.t. its own
/// coefficients; dynamics polynomials pass zero tangents). Keys present
/// only in f's tangent channel contribute d c_k * (monomial product over
/// the argument value channels) — evaluated once through the scalar TM
/// kernels in the side environment — to the tangents only.
void dual_tm_eval_poly_into(const DualTmEnv& env, const poly::DualPoly& f,
                            const DualTmVec& args, DualTm& out);

/// Mirrors tm_integrate_time_into (per-channel antiderivative; the
/// remainder transport hull(0, rem * tmax) in dual arithmetic). Terms the
/// time lift raises past env.order go straight to the truncation tail.
void dual_tm_integrate_time_into(const DualTmEnv& env, const DualTm& tm,
                                 std::size_t time_var, DualTm& out);

/// Mirrors tm_subst_last_into per channel.
void dual_tm_subst_last_into(const DualTmEnv& env, const DualTm& tm, double c,
                             DualTm& out);

/// Mirrors taylor::tm_affine (activations.cpp): acc = b + sum_j w_j in_j,
/// truncated. `wdir[j]` is the parameter direction of weight j (npos for a
/// parameter-independent weight). The scalar code skips w_j == 0 terms;
/// the dual version keeps that skip on the value channel and adds the
/// tangent-only contribution d w_j * in_j (value channel) instead.
DualTm dual_tm_affine(const DualTmEnv& env, const DualTmVec& in,
                      const linalg::Vec& w,
                      const std::vector<std::size_t>& wdir, double b);

/// Box hull of a dual TM vector's range (mirrors tm_vec_range).
std::vector<interval::DualInterval> dual_tm_vec_range(const DualTmEnv& env,
                                                      const DualTmVec& v);

constexpr std::size_t kNoDir = static_cast<std::size_t>(-1);

}  // namespace dwv::taylor
