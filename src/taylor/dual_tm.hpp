// Forward-mode dual-number Taylor models: DualPoly + DualInterval remainder.
//
// The truncate, multiply, power, range, time-integral and substitution
// kernels are the scalar ones: one body each in taylor/tm_kernels.hpp,
// instantiated over the dual channel (DualOps, taylor/channel.hpp), so a
// dual pipeline's value bits are identical to the scalar pipeline's
// (tested bitwise in tests/test_dual_kernels.cpp and tests/test_grad.cpp).
// Tangents ride along: exact product-rule arithmetic on the polynomial
// channel, DualInterval ops (central-difference tie convention of
// dual_interval.hpp) on the remainder. The composition and affine kernels
// below stay dual-only: they handle the zero-coefficient skips the scalar
// code makes (assign_constant drops c == 0, tm_affine skips w_j == 0) by
// keeping the skip on the value channel and accumulating the tangent
// contributions separately (the tangent-only paths, see dual_poly.hpp).
//
// The value channel's range queries replicate Poly::eval_range directly
// (dual_range), which matches TmEnv::poly_range bit for bit. The dual
// kernels are therefore stateless w.r.t. the scalar RangeEngine: running a
// dual computation can never perturb scalar results.
//
// Like their scalar counterparts, the kernels honour the scratch's
// poly_only flag and remainder tape (DualTmScratch), so the validated step
// (reach/picard_step.hpp) runs one kernel sequence in both channels
// (DESIGN.md §12).
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

  /// The step's time-extended dual environment (reach/picard_step.hpp).
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

DualTm dual_tm_add(const DualTm& a, const DualTm& b);
/// Scale by scalar s whose derivative is e_dir (dir < dirs); pass
/// dir = npos for a parameter-independent s.
DualTm dual_tm_scale_dir(const DualTm& a, double s, std::size_t dir);

/// tm_truncate_inplace, tm_mul_into, tm_pow_into and tm_range over the
/// dual channel (taylor/tm_kernels.hpp): every channel is degree-split,
/// only the value channel is cutoff-swept (the swept keys keep their
/// tangent terms).
void dual_tm_truncate_inplace(const DualTmEnv& env, DualTm& tm);
void dual_tm_mul_into(const DualTmEnv& env, const DualTm& a, const DualTm& b,
                      DualTm& out);
void dual_tm_pow_into(const DualTmEnv& env, const DualTm& a, std::uint32_t n,
                      DualTm& out);
interval::DualInterval dual_tm_range(const DualTmEnv& env, const DualTm& tm);

/// Mirrors tm_eval_poly_into, with a DUAL coefficient polynomial `f` (the
/// controller's output polynomial differentiates w.r.t. its own
/// coefficients; dynamics polynomials pass zero tangents). Keys present
/// only in f's tangent channel contribute d c_k * (monomial product over
/// the argument value channels) — evaluated once through the scalar TM
/// kernels in the side environment — to the tangents only.
void dual_tm_eval_poly_into(const DualTmEnv& env, const poly::DualPoly& f,
                            const DualTmVec& args, DualTm& out);

/// tm_integrate_time_into and tm_subst_last_into over the dual channel.
void dual_tm_integrate_time_into(const DualTmEnv& env, const DualTm& tm,
                                 std::size_t time_var, DualTm& out);
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

/// tm_vec_range over the dual channel.
std::vector<interval::DualInterval> dual_tm_vec_range(const DualTmEnv& env,
                                                      const DualTmVec& v);

constexpr std::size_t kNoDir = static_cast<std::size_t>(-1);

}  // namespace dwv::taylor
