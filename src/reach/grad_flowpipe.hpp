// Forward-mode gradient of the Taylor-model flowpipe w.r.t. controller
// parameters: one dual pass through TmVerifier's exact scalar pipeline
// (same kernels on the value channel, operation for operation) produces the
// flowpipe boxes AND their Jacobians d(box endpoints)/d(theta) in a single
// verifier-call-equivalent computation.
//
// Soundness split: the VALUE channel is bit-identical to
// TmVerifier::compute — every branch decision (remainder containment,
// goal stop, divergence, re-initialization, parallelotope fallbacks) is
// taken on the value channel alone, so the returned Flowpipe is exactly
// the one compute() would return. The TANGENT channel is an exact
// derivative of the polynomial arithmetic and a central-difference-
// consistent derivative of the interval endpoint selections (see
// interval/dual_interval.hpp); it matches finite differences of the scalar
// pipeline to first order at every theta where no branch decision flips.
//
// Supported configurations (TmGradient::unsupported_reason):
//  - symbolic remainder queue off,
//  - polynomial dynamics (PolyTmDynamics),
//  - LinearAbstraction + LinearController, or PolynomialAbstraction +
//    PolynomialController,
//  - at most interval::DualInterval::kMaxDirs parameters.
#pragma once

#include <cstdint>
#include <vector>

#include "reach/tm_flowpipe.hpp"
#include "taylor/dual_tm.hpp"

namespace dwv::reach {

/// Flowpipe plus the endpoint Jacobians of every box it contains.
struct GradFlowpipe {
  /// Value channel; bit-identical to TmVerifier::compute on the same
  /// (x0, ctrl) in every supported configuration.
  Flowpipe fp;
  std::size_t dirs = 0;

  /// Dual bounds of fp.step_sets[s][i] (values repeat fp's bits, tangents
  /// carry d lo / d hi per parameter direction). Sizes match fp.
  std::vector<std::vector<interval::DualInterval>> step_sets_d;
  /// Dual bounds of fp.interval_hulls[s][i].
  std::vector<std::vector<interval::DualInterval>> interval_hulls_d;
};

/// Record kind ("dwv-grad") of a GradFlowpipe in a persistent flowpipe
/// cache (CachingVerifier::key_for's `kind`, FlowpipeCache::lookup_record).
inline constexpr std::uint64_t kGradRecordKind = 0x6477762d67726164ull;

/// One dual-validated integration step: TmStepResult's fields over dual
/// models and dual tube bounds (the signals come from the value channel).
using DualStepResult =
    StepResult<taylor::DualTmVec, std::vector<interval::DualInterval>>;

/// Step workspace of dual_integrate_step (the dual analogue of the step
/// buffers in taylor::TmScratch); owned by the driver, reused across
/// substeps.
struct DualStepScratch {
  taylor::DualTmVec x0, u, args, g, phi, picard_out, cand, pnext, validated;
  std::vector<interval::DualInterval> rem_j, d_range;
  /// Per-component range of the defect poly P(cand)_i - cand_i.p, fixed
  /// across validation attempts (computed at attempt 0, reused by retries).
  std::vector<interval::DualInterval> diff_poly_range;
  /// Picard pass at which every channel's fixpoint converged on the
  /// previous step: where remainder recording starts (TmScratch::conv_pred).
  std::size_t conv_pred = 0;
};

/// The dual channel of the validated step (reach/picard_step.hpp, the
/// body tm_integrate_step runs too): the value channel performs the
/// scalar step's Picard fixpoint and remainder validation operation for
/// operation, tangents ride along, and the fixpoint loop breaks only once
/// every channel has converged. `fd` is the dynamics' dual polynomials
/// (value = f_i, tangents as supplied — zero for parameter-independent
/// dynamics).
void dual_integrate_step(const taylor::DualTmEnv& env_set,
                         const taylor::DualTmVec& state,
                         const taylor::DualTmVec& control,
                         const std::vector<poly::DualPoly>& fd, double h,
                         const TmReachOptions& opt, DualStepScratch& ss,
                         DualStepResult& res);

/// Forward-mode gradient engine over a TmVerifier configuration.
class TmGradient {
 public:
  /// Captures the verifier's configuration (shared pointers; the verifier
  /// may be destroyed afterwards).
  explicit TmGradient(const TmVerifier& v);

  /// Null when (verifier, controller) is supported; otherwise a static
  /// human-readable reason (core::LearnResult::grad_unavailable).
  static const char* unsupported_reason(const TmVerifier& v,
                                        const nn::Controller& ctrl);

  /// Dual flowpipe pass. Preconditions: unsupported_reason(...) == nullptr
  /// for the verifier this was built from and this controller.
  GradFlowpipe compute(const geom::Box& x0, const nn::Controller& ctrl) const;

 private:
  ode::SystemPtr sys_;
  ode::ReachAvoidSpec spec_;
  ControlAbstractionPtr abs_;
  TmReachOptions opt_;
  TmDynamicsPtr dynamics_;
};

}  // namespace dwv::reach
