// Flow*-style Taylor-model flowpipe construction for polynomial dynamics
// under sampled-data control (zero-order hold), with a pluggable controller
// abstraction (linear / POLAR-lite / ReachNN-lite / interval).
//
// Per control period: the controller abstraction produces Taylor models of
// u over the initial-set variables; the ODE is then integrated by Picard
// iteration on Taylor models with a self-validating interval remainder
// (inflate-and-check a la Berz-Makino / Flow*).
#pragma once

#include "ode/spec.hpp"
#include "reach/tm_dynamics.hpp"
#include "ode/system.hpp"
#include "reach/control_abstraction.hpp"
#include "reach/verifier.hpp"
#include "taylor/taylor_model.hpp"

namespace dwv::reach {

struct TmReachOptions {
  /// Taylor-model truncation order (total degree across set vars and time).
  std::uint32_t order = 3;
  /// Integration sub-steps per control period.
  std::size_t substeps = 2;
  /// Small-coefficient sweep threshold.
  double cutoff = 1e-12;
  /// Picard polynomial iterations (>= order guarantees the poly fixpoint).
  std::size_t picard_iters = 5;
  /// Initial symmetric remainder guess for validation.
  double rem_init = 1e-9;
  /// Multiplicative inflation per failed validation attempt. Gentle on
  /// purpose: each failed attempt replaces J by ~inflate * T(J), so the
  /// accepted remainder converges to ~inflate times the true fixpoint;
  /// aggressive factors would compound into artificial e^{c t} growth.
  double rem_inflate = 1.15;
  std::size_t max_inflations = 60;
  /// Enclosure magnitude beyond which the pipe is declared diverged.
  double divergence_bound = 1e4;
  /// When the interval remainder exceeds this fraction of the polynomial
  /// spread, re-initialize the state as a fresh affine Taylor model over
  /// the current box (sound; absorbs the remainder into the polynomial so
  /// the closed-loop contraction can act on it). 0 disables.
  double reinit_rem_fraction = 0.5;
  /// Polynomial range-bounding mode for every interval query of the run.
  /// kSeedIdentical (default) is bit-identical to the historical
  /// Poly::eval_range; kCenteredForm intersects it with a mean-value form
  /// computed from the same cached power tables — sound and at least as
  /// tight, but results are only containment-comparable (DESIGN.md §10).
  poly::RangeMode range_mode = poly::RangeMode::kSeedIdentical;
  /// Flow*-style symbolic remainder queue (DESIGN.md §12): keep validated
  /// step remainders OUT of the Taylor-model channel as a queue of
  /// (transport matrix, local remainder) pairs, transported through an
  /// interval enclosure of each step's state sensitivity and concretized
  /// only where boxes are needed. Sound and typically tighter than the
  /// default interval-remainder transport (it preserves the rotation
  /// structure box hulls destroy), but results are only
  /// containment-comparable with queue-off runs — hence off by default and
  /// salted into cache keys. Requires dynamics with `state_jacobian`
  /// (polynomial vector fields); silently off otherwise.
  bool symbolic_remainder = false;
  /// Queue capacity before a flush-to-interval (compare ReachNN's
  /// setQueueSize(1000)). Larger keeps more structure; each queued entry
  /// costs one n-by-n interval matrix product per step.
  std::size_t sym_queue_size = 1000;
  /// Adaptive step-size and order control (reach::StepController,
  /// DESIGN.md §14): pick each substep's h and truncation order from the
  /// previous step's computed signals, with accept/reject semantics on
  /// containment-proof failure. Off by default — the fixed
  /// delta/substeps grid above stays bit-identical to the historical
  /// path. When on, results are deterministic and bit-identical across
  /// the TM and gradient drivers at any thread count and lane backend,
  /// but only containment-comparable with adaptive-off runs — hence
  /// salted into cache keys.
  bool adaptive = false;
  /// Target relative defect (defect-range radius over tube radius) per
  /// accepted substep. Steps whose predicted doubled-h defect stays below
  /// this grow; steps breaching it shrink.
  double adaptive_rtol = 1e-2;
  /// Halvings below the base step delta/substeps the controller may take
  /// (the tick resolution of the schedule tape).
  std::uint32_t adaptive_max_halvings = 6;
  /// Truncation-order band the controller may roam in; 0 picks
  /// max(2, order - 1) / order + 2 respectively.
  std::uint32_t adaptive_order_min = 0;
  std::uint32_t adaptive_order_max = 0;
  /// Rejected (containment-proof-failed) substeps tolerated per control
  /// period before the pipe fails like the fixed grid would.
  std::size_t adaptive_reject_budget = 8;
};

/// One validated integration step: enclosure over [0, h] and at t = h.
struct TmStepResult {
  taylor::TmVec at_end;        ///< state TMs at tau = h (tau substituted)
  interval::IVec tube_range;   ///< box hull of the enclosure over [0, h]
  /// Validated symbolic tube models over (set vars..., tau in [0, h]) —
  /// the functional enclosure `tube_range` is the box hull of. Kept so the
  /// branch-and-refine prefix reuse can restrict them to sub-domains.
  taylor::TmVec tube_tm;
  /// Input flag: when false, the step skips materializing `tube_tm`
  /// (leaving it untouched) — for drivers that are not recording a
  /// symbolic prefix. Everything else is unaffected.
  bool want_tube_tm = true;
  bool ok = false;
  std::string failure;

  // Controller signals of the step (reach::StepSignals semantics),
  // computed on every path — the TM driver and the gradient dual pass
  // reproduce the same bits. attempts is the index of the
  // remainder-validation attempt that proved containment; conv_index the
  // Picard pass at which the polynomial fixpoint converged bitwise
  // (picard-iteration count when never observed); defect_rel the largest
  // defect-range radius relative to the tube-range radius.
  std::size_t attempts = 0;
  std::size_t conv_index = 0;
  double defect_rel = 0.0;
  /// Largest term count over the validated state polynomials — the cost
  /// signal the controller's grow gate compares against the dense basis.
  /// Term counts of validated polys are part of the value channel, so the
  /// signal is bit-identical across the TM and dual drivers.
  std::size_t max_poly_terms = 0;
};

/// Integrates x' = f(x, u) for tau in [0, h] with u held constant (as TMs
/// over the set variables). `env_set` is the environment WITHOUT the time
/// variable; the function internally extends it with tau in [0, h].
TmStepResult tm_integrate_step(const taylor::TmEnv& env_set,
                               const taylor::TmVec& state,
                               const taylor::TmVec& control,
                               const TmDynamics& f, double h,
                               const TmReachOptions& opt);

/// In-place variant: writes the step into `res`, reusing its buffers and
/// the scratch owned by `env_set`. With warm buffers (after the first call
/// on a given env) a step performs no heap allocations in the poly/TM
/// arithmetic. `state`/`control` must not alias `res` members.
void tm_integrate_step(const taylor::TmEnv& env_set,
                       const taylor::TmVec& state,
                       const taylor::TmVec& control, const TmDynamics& f,
                       double h, const TmReachOptions& opt, TmStepResult& res);

/// Convenience overload for polynomial vector fields over
/// (x_0..x_{n-1}, u_0..u_{m-1}).
TmStepResult tm_integrate_step(const taylor::TmEnv& env_set,
                               const taylor::TmVec& state,
                               const taylor::TmVec& control,
                               const std::vector<poly::Poly>& f_polys,
                               double h, const TmReachOptions& opt);

/// Symbolic prefix of a TM flowpipe: the validated Taylor models of every
/// integration substep and control instant as FUNCTIONS of the initial-set
/// parameterization x_i = c_i + r_i s_i, s in [-1, 1]^n, recorded up to the
/// first state re-initialization (after a re-parameterization the models no
/// longer depend on the initial set, so restriction becomes unsound).
///
/// Because the models are functional enclosures — for every x0 in the box
/// and tau in the substep, the true flow lies inside the model evaluated at
/// the matching (s, tau) — restricting s to the sub-domain of a child cell
/// yields a sound flowpipe prefix for that cell WITHOUT re-integrating from
/// t = 0. This is the branch-and-refine "parent prefix reuse" of DESIGN.md
/// §8: a replayed step costs one polynomial composition instead of a full
/// Picard fixpoint + remainder validation.
struct TmSymbolicPrefix {
  struct Period {
    /// Validated tube models per substep, over (set vars..., tau).
    std::vector<taylor::TmVec> tube;
    /// Validated state models at the period end, over the set vars.
    taylor::TmVec at_end;
    /// Adaptive schedule tape, aligned with `tube`: the step size (and
    /// truncation order) each substep was validated at. Empty on the
    /// fixed grid, where every substep uses delta/substeps — a child cell
    /// replaying this period restricts tau to [0, h[sub]] so the tube
    /// ranges stay sound under per-step h.
    std::vector<double> h;
    std::vector<std::uint32_t> order;
  };
  std::vector<Period> periods;
  geom::Box x0;  ///< the initial box the models are parameterized over
};

struct TmComputeResult {
  Flowpipe fp;
  /// Non-null when at least one period completed before the first
  /// re-initialization (kept even for invalid pipes: the periods recorded
  /// before a failure are validated enclosures and exactly what a child
  /// cell of a to-be-bisected box wants to reuse).
  std::shared_ptr<const TmSymbolicPrefix> prefix;
};

/// Verifier built on the TM flowpipe.
class TmVerifier final : public Verifier {
 public:
  /// Builds the TM dynamics from the system: polynomial face when
  /// available, expression trees for an ode::ExprSystem. Both
  /// constructors validate the options and throw std::invalid_argument
  /// for meaningless values (substeps = 0 would make h = delta/0
  /// infinite, order = 0 leaves no polynomial channel).
  TmVerifier(ode::SystemPtr sys, ode::ReachAvoidSpec spec,
             ControlAbstractionPtr abstraction, TmReachOptions opt = {});
  /// Explicit dynamics (custom TmDynamics implementations).
  TmVerifier(ode::SystemPtr sys, ode::ReachAvoidSpec spec,
             ControlAbstractionPtr abstraction, TmDynamicsPtr dynamics,
             TmReachOptions opt);

  std::string name() const override;

  /// Fingerprints what name() omits: the dynamics polynomials and the spec
  /// (horizon, goal/unsafe boxes) — two TmVerifiers over different systems
  /// sharing a FlowpipeCache must not alias.
  std::uint64_t cache_salt() const override;

  Flowpipe compute(const geom::Box& x0,
                   const nn::Controller& ctrl) const override;

  std::optional<Plant> plant() const override { return Plant{sys_, &spec_}; }

  /// Like `compute`, but records the symbolic prefix of the result and,
  /// when `parent` is non-null with parent->x0 containing `x0`, replays the
  /// parent's restricted models for the shared prefix instead of
  /// re-integrating from t = 0. The replayed pipe is sound but generally a
  /// little looser than a cold computation (the parent's remainders were
  /// validated over the larger domain); cold and replayed runs therefore
  /// agree on soundness, not bit-for-bit — use it where only verdicts
  /// matter (Algorithm 2). A parent that does not contain `x0` is ignored.
  TmComputeResult compute_symbolic(
      const geom::Box& x0, const nn::Controller& ctrl,
      const TmSymbolicPrefix* parent = nullptr) const;

  // Configuration accessors for drivers that re-run this verifier's exact
  // pipeline with extra channels (reach::TmGradient mirrors the scalar
  // compute() path with forward-mode tangents riding along).
  const TmReachOptions& options() const { return opt_; }
  const ode::ReachAvoidSpec& spec() const { return spec_; }
  const ode::SystemPtr& system() const { return sys_; }
  const ControlAbstractionPtr& abstraction() const { return abs_; }
  const TmDynamicsPtr& dynamics() const { return dynamics_; }

 private:
  struct Lane;  // one cell's period-by-period driver (tm_flowpipe.cpp)

  Flowpipe run(const geom::Box& x0, const nn::Controller& ctrl,
               TmSymbolicPrefix* record,
               const TmSymbolicPrefix* parent) const;

  ode::SystemPtr sys_;
  ode::ReachAvoidSpec spec_;
  ControlAbstractionPtr abs_;
  TmReachOptions opt_;
  TmDynamicsPtr dynamics_;
};

}  // namespace dwv::reach
