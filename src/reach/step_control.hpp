// Deterministic step-size / truncation-order controller for the TM
// integrator (DESIGN.md §14). Decisions are pure functions of *computed*
// signals — the remainder-validation attempt count, the Picard convergence
// index, and the relative defect-range magnitude of the accepted step —
// never of wall-clock or machine state, so the schedule is bit-identical
// across the TM driver (any group size, thread count, or lane backend) and
// the gradient dual pass (whose value channel reproduces the same signal
// bits).
//
// Time is accounted in integer ticks: a control period is
// substeps << max_halvings ticks, the base step is 1 << max_halvings ticks
// (max_halvings = 0 on the fixed grid), and every halving/doubling is
// exact integer arithmetic. The floating h handed to the integrator is
// derived from the tick count by one multiply and one divide, so h for the
// base step is bit-identical to delta/substeps and the period always
// closes exactly at its end.
//
// The fixed grid is the controller's non-adaptive policy: every decision
// is the base step at the configured order, and every driver runs its
// substeps through the controller either way.
//
// Accept/reject semantics: a substep whose remainder validation fails is
// REJECTED — the adaptive controller halves h (escalating the order once h
// bottoms out) and the driver retries from the same state; a capped
// per-period reject budget turns permanent failure into the same pipe
// failure the fixed grid reports at once.
#pragma once

#include <cstdint>

#include "reach/flowpipe.hpp"

namespace dwv::reach {

struct TmReachOptions;

/// One decided substep: tick count (exact), the floating step size derived
/// from it, and the truncation order to integrate at.
struct StepDecision {
  double h = 0.0;
  std::uint32_t order = 0;
  std::uint64_t ticks = 0;
};

/// Signals of an accepted step, all computed by the integrator:
///  - attempts: index of the remainder-validation attempt that proved
///    containment (0 = the first guess held),
///  - conv_index: Picard pass at which the polynomial fixpoint converged
///    bitwise (picard-iteration count when never observed),
///  - defect_rel: max over components of the defect-range radius relative
///    to the tube-range radius — the contraction quality of the step.
struct StepSignals {
  std::size_t attempts = 0;
  std::size_t conv_index = 0;
  double defect_rel = 0.0;
  /// Largest term count over the accepted step's validated state
  /// polynomials — the cost signal of the polynomial channel. Growing the
  /// step escalates the truncation order (h-p balance), and an order bump
  /// multiplies the per-step arithmetic severalfold when the channel is
  /// dense; the controller only grows while the channel is sparse enough
  /// that the escalated step is predicted cheaper than the two steps it
  /// replaces. 0 (never filled) is treated as sparse.
  std::size_t poly_terms = 0;
};

class StepController {
 public:
  /// Captures the schedule parameters. `state_dim` is the dimension of the
  /// integrated state (the Taylor models live over state_dim set variables
  /// plus tau), sizing the dense-basis budget the grow gate compares term
  /// counts against; 0 disables the gate. With opt.adaptive == false the
  /// controller is the fixed grid: base step h = delta / substeps at the
  /// configured order, every time.
  void configure(const TmReachOptions& opt, double delta,
                 std::size_t state_dim = 0);

  std::uint32_t order_max() const { return order_max_; }

  /// New cell: back to the base step and configured order. `stats` (may be
  /// null) receives reject/escalation counters; the driver itself books
  /// accepted substeps via TmReachStats::note_step.
  void reset(TmReachStats* stats);

  void start_period();
  bool period_done() const { return ticks_left_ == 0; }

  /// The next substep to attempt: current step size clamped to what is
  /// left of the period (the last step always closes the period exactly).
  StepDecision next() const;

  /// Containment proof failed at the last decision: halve h, escalating
  /// the order once h is at its floor. Returns false when the per-period
  /// reject budget is exhausted, and at once (counting nothing) on the
  /// fixed grid; the caller then fails the pipe with the step's failure
  /// string.
  bool reject();

  /// Commits an accepted substep: advances the period clock and adapts
  /// the next step from the signals.
  void accept(const StepDecision& d, const StepSignals& sig);

 private:
  double step_h(std::uint64_t ticks) const;
  /// C(nvars_time_ + order, order): the dense polynomial basis size at
  /// `order` — the term budget a fully dense state component would fill.
  std::uint64_t dense_basis(std::uint32_t order) const;

  // Configuration.
  bool adaptive_ = false;
  std::size_t nvars_time_ = 0;  ///< state_dim + 1 (tau); 0 = gate off
  double delta_ = 0.0;
  double rtol_ = 0.0;
  std::uint32_t order0_ = 0;
  std::uint32_t order_min_ = 0;
  std::uint32_t order_max_ = 0;
  std::uint64_t base_ticks_ = 1;
  std::uint64_t period_ticks_ = 1;
  std::size_t reject_budget_ = 0;

  // Cell-persistent state.
  std::uint64_t cur_ticks_ = 1;
  std::uint32_t cur_order_ = 0;
  std::uint32_t cooldown_ = 0;  ///< accepts to wait before growing again

  // Period state.
  std::uint64_t ticks_left_ = 0;
  std::size_t rejects_period_ = 0;

  TmReachStats* stats_ = nullptr;
};

}  // namespace dwv::reach
