#include "reach/step_control.hpp"

#include <algorithm>
#include <cmath>

#include "reach/tm_flowpipe.hpp"

namespace dwv::reach {

void StepController::configure(const TmReachOptions& opt, double delta,
                               std::size_t state_dim) {
  adaptive_ = opt.adaptive;
  nvars_time_ = state_dim == 0 ? 0 : state_dim + 1;
  delta_ = delta;
  rtol_ = opt.adaptive_rtol;
  order0_ = opt.order;
  order_min_ = opt.adaptive_order_min != 0
                   ? opt.adaptive_order_min
                   : std::max<std::uint32_t>(
                         2, opt.order > 0 ? opt.order - 1 : 1);
  order_max_ =
      opt.adaptive_order_max != 0 ? opt.adaptive_order_max : opt.order + 1;
  if (order_min_ > order0_) order_min_ = order0_;
  if (order_max_ < order0_) order_max_ = order0_;
  // The fixed grid never halves, so it keeps one tick per substep (and
  // ignores the halving knob).
  const std::uint32_t halvings = adaptive_ ? opt.adaptive_max_halvings : 0;
  base_ticks_ = 1ull << halvings;
  period_ticks_ = static_cast<std::uint64_t>(opt.substeps) << halvings;
  reject_budget_ = opt.adaptive_reject_budget;
  cur_ticks_ = base_ticks_;
  cur_order_ = order0_;
}

void StepController::reset(TmReachStats* stats) {
  stats_ = stats;
  cur_ticks_ = base_ticks_;
  cur_order_ = order0_;
  cooldown_ = 0;
  ticks_left_ = 0;
  rejects_period_ = 0;
}

void StepController::start_period() {
  ticks_left_ = period_ticks_;
  rejects_period_ = 0;
}

std::uint64_t StepController::dense_basis(std::uint32_t order) const {
  // C(nvars_time_ + order, order) by the multiplicative rule; exact integer
  // arithmetic (deterministic across platforms), saturating far above any
  // term count a real run produces.
  std::uint64_t b = 1;
  for (std::uint32_t i = 1; i <= order; ++i) {
    const std::uint64_t num = nvars_time_ + i;
    if (b > (1ull << 48) / num) return 1ull << 48;  // saturate
    b = b * num / i;
  }
  return b;
}

double StepController::step_h(std::uint64_t ticks) const {
  // For the base step this is (delta * 2^m) / (substeps * 2^m): the
  // numerator scaling is exact and IEEE division is correctly rounded, so
  // the quotient carries the same bits as delta / substeps (m = 0 on the
  // fixed grid).
  return delta_ * static_cast<double>(ticks) /
         static_cast<double>(period_ticks_);
}

StepDecision StepController::next() const {
  StepDecision d;
  d.ticks = std::min(cur_ticks_, ticks_left_);
  d.order = cur_order_;
  d.h = step_h(d.ticks);
  return d;
}

bool StepController::reject() {
  // The fixed grid has no retry: the failure stands, and nothing is
  // counted (the reject counter is part of the serialized pipe).
  if (!adaptive_) return false;
  if (stats_) ++stats_->rejects;
  if (++rejects_period_ > reject_budget_) return false;
  cooldown_ = 2;
  if (cur_ticks_ > 1) {
    cur_ticks_ >>= 1;
    return true;
  }
  if (cur_order_ < order_max_) {
    ++cur_order_;
    if (stats_) ++stats_->order_escalations;
    return true;
  }
  return false;
}

void StepController::accept(const StepDecision& d, const StepSignals& sig) {
  ticks_left_ -= d.ticks;
  if (!adaptive_) return;

  // Predicted relative defect of a doubled step: the step defect is
  // dominated by the order-(p+1) truncation tail, which scales like
  // h^(p+1) — doubling h multiplies it by 2^(p+1).
  const double pred2 =
      sig.defect_rel * std::exp2(static_cast<double>(d.order) + 1.0);

  // An order escalation is only PROFITABLE while the polynomial channel is
  // sparse: a dense state component at order p+1 carries
  // ~(nvars+p+1)/(p+1) times the terms of order p, and the quadratic
  // kernels turn that into a severalfold per-step cost (the oscillator's
  // tanh MLP measured ~2.7x per order) — more than any halved step count
  // or accuracy margin buys back. Affine-sparse channels (linear dynamics
  // and controllers) escalate freely; dense ones settle on the base grid,
  // whose accuracy is already the fixed grid's.
  const bool escalation_cheap =
      nvars_time_ == 0 || sig.poly_terms == 0 ||
      2 * static_cast<std::uint64_t>(sig.poly_terms) <=
          dense_basis(cur_order_);

  if (sig.defect_rel > rtol_ || sig.attempts >= 3) {
    // The accepted step is past the tolerance (or validation needed
    // repeated inflation to prove it — one extra attempt is routine for a
    // grown step, three signal the proof is straining): fall back toward
    // the base grid.
    // The accept path never steps BELOW it — late-horizon enclosures can
    // push the relative defect past any tolerance, and chasing it with
    // ever-smaller steps would make the schedule strictly more work than
    // the fixed grid. Only a genuine containment-proof failure (reject)
    // goes below base. At the base step, buy accuracy with the order.
    if (cur_ticks_ > base_ticks_) {
      cur_ticks_ >>= 1;
    } else if (cur_ticks_ == base_ticks_ && cur_order_ < order_max_ &&
               escalation_cheap) {
      ++cur_order_;
      if (stats_) ++stats_->order_escalations;
    }
    cooldown_ = 2;
    return;
  }
  if (cooldown_ > 0) {
    // Hysteresis: a recent shrink/reject means the tolerance boundary is
    // near — settle for a couple of accepts before probing growth again.
    --cooldown_;
    return;
  }
  if (cur_ticks_ < period_ticks_) {
    // Growing is an h-p balanced move: doubling h multiplies the
    // truncation tail by 2^(p+1), one more order divides it by ~1/h —
    // escalating alongside the doubling keeps the grown step at least as
    // accurate as the two base steps it replaces (the tightness contract
    // the bench gates). Growth therefore requires the escalation to pay
    // for itself, same predicate as above.
    if (pred2 <= rtol_ && escalation_cheap) {
      cur_ticks_ = std::min(cur_ticks_ << 1, period_ticks_);
      if (cur_order_ < order_max_) {
        ++cur_order_;
        if (stats_) ++stats_->order_escalations;
      }
    }
    return;
  }
  // Already stepping the whole period: shed excess order when the Picard
  // fixpoint converges well below it and the defect has ample slack.
  if (cur_order_ > order_min_ && sig.conv_index + 2 <= cur_order_ &&
      pred2 * 4.0 <= rtol_) {
    --cur_order_;
    if (stats_) ++stats_->order_reductions;
  }
}

}  // namespace dwv::reach
