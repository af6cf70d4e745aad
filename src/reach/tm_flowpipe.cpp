#include "reach/tm_flowpipe.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "ode/expr_system.hpp"
#include "reach/cache.hpp"
#include "reach/picard_step.hpp"
#include "reach/step_control.hpp"
#include "reach/sym_remainder.hpp"

namespace dwv::reach {

using interval::Interval;
using interval::IVec;
using poly::Poly;
using taylor::TaylorModel;
using taylor::TmEnv;
using taylor::TmVec;

namespace {

// Fresh affine parameterization absorbing remainders. Tries to keep the
// current linear shape (parallelotope, preconditioning the wrapping away on
// rotating flows); falls back to the box hull when the shape matrix is
// near singular or the parallelotope hull would be looser than the box.
TmVec reinitialize(const TmEnv& env, const TmVec& x, const IVec& end_range) {
  const std::size_t n = x.size();
  const IVec unit(n, Interval(-1.0, 1.0));
  poly::RangeEngine& range = env.scratch().range;

  const auto box_reinit = [&]() {
    TmVec fresh(n);
    for (std::size_t i = 0; i < n; ++i) {
      Poly p = Poly::constant(n, end_range[i].mid()) +
               Poly::variable(n, i) * end_range[i].rad();
      fresh[i] = {std::move(p), Interval(0.0)};
    }
    return fresh;
  };

  // Split each component into constant + linear + (nonlinear, remainder).
  linalg::Mat a(n, n);
  linalg::Vec c(n);
  linalg::Vec r(n);
  for (std::size_t i = 0; i < n; ++i) {
    Poly nonlin(n);
    for (const auto& [key, coeff] : x[i].poly.terms()) {
      const std::uint32_t deg = poly::key_degree(key, n);
      if (deg == 0) {
        c[i] = coeff;
      } else if (deg == 1) {
        for (std::size_t j = 0; j < n; ++j) {
          if (poly::key_exp(key, n, j) == 1) a(i, j) = coeff;
        }
      } else {
        nonlin.add_term_key(key, coeff);
      }
    }
    const Interval resid = range.eval_range(nonlin, unit) + x[i].rem;
    c[i] += resid.mid();
    r[i] = resid.rad();
  }

  const linalg::Lu lu = linalg::lu_factor(a);
  if (lu.singular) return box_reinit();
  linalg::Mat ainv;
  try {
    ainv = linalg::inverse(a);
  } catch (const std::domain_error&) {
    return box_reinit();
  }

  // Column scaling absorbing the residual box: s + A^-1 diag(r) u stays in
  // diag(1 + M) [-1,1]^n with M_j = sum_k |Ainv_jk| r_k.
  linalg::Vec m(n);
  for (std::size_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (std::size_t k = 0; k < n; ++k) s += std::abs(ainv(j, k)) * r[k];
    m[j] = s;
  }
  for (double mj : m) {
    if (!std::isfinite(mj) || mj > 10.0) return box_reinit();
  }

  linalg::Mat ap = a;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) ap(i, j) *= (1.0 + m[j]);

  // Reject if the parallelotope's box hull is looser than the plain box.
  for (std::size_t i = 0; i < n; ++i) {
    double hull = 0.0;
    for (std::size_t j = 0; j < n; ++j) hull += std::abs(ap(i, j));
    if (hull > 1.2 * end_range[i].rad() + 1e-12) return box_reinit();
  }

  TmVec fresh(n);
  for (std::size_t i = 0; i < n; ++i) {
    Poly p = Poly::constant(n, c[i]);
    for (std::size_t j = 0; j < n; ++j) {
      if (ap(i, j) != 0.0) p += Poly::variable(n, j) * ap(i, j);
    }
    fresh[i] = {std::move(p), Interval(0.0)};
  }
  return fresh;
}

// The scalar channel of detail::picard_step: plain Taylor models with
// interval remainders (the kernels' ScalarOps), dynamics through
// TmDynamics, the step workspace in the env's own TmScratch.
struct ScalarChannel : taylor::detail::ScalarOps {
  const TmDynamics& f;
  taylor::TmScratch& s;  ///< kernel scratch of the step env
  taylor::TmScratch& w;  ///< step workspace (the same scratch)

  bool replay_safe() const { return f.replay_safe(); }
  void eval(const TmEnv& env, const TmVec& args, TmVec& g) const {
    f.eval_into(env, args, g);
  }
  static constexpr auto integrate_time = &taylor::tm_integrate_time_into;
  static constexpr auto subst_last = &taylor::tm_subst_last_into;

  void tape_record() { s.rem_tape.start_record(); }
  void tape_replay() { s.rem_tape.start_replay(); }
  void tape_stop() { s.rem_tape.stop(); }
};

}  // namespace

TmStepResult tm_integrate_step(const TmEnv& env_set, const TmVec& state,
                               const TmVec& control,
                               const std::vector<Poly>& f_polys, double h,
                               const TmReachOptions& opt) {
  return tm_integrate_step(env_set, state, control,
                           PolyTmDynamics(f_polys), h, opt);
}

TmStepResult tm_integrate_step(const TmEnv& env_set, const TmVec& state,
                               const TmVec& control, const TmDynamics& f,
                               double h, const TmReachOptions& opt) {
  TmStepResult res;
  tm_integrate_step(env_set, state, control, f, h, opt, res);
  return res;
}

void tm_integrate_step(const TmEnv& env_set, const TmVec& state,
                       const TmVec& control, const TmDynamics& f, double h,
                       const TmReachOptions& opt, TmStepResult& res) {
  assert(f.state_dim() == state.size());
  taylor::TmScratch& s = env_set.scratch();
  ScalarChannel c{{}, f, s, s};
  detail::picard_step(c, env_set, state, control, h, opt, res);
}

namespace {
TmDynamicsPtr dynamics_for(const ode::SystemPtr& sys) {
  auto polys = sys->poly_dynamics();
  if (!polys.empty()) {
    return std::make_shared<PolyTmDynamics>(std::move(polys));
  }
  if (const auto* es = dynamic_cast<const ode::ExprSystem*>(sys.get())) {
    return std::make_shared<ExprTmDynamics>(es->exprs());
  }
  assert(false && "system provides neither polynomial nor expression "
                  "dynamics; pass a TmDynamics explicitly");
  return nullptr;
}

// Entry validation: values that would silently corrupt a run (substeps = 0
// makes every step h = delta/0 = inf, order = 0 leaves no polynomial
// channel to iterate on) are rejected with a clear error instead.
TmReachOptions validated(TmReachOptions opt) {
  if (opt.substeps == 0) {
    throw std::invalid_argument(
        "TmReachOptions::substeps must be >= 1 (the step size is "
        "delta / substeps)");
  }
  if (opt.order == 0) {
    throw std::invalid_argument(
        "TmReachOptions::order must be >= 1 (order 0 keeps no polynomial "
        "channel)");
  }
  // StepController counts substeps << halvings ticks per period, and its
  // step sizes are exact only up to 2^53 ticks. Tested without forming the
  // shift (undefined at 64 halvings and beyond).
  constexpr std::uint32_t kExactBits = 53;
  if (opt.adaptive &&
      (opt.adaptive_max_halvings > kExactBits ||
       opt.substeps > (std::uint64_t{1} << kExactBits) >>
                          opt.adaptive_max_halvings)) {
    throw std::invalid_argument(
        "TmReachOptions: substeps * 2^adaptive_max_halvings must be <= "
        "2^53 (the adaptive schedule's exact tick range)");
  }
  return opt;
}
}  // namespace

TmVerifier::TmVerifier(ode::SystemPtr sys, ode::ReachAvoidSpec spec,
                       ControlAbstractionPtr abstraction, TmReachOptions opt)
    : sys_(std::move(sys)),
      spec_(std::move(spec)),
      abs_(std::move(abstraction)),
      opt_(validated(opt)),
      dynamics_(dynamics_for(sys_)) {}

TmVerifier::TmVerifier(ode::SystemPtr sys, ode::ReachAvoidSpec spec,
                       ControlAbstractionPtr abstraction,
                       TmDynamicsPtr dynamics, TmReachOptions opt)
    : sys_(std::move(sys)),
      spec_(std::move(spec)),
      abs_(std::move(abstraction)),
      opt_(validated(opt)),
      dynamics_(std::move(dynamics)) {}

std::string TmVerifier::name() const {
  std::ostringstream os;
  os << "tm-flowpipe(" << abs_->name() << ", order=" << opt_.order
     << ", substeps=" << opt_.substeps;
  if (opt_.adaptive) os << ", adaptive";
  os << ')';
  return os.str();
}

std::uint64_t TmVerifier::cache_salt() const {
  std::vector<std::uint64_t> w;
  // Once the range-bounding mode; kept as a constant word so every salt
  // (and every cache and search file keyed by one) keeps its bits.
  w.push_back(0);
  // The symbolic remainder queue changes remainders (sound both ways, but
  // queue-on and queue-off pipes must never alias in a FlowpipeCache).
  w.push_back(opt_.symbolic_remainder ? 1 + opt_.sym_queue_size : 0);
  // Adaptive schedules change remainders too (sound, containment-
  // comparable only); every controller knob is part of the identity. The
  // block is pushed only when adaptive is on so adaptive-off salts keep
  // their historical bits.
  if (opt_.adaptive) {
    w.push_back(0xada97e57ull);
    w.push_back(std::bit_cast<std::uint64_t>(opt_.adaptive_rtol));
    w.push_back(opt_.adaptive_max_halvings);
    w.push_back(opt_.adaptive_order_min);
    w.push_back(opt_.adaptive_order_max);
    w.push_back(opt_.adaptive_reject_budget);
  }
  // The step and integration knobs change every pipe too. They are pushed
  // only when one differs from its default, so default salts keep their
  // historical bits.
  const auto knobs = [](const TmReachOptions& o) {
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    std::vector<std::uint64_t> k;
    k.push_back(bits(o.cutoff));
    k.push_back(o.picard_iters);
    k.push_back(bits(o.rem_init));
    k.push_back(bits(o.rem_inflate));
    k.push_back(o.max_inflations);
    k.push_back(bits(o.divergence_bound));
    k.push_back(bits(o.reinit_rem_fraction));
    return k;
  };
  const std::vector<std::uint64_t> k = knobs(opt_);
  if (k != knobs(TmReachOptions{})) {
    w.push_back(0x57e9c0b5ull);
    w.insert(w.end(), k.begin(), k.end());
  }
  push_spec_words(w, spec_);
  if (const auto* pd =
          dynamic_cast<const PolyTmDynamics*>(dynamics_.get())) {
    for (const Poly& p : pd->polys()) push_poly_words(w, p);
  }
  return hash_words(0x7ad870c830358979ull, w.data(), w.size());
}

// One cell's driver: `start` sets up the cell, each `integrate_period`
// integrates one control period, until `done` or the horizon.
struct TmVerifier::Lane {
  const TmVerifier* v = nullptr;

  TmEnv env;       ///< set-variable env, dom = [-1, 1]^n
  TmStepResult sr; ///< integration step buffers, warm across steps

  // Symbolic remainder queue mode (TmReachOptions::symbolic_remainder with
  // Jacobian-capable dynamics): the state models `x` are kept
  // remainder-free between substeps and the accumulated deviation lives in
  // `srq` as (transport matrix, local remainder) pairs — see
  // reach/sym_remainder.hpp and DESIGN.md §12. Plain interval matrix math.
  bool sym_on = false;
  sym::SymRemainderQueue srq;
  sym::IMat jac, a_step, a_tube;

  // Step/order schedule of every period (the fixed grid is its
  // non-adaptive policy; TmReachOptions::adaptive): decisions are pure
  // functions of per-step computed signals, so every driver — and the
  // gradient dual pass, whose value channel reproduces the same signal
  // bits — derives the identical schedule independently.
  StepController sc;
  double pinned_h = 0.0;    ///< tau-domain width the time-extended pin holds
  std::uint32_t pin_cap = 0;

  const nn::Controller* ctrl = nullptr;
  Flowpipe fp;
  TmVec x;
  std::size_t n = 0;
  std::size_t step = 0;
  bool done = false;

  void start(const TmVerifier& verifier, const geom::Box& x0,
             const nn::Controller& c) {
    v = &verifier;
    n = v->sys_->state_dim();
    assert(x0.dim() == n);
    const double h = v->spec_.delta / static_cast<double>(v->opt_.substeps);
    sc.configure(v->opt_, v->spec_.delta, n);
    pinned_h = h;
    pin_cap = 2 * (v->opt_.adaptive ? sc.order_max() : v->opt_.order) + 2;

    env.dom = IVec(n, Interval(-1.0, 1.0));
    env.order = v->opt_.order;
    env.cutoff = v->opt_.cutoff;

    // Pin the two domains every hot range query of a run uses: the
    // set box, and the time-extended box tm_integrate_step writes into its
    // scratch env (identical bits every step, since h and the unit box are
    // fixed per verifier; setting it here matches those writes exactly).
    // Pins are bit-invisible (poly::RangeEngine contract).
    taylor::TmScratch& s = env.scratch();
    s.range.pin_domain(env.dom, pin_cap);
    TmEnv& et = s.env_time;
    et.borrow_scratch(env);
    s.env_time_init = true;
    et.dom = IVec(n + 1);
    for (std::size_t i = 0; i < n; ++i) et.dom[i] = Interval(-1.0, 1.0);
    et.dom[n] = Interval(0.0, h);
    et.order = env.order;
    et.cutoff = env.cutoff;
    s.range.pin_domain(et.dom, pin_cap);

    ctrl = &c;

    // Initial affine parameterization x_i = c_i + r_i s_i.
    const linalg::Vec cc = x0.center();
    const linalg::Vec r = x0.radius();
    x.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      Poly p = Poly::constant(n, cc[i]) + Poly::variable(n, i) * r[i];
      x[i] = {std::move(p), Interval(0.0)};
    }

    fp.step_sets.reserve(v->spec_.steps + 1);
    fp.interval_hulls.reserve(v->spec_.steps);
    fp.step_sets.push_back(x0);
    sc.reset(&fp.tm_stats);

    sym_on = v->opt_.symbolic_remainder && v->dynamics_->has_state_jacobian();
    if (sym_on) srq.reset(n, v->opt_.sym_queue_size);
  }

  // Adaptive runs: the scratch's time-extended domain is PINNED in the
  // range engine (pointer identity fast path), so its tau width may only
  // change through a re-pin — writing new bits under a stale pin would
  // serve power rows for the old [0, h]. Pin maintenance is bit-invisible
  // by the RangeEngine contract, so re-pin timing cannot change results.
  // No-op on the fixed grid (h never changes).
  void set_step_h(double hs) {
    if (hs == pinned_h) return;
    taylor::TmScratch& s = env.scratch();
    TmEnv& et = s.env_time;
    et.dom[n] = Interval(0.0, hs);
    s.range.pin_domain(et.dom, pin_cap);
    pinned_h = hs;
  }

  // Books the period into the pipe, applies the stop/divergence/re-init
  // policy. Returns nonzero when the pipe is finished (1) or failed (2).
  int finish_period(const IVec& period_hull) {
    fp.interval_hulls.emplace_back(period_hull);
    IVec end_range = taylor::tm_vec_range(env, x);
    // Queued mode keeps the accumulated remainder out of x; every box the
    // rest of the pipeline sees gets it added back here.
    if (sym_on) end_range += srq.box();
    fp.step_sets.emplace_back(end_range);
    if (sym_on) fp.tm_stats.sym_flushes = srq.flushes();

    // Reach-avoid semantics: the run ends when the goal is provably
    // reached; tracking the post-goal flow would only inflate the pipe.
    if (v->spec_.stop_at_goal &&
        v->spec_.goal.contains(geom::Box(end_range))) {
      return 1;
    }

    if (end_range.max_mag() > v->opt_.divergence_bound) {
      fp.valid = false;
      fp.failure = "flowpipe enclosure diverged";
      return 2;
    }

    // Adaptive re-initialization: when the interval remainder dominates the
    // polynomial spread, absorb it into a fresh affine parameterization so
    // the closed-loop contraction can act on what used to be an
    // uncontractable interval term. Preconditioned (parallelotope) variant:
    // keep the current linear shape A and absorb remainder + nonlinear
    // residue by scaling the columns, A' = A diag(1 + |A^-1| r); this
    // avoids the box-wrapping blowup on rotating flows. Falls back to a box
    // when A is near singular.
    if (v->opt_.reinit_rem_fraction > 0.0) {
      bool reinit = false;
      for (std::size_t i = 0; i < n; ++i) {
        const double spread = end_range[i].rad();
        const double rem_rad =
            sym_on ? (x[i].rem + srq.box()[i]).rad() : x[i].rem.rad();
        if (rem_rad > v->opt_.reinit_rem_fraction * spread &&
            rem_rad > 10.0 * v->opt_.rem_init) {
          reinit = true;
          break;
        }
      }
      if (reinit) {
        // Re-initialization absorbs the full remainder into a fresh affine
        // parameterization; in queued mode that includes the queue, which
        // is therefore spent.
        if (sym_on) {
          for (std::size_t i = 0; i < n; ++i) x[i].rem += srq.box()[i];
          srq.clear();
        }
        x = reinitialize(env, x, end_range);
        ++fp.tm_stats.reinits;
      }
    }
    return 0;
  }

  // Encloses one substep's deviation transport for the symbolic remainder
  // queue. Bootstrap containment argument: guess an a-priori deviation box
  // D = [-d, d]^n with d = kappa * |Q|_inf, enclose J = df/dx over
  // (tube + D) x U, and accept iff A_tube * Q lands strictly inside D,
  // where A_tube = exp([0, h] J) encloses the transition matrix of the
  // variational equation for every partial time. Acceptance proves the
  // offset trajectories never leave tube + D (first-exit contradiction),
  // which is what makes J — and hence both transports — sound. This is the
  // queue's per-step containment test; on failure kappa escalates, and if
  // no kappa works the caller concretizes the queue and redoes the substep
  // conventionally (always sound, merely looser).
  //
  // On success: a_step = exp(h J) (endpoint transport, applied to the
  // queue), q_tube = A_tube * Q (the deviation enclosure over the substep).
  // `hs`/`order` are the substep's own step size and truncation order
  // (imat_exp takes an arbitrary time interval).
  bool step_transport(const IVec& tube, const IVec& u_rng, double hs,
                      std::uint32_t order, IVec& q_tube) {
    const IVec& q = srq.box();
    double qmax = 0.0;
    for (std::size_t i = 0; i < n; ++i) qmax = std::max(qmax, q[i].mag());
    if (qmax == 0.0) {
      a_step = sym::IMat::identity(n);
      q_tube = IVec(n);
      return true;
    }
    const std::uint32_t terms = order + 2;
    const std::size_t m = u_rng.size();
    IVec xu(n + m);
    for (std::size_t k = 0; k < m; ++k) xu[n + k] = u_rng[k];
    for (double kappa = 2.0; kappa <= 512.0; kappa *= 4.0) {
      const double dmag = (Interval(kappa) * Interval(qmax)).hi();
      const Interval d = Interval::symmetric(dmag);
      for (std::size_t i = 0; i < n; ++i) xu[i] = tube[i] + d;
      if (!v->dynamics_->state_jacobian(xu, jac)) return false;
      // A larger kappa only grows the Jacobian domain, so once the series
      // tail diverges escalation cannot recover.
      if (!sym::imat_exp(jac, Interval(0.0, hs), terms, a_tube)) return false;
      sym::imat_apply(a_tube, q, q_tube);
      bool inside = true;
      for (std::size_t i = 0; i < n && inside; ++i) {
        inside = q_tube[i].lo() > -dmag && q_tube[i].hi() < dmag;
      }
      if (!inside) continue;
      return sym::imat_exp(jac, Interval(hs), terms, a_step);
    }
    return false;
  }

  // Queue hook: moves every nonzero interval remainder of the state models
  // into the queue, keeping x remainder-free. Runs before a period (the
  // incoming remainder of a concretizing fallback) and after every accepted
  // substep (its validated local remainder).
  void push_remainders() {
    IVec rem(n);
    bool any = false;
    for (std::size_t i = 0; i < n; ++i) {
      rem[i] = x[i].rem;
      x[i].rem = Interval(0.0);
      any = any || rem[i].lo() != 0.0 || rem[i].hi() != 0.0;
    }
    if (any) srq.push(rem);
  }

  // One validated substep at decision `d`; false when its remainder
  // validation failed. Under the queue it also encloses the queue's
  // transport over the substep (q_tube); when no transport can be proved
  // (dynamics norm beyond the tail bound) the queue is concretized into
  // the step input and the substep redone conventionally. Sound: the queue
  // box is exactly the interval remainder the conventional path would have
  // carried.
  bool substep(const TmVec& u, const IVec& u_rng, const StepDecision& d,
               IVec& q_tube) {
    tm_integrate_step(env, x, u, *v->dynamics_, d.h, v->opt_, sr);
    if (!sr.ok || !sym_on) return sr.ok;
    q_tube = IVec(n);
    if (srq.empty()) return true;
    if (step_transport(sr.tube_range, u_rng, d.h, d.order, q_tube)) {
      srq.transport(a_step);
      return true;
    }
    for (std::size_t i = 0; i < n; ++i) x[i].rem += srq.box()[i];
    srq.clear();
    q_tube = IVec(n);
    tm_integrate_step(env, x, u, *v->dynamics_, d.h, v->opt_, sr);
    return sr.ok;
  }

  // One integrated period: controller abstraction + validated substeps on
  // the controller's schedule (the fixed grid is its non-adaptive policy).
  // With the symbolic remainder queue on, the state models stay
  // remainder-free and deviations ride in `srq` (DESIGN.md §12).
  void integrate_period() {
    if (sym_on) push_remainders();
    // The abstraction always runs at the configured base order — escalated
    // orders apply to the integration steps only (u is an input whose own
    // degree is independent of the step truncation), keeping the
    // per-period abstraction cost identical to the fixed grid's. Under the
    // queue the controller must see the full enclosure, queue included.
    env.order = v->opt_.order;
    TmVec x_ctrl;
    if (sym_on) {
      x_ctrl = x;
      for (std::size_t i = 0; i < n; ++i) x_ctrl[i].rem += srq.box()[i];
    }
    const TmVec u = v->abs_->abstract(env, sym_on ? x_ctrl : x, *ctrl);
    const IVec u_rng = sym_on ? taylor::tm_vec_range(env, u) : IVec();

    IVec period_hull;
    IVec q_tube;
    bool first = true;
    sc.start_period();
    while (!sc.period_done()) {
      const StepDecision d = sc.next();
      env.order = d.order;
      set_step_h(d.h);
      if (!substep(u, u_rng, d, q_tube)) {
        // Rejected: retry the same state at a halved step (or escalated
        // order). The fixed grid, or an exhausted per-period budget, fails
        // the pipe instead.
        if (sc.reject()) continue;
        fp.valid = false;
        fp.failure = sr.failure;
        done = true;
        return;
      }
      sc.accept(d, {sr.attempts, sr.conv_index, sr.defect_rel,
                    sr.max_poly_terms});
      fp.tm_stats.note_step(d.h);
      if (sym_on) sr.tube_range += q_tube;
      period_hull = first ? sr.tube_range
                          : interval::hull(period_hull, sr.tube_range);
      first = false;
      std::swap(x, sr.at_end);
      if (sym_on) push_remainders();
    }
    ++step;
    if (finish_period(period_hull) != 0) done = true;
  }
};

Flowpipe TmVerifier::compute(const geom::Box& x0,
                             const nn::Controller& ctrl) const {
  Lane lane;
  lane.start(*this, x0, ctrl);
  while (!lane.done && lane.step < spec_.steps) lane.integrate_period();
  return std::move(lane.fp);
}

}  // namespace dwv::reach
