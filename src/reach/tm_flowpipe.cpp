#include "reach/tm_flowpipe.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "ode/expr_system.hpp"
#include "reach/cache.hpp"
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

Interval widen(const Interval& v, double factor, double bump) {
  const double r = v.rad() * factor + bump;
  const double m = v.mid();
  return Interval(m - r, m + r);
}

// Fresh affine parameterization absorbing remainders. Tries to keep the
// current linear shape (parallelotope, preconditioning the wrapping away on
// rotating flows); falls back to the box hull when the shape matrix is
// near singular or the parallelotope hull would be looser than the box.
TmVec reinitialize(const TmEnv& env, const TmVec& x, const IVec& end_range) {
  const std::size_t n = x.size();
  const IVec unit(n, Interval(-1.0, 1.0));
  poly::RangeEngine& range = env.scratch().range;
  const poly::RangeOptions ropt{env.range_mode};

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
    const Interval resid = range.eval_range(nonlin, unit, ropt) + x[i].rem;
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
  const std::size_t n = state.size();
  const std::size_t m = control.size();
  const std::size_t nv = env_set.nvars();
  assert(f.state_dim() == n);

  taylor::TmScratch& s = env_set.scratch();

  // Time-extended environment: variables (set vars..., tau in [0, h]).
  // Lives in the scratch so its domain vector (and the buffers of the TM
  // ops it is passed to, which it borrows from env_set) persist across
  // steps.
  TmEnv& env = s.env_time;
  if (!s.env_time_init) {
    env.borrow_scratch(env_set);
    s.env_time_init = true;
  }
  env.dom.resize(nv + 1);
  for (std::size_t i = 0; i < nv; ++i) env.dom[i] = env_set.dom[i];
  env.dom[nv] = Interval(0.0, h);
  env.order = env_set.order;
  env.cutoff = env_set.cutoff;
  env.range_mode = env_set.range_mode;
  const std::size_t tau = nv;

  s.x0.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    state[i].poly.lift_vars_into(nv + 1, s.x0[i].poly);
    s.x0[i].rem = state[i].rem;
  }
  s.u.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    control[j].poly.lift_vars_into(nv + 1, s.u[j].poly);
    s.u[j].rem = control[j].rem;
  }

  // Remainder-replay tape (taylor::RemTape), on for replay-safe dynamics.
  // When a Picard evaluation's polynomial channel is known to repeat
  // bitwise, one recorded pass captures the remainder-formula constants and
  // later passes replay the remainder arithmetic only.
  taylor::RemTape<Interval>& tape = s.rem_tape;
  const bool tape_on = f.replay_safe();
  // In replay mode the kernels leave output polys untouched; when set, the
  // replayed Picard pass materializes out[i].poly from its input (valid
  // exactly when the poly fixpoint converged, so output == input bitwise).
  bool replay_poly_from_input = false;

  const auto picard = [&](const TmVec& phi, TmVec& out) {
    const bool rp = tape.replaying();
    s.args.resize(n + m);
    if (rp) {
      // Replay never reads the argument polys (every poly-derived constant
      // comes off the tape), so only the remainders need to move.
      for (std::size_t i = 0; i < n; ++i) s.args[i].rem = phi[i].rem;
      for (std::size_t j = 0; j < m; ++j) s.args[n + j].rem = s.u[j].rem;
    } else {
      for (std::size_t i = 0; i < n; ++i) s.args[i] = phi[i];
      for (std::size_t j = 0; j < m; ++j) s.args[n + j] = s.u[j];
    }
    f.eval_into(env, s.args, s.g);
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      taylor::tm_integrate_time_into(env, s.g[i], tau, s.integ);
      if (rp) {
        if (replay_poly_from_input) out[i].poly = phi[i].poly;
      } else {
        Poly::add_into(s.x0[i].poly, s.integ.poly, out[i].poly);
      }
      out[i].rem = s.x0[i].rem + s.integ.rem;
    }
  };

  // Polynomial fixpoint by iteration (tau-degree grows by one per pass).
  // Remainders are zeroed between passes: this phase only constructs the
  // polynomial part, and letting interval remainders compound across the
  // passes would inflate the validated remainder by (1 + hL)^iters instead
  // of (1 + hL) per step.
  //
  // Because the pass remainders are dead, their arithmetic — and the range
  // queries feeding it — is skipped outright (TmScratch::poly_only)
  // whenever the dynamics' polynomial outputs are remainder-independent
  // (replay_safe: polynomial composition; expression trees linearize
  // enclosures around ranges that include remainders, so they keep the
  // full channel). The polynomial bits are unchanged either way.
  //
  // Replay-safe steps also test for poly convergence: once a pass
  // maps the polynomials to themselves bitwise, every remaining pass maps
  // (phi, 0) back to phi with the remainder re-zeroed — a bitwise no-op —
  // so they are skipped. The validation attempts below need a remainder
  // tape recorded AT the fixpoint; the convergence index is structural
  // (tau-degree saturates at the order), so each step predicts it from
  // the previous step (TmScratch::conv_pred) and records only from there,
  // running the earlier passes poly-only. A misprediction stays correct:
  // converging on a poly-only pass just leaves validation to record its
  // own tape, converging later keeps recording until the compare
  // succeeds. (Skipping no-op passes or range queries only changes what
  // the engine sees; that is bit-invisible by the RangeEngine contract.)
  bool tape_valid = false;  ///< tape's poly channel == (phi, u) composition
  // Adaptive runs track convergence on every path (the break is a bitwise
  // no-op — a converged pass maps (phi, 0) back to phi with the remainder
  // re-zeroed — and conv_index feeds the step controller), and guarantee
  // enough passes for the escalated orders the controller may pick
  // (picard_iters >= order reaches the poly fixpoint).
  const bool track_conv = tape_on || opt.adaptive;
  const std::size_t iters_eff =
      opt.adaptive
          ? std::max(opt.picard_iters,
                     static_cast<std::size_t>(env_set.order) + 1)
          : opt.picard_iters;
  std::size_t conv_index = iters_eff;
  s.phi.resize(n);
  for (std::size_t i = 0; i < n; ++i) s.phi[i] = s.x0[i];
  for (std::size_t it = 0; it < iters_eff; ++it) {
    const bool record = tape_on && it >= s.conv_pred;
    s.poly_only = tape_on && !record;
    if (record) tape.start_record();
    picard(s.phi, s.picard_out);
    s.poly_only = false;
    bool converged = false;
    if (record) tape.stop();
    if (track_conv) {
      converged = true;
      for (std::size_t i = 0; i < n && converged; ++i)
        converged = s.picard_out[i].poly.terms() == s.phi[i].poly.terms();
      if (converged) {
        conv_index = it;
        if (tape_on) {
          s.conv_pred = it;
          tape_valid = record;
        }
      }
    }
    std::swap(s.phi, s.picard_out);
    for (auto& tm : s.phi) tm.rem = Interval(0.0);
    if (converged) break;
  }
  res.conv_index = conv_index;

  // Remainder validation: find J with P(poly + J) inside poly + J.
  s.rem_j.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    s.rem_j[i] = interval::hull(s.x0[i].rem, Interval::symmetric(opt.rem_init));

  res.ok = false;
  res.failure.clear();
  res.attempts = 0;
  res.defect_rel = 0.0;
  res.max_poly_terms = 0;
  // Every attempt evaluates the Picard operator at the same polynomials
  // (cand.poly is fixed to phi; only the remainder guess changes), so with
  // the tape on at most one attempt runs in full: either the fixpoint
  // loop converged and left a valid tape (attempt 0 already replays, with
  // the output polys materialized from phi), or attempt 0 records and the
  // retries replay (their output polys persist in s.pnext from attempt 0).
  bool pnext_poly_ready = false;
  for (std::size_t attempt = 0; attempt <= opt.max_inflations; ++attempt) {
    s.cand.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      // phi is fixed for the whole loop; the poly copy only needs to happen
      // on the first attempt (identical bits either way).
      if (attempt == 0) s.cand[i].poly = s.phi[i].poly;
      s.cand[i].rem = s.rem_j[i];
    }
    if (tape_on && tape_valid) {
      replay_poly_from_input = !pnext_poly_ready;
      tape.start_replay();
      picard(s.cand, s.pnext);
      tape.stop();
      replay_poly_from_input = false;
      pnext_poly_ready = true;
    } else if (tape_on) {
      tape.start_record();
      picard(s.cand, s.pnext);
      tape.stop();
      tape_valid = true;
      pnext_poly_ready = true;
    } else {
      picard(s.cand, s.pnext);
    }

    bool contained = true;
    s.d_range.resize(n);
    if (tape_on) s.diff_poly_range.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      // d = P(cand)_i - {cand_i.poly, 0}; the interval subtraction of the
      // zero interval outward-widens exactly like the legacy tm_sub did.
      // Both polys are fixed across attempts (cand.poly is pinned to phi
      // and the Picard output polys are attempt-invariant), so the defect
      // poly — and hence its range — is too; with the tape on, retries
      // reuse the attempt-0 range and redo only the remainder arithmetic.
      if (tape_on && attempt > 0) {
        s.d_range[i] =
            s.diff_poly_range[i] + (s.pnext[i].rem - Interval(0.0));
      } else {
        Poly::sub_into(s.pnext[i].poly, s.cand[i].poly, s.diff.poly);
        s.diff.rem = s.pnext[i].rem - Interval(0.0);
        if (tape_on) {
          s.diff_poly_range[i] = env.poly_range(s.diff.poly);
          s.d_range[i] = s.diff_poly_range[i] + s.diff.rem;
        } else {
          s.d_range[i] = taylor::tm_range(env, s.diff);
        }
      }
      if (!s.rem_j[i].contains(s.d_range[i])) contained = false;
    }

    if (contained) {
      // P(cand) encloses the flow and is at least as tight as cand.
      s.validated.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        s.validated[i].poly = s.cand[i].poly;
        s.validated[i].rem = s.d_range[i];
      }

      res.tube_range.resize(n);
      res.at_end.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        res.tube_range[i] = taylor::tm_range(env, s.validated[i]);
        taylor::tm_subst_last_into(env, s.validated[i], h, res.at_end[i]);
      }
      // Step-controller signals: which attempt proved containment, and the
      // defect magnitude relative to the tube. Pure observation — nothing
      // below reads them on the fixed path.
      res.attempts = attempt;
      res.max_poly_terms = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const double tube_rad = res.tube_range[i].rad();
        if (tube_rad > 0.0) {
          const double rel = s.d_range[i].rad() / tube_rad;
          if (rel > res.defect_rel) res.defect_rel = rel;
        }
        res.max_poly_terms =
            std::max(res.max_poly_terms, s.validated[i].poly.term_count());
      }
      if (res.want_tube_tm) res.tube_tm = s.validated;
      res.ok = true;
      return;
    }

    for (std::size_t i = 0; i < n; ++i) {
      s.rem_j[i] = widen(interval::hull(s.rem_j[i], s.d_range[i]),
                         opt.rem_inflate, opt.rem_init);
    }
  }

  res.attempts = opt.max_inflations + 1;
  res.failure = "remainder validation failed (Picard operator not contracting)";
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

namespace {

void hash_box(std::vector<std::uint64_t>& w, const geom::Box& b) {
  w.push_back(b.dim());
  for (std::size_t i = 0; i < b.dim(); ++i) {
    w.push_back(std::bit_cast<std::uint64_t>(b[i].lo()));
    w.push_back(std::bit_cast<std::uint64_t>(b[i].hi()));
  }
}

void hash_poly(std::vector<std::uint64_t>& w, const Poly& p) {
  w.push_back(p.nvars());
  w.push_back(p.term_count());
  for (const auto& [key, c] : p.terms()) {
    w.push_back(key);
    w.push_back(std::bit_cast<std::uint64_t>(c));
  }
}

}  // namespace

std::uint64_t TmVerifier::cache_salt() const {
  std::vector<std::uint64_t> w;
  // Range-bounding mode changes remainders (hence verdicts): results
  // computed under different modes must never collide in the cache.
  w.push_back(static_cast<std::uint64_t>(opt_.range_mode));
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
  w.push_back(std::bit_cast<std::uint64_t>(spec_.delta));
  w.push_back(spec_.steps);
  w.push_back(spec_.stop_at_goal ? 1 : 0);
  hash_box(w, spec_.goal);
  hash_box(w, spec_.unsafe);
  if (const auto* pd =
          dynamic_cast<const PolyTmDynamics*>(dynamics_.get())) {
    for (const Poly& p : pd->polys()) hash_poly(w, p);
  }
  return hash_words(0x7ad870c830358979ull, w.data(), w.size());
}

namespace {

// Affine arguments mapping the child's unit parameterization into the
// parent's: s_parent_i = m_i + rho_i * s_child_i, computed so the image of
// [-1, 1] covers the child's exact sub-domain (a few-ulp outward widening
// absorbs the division rounding) while staying inside the parent's
// validated domain. When `time_var` is set the argument list is extended
// with the identity model for tau, so tube models (set vars + tau) can be
// composed with the same machinery.
TmVec restriction_args(const TmEnv& env, const geom::Box& parent_box,
                       const geom::Box& child_box, bool time_var) {
  const std::size_t n = parent_box.dim();
  constexpr double kUlp = 4.0 * std::numeric_limits<double>::epsilon();
  TmVec args;
  args.reserve(env.nvars());
  for (std::size_t i = 0; i < n; ++i) {
    const double pc = parent_box[i].mid();
    const double pr = parent_box[i].rad();
    if (pr <= 0.0) {
      // Degenerate parent dimension: the variable never entered the
      // parent's polynomials (zero initial coefficient), any constant in
      // the domain is a sound stand-in.
      args.push_back(TaylorModel::constant(env, 0.0));
      continue;
    }
    double lo = (child_box[i].lo() - pc) / pr;
    double hi = (child_box[i].hi() - pc) / pr;
    lo = std::max(-1.0, lo - kUlp * (1.0 + std::abs(lo)));
    hi = std::min(1.0, hi + kUlp * (1.0 + std::abs(hi)));
    const double m = 0.5 * (lo + hi);
    const double rho = 0.5 * (hi - lo);
    Poly p = Poly::constant(env.nvars(), m) +
             Poly::variable(env.nvars(), i) * rho;
    args.push_back({std::move(p), Interval(0.0)});
  }
  if (time_var) args.push_back(TaylorModel::variable(env, n));
  return args;
}

// Composes a parent model with the restriction arguments; the parent's
// validated remainder holds pointwise over its domain, so it transfers
// verbatim to the sub-domain.
TaylorModel restrict_tm(const TmEnv& env, const TaylorModel& tm,
                        const TmVec& args) {
  TaylorModel out = taylor::tm_eval_poly(env, tm.poly, args);
  out.rem = out.rem + tm.rem;
  return out;
}

}  // namespace

Flowpipe TmVerifier::compute(const geom::Box& x0,
                             const nn::Controller& ctrl) const {
  return run(x0, ctrl, nullptr, nullptr);
}

TmComputeResult TmVerifier::compute_symbolic(
    const geom::Box& x0, const nn::Controller& ctrl,
    const TmSymbolicPrefix* parent) const {
  auto prefix = std::make_shared<TmSymbolicPrefix>();
  prefix->x0 = x0;
  TmComputeResult out;
  out.fp = run(x0, ctrl, prefix.get(), parent);
  if (!prefix->periods.empty()) out.prefix = std::move(prefix);
  return out;
}

// One cell's driver: `start` sets up the cell, each `advance_period`
// integrates (or replays) one control period, until `done`.
struct TmVerifier::Lane {
  const TmVerifier* v = nullptr;

  TmEnv env;       ///< set-variable env, dom = [-1, 1]^n
  TmEnv env_time;  ///< replay-path time-extended env (set vars..., tau)
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
  TmSymbolicPrefix* record = nullptr;
  const TmSymbolicPrefix* parent = nullptr;
  Flowpipe fp;
  TmVec x;
  TmVec args_set, args_time;
  std::size_t n = 0;
  double h = 0.0;
  std::size_t step = 0;
  bool recording = false;
  bool was_recording = false;
  bool replaying = false;
  bool done = false;
  // Schedule tape of the period being built (adaptive + recording only):
  // consumed by finish_period into the symbolic prefix.
  std::vector<double> h_tape;
  std::vector<std::uint32_t> order_tape;

  void start(const TmVerifier& verifier, const geom::Box& x0,
             const nn::Controller& c, TmSymbolicPrefix* rec,
             const TmSymbolicPrefix* par) {
    v = &verifier;
    n = v->sys_->state_dim();
    assert(x0.dim() == n);
    h = v->spec_.delta / static_cast<double>(v->opt_.substeps);
    sc.configure(v->opt_, v->spec_.delta, n);
    pinned_h = h;
    pin_cap = 2 * (v->opt_.adaptive ? sc.order_max() : v->opt_.order) + 2;

    env.dom = IVec(n, Interval(-1.0, 1.0));
    env.order = v->opt_.order;
    env.cutoff = v->opt_.cutoff;
    env.range_mode = v->opt_.range_mode;

    env_time.dom = IVec(n + 1);
    for (std::size_t i = 0; i < n; ++i) env_time.dom[i] = Interval(-1.0, 1.0);
    env_time.dom[n] = Interval(0.0, h);
    env_time.order = v->opt_.order;
    env_time.cutoff = v->opt_.cutoff;
    env_time.range_mode = v->opt_.range_mode;

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
    et.dom = env_time.dom;
    et.order = env.order;
    et.cutoff = env.cutoff;
    et.range_mode = env.range_mode;
    s.range.pin_domain(et.dom, pin_cap);

    ctrl = &c;
    record = rec;
    parent = par;

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

    // Recording stops at the first re-initialization: afterwards the state
    // models no longer depend on the initial-set variables, so a child cell
    // could not soundly restrict them.
    recording = record != nullptr;
    was_recording = recording;

    sym_on = v->opt_.symbolic_remainder && v->dynamics_->has_state_jacobian();
    if (sym_on) srq.reset(n, v->opt_.sym_queue_size);

    replaying = parent != nullptr && !parent->periods.empty() &&
                parent->x0.dim() == n && parent->x0.contains(x0);
    if (replaying) {
      args_set = restriction_args(env, parent->x0, x0, false);
      args_time = restriction_args(env_time, parent->x0, x0, true);
    }
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
  int finish_period(const IVec& period_hull, std::vector<TmVec>&& tube_rec) {
    fp.interval_hulls.emplace_back(period_hull);
    IVec end_range = taylor::tm_vec_range(env, x);
    // Queued mode keeps the accumulated remainder out of x; every box the
    // rest of the pipeline sees gets it added back here.
    if (sym_on) end_range += srq.box();
    fp.step_sets.emplace_back(end_range);
    if (sym_on) fp.tm_stats.sym_flushes = srq.flushes();
    if (recording) {
      // Materialize the queue into the recorded models so the prefix
      // stands alone: a child cell restricting it must not need this
      // cell's queue state.
      TmVec x_rec = x;
      if (sym_on) {
        for (std::size_t i = 0; i < n; ++i) x_rec[i].rem += srq.box()[i];
      }
      record->periods.push_back({std::move(tube_rec), std::move(x_rec),
                                 std::move(h_tape), std::move(order_tape)});
      h_tape.clear();
      order_tape.clear();
    }

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
        recording = false;
        ++fp.tm_stats.reinits;
      }
    }
    return 0;
  }

  // One replayed period: a polynomial composition of the parent's recorded
  // models instead of a Picard fixpoint + remainder validation. When the
  // parent carries an adaptive schedule tape, each tube model is evaluated
  // over its own tau domain [0, h[sub]] — the parent's models were
  // validated per step, so a fixed-width tau would be unsound where the
  // parent stepped shorter and loose where it stepped longer.
  void replay_period() {
    const TmSymbolicPrefix::Period& period = parent->periods[step];
    const bool tape = !period.h.empty();

    IVec period_hull;
    std::vector<TmVec> tube_rec;
    if (recording) tube_rec.reserve(period.tube.size());
    for (std::size_t sub = 0; sub < period.tube.size(); ++sub) {
      // env_time is unpinned (its scratch is separate from env's), so
      // mutating the tau domain here is safe. The truncation order follows
      // the tape too: restricting an escalated model at a lower order would
      // shave validated terms into the remainder.
      if (tape) {
        env_time.dom[n] = Interval(0.0, period.h[sub]);
        env_time.order = period.order[sub];
      }
      TmVec restricted(n);
      for (std::size_t i = 0; i < n; ++i) {
        restricted[i] = restrict_tm(env_time, period.tube[sub][i], args_time);
      }
      const IVec range = taylor::tm_vec_range(env_time, restricted);
      period_hull = (sub == 0) ? range : interval::hull(period_hull, range);
      if (recording) tube_rec.push_back(std::move(restricted));
      fp.tm_stats.note_step(tape ? period.h[sub] : h);
    }
    if (recording && tape) {
      // Propagate the parent's tape so a grandchild replays the same
      // schedule.
      h_tape = period.h;
      order_tape = period.order;
    }

    TmVec x_end(n);
    if (tape) env.order = period.order.back();
    for (std::size_t i = 0; i < n; ++i) {
      x_end[i] = restrict_tm(env, period.at_end[i], args_set);
    }
    x = std::move(x_end);
    ++step;

    if (finish_period(period_hull, std::move(tube_rec)) != 0) done = true;
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
  // incoming remainder of a replay restriction or of a concretizing
  // fallback) and after every accepted substep (its validated local
  // remainder).
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
    std::vector<TmVec> tube_rec;
    if (recording) tube_rec.reserve(v->opt_.substeps);
    sr.want_tube_tm = recording;  // the tube models only feed the prefix
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
      if (recording) {
        // Materialize the transported deviation so the recorded tube
        // stands alone for child restriction.
        if (sym_on) {
          for (std::size_t i = 0; i < n; ++i) sr.tube_tm[i].rem += q_tube[i];
        }
        tube_rec.push_back(std::move(sr.tube_tm));
        // Only adaptive prefixes carry a schedule tape: fixed-grid prefix
        // bytes (and checkpoints holding them) stay tape-free.
        if (sc.adaptive()) {
          h_tape.push_back(d.h);
          order_tape.push_back(d.order);
        }
      }
    }
    ++step;
    if (finish_period(period_hull, std::move(tube_rec)) != 0) done = true;
  }

  // Advances the cell by one control period. Replay ends at the parent's
  // recorded horizon or as soon as the (restricted) state re-initializes,
  // whichever comes first; integration resumes from the restricted
  // symbolic state (branch-and-refine reuse, DESIGN.md §8).
  void advance_period() {
    if (replaying) {
      if (step < parent->periods.size() && step < v->spec_.steps &&
          recording == was_recording) {
        replay_period();
        return;
      }
      replaying = false;
    }
    if (step >= v->spec_.steps) {
      done = true;
      return;
    }
    integrate_period();
  }
};

Flowpipe TmVerifier::run(const geom::Box& x0, const nn::Controller& ctrl,
                         TmSymbolicPrefix* record,
                         const TmSymbolicPrefix* parent) const {
  Lane lane;
  lane.start(*this, x0, ctrl, record, parent);
  while (!lane.done) lane.advance_period();
  return std::move(lane.fp);
}

}  // namespace dwv::reach
