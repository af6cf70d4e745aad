#include "reach/grad_flowpipe.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "linalg/matrix.hpp"
#include "nn/poly_controller.hpp"
#include "reach/step_control.hpp"

namespace dwv::reach {

using interval::DualInterval;
using interval::Interval;
using interval::IVec;
using poly::DualPoly;
using poly::Poly;
using taylor::DualTm;
using taylor::DualTmEnv;
using taylor::DualTmVec;

// Every function in this file mirrors its scalar counterpart in
// tm_flowpipe.cpp on the value channel; see the header. The dual step runs
// the scalar step's kernel sequence (remainder tape, poly-only Picard
// passes, converged-pass break): those only skip work whose bits are dead
// or repeated, in every channel, so the value and tangent bits are those of
// the full-channel sequence.

void dual_integrate_step(const DualTmEnv& env_set, const DualTmVec& state,
                         const DualTmVec& control,
                         const std::vector<DualPoly>& fd, double h,
                         const TmReachOptions& opt, DualStepScratch& ss,
                         DualStepResult& res) {
  const std::size_t n = state.size();
  const std::size_t m = control.size();
  const std::size_t nv = env_set.nvars();
  const std::size_t nd = env_set.dirs;
  assert(fd.size() == n);

  taylor::DualTmScratch& s = env_set.scratch();
  const DualInterval zero = DualInterval::constant(Interval(0.0), nd);

  // Time-extended environment (set vars..., tau in [0, h]), persisted in
  // the scratch exactly like TmScratch::env_time.
  DualTmEnv& env = s.env_time;
  if (!s.env_time_init) {
    env.borrow_scratch(env_set);
    s.env_time_init = true;
  }
  env.dom.resize(nv + 1);
  for (std::size_t i = 0; i < nv; ++i) env.dom[i] = env_set.dom[i];
  env.dom[nv] = Interval(0.0, h);
  env.order = env_set.order;
  env.cutoff = env_set.cutoff;
  env.dirs = nd;
  const std::size_t tau = nv;

  const auto lift = [&](const DualTm& in, DualTm& out) {
    in.p.val.lift_vars_into(nv + 1, out.p.val);
    out.p.tan.resize(nd);
    for (std::size_t k = 0; k < nd; ++k) {
      in.p.tan[k].lift_vars_into(nv + 1, out.p.tan[k]);
    }
    out.rem = in.rem;
  };
  ss.x0.resize(n);
  for (std::size_t i = 0; i < n; ++i) lift(state[i], ss.x0[i]);
  ss.u.resize(m);
  for (std::size_t j = 0; j < m; ++j) lift(control[j], ss.u[j]);

  // Remainder-replay tape (taylor::RemTape over DualInterval), as in
  // tm_integrate_step: polynomial dynamics are always replay-safe. When
  // set, a replayed Picard pass materializes out[i].p from its input
  // (valid exactly when every channel's fixpoint converged).
  taylor::RemTape<DualInterval>& tape = s.rem_tape;
  bool replay_poly_from_input = false;

  const auto picard = [&](const DualTmVec& phi, DualTmVec& out) {
    const bool rp = tape.replaying();
    ss.args.resize(n + m);
    if (rp) {
      // Replay reads no argument poly; only the remainders move.
      for (std::size_t i = 0; i < n; ++i) ss.args[i].rem = phi[i].rem;
      for (std::size_t j = 0; j < m; ++j) ss.args[n + j].rem = ss.u[j].rem;
    } else {
      for (std::size_t i = 0; i < n; ++i) ss.args[i] = phi[i];
      for (std::size_t j = 0; j < m; ++j) ss.args[n + j] = ss.u[j];
    }
    ss.g.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      taylor::dual_tm_eval_poly_into(env, fd[i], ss.args, ss.g[i]);
    }
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      taylor::dual_tm_integrate_time_into(env, ss.g[i], tau, s.integ);
      if (rp) {
        if (replay_poly_from_input) out[i].p = phi[i].p;
      } else {
        poly::dual_add_into(ss.x0[i].p, s.integ.p, out[i].p);
      }
      out[i].rem = interval::dual_add(ss.x0[i].rem, s.integ.rem);
    }
  };

  // Polynomial fixpoint by iteration; pass remainders are dead (zeroed
  // between passes), so passes before the predicted convergence index
  // run poly-only and recording starts there (DualStepScratch::conv_pred),
  // exactly as in tm_integrate_step.
  //
  // Break rule: stop after the first pass that maps the value polynomial
  // AND every tangent polynomial to themselves bitwise. Every later pass
  // would then map (phi, 0) back to phi in all channels — a no-op. The
  // value channel alone is not enough: it never reads the tangents, so it
  // can converge while the tangents are still moving. conv_index is the
  // value channel's own convergence index (the step controller's signal,
  // the same bits the scalar step reports); conv_pred predicts the
  // all-channel index, where the tape must be recorded.
  bool tape_valid = false;  ///< tape's polys == the (phi, u) composition
  const std::size_t iters_eff =
      opt.adaptive
          ? std::max(opt.picard_iters,
                     static_cast<std::size_t>(env_set.order) + 1)
          : opt.picard_iters;
  std::size_t conv_index = iters_eff;
  ss.phi.resize(n);
  for (std::size_t i = 0; i < n; ++i) ss.phi[i] = ss.x0[i];
  for (std::size_t it = 0; it < iters_eff; ++it) {
    const bool record = it >= ss.conv_pred;
    s.poly_only = !record;
    if (record) s.tape_record();
    picard(ss.phi, ss.picard_out);
    s.poly_only = false;
    if (record) s.tape_stop();
    bool converged = true;
    for (std::size_t i = 0; i < n && converged; ++i) {
      converged = ss.picard_out[i].p.val.terms() == ss.phi[i].p.val.terms();
    }
    if (converged && conv_index == iters_eff) conv_index = it;
    for (std::size_t i = 0; i < n && converged; ++i) {
      for (std::size_t k = 0; k < nd && converged; ++k) {
        converged =
            ss.picard_out[i].p.tan[k].terms() == ss.phi[i].p.tan[k].terms();
      }
    }
    if (converged) {
      ss.conv_pred = it;
      tape_valid = record;
    }
    std::swap(ss.phi, ss.picard_out);
    for (auto& tm : ss.phi) tm.rem = zero;
    if (converged) break;
  }
  res.conv_index = conv_index;

  // Remainder validation: find J with P(poly + J) inside poly + J. All
  // containment decisions are taken on the value channel.
  ss.rem_j.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ss.rem_j[i] = interval::dual_hull(
        ss.x0[i].rem,
        DualInterval::constant(Interval::symmetric(opt.rem_init), nd));
  }

  res.ok = false;
  res.failure.clear();
  res.attempts = 0;
  res.defect_rel = 0.0;
  res.max_poly_terms = 0;
  // Every attempt evaluates the Picard operator at the same polynomials,
  // so at most one runs in full (tm_integrate_step): the fixpoint loop's
  // tape already serves attempt 0, or attempt 0 records for the retries.
  // Only attempt 0 reads the output polys (the defect poly below).
  ss.diff_poly_range.resize(n);
  for (std::size_t attempt = 0; attempt <= opt.max_inflations; ++attempt) {
    ss.cand.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (attempt == 0) ss.cand[i].p = ss.phi[i].p;
      ss.cand[i].rem = ss.rem_j[i];
    }
    if (tape_valid) {
      replay_poly_from_input = attempt == 0;
      s.tape_replay();
      picard(ss.cand, ss.pnext);
      s.tape_stop();
    } else {
      s.tape_record();
      picard(ss.cand, ss.pnext);
      s.tape_stop();
      tape_valid = true;
    }

    bool contained = true;
    ss.d_range.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      // d = P(cand)_i - {cand_i.p, 0}: the defect polys are fixed across
      // attempts, so retries reuse the attempt-0 poly range.
      if (attempt == 0) {
        poly::dual_sub_into(ss.pnext[i].p, ss.cand[i].p, s.diff.p);
        ss.diff_poly_range[i] = taylor::dual_poly_range(env, s.diff.p);
      }
      ss.d_range[i] = interval::dual_add(
          ss.diff_poly_range[i], interval::dual_sub(ss.pnext[i].rem, zero));
      if (!ss.rem_j[i].v.contains(ss.d_range[i].v)) contained = false;
    }

    if (contained) {
      ss.validated.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        ss.validated[i].p = ss.cand[i].p;
        ss.validated[i].rem = ss.d_range[i];
      }
      res.tube_range.resize(n);
      res.at_end.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        res.tube_range[i] = taylor::dual_tm_range(env, ss.validated[i]);
        taylor::dual_tm_subst_last_into(env, ss.validated[i], h,
                                        res.at_end[i]);
      }
      // Step-controller signals, value channel only (same bits as scalar).
      res.attempts = attempt;
      res.max_poly_terms = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const double tube_rad = res.tube_range[i].v.rad();
        if (tube_rad > 0.0) {
          const double rel = ss.d_range[i].v.rad() / tube_rad;
          if (rel > res.defect_rel) res.defect_rel = rel;
        }
        res.max_poly_terms =
            std::max(res.max_poly_terms, ss.validated[i].p.val.term_count());
      }
      res.ok = true;
      return;
    }

    for (std::size_t i = 0; i < n; ++i) {
      ss.rem_j[i] =
          interval::dual_widen(interval::dual_hull(ss.rem_j[i], ss.d_range[i]),
                               opt.rem_inflate, opt.rem_init);
    }
  }

  res.attempts = opt.max_inflations + 1;
  res.failure = "remainder validation failed (Picard operator not contracting)";
}

namespace {

// Dual controller abstraction. Linear: tm_affine row by row, with weight
// (i, j) seeded along parameter direction i * cols + j (the row-major
// LinearController::params layout). Polynomial: tm_eval_poly with the
// output polynomial's own coefficients differentiated (direction
// k * basis_size + j for coeffs_[k][j], the PolynomialController::params
// layout).
DualTmVec dual_abstract(const DualTmEnv& env, const DualTmVec& x,
                        const ControlAbstraction& abs,
                        const nn::Controller& ctrl) {
  const std::size_t nd = env.dirs;
  DualTmVec u;
  if (dynamic_cast<const LinearAbstraction*>(&abs) != nullptr) {
    const auto* lin = dynamic_cast<const nn::LinearController*>(&ctrl);
    assert(lin && "LinearAbstraction requires a LinearController");
    const linalg::Mat& k = lin->gain();
    u.reserve(k.rows());
    std::vector<std::size_t> wdir(k.cols());
    for (std::size_t i = 0; i < k.rows(); ++i) {
      for (std::size_t j = 0; j < k.cols(); ++j) wdir[j] = i * k.cols() + j;
      u.push_back(taylor::dual_tm_affine(env, x, k.row(i), wdir, 0.0));
    }
    return u;
  }
  const auto* pc = dynamic_cast<const nn::PolynomialController*>(&ctrl);
  assert(dynamic_cast<const PolynomialAbstraction*>(&abs) != nullptr && pc &&
         "gradient abstraction requires linear or polynomial controllers");
  const std::size_t nb = pc->basis().size();
  u.reserve(pc->input_dim());
  DualPoly fo;
  for (std::size_t k = 0; k < pc->input_dim(); ++k) {
    fo.val = pc->output_poly(k);
    fo.tan.assign(nd, Poly(pc->state_dim()));
    for (std::size_t j = 0; j < nb; ++j) {
      fo.tan[k * nb + j].add_term(pc->basis()[j], 1.0);
    }
    DualTm uk;
    taylor::dual_tm_eval_poly_into(env, fo, x, uk);
    u.push_back(std::move(uk));
  }
  return u;
}

// Dual mirror of the anonymous reinitialize() in tm_flowpipe.cpp. The
// value channel replicates it bit for bit (including every fallback
// decision); tangents follow the same computation through the product,
// inverse (d A^-1 = -A^-1 dA A^-1), and column-scaling formulas. |x| is
// differentiated with sign(x) (0 at x = 0, the central-difference limit).
DualTmVec dual_reinitialize(const DualTmEnv& env, const DualTmVec& x,
                            const std::vector<DualInterval>& end_range) {
  const std::size_t n = x.size();
  const std::size_t nd = env.dirs;
  const IVec unit(n, Interval(-1.0, 1.0));
  poly::DualPolyScratch& dps = env.scratch().dps;

  const auto box_reinit = [&]() {
    DualTmVec fresh(n);
    for (std::size_t i = 0; i < n; ++i) {
      Poly p = Poly::constant(n, end_range[i].v.mid()) +
               Poly::variable(n, i) * end_range[i].v.rad();
      fresh[i].p.val = std::move(p);
      fresh[i].p.tan.assign(nd, Poly(n));
      const std::uint64_t vkey = 1ull << poly::key_shift(n, i);
      for (std::size_t k = 0; k < nd; ++k) {
        fresh[i].p.tan[k].add_term_key(0, end_range[i].dmid(k));
        fresh[i].p.tan[k].add_term_key(vkey, end_range[i].drad(k));
      }
      fresh[i].rem = DualInterval::constant(Interval(0.0), nd);
    }
    return fresh;
  };

  // Split each component into constant + linear + (nonlinear, remainder),
  // per channel.
  linalg::Mat a(n, n);
  linalg::Vec c(n);
  linalg::Vec r(n);
  std::vector<linalg::Mat> da(nd, linalg::Mat(n, n));
  std::vector<linalg::Vec> dc(nd, linalg::Vec(n));
  std::vector<linalg::Vec> dr(nd, linalg::Vec(n));
  DualPoly nonlin;
  for (std::size_t i = 0; i < n; ++i) {
    nonlin.reset(n, nd);
    for (const auto& [key, coeff] : x[i].p.val.terms()) {
      const std::uint32_t deg = poly::key_degree(key, n);
      if (deg == 0) {
        c[i] = coeff;
      } else if (deg == 1) {
        for (std::size_t j = 0; j < n; ++j) {
          if (poly::key_exp(key, n, j) == 1) a(i, j) = coeff;
        }
      } else {
        nonlin.val.add_term_key(key, coeff);
      }
    }
    for (std::size_t k = 0; k < nd; ++k) {
      for (const auto& [key, coeff] : x[i].p.tan[k].terms()) {
        const std::uint32_t deg = poly::key_degree(key, n);
        if (deg == 0) {
          dc[k][i] = coeff;
        } else if (deg == 1) {
          for (std::size_t j = 0; j < n; ++j) {
            if (poly::key_exp(key, n, j) == 1) da[k](i, j) = coeff;
          }
        } else {
          nonlin.tan[k].add_term_key(key, coeff);
        }
      }
    }
    const DualInterval resid =
        interval::dual_add(poly::dual_range(nonlin, unit, dps), x[i].rem);
    c[i] += resid.v.mid();
    r[i] = resid.v.rad();
    for (std::size_t k = 0; k < nd; ++k) {
      dc[k][i] += resid.dmid(k);
      dr[k][i] = resid.drad(k);
    }
  }

  const linalg::Lu lu = linalg::lu_factor(a);
  if (lu.singular) return box_reinit();
  linalg::Mat ainv;
  try {
    ainv = linalg::inverse(a);
  } catch (const std::domain_error&) {
    return box_reinit();
  }
  std::vector<linalg::Mat> dainv(nd);
  for (std::size_t k = 0; k < nd; ++k) {
    dainv[k] = ((ainv * da[k]) * ainv) * -1.0;
  }

  linalg::Vec m(n);
  std::vector<linalg::Vec> dm(nd, linalg::Vec(n));
  for (std::size_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (std::size_t k2 = 0; k2 < n; ++k2) s += std::abs(ainv(j, k2)) * r[k2];
    m[j] = s;
    for (std::size_t k = 0; k < nd; ++k) {
      double ds = 0.0;
      for (std::size_t k2 = 0; k2 < n; ++k2) {
        const double sgn =
            ainv(j, k2) > 0.0 ? 1.0 : (ainv(j, k2) < 0.0 ? -1.0 : 0.0);
        ds += sgn * dainv[k](j, k2) * r[k2] +
              std::abs(ainv(j, k2)) * dr[k][k2];
      }
      dm[k][j] = ds;
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (!std::isfinite(m[j]) || m[j] > 10.0) return box_reinit();
  }

  linalg::Mat ap = a;
  std::vector<linalg::Mat> dap(nd, linalg::Mat(n, n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      ap(i, j) *= (1.0 + m[j]);
      for (std::size_t k = 0; k < nd; ++k) {
        dap[k](i, j) = da[k](i, j) * (1.0 + m[j]) + a(i, j) * dm[k][j];
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    double hull = 0.0;
    for (std::size_t j = 0; j < n; ++j) hull += std::abs(ap(i, j));
    if (hull > 1.2 * end_range[i].v.rad() + 1e-12) return box_reinit();
  }

  DualTmVec fresh(n);
  for (std::size_t i = 0; i < n; ++i) {
    Poly p = Poly::constant(n, c[i]);
    for (std::size_t j = 0; j < n; ++j) {
      if (ap(i, j) != 0.0) p += Poly::variable(n, j) * ap(i, j);
    }
    fresh[i].p.val = std::move(p);
    fresh[i].p.tan.assign(nd, Poly(n));
    for (std::size_t k = 0; k < nd; ++k) {
      fresh[i].p.tan[k].add_term_key(0, dc[k][i]);
      for (std::size_t j = 0; j < n; ++j) {
        fresh[i].p.tan[k].add_term_key(1ull << poly::key_shift(n, j),
                                       dap[k](i, j));
      }
    }
    fresh[i].rem = DualInterval::constant(Interval(0.0), nd);
  }
  return fresh;
}

}  // namespace

TmGradient::TmGradient(const TmVerifier& v)
    : sys_(v.system()),
      spec_(v.spec()),
      abs_(v.abstraction()),
      opt_(v.options()),
      dynamics_(v.dynamics()) {}

const char* TmGradient::unsupported_reason(const TmVerifier& v,
                                           const nn::Controller& ctrl) {
  if (v.options().range_mode != poly::RangeMode::kSeedIdentical) {
    return "range-bounding mode is not kSeedIdentical";
  }
  if (v.options().symbolic_remainder) {
    return "symbolic remainder queue is enabled";
  }
  if (dynamic_cast<const PolyTmDynamics*>(v.dynamics().get()) == nullptr) {
    return "dynamics are not polynomial (PolyTmDynamics)";
  }
  const std::size_t d = ctrl.param_count();
  if (d == 0) return "controller has no parameters";
  if (d > DualInterval::kMaxDirs) {
    return "controller exceeds the tangent direction cap "
           "(interval::DualInterval::kMaxDirs)";
  }
  const ControlAbstraction* abs = v.abstraction().get();
  const bool lin =
      dynamic_cast<const LinearAbstraction*>(abs) != nullptr &&
      dynamic_cast<const nn::LinearController*>(&ctrl) != nullptr;
  const bool pol =
      dynamic_cast<const PolynomialAbstraction*>(abs) != nullptr &&
      dynamic_cast<const nn::PolynomialController*>(&ctrl) != nullptr;
  if (!lin && !pol) {
    return "abstraction/controller pair is not linear or polynomial";
  }
  return nullptr;
}

GradFlowpipe TmGradient::compute(const geom::Box& x0,
                                 const nn::Controller& ctrl) const {
  const std::size_t n = sys_->state_dim();
  const std::size_t nd = ctrl.param_count();
  assert(x0.dim() == n);
  assert(nd > 0 && nd <= DualInterval::kMaxDirs);

  DualTmEnv env;
  env.dom = IVec(n, Interval(-1.0, 1.0));
  env.order = opt_.order;
  env.cutoff = opt_.cutoff;
  env.dirs = nd;

  const auto* pd = static_cast<const PolyTmDynamics*>(dynamics_.get());
  std::vector<DualPoly> fd;
  fd.reserve(pd->polys().size());
  for (const Poly& f : pd->polys()) {
    fd.push_back(DualPoly::constant_like(f, nd));
  }

  GradFlowpipe out;
  out.dirs = nd;
  Flowpipe& fp = out.fp;

  // Initial affine parameterization x_i = c_i + r_i s_i; the initial set
  // does not depend on theta, so tangents start at zero.
  const linalg::Vec cc = x0.center();
  const linalg::Vec rr = x0.radius();
  DualTmVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    Poly p = Poly::constant(n, cc[i]) + Poly::variable(n, i) * rr[i];
    x[i].p.val = std::move(p);
    x[i].p.tan.assign(nd, Poly(n));
    x[i].rem = DualInterval::constant(Interval(0.0), nd);
  }

  fp.step_sets.reserve(spec_.steps + 1);
  fp.interval_hulls.reserve(spec_.steps);
  out.step_sets_d.reserve(spec_.steps + 1);
  out.interval_hulls_d.reserve(spec_.steps);
  fp.step_sets.push_back(x0);
  {
    std::vector<DualInterval> d0(n);
    for (std::size_t i = 0; i < n; ++i) {
      d0[i] = DualInterval::constant(x0[i], nd);
    }
    out.step_sets_d.push_back(std::move(d0));
  }

  DualStepScratch ss;
  DualStepResult sr;

  // The dual pass runs the scalar driver's period loop and derives the
  // schedule independently (the fixed grid is its non-adaptive policy):
  // the controller's signals come from the value channel, whose bits match
  // the scalar driver's, so both drivers walk the identical (h, order)
  // tape.
  StepController sc;
  sc.configure(opt_, spec_.delta, n);
  sc.reset(&fp.tm_stats);

  for (std::size_t step = 0; step < spec_.steps; ++step) {
    // Abstraction at the base order, mirroring the scalar driver.
    env.order = opt_.order;
    const DualTmVec u = dual_abstract(env, x, *abs_, ctrl);

    std::vector<DualInterval> period_hull;
    sc.start_period();
    while (!sc.period_done()) {
      const StepDecision d = sc.next();
      env.order = d.order;
      dual_integrate_step(env, x, u, fd, d.h, opt_, ss, sr);
      if (!sr.ok) {
        if (sc.reject()) continue;
        fp.valid = false;
        fp.failure = sr.failure;
        break;
      }
      sc.accept(d, {sr.attempts, sr.conv_index, sr.defect_rel,
                    sr.max_poly_terms});
      fp.tm_stats.note_step(d.h);
      if (period_hull.empty()) {
        period_hull = sr.tube_range;
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          period_hull[i] =
              interval::dual_hull(period_hull[i], sr.tube_range[i]);
        }
      }
      std::swap(x, sr.at_end);
    }
    if (!fp.valid) break;

    {
      IVec ph(n);
      for (std::size_t i = 0; i < n; ++i) ph[i] = period_hull[i].v;
      fp.interval_hulls.emplace_back(ph);
      out.interval_hulls_d.push_back(std::move(period_hull));
    }
    std::vector<DualInterval> end_d = taylor::dual_tm_vec_range(env, x);
    IVec end_range(n);
    for (std::size_t i = 0; i < n; ++i) end_range[i] = end_d[i].v;
    fp.step_sets.emplace_back(end_range);
    out.step_sets_d.push_back(std::move(end_d));

    // Reach-avoid semantics: stop at provable goal containment.
    if (spec_.stop_at_goal && spec_.goal.contains(geom::Box(end_range))) {
      break;
    }

    if (end_range.max_mag() > opt_.divergence_bound) {
      fp.valid = false;
      fp.failure = "flowpipe enclosure diverged";
      break;
    }

    // Adaptive re-initialization (decided on the value channel).
    if (opt_.reinit_rem_fraction > 0.0) {
      bool reinit = false;
      for (std::size_t i = 0; i < n; ++i) {
        const double spread = end_range[i].rad();
        const double rem_rad = x[i].rem.v.rad();
        if (rem_rad > opt_.reinit_rem_fraction * spread &&
            rem_rad > 10.0 * opt_.rem_init) {
          reinit = true;
          break;
        }
      }
      if (reinit) {
        x = dual_reinitialize(env, x, out.step_sets_d.back());
        ++fp.tm_stats.reinits;
      }
    }
  }

  return out;
}

}  // namespace dwv::reach
