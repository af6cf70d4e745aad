#include "reach/grad_flowpipe.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "linalg/matrix.hpp"
#include "nn/poly_controller.hpp"
#include "reach/picard_step.hpp"
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
// tm_flowpipe.cpp on the value channel; see the header.

namespace {

// The dual channel of detail::picard_step: dual Taylor models (the
// kernels' DualOps), dynamics as dual polynomials, the step workspace in
// the driver's DualStepScratch. The dynamics are polynomial, hence always
// replay-safe.
struct DualChannel : taylor::detail::DualOps {
  const std::vector<DualPoly>& fd;
  taylor::DualTmScratch& s;  ///< kernel scratch of the step env
  DualStepScratch& w;        ///< step workspace

  static bool replay_safe() { return true; }
  void eval(const DualTmEnv& env, const DualTmVec& args,
            DualTmVec& g) const {
    g.resize(fd.size());
    for (std::size_t i = 0; i < fd.size(); ++i) {
      taylor::dual_tm_eval_poly_into(env, fd[i], args, g[i]);
    }
  }
  static constexpr auto integrate_time = &taylor::dual_tm_integrate_time_into;
  static constexpr auto subst_last = &taylor::dual_tm_subst_last_into;

  void tape_record() { s.tape_record(); }
  void tape_replay() { s.tape_replay(); }
  void tape_stop() { s.tape_stop(); }
};

}  // namespace

void dual_integrate_step(const DualTmEnv& env_set, const DualTmVec& state,
                         const DualTmVec& control,
                         const std::vector<DualPoly>& fd, double h,
                         const TmReachOptions& opt, DualStepScratch& ss,
                         DualStepResult& res) {
  assert(fd.size() == state.size());
  DualChannel c{{}, fd, env_set.scratch(), ss};
  detail::picard_step(c, env_set, state, control, h, opt, res);
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
