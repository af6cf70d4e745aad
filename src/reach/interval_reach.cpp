#include "reach/interval_reach.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "interval/lanes.hpp"
#include "poly/range_engine.hpp"
#include "reach/cache.hpp"

namespace dwv::reach {

using interval::Interval;
using interval::IVec;

IntervalVerifier::IntervalVerifier(ode::SystemPtr sys,
                                   ode::ReachAvoidSpec spec,
                                   IntervalReachOptions opt)
    : sys_(std::move(sys)),
      spec_(std::move(spec)),
      opt_(opt),
      f_polys_(sys_->poly_dynamics()) {}

std::uint64_t IntervalVerifier::cache_salt() const {
  std::vector<std::uint64_t> w;
  w.push_back(hash_string(0, sys_->name()));
  w.push_back(sys_->state_dim());
  w.push_back(sys_->input_dim());
  for (const poly::Poly& p : f_polys_) push_poly_words(w, p);
  push_spec_words(w, spec_);
  for (const auto* dims : {&spec_.goal_dims, &spec_.unsafe_dims}) {
    w.push_back(dims->size());
    for (const std::size_t d : *dims) w.push_back(d);
  }
  w.push_back(opt_.substeps);
  w.push_back(std::bit_cast<std::uint64_t>(opt_.inflation));
  w.push_back(opt_.max_inflations);
  w.push_back(std::bit_cast<std::uint64_t>(opt_.divergence_bound));
  return hash_words(0x3f84d5b5b5470917ull, w.data(), w.size());
}

namespace {

// Interval image of the polynomial vector field at boxes (x, u). The
// engine shares one power table across the n component polynomials of
// each box (thread_local: SubdividingVerifier may run cells in parallel
// against the same IntervalVerifier instance).
IVec f_range(const std::vector<poly::Poly>& f, const IVec& x, const IVec& u) {
  thread_local poly::RangeEngine engine;
  IVec xu(x.size() + u.size());
  for (std::size_t i = 0; i < x.size(); ++i) xu[i] = x[i];
  for (std::size_t j = 0; j < u.size(); ++j) xu[x.size() + j] = u[j];
  IVec out(f.size());
  for (std::size_t i = 0; i < f.size(); ++i)
    out[i] = engine.eval_range(f[i], xu);
  return out;
}

// Interval output range of a controller on a state box.
IVec control_range(const nn::Controller& ctrl, const IVec& x) {
  // Reuse the coarse abstraction machinery via a degenerate TM environment.
  taylor::TmEnv env;
  env.dom = x;
  env.order = 1;
  taylor::TmVec state(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    state[i] = taylor::TaylorModel::variable(env, i);
  IntervalAbstraction abs;
  const taylor::TmVec u = abs.abstract(env, state, ctrl);
  return taylor::tm_vec_range(env, u);
}

// The remaining helpers replicate control_range's exact floating-point
// operation sequence without the Taylor-model machinery (no TmEnv, Poly,
// or RangeEngine allocations). Used only by the lane-batched stepper; the
// scalar compute() keeps the original path. Differential tests pin the
// two bit-for-bit against each other.

// tm_range of TaylorModel::variable(env, j): RangeEngine::naive_range of
// the coordinate polynomial (s = 0; m = 1; m *= dom_j^1; s += m) plus the
// zero remainder.
Interval variable_range(const Interval& dom_j) {
  Interval m(1.0);
  m *= interval::pow_n(dom_j, 1);
  Interval s(0.0);
  s += m;
  return s + Interval(0.0);
}

// tm_range of TaylorModel::constant(env, c): naive_range of the constant
// polynomial (empty when the midpoint is exactly zero) plus the centered
// remainder c - [mid, mid].
Interval constant_range(const Interval& c) {
  const double mid = c.mid();
  const Interval rem = c - Interval(mid);
  Interval pr(0.0);
  if (mid != 0.0) pr += Interval(mid);
  return pr + rem;
}

// control_range for the two controller families IntervalAbstraction
// handles; false for anything else (caller falls back to the machinery).
bool fast_control_range(const nn::Controller& ctrl, const IVec& x,
                        IVec& out) {
  IVec range(x.size());
  for (std::size_t j = 0; j < x.size(); ++j)
    range[j] = variable_range(x[j]);
  if (const auto* mc = dynamic_cast<const nn::MlpController*>(&ctrl)) {
    const IVec o = interval_forward(mc->mlp(), range);
    out.resize(o.size());
    for (std::size_t i = 0; i < o.size(); ++i)
      out[i] = constant_range(o[i] * Interval(mc->scale()));
    return true;
  }
  if (const auto* lin = dynamic_cast<const nn::LinearController*>(&ctrl)) {
    const IVec o = interval::mat_ivec(lin->gain(), range);
    out.resize(o.size());
    for (std::size_t i = 0; i < o.size(); ++i)
      out[i] = constant_range(o[i]);
    return true;
  }
  return false;
}

}  // namespace

Flowpipe IntervalVerifier::compute(const geom::Box& x0,
                                   const nn::Controller& ctrl) const {
  const std::size_t n = sys_->state_dim();
  assert(x0.dim() == n);

  Flowpipe fp;
  fp.step_sets.reserve(spec_.steps + 1);
  fp.interval_hulls.reserve(spec_.steps);
  fp.step_sets.push_back(x0);

  IVec x = x0.bounds();
  const double h = spec_.delta / static_cast<double>(opt_.substeps);

  for (std::size_t step = 0; step < spec_.steps; ++step) {
    const IVec u = control_range(ctrl, x);
    IVec period_hull = x;

    for (std::size_t sub = 0; sub < opt_.substeps; ++sub) {
      // A-priori enclosure B: inflate until x + [0,h] f(B,u) stays inside.
      IVec b = x;
      bool ok = false;
      for (std::size_t it = 0; it < opt_.max_inflations; ++it) {
        // Inflate b.
        IVec binf(n);
        for (std::size_t i = 0; i < n; ++i) {
          const double r =
              b[i].rad() * opt_.inflation + 1e-9 + 0.01 * h;
          binf[i] = Interval(b[i].mid() - r, b[i].mid() + r);
        }
        const IVec fb = f_range(f_polys_, binf, u);
        IVec trial(n);
        bool inside = true;
        for (std::size_t i = 0; i < n; ++i) {
          trial[i] = x[i] + interval::hull(Interval(0.0),
                                           fb[i] * Interval(h));
          if (!binf[i].contains(trial[i])) inside = false;
        }
        if (inside) {
          b = binf;
          ok = true;
          break;
        }
        b = trial;  // grow towards the needed enclosure
      }
      if (!ok) {
        fp.valid = false;
        fp.failure = "interval a-priori enclosure not found";
        return fp;
      }

      // Tube over the sub-step and the end set x(h) = x + h f(B, u).
      const IVec fb = f_range(f_polys_, b, u);
      IVec tube(n);
      IVec xe(n);
      for (std::size_t i = 0; i < n; ++i) {
        tube[i] = x[i] + interval::hull(Interval(0.0), fb[i] * Interval(h));
        xe[i] = x[i] + fb[i] * Interval(h);
      }
      period_hull = interval::hull(period_hull, tube);
      x = xe;
    }

    fp.interval_hulls.emplace_back(period_hull);
    fp.step_sets.emplace_back(x);

    if (spec_.stop_at_goal && spec_.goal.contains(fp.step_sets.back())) {
      return fp;
    }

    if (x.max_mag() > opt_.divergence_bound) {
      fp.valid = false;
      fp.failure = "interval flowpipe diverged";
      return fp;
    }
  }
  return fp;
}

std::vector<Flowpipe> IntervalVerifier::compute_batch(
    const geom::Box* x0s, const nn::Controller* const* ctrls,
    std::size_t count) const {
  constexpr std::size_t kW = interval::lanes::kWidth;
  std::vector<Flowpipe> out(count);
  for (std::size_t g = 0; g < count; g += kW)
    compute_lane_group(x0s + g, ctrls + g, std::min(kW, count - g),
                       &out[g]);
  return out;
}

// The lockstep stepper. Per lane this performs EXACTLY the operation
// sequence of compute() above: the lane kernels reproduce the Interval
// operators bit for bit (see interval/lanes.hpp), RangeLanes reproduces
// f_range's eval_range walk, and control_range is called per lane on the
// gathered state box. Lanes that finish early (goal reached, diverged,
// enclosure failure) are "frozen": the kernels keep computing their lanes
// — element-wise, so live lanes are unaffected — but nothing is committed
// to the frozen lane's flowpipe or state, and ragged-tail lanes are
// padding (copies of lane 0) that is never committed anywhere.
void IntervalVerifier::compute_lane_group(const geom::Box* x0s,
                                          const nn::Controller* const* ctrls,
                                          std::size_t count,
                                          Flowpipe* out) const {
  constexpr std::size_t kW = interval::lanes::kWidth;
  const interval::lanes::Ops& ops = interval::lanes::active_ops();
  const std::size_t n = sys_->state_dim();
  const std::size_t m = f_polys_.empty() ? 0 : f_polys_[0].nvars() - n;
  assert(count >= 1 && count <= kW);

  bool live[kW] = {};
  for (std::size_t k = 0; k < count; ++k) {
    assert(x0s[k].dim() == n);
    live[k] = true;
    out[k] = Flowpipe{};
    out[k].step_sets.reserve(spec_.steps + 1);
    out[k].interval_hulls.reserve(spec_.steps);
    out[k].step_sets.push_back(x0s[k]);
  }

  // SoA lane blocks: component i's lanes live at [i * kW, (i + 1) * kW).
  std::vector<double> x_lo(n * kW), x_hi(n * kW);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < kW; ++k) {
      const interval::Interval& v =
          x0s[k < count ? k : 0].bounds()[i];  // tail lanes: padding
      x_lo[i * kW + k] = v.lo();
      x_hi[i * kW + k] = v.hi();
    }

  const double h = spec_.delta / static_cast<double>(opt_.substeps);
  std::vector<double> h_lo(kW, h), h_hi(kW, h);
  std::vector<double> zero_lo(kW, 0.0), zero_hi(kW, 0.0);

  std::vector<double> b_lo(n * kW), b_hi(n * kW);
  std::vector<double> binf_lo(n * kW), binf_hi(n * kW);
  std::vector<double> trial_lo(n * kW), trial_hi(n * kW);
  std::vector<double> fb_lo(n * kW), fb_hi(n * kW);
  std::vector<double> t1_lo(n * kW), t1_hi(n * kW);
  std::vector<double> t2_lo(n * kW), t2_hi(n * kW);
  std::vector<double> ph_lo(n * kW), ph_hi(n * kW);
  std::vector<double> dom_lo((n + m) * kW), dom_hi((n + m) * kW);

  poly::RangeLanes lanes;
  std::vector<IVec> u(kW);
  IVec xk(n);

  const auto gather = [&](const std::vector<double>& lo,
                          const std::vector<double>& hi, std::size_t k) {
    for (std::size_t i = 0; i < n; ++i)
      xk[i] = Interval(lo[i * kW + k], hi[i * kW + k]);
  };
  // Binds the f domain (state block ++ control ranges) for f_range.
  const auto bind_domain = [&](const std::vector<double>& slo,
                               const std::vector<double>& shi) {
    std::copy(slo.begin(), slo.end(), dom_lo.begin());
    std::copy(shi.begin(), shi.end(), dom_hi.begin());
    for (std::size_t j = 0; j < m; ++j)
      for (std::size_t k = 0; k < kW; ++k) {
        dom_lo[(n + j) * kW + k] = u[k][j].lo();
        dom_hi[(n + j) * kW + k] = u[k][j].hi();
      }
    lanes.bind(dom_lo.data(), dom_hi.data(), n + m);
  };
  const auto eval_f = [&] {
    for (std::size_t i = 0; i < f_polys_.size(); ++i)
      lanes.eval(f_polys_[i], &fb_lo[i * kW], &fb_hi[i * kW]);
  };

  for (std::size_t step = 0; step < spec_.steps; ++step) {
    std::size_t first_live = kW;
    for (std::size_t k = 0; k < kW; ++k)
      if (live[k] && first_live == kW) first_live = k;
    if (first_live == kW) break;

    // Control ranges: scalar per live lane (same call as compute());
    // frozen/padding lanes reuse a live lane's range as filler.
    for (std::size_t k = 0; k < kW; ++k)
      if (live[k]) {
        gather(x_lo, x_hi, k);
        if (!fast_control_range(*ctrls[k], xk, u[k]))
          u[k] = control_range(*ctrls[k], xk);
      }
    for (std::size_t k = 0; k < kW; ++k)
      if (!live[k]) u[k] = u[first_live];

    ph_lo = x_lo;  // period_hull = x
    ph_hi = x_hi;

    for (std::size_t sub = 0; sub < opt_.substeps; ++sub) {
      b_lo = x_lo;  // b = x
      b_hi = x_hi;
      bool ok[kW];
      std::size_t pending = 0;
      for (std::size_t k = 0; k < kW; ++k) {
        ok[k] = !live[k];
        if (live[k]) ++pending;
      }
      for (std::size_t it = 0; it < opt_.max_inflations && pending > 0;
           ++it) {
        // Inflate b (scalar per lane: same expressions as compute()).
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t k = 0; k < kW; ++k) {
            const double blo = b_lo[i * kW + k];
            const double bhi = b_hi[i * kW + k];
            const double r =
                0.5 * (bhi - blo) * opt_.inflation + 1e-9 + 0.01 * h;
            const double mid = 0.5 * (blo + bhi);
            binf_lo[i * kW + k] = mid - r;
            binf_hi[i * kW + k] = mid + r;
          }
        bind_domain(binf_lo, binf_hi);
        eval_f();
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t o = i * kW;
          // trial = x + hull(0, fb * h)
          ops.mul(&fb_lo[o], &fb_hi[o], h_lo.data(), h_hi.data(), &t1_lo[o],
                  &t1_hi[o]);
          ops.hull(zero_lo.data(), zero_hi.data(), &t1_lo[o], &t1_hi[o],
                   &t1_lo[o], &t1_hi[o]);
          ops.add(&x_lo[o], &x_hi[o], &t1_lo[o], &t1_hi[o], &trial_lo[o],
                  &trial_hi[o]);
        }
        for (std::size_t k = 0; k < kW; ++k) {
          if (ok[k]) continue;
          bool inside = true;
          for (std::size_t i = 0; i < n; ++i)
            if (!(binf_lo[i * kW + k] <= trial_lo[i * kW + k] &&
                  trial_hi[i * kW + k] <= binf_hi[i * kW + k]))
              inside = false;
          if (inside) {
            for (std::size_t i = 0; i < n; ++i) {
              b_lo[i * kW + k] = binf_lo[i * kW + k];
              b_hi[i * kW + k] = binf_hi[i * kW + k];
            }
            ok[k] = true;
            --pending;
          } else {
            for (std::size_t i = 0; i < n; ++i) {
              b_lo[i * kW + k] = trial_lo[i * kW + k];
              b_hi[i * kW + k] = trial_hi[i * kW + k];
            }
          }
        }
      }
      for (std::size_t k = 0; k < kW; ++k)
        if (live[k] && !ok[k]) {
          out[k].valid = false;
          out[k].failure = "interval a-priori enclosure not found";
          live[k] = false;
        }

      // Tube over the sub-step and the end set x(h) = x + h f(B, u).
      bind_domain(b_lo, b_hi);
      eval_f();
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t o = i * kW;
        ops.mul(&fb_lo[o], &fb_hi[o], h_lo.data(), h_hi.data(), &t1_lo[o],
                &t1_hi[o]);
        // xe = x + fb * h (staged in trial; committed per live lane below)
        ops.add(&x_lo[o], &x_hi[o], &t1_lo[o], &t1_hi[o], &trial_lo[o],
                &trial_hi[o]);
        // tube = x + hull(0, fb * h); period_hull = hull(period_hull, tube)
        ops.hull(zero_lo.data(), zero_hi.data(), &t1_lo[o], &t1_hi[o],
                 &t1_lo[o], &t1_hi[o]);
        ops.add(&x_lo[o], &x_hi[o], &t1_lo[o], &t1_hi[o], &t2_lo[o],
                &t2_hi[o]);
        ops.hull(&ph_lo[o], &ph_hi[o], &t2_lo[o], &t2_hi[o], &ph_lo[o],
                 &ph_hi[o]);
      }
      for (std::size_t k = 0; k < kW; ++k)
        if (live[k])
          for (std::size_t i = 0; i < n; ++i) {
            x_lo[i * kW + k] = trial_lo[i * kW + k];
            x_hi[i * kW + k] = trial_hi[i * kW + k];
          }
    }

    for (std::size_t k = 0; k < kW; ++k) {
      if (!live[k]) continue;
      gather(ph_lo, ph_hi, k);
      out[k].interval_hulls.emplace_back(xk);
      gather(x_lo, x_hi, k);
      out[k].step_sets.emplace_back(xk);

      if (spec_.stop_at_goal &&
          spec_.goal.contains(out[k].step_sets.back())) {
        live[k] = false;
        continue;
      }
      if (xk.max_mag() > opt_.divergence_bound) {
        out[k].valid = false;
        out[k].failure = "interval flowpipe diverged";
        live[k] = false;
      }
    }
  }
}

}  // namespace dwv::reach
