// Forward-mode gradient engine: value-channel bit identity against the
// scalar verifier, finite-difference validation of the dual kernels and
// metric gradients (Richardson-extrapolated central differences), cache
// composition, and thread-count determinism of the grad learner.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "core/grad_metrics.hpp"
#include "core/learner.hpp"
#include "nn/controller.hpp"
#include "nn/poly_controller.hpp"
#include "ode/benchmarks.hpp"
#include "reach/control_abstraction.hpp"
#include "reach/grad_flowpipe.hpp"
#include "reach/tm_flowpipe.hpp"
#include "taylor/dual_tm.hpp"

namespace dwv {
namespace {

using core::GeometricMetricsGrad;
using core::MetricGrad;
using core::WassersteinMetricsGrad;
using geom::Box;
using interval::DualInterval;
using interval::Interval;
using interval::IVec;
using linalg::Mat;
using linalg::Vec;
using reach::GradFlowpipe;
using reach::TmGradient;
using reach::TmVerifier;

// ---------------------------------------------------------------------------
// Scenario registry: (verifier configuration, controller) pairs the gradient
// engine supports. The gradient-check CI tool iterates the same set.

struct Scenario {
  std::string name;
  ode::Benchmark bench;
  reach::ControlAbstractionPtr abs;
  std::shared_ptr<nn::Controller> ctrl;
  reach::TmReachOptions opt;
};

Scenario acc_linear(const Vec& theta) {
  Scenario s;
  s.name = "acc-linear";
  s.bench = ode::make_acc_benchmark();
  s.bench.spec.steps = 20;
  s.bench.spec.stop_at_goal = false;
  s.abs = std::make_shared<reach::LinearAbstraction>();
  auto ctrl = std::make_shared<nn::LinearController>(2, 1);
  ctrl->set_params(theta);
  s.ctrl = ctrl;
  return s;
}

Scenario vdp_poly(const Vec& theta) {
  Scenario s;
  s.name = "vdp-poly";
  s.bench = ode::make_oscillator_benchmark();
  s.bench.spec.steps = 10;
  s.bench.spec.stop_at_goal = false;
  s.abs = std::make_shared<reach::PolynomialAbstraction>();
  auto ctrl = std::make_shared<nn::PolynomialController>(2, 1, 2);
  ctrl->set_params(theta);
  s.ctrl = ctrl;
  return s;
}

std::vector<Scenario> all_scenarios() {
  std::vector<Scenario> v;
  v.push_back(acc_linear(Vec{-0.5, -1.2}));
  v.push_back(acc_linear(Vec{0.0, 0.0}));  // tangent-only gain entries
  v.push_back(vdp_poly(Vec{0.0, -0.4, 0.3, 0.0, 0.1, 0.0}));
  return v;
}

TmVerifier make_verifier(const Scenario& s) {
  return TmVerifier(s.bench.system, s.bench.spec, s.abs, s.opt);
}

// ---------------------------------------------------------------------------
// Value-channel bit identity: the dual pass must return EXACTLY the boxes
// the scalar verifier computes.

void expect_box_bits(const Box& a, const Box& b, const char* what,
                     std::size_t idx) {
  ASSERT_EQ(a.dim(), b.dim());
  for (std::size_t i = 0; i < a.dim(); ++i) {
    std::uint64_t alo, ahi, blo, bhi;
    double d;
    d = a[i].lo();
    std::memcpy(&alo, &d, 8);
    d = a[i].hi();
    std::memcpy(&ahi, &d, 8);
    d = b[i].lo();
    std::memcpy(&blo, &d, 8);
    d = b[i].hi();
    std::memcpy(&bhi, &d, 8);
    EXPECT_EQ(alo, blo) << what << "[" << idx << "] dim " << i << " lo";
    EXPECT_EQ(ahi, bhi) << what << "[" << idx << "] dim " << i << " hi";
  }
}

TEST(GradFlowpipeValue, BitIdenticalToScalarVerifier) {
  for (const Scenario& s : all_scenarios()) {
    SCOPED_TRACE(s.name);
    const TmVerifier v = make_verifier(s);
    ASSERT_EQ(TmGradient::unsupported_reason(v, *s.ctrl), nullptr);

    const reach::Flowpipe fp = v.compute(s.bench.spec.x0, *s.ctrl);
    const TmGradient g(v);
    const GradFlowpipe gfp = g.compute(s.bench.spec.x0, *s.ctrl);

    EXPECT_EQ(fp.valid, gfp.fp.valid);
    EXPECT_EQ(fp.failure, gfp.fp.failure);
    ASSERT_EQ(fp.step_sets.size(), gfp.fp.step_sets.size());
    ASSERT_EQ(fp.interval_hulls.size(), gfp.fp.interval_hulls.size());
    for (std::size_t k = 0; k < fp.step_sets.size(); ++k) {
      expect_box_bits(fp.step_sets[k], gfp.fp.step_sets[k], "step", k);
    }
    for (std::size_t k = 0; k < fp.interval_hulls.size(); ++k) {
      expect_box_bits(fp.interval_hulls[k], gfp.fp.interval_hulls[k], "hull",
                      k);
    }
    // Dual channels mirror the value containers.
    ASSERT_EQ(gfp.step_sets_d.size(), fp.step_sets.size());
    ASSERT_EQ(gfp.interval_hulls_d.size(), fp.interval_hulls.size());
    for (std::size_t k = 0; k < fp.step_sets.size(); ++k) {
      for (std::size_t i = 0; i < fp.step_sets[k].dim(); ++i) {
        EXPECT_EQ(gfp.step_sets_d[k][i].v.lo(), fp.step_sets[k][i].lo());
        EXPECT_EQ(gfp.step_sets_d[k][i].v.hi(), fp.step_sets[k][i].hi());
      }
    }
  }
}

// FNV-1a over every value and tangent bit of the dual boxes: for each step
// set, then each interval hull, every dimension's lo, hi, dlo[0..nd) and
// dhi[0..nd).
std::uint64_t dual_bits_digest(const GradFlowpipe& gfp) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](double x) {
    std::uint64_t b;
    std::memcpy(&b, &x, 8);
    for (int i = 0; i < 8; ++i) {
      h ^= (b >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto* sets : {&gfp.step_sets_d, &gfp.interval_hulls_d}) {
    for (const std::vector<DualInterval>& box : *sets) {
      for (const DualInterval& d : box) {
        mix(d.v.lo());
        mix(d.v.hi());
        for (std::size_t k = 0; k < d.nd; ++k) mix(d.dlo[k]);
        for (std::size_t k = 0; k < d.nd; ++k) mix(d.dhi[k]);
      }
    }
  }
  return h;
}

TEST(GradFlowpipeValue, TangentBitsPinned) {
  // Golden digests of the dual pass's value and tangent bits per scenario,
  // recorded before the dual kernels took exact products, tie masks, the
  // range memo and the truncating multiply: those are pure speedups, so
  // any moved bit is a regression. Learned parameters depend on the
  // tangents, not only on the value channel BitIdenticalToScalarVerifier
  // checks.
  const std::uint64_t golden[] = {0x8e13c687b6517aebULL, 0xcf366f388d35c1bcULL,
                                  0xf94d9ad2f62ecb63ULL};
  const std::vector<Scenario> scenarios = all_scenarios();
  ASSERT_EQ(scenarios.size(), std::size(golden));
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    SCOPED_TRACE(s.name);
    const TmVerifier v = make_verifier(s);
    const TmGradient g(v);
    const GradFlowpipe gfp = g.compute(s.bench.spec.x0, *s.ctrl);
    ASSERT_TRUE(gfp.fp.valid) << gfp.fp.failure;
    EXPECT_EQ(dual_bits_digest(gfp), golden[i])
        << std::hex << "0x" << dual_bits_digest(gfp);
  }
}

TEST(GradFlowpipeValue, ProfileBitsPinned) {
  // Golden digests of dual passes the fixed-grid scenarios above never
  // take: adaptive schedules (the step size and order move), adaptive
  // rejects (also exhausting the reject budget), validation retries from a
  // tight first remainder guess, and the tangent-only-key controller under
  // the adaptive controller. Recorded while the dual step still ran every
  // Picard pass and validation attempt in the full channel; the step only
  // skips dead or repeated work, so any moved bit is a regression.
  // Each case also pins the schedule it walks (validity, accepted
  // substeps, rejects), so a case cannot silently stop covering its path.
  const Vec vdp_theta{0.0, -0.4, 0.3, 0.0, 0.1, 0.0};
  struct Want {
    bool valid;
    std::size_t substeps;
    std::size_t rejects;
    std::uint64_t golden;
  };
  struct Case {
    const char* name;
    Scenario s;
    Want want;
  };
  std::vector<Case> cases;
  const auto add = [&cases](const char* name, Scenario s, bool adaptive,
                            std::size_t substeps, std::size_t inflations,
                            double rem_init, Want want) {
    s.opt.adaptive = adaptive;
    s.opt.substeps = substeps;
    s.opt.max_inflations = inflations;
    s.opt.rem_init = rem_init;
    cases.push_back({name, std::move(s), want});
  };
  const Vec acc_theta{-0.5, -1.2};
  // Steps of 0.05 and 0.1 (one order escalation).
  add("acc-linear adaptive", acc_linear(acc_theta), true, 2, 60, 1e-9,
      {true, 21, 0, 0x110babcc69a8808fULL});
  add("vdp-poly adaptive, substeps 1", vdp_poly(vdp_theta), true, 1, 60,
      1e-9, {true, 10, 0, 0xc7434219b7d7b439ULL});
  // One inflation: the 0.1 step fails its proof; rejects halve it to 0.025.
  add("vdp-poly adaptive rejects", vdp_poly(vdp_theta), true, 1, 1, 1e-9,
      {true, 40, 2, 0xbc5cbf53035e5793ULL});
  add("acc-linear adaptive, reject budget exhausted", acc_linear(acc_theta),
      true, 1, 0, 1e-9, {false, 10, 9, 0x4aac611dee0af14eULL});
  add("acc-linear retries", acc_linear(acc_theta), false, 2, 60, 1e-13,
      {true, 40, 0, 0x9244e967ba5baf1fULL});
  add("vdp-poly retries", vdp_poly(vdp_theta), false, 2, 60, 1e-13,
      {true, 20, 0, 0x6bd2d1fdffd3593aULL});
  add("acc-linear(0, 0) adaptive", acc_linear(Vec{0.0, 0.0}), true, 2, 60,
      1e-9, {true, 21, 0, 0xca51118c9f115474ULL});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const TmVerifier v = make_verifier(c.s);
    ASSERT_EQ(TmGradient::unsupported_reason(v, *c.s.ctrl), nullptr);
    const GradFlowpipe gfp =
        TmGradient(v).compute(c.s.bench.spec.x0, *c.s.ctrl);
    EXPECT_EQ(gfp.fp.valid, c.want.valid) << gfp.fp.failure;
    EXPECT_EQ(gfp.fp.tm_stats.substeps, c.want.substeps);
    EXPECT_EQ(gfp.fp.tm_stats.rejects, c.want.rejects);
    EXPECT_EQ(dual_bits_digest(gfp), c.want.golden)
        << std::hex << "0x" << dual_bits_digest(gfp);
  }
}

// The dual pass runs the scalar driver's period loop, whose fixed grid has
// no retry: with one inflation attempt the vdp-poly pipe fails its first
// substep, and both passes stop there with nothing counted as a reject.
TEST(GradFlowpipeValue, FixedGridFailureMatchesScalar) {
  Scenario s = vdp_poly(Vec{0.0, -0.4, 0.3, 0.0, 0.1, 0.0});
  s.opt.substeps = 1;
  s.opt.max_inflations = 1;
  const TmVerifier v = make_verifier(s);
  ASSERT_EQ(TmGradient::unsupported_reason(v, *s.ctrl), nullptr);
  const reach::Flowpipe fp = v.compute(s.bench.spec.x0, *s.ctrl);
  const GradFlowpipe gfp = TmGradient(v).compute(s.bench.spec.x0, *s.ctrl);
  for (const reach::Flowpipe* p : {&fp, &gfp.fp}) {
    EXPECT_FALSE(p->valid);
    EXPECT_EQ(p->failure,
              "remainder validation failed (Picard operator not contracting)");
    EXPECT_EQ(p->step_sets.size(), 1u);
    EXPECT_TRUE(p->interval_hulls.empty());
    EXPECT_EQ(p->tm_stats.rejects, 0u);
  }
  EXPECT_EQ(gfp.step_sets_d.size(), 1u);
}

// ---------------------------------------------------------------------------
// Full-channel oracle for the dual step: every Picard pass and every
// validation attempt computes all polynomials, remainders and the range
// queries feeding them — no remainder tape, no poly-only passes, no
// converged-pass break. Built from the public dual kernels on its own env
// (own scratch, so none of the step's tape state); conv_index is the first
// pass at which the value channel maps to itself, the index the scalar
// step reports, and `all_conv` receives the first pass at which every
// channel does. dual_integrate_step skips only dead or repeated work, so
// it must agree bit for bit.

reach::DualStepResult full_channel_dual_step(
    const taylor::DualTmEnv& env_set, const taylor::DualTmVec& state,
    const taylor::DualTmVec& control, const std::vector<poly::DualPoly>& fd,
    double h, const reach::TmReachOptions& opt, std::size_t& all_conv) {
  using taylor::DualTm;
  using taylor::DualTmVec;
  const std::size_t n = state.size();
  const std::size_t nv = env_set.nvars();
  const std::size_t nd = env_set.dirs;
  const DualInterval zero = DualInterval::constant(Interval(0.0), nd);
  taylor::DualTmEnv env;
  env.dom = IVec(nv + 1);
  for (std::size_t i = 0; i < nv; ++i) env.dom[i] = env_set.dom[i];
  env.dom[nv] = Interval(0.0, h);
  env.order = env_set.order;
  env.cutoff = env_set.cutoff;
  env.dirs = nd;

  const auto lift = [&](const DualTm& in) {
    DualTm out;
    in.p.val.lift_vars_into(nv + 1, out.p.val);
    out.p.tan.resize(nd);
    for (std::size_t k = 0; k < nd; ++k) {
      in.p.tan[k].lift_vars_into(nv + 1, out.p.tan[k]);
    }
    out.rem = in.rem;
    return out;
  };
  DualTmVec x0, u;
  for (const DualTm& s : state) x0.push_back(lift(s));
  for (const DualTm& c : control) u.push_back(lift(c));
  const auto picard = [&](const DualTmVec& phi) {
    DualTmVec args(phi);
    args.insert(args.end(), u.begin(), u.end());
    DualTmVec out(n);
    for (std::size_t i = 0; i < n; ++i) {
      DualTm g, integ;
      taylor::dual_tm_eval_poly_into(env, fd[i], args, g);
      taylor::dual_tm_integrate_time_into(env, g, nv, integ);
      poly::dual_add_into(x0[i].p, integ.p, out[i].p);
      out[i].rem = interval::dual_add(x0[i].rem, integ.rem);
    }
    return out;
  };

  reach::DualStepResult res;
  const std::size_t iters =
      opt.adaptive ? std::max(opt.picard_iters,
                              static_cast<std::size_t>(env_set.order) + 1)
                   : opt.picard_iters;
  res.conv_index = iters;
  all_conv = iters;
  DualTmVec phi = x0;
  for (std::size_t it = 0; it < iters; ++it) {
    DualTmVec next = picard(phi);
    bool converged = true;
    for (std::size_t i = 0; i < n && converged; ++i) {
      converged = next[i].p.val.terms() == phi[i].p.val.terms();
    }
    if (converged && res.conv_index == iters) res.conv_index = it;
    for (std::size_t i = 0; i < n && converged; ++i) {
      for (std::size_t k = 0; k < nd && converged; ++k) {
        converged = next[i].p.tan[k].terms() == phi[i].p.tan[k].terms();
      }
    }
    if (converged && all_conv == iters) all_conv = it;
    phi = std::move(next);
    for (DualTm& tm : phi) tm.rem = zero;
  }

  std::vector<DualInterval> rem_j(n);
  for (std::size_t i = 0; i < n; ++i) {
    rem_j[i] = interval::dual_hull(
        x0[i].rem,
        DualInterval::constant(Interval::symmetric(opt.rem_init), nd));
  }
  for (std::size_t attempt = 0; attempt <= opt.max_inflations; ++attempt) {
    DualTmVec cand = phi;
    for (std::size_t i = 0; i < n; ++i) cand[i].rem = rem_j[i];
    const DualTmVec pnext = picard(cand);
    std::vector<DualInterval> d_range(n);
    bool contained = true;
    for (std::size_t i = 0; i < n; ++i) {
      DualTm diff;
      poly::dual_sub_into(pnext[i].p, cand[i].p, diff.p);
      diff.rem = interval::dual_sub(pnext[i].rem, zero);
      d_range[i] = taylor::dual_tm_range(env, diff);
      if (!rem_j[i].v.contains(d_range[i].v)) contained = false;
    }
    if (contained) {
      res.tube_range.resize(n);
      res.at_end.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        DualTm validated;
        validated.p = cand[i].p;
        validated.rem = d_range[i];
        res.tube_range[i] = taylor::dual_tm_range(env, validated);
        taylor::dual_tm_subst_last_into(env, validated, h, res.at_end[i]);
        const double tube_rad = res.tube_range[i].v.rad();
        if (tube_rad > 0.0) {
          res.defect_rel =
              std::max(res.defect_rel, d_range[i].v.rad() / tube_rad);
        }
        res.max_poly_terms =
            std::max(res.max_poly_terms, validated.p.val.term_count());
      }
      res.attempts = attempt;
      res.ok = true;
      return res;
    }
    for (std::size_t i = 0; i < n; ++i) {
      rem_j[i] = interval::dual_widen(
          interval::dual_hull(rem_j[i], d_range[i]), opt.rem_inflate,
          opt.rem_init);
    }
  }
  res.attempts = opt.max_inflations + 1;
  res.failure = "remainder validation failed (Picard operator not contracting)";
  return res;
}

void expect_dual_interval_bits(const DualInterval& a, const DualInterval& b) {
  ASSERT_EQ(a.nd, b.nd);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.v.lo()),
            std::bit_cast<std::uint64_t>(b.v.lo()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.v.hi()),
            std::bit_cast<std::uint64_t>(b.v.hi()));
  for (std::size_t k = 0; k < a.nd; ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.dlo[k]),
              std::bit_cast<std::uint64_t>(b.dlo[k]))
        << "dlo[" << k << "]";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.dhi[k]),
              std::bit_cast<std::uint64_t>(b.dhi[k]))
        << "dhi[" << k << "]";
  }
}

void expect_poly_bits(const poly::Poly& a, const poly::Poly& b) {
  EXPECT_EQ(a.nvars(), b.nvars());
  ASSERT_EQ(a.term_count(), b.term_count());
  for (std::size_t t = 0; t < a.term_count(); ++t) {
    EXPECT_EQ(a.terms()[t].key, b.terms()[t].key);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.terms()[t].coeff),
              std::bit_cast<std::uint64_t>(b.terms()[t].coeff));
  }
}

void expect_dual_tm_bits(const taylor::DualTm& a, const taylor::DualTm& b) {
  expect_poly_bits(a.p.val, b.p.val);
  ASSERT_EQ(a.p.dirs(), b.p.dirs());
  for (std::size_t k = 0; k < a.p.dirs(); ++k) {
    SCOPED_TRACE(::testing::Message() << "tangent " << k);
    expect_poly_bits(a.p.tan[k], b.p.tan[k]);
  }
  expect_dual_interval_bits(a.rem, b.rem);
}

TEST(DualIntegrateStep, MatchesFullChannelOracleBitForBit) {
  // Seeded polynomial dynamics over n = 1..3 states and one input, orders
  // 2-5, 1-3 tangent directions, Picard pass counts below and above the
  // order, tight first remainder guesses (validation retries). The
  // dynamics, states and input carry tangents, including tangent-only
  // keys (value coefficient 0, tangent not), so the side-env chains of
  // dual_tm_eval_poly_into run inside the step. Each case runs several
  // consecutive steps on one scratch, so the convergence prediction
  // carries over; the adaptive third also moves h and the order between
  // steps, as the step controller does.
  std::size_t steps = 0;
  std::size_t retried = 0;
  std::size_t failed = 0;
  std::size_t tangent_only_steps = 0;
  std::size_t tangents_lag = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> coef(-1.0, 1.0);
    std::uniform_int_distribution<int> pick(0, 99);
    const std::size_t n = 1 + seed % 3;
    const std::size_t nxu = n + 1;
    const std::size_t nd = 1 + seed % 3;

    taylor::DualTmEnv env;
    env.dom = IVec(n, Interval(-1.0, 1.0));
    env.dirs = nd;
    const std::uint32_t order = static_cast<std::uint32_t>(2 + seed % 4);
    reach::TmReachOptions opt;
    opt.order = order;
    opt.picard_iters = order - 1 + seed % 4;
    opt.max_inflations = seed % 7 == 0 ? 1 : 2 + seed % 5;
    opt.rem_init = seed % 4 == 1 ? 1e-4 : seed % 2 == 0 ? 1e-13 : 1e-9;
    opt.adaptive = seed % 3 == 0;

    const auto tangent_rem = [&](double r) {
      DualInterval d = DualInterval::constant(Interval::symmetric(r), nd);
      for (std::size_t k = 0; k < nd; ++k) {
        d.dlo[k] = -r * std::abs(coef(rng));
        d.dhi[k] = r * std::abs(coef(rng));
      }
      return d;
    };

    // f_i = -x_i + couplings, plus a quadratic and a cubic term and the
    // input (as in the scalar step's oracle test); tangent k moves some of
    // those coefficients and adds the tangent-only key x_i * u.
    std::vector<poly::DualPoly> fd;
    for (std::size_t i = 0; i < n; ++i) {
      poly::DualPoly f;
      f.reset(nxu, nd);
      poly::Exponents e(nxu, 0);
      const auto term = [&](const poly::Exponents& ex, double c) {
        f.val.add_term(ex, c);
        for (std::size_t k = 0; k < nd; ++k) {
          if (pick(rng) < 50) f.tan[k].add_term(ex, 0.2 * coef(rng));
        }
      };
      e[i] = 1;
      term(e, -1.0 + 0.3 * coef(rng));
      e[i] = 0;
      e[(i + 1) % nxu] = 1;
      term(e, 0.5 * coef(rng));
      e[(i + 1) % nxu] = 0;
      e[i] = 2;
      term(e, 0.4 * coef(rng));
      e[i] = 0;
      e[(i + 1) % n] += 2;
      e[n] = 1;
      term(e, 0.3 * coef(rng));
      e.assign(nxu, 0);
      e[n] = 1;
      term(e, 1.0);
      e[i] = 1;
      f.tan[(i + seed) % nd].add_term(e, 0.1 * coef(rng));
      fd.push_back(std::move(f));
    }

    // In the rest cases the state and the input sit at the origin (f = 0
    // there) while their tangents do not: the value fixpoint converges at
    // the first pass, the tangent fixpoint passes later.
    const bool rest = seed % 5 == 2;
    taylor::DualTmVec x(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i].p.reset(n, nd);
      x[i].p.val = poly::Poly::constant(n, 0.5 * coef(rng));
      for (std::size_t j = 0; j < n; ++j) {
        x[i].p.val += poly::Poly::variable(n, j) * (0.05 * coef(rng));
      }
      if (rest) x[i].p.val.reset(n);
      for (std::size_t k = 0; k < nd; ++k) {
        x[i].p.tan[k] = poly::Poly::variable(n, i) * (0.01 * coef(rng));
        // A tangent-only key: x_i^2 has no value coefficient.
        if (pick(rng) < 50) {
          x[i].p.tan[k] += poly::Poly::variable(n, i) *
                           poly::Poly::variable(n, i) * (0.01 * coef(rng));
        }
      }
      x[i].rem = tangent_rem(pick(rng) < 50 ? 0.0 : 1e-6);
    }
    taylor::DualTmVec u(1);
    u[0].p.reset(n, nd);
    u[0].p.val = poly::Poly::constant(n, 0.2 * coef(rng)) +
                 poly::Poly::variable(n, 0) * (0.01 * coef(rng));
    if (rest) u[0].p.val.reset(n);
    for (std::size_t k = 0; k < nd; ++k) {
      u[0].p.tan[k] = poly::Poly::variable(n, 0) * (0.02 * coef(rng));
    }
    u[0].rem = tangent_rem(1e-7);
    const double h = 0.02 + 0.1 * (pick(rng) / 100.0);

    reach::DualStepScratch ss;
    reach::DualStepResult got;
    for (int step = 0; step < 4; ++step) {
      SCOPED_TRACE(::testing::Message() << "step " << step);
      const bool moved = opt.adaptive && step % 2 == 1;
      env.order = moved ? order + 1 : order;
      const double hs = moved ? 0.5 * h : h;
      bool tangent_only = false;
      std::vector<std::uint64_t> keys;
      for (const taylor::DualTm& xi : x) {
        poly::tangent_only_keys(xi.p, keys);
        tangent_only = tangent_only || !keys.empty();
      }
      reach::dual_integrate_step(env, x, u, fd, hs, opt, ss, got);
      std::size_t all_conv = 0;
      const reach::DualStepResult want =
          full_channel_dual_step(env, x, u, fd, hs, opt, all_conv);
      ++steps;
      if (tangent_only) ++tangent_only_steps;
      if (all_conv > want.conv_index) ++tangents_lag;
      ASSERT_EQ(got.ok, want.ok);
      EXPECT_EQ(got.failure, want.failure);
      EXPECT_EQ(got.attempts, want.attempts);
      EXPECT_EQ(got.conv_index, want.conv_index);
      if (got.attempts > 0) ++retried;
      if (!got.ok) {
        ++failed;
        break;
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.defect_rel),
                std::bit_cast<std::uint64_t>(want.defect_rel));
      EXPECT_EQ(got.max_poly_terms, want.max_poly_terms);
      ASSERT_EQ(got.tube_range.size(), n);
      ASSERT_EQ(got.at_end.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        expect_dual_interval_bits(got.tube_range[i], want.tube_range[i]);
        expect_dual_tm_bits(got.at_end[i], want.at_end[i]);
      }
      x = got.at_end;
    }
  }
  // The corpus must hold first-attempt proofs, retries, a failure,
  // tangent-only keys and tangent fixpoints that lag the value fixpoint.
  EXPECT_GT(retried, 0u);
  EXPECT_LT(retried, steps);
  EXPECT_GT(failed, 0u);
  EXPECT_GT(tangent_only_steps, 0u);
  EXPECT_GT(tangents_lag, 0u);
}

// ---------------------------------------------------------------------------
// Kernel-level finite differences: dual_tm_eval_poly_into with coefficient
// tangents (including a tangent-only key whose value coefficient is zero).

TEST(DualKernels, EvalPolyCoefficientTangentsMatchFd) {
  taylor::TmEnv env;
  env.dom = IVec(2, Interval(-1.0, 1.0));
  env.order = 4;

  taylor::TmVec args(2);
  args[0] = {poly::Poly::constant(2, 0.3) + poly::Poly::variable(2, 0) * 0.2,
             Interval(-1e-4, 2e-4)};
  args[1] = {poly::Poly::constant(2, -0.1) + poly::Poly::variable(2, 1) * 0.5,
             Interval(-3e-4, 1e-4)};

  // f(c) = 0.7 + c0 * a0 * a1 + c1 * a1^2, at c0 = 0.4 and c1 = 0 (the
  // c1 term is tangent-only: absent from the value polynomial).
  const auto make_f = [](double c0, double c1) {
    poly::Poly f(2);
    f.add_term({0, 0}, 0.7);
    if (c0 != 0.0) f.add_term({1, 1}, c0);
    if (c1 != 0.0) f.add_term({0, 2}, c1);
    return f;
  };

  taylor::DualTmEnv denv;
  denv.dom = env.dom;
  denv.order = env.order;
  denv.cutoff = env.cutoff;
  denv.dirs = 2;

  poly::DualPoly fd;
  fd.val = make_f(0.4, 0.0);
  fd.tan.assign(2, poly::Poly(2));
  fd.tan[0].add_term({1, 1}, 1.0);  // d/dc0
  fd.tan[1].add_term({0, 2}, 1.0);  // d/dc1

  taylor::DualTmVec dargs(2);
  for (std::size_t i = 0; i < 2; ++i) {
    dargs[i].p.val = args[i].poly;
    dargs[i].p.tan.assign(2, poly::Poly(2));
    dargs[i].rem = DualInterval::constant(args[i].rem, 2);
  }

  taylor::DualTm dout;
  taylor::dual_tm_eval_poly_into(denv, fd, dargs, dout);
  const DualInterval dr = taylor::dual_tm_range(denv, dout);

  const auto scalar_range = [&](double c0, double c1) {
    const taylor::TaylorModel out =
        taylor::tm_eval_poly(env, make_f(c0, c1), args);
    return taylor::tm_range(env, out);
  };
  // Value bits match the scalar pipeline.
  const Interval r0 = scalar_range(0.4, 0.0);
  EXPECT_EQ(dr.v.lo(), r0.lo());
  EXPECT_EQ(dr.v.hi(), r0.hi());

  const double h = 1e-6;
  const auto fd_dir = [&](int dir) {
    const double c0p = dir == 0 ? 0.4 + h : 0.4;
    const double c0m = dir == 0 ? 0.4 - h : 0.4;
    const double c1p = dir == 1 ? h : 0.0;
    const double c1m = dir == 1 ? -h : 0.0;
    const Interval rp = scalar_range(c0p, c1p);
    const Interval rm = scalar_range(c0m, c1m);
    return std::pair<double, double>{(rp.lo() - rm.lo()) / (2.0 * h),
                                     (rp.hi() - rm.hi()) / (2.0 * h)};
  };
  for (int dir = 0; dir < 2; ++dir) {
    const auto [dlo, dhi] = fd_dir(dir);
    EXPECT_NEAR(dr.dlo[dir], dlo, 1e-6) << "dir " << dir;
    EXPECT_NEAR(dr.dhi[dir], dhi, 1e-6) << "dir " << dir;
  }
}

// ---------------------------------------------------------------------------
// Full-pipeline finite differences: analytic metric gradients vs Richardson-
// extrapolated central differences of the scalar metrics.

struct MetricValues {
  double d_u, d_g, w_goal, w_unsafe;
};

MetricValues scalar_metrics_at(const Scenario& s, const TmVerifier& v,
                               const Vec& theta) {
  auto probe = s.ctrl->clone();
  probe->set_params(theta);
  const reach::Flowpipe fp = v.compute(s.bench.spec.x0, *probe);
  MetricValues m{};
  if (fp.valid) {
    const core::GeometricMetrics g = core::geometric_metrics(fp, s.bench.spec);
    const core::WassersteinMetrics w =
        core::wasserstein_metrics(fp, s.bench.spec, {});
    m = {g.d_u, g.d_g, w.w_goal, w.w_unsafe};
  } else {
    const core::GeometricMetrics g = core::geometric_penalty(s.bench.spec, fp);
    const core::WassersteinMetrics w =
        core::wasserstein_penalty(s.bench.spec, fp);
    m = {g.d_u, g.d_g, w.w_goal, w.w_unsafe};
  }
  return m;
}

double rel_err(double analytic, double fd) {
  const double scale = std::max({std::abs(analytic), std::abs(fd), 1.0});
  return std::abs(analytic - fd) / scale;
}

TEST(GradMetrics, MatchRichardsonFiniteDifferences) {
  for (const Scenario& s : all_scenarios()) {
    SCOPED_TRACE(s.name);
    const TmVerifier v = make_verifier(s);
    ASSERT_EQ(TmGradient::unsupported_reason(v, *s.ctrl), nullptr);
    const TmGradient engine(v);
    const GradFlowpipe gfp = engine.compute(s.bench.spec.x0, *s.ctrl);
    ASSERT_TRUE(gfp.fp.valid) << gfp.fp.failure;

    const GeometricMetricsGrad gg =
        core::geometric_metrics_grad(gfp, s.bench.spec);
    const WassersteinMetricsGrad wg =
        core::wasserstein_metrics_grad(gfp, s.bench.spec, {});

    // Values equal the scalar metrics bitwise.
    const Vec theta = s.ctrl->params();
    const MetricValues base = scalar_metrics_at(s, v, theta);
    EXPECT_EQ(gg.d_u.value, base.d_u);
    EXPECT_EQ(gg.d_g.value, base.d_g);
    EXPECT_EQ(wg.w_goal.value, base.w_goal);
    EXPECT_EQ(wg.w_unsafe.value, base.w_unsafe);

    // The metrics are piecewise smooth with basin boundaries that can sit
    // exactly at the probed theta (e.g. endpoint-selection ties at zero
    // gains), where the central difference carries an O(h) one-sided
    // curvature term; h = 1e-5 keeps that term below the 1e-6 gate while
    // staying far above roundoff.
    const double h = 1e-5;
    for (std::size_t i = 0; i < theta.size(); ++i) {
      const auto central = [&](double step) {
        Vec tp = theta, tm = theta;
        tp[i] += step;
        tm[i] -= step;
        const MetricValues mp = scalar_metrics_at(s, v, tp);
        const MetricValues mm = scalar_metrics_at(s, v, tm);
        const double inv = 1.0 / (2.0 * step);
        return MetricValues{(mp.d_u - mm.d_u) * inv, (mp.d_g - mm.d_g) * inv,
                            (mp.w_goal - mm.w_goal) * inv,
                            (mp.w_unsafe - mm.w_unsafe) * inv};
      };
      const MetricValues d1 = central(h);
      const MetricValues d2 = central(h / 2.0);
      const auto rich = [](double a, double b) {
        return (4.0 * b - a) / 3.0;
      };
      EXPECT_LT(rel_err(gg.d_u.grad[i], rich(d1.d_u, d2.d_u)), 1e-6)
          << "d_u theta[" << i << "] analytic " << gg.d_u.grad[i] << " fd "
          << rich(d1.d_u, d2.d_u);
      EXPECT_LT(rel_err(gg.d_g.grad[i], rich(d1.d_g, d2.d_g)), 1e-6)
          << "d_g theta[" << i << "] analytic " << gg.d_g.grad[i] << " fd "
          << rich(d1.d_g, d2.d_g);
      EXPECT_LT(rel_err(wg.w_goal.grad[i], rich(d1.w_goal, d2.w_goal)), 1e-6)
          << "w_goal theta[" << i << "] analytic " << wg.w_goal.grad[i]
          << " fd " << rich(d1.w_goal, d2.w_goal);
      EXPECT_LT(rel_err(wg.w_unsafe.grad[i], rich(d1.w_unsafe, d2.w_unsafe)),
                1e-6)
          << "w_unsafe theta[" << i << "] analytic " << wg.w_unsafe.grad[i]
          << " fd " << rich(d1.w_unsafe, d2.w_unsafe);
    }
  }
}

// ---------------------------------------------------------------------------
// Learner integration: grad mode converges, uses one verifier call per
// iteration, and composes with the flowpipe cache and thread settings.

core::LearnerOptions grad_learn_options() {
  core::LearnerOptions opt;
  opt.metric = core::MetricKind::kGeometric;
  opt.max_iters = 400;
  opt.step_size = 0.5;
  opt.perturbation = 0.05;
  opt.gradient = core::GradientMode::kSpsaAveraged;
  opt.spsa_samples = 2;
  // No containment requirement: the TM flowpipe of the linear-gain ACC
  // family never fits inside the 1-wide velocity goal band (the best gain
  // leaves a ~2.6 containment violation), so feasibility is the metric
  // positivity d_u > 0 && d_g > 0 — the same certificate the tier-1
  // LinearVerifier ACC tests require via geometric feasibility.
  opt.restarts = 3;
  opt.seed = 1;
  opt.grad = true;
  return opt;
}

std::shared_ptr<TmVerifier> acc_tm_verifier(const ode::Benchmark& bench) {
  return std::make_shared<TmVerifier>(
      bench.system, bench.spec, std::make_shared<reach::LinearAbstraction>(),
      reach::TmReachOptions{});
}

TEST(GradLearner, ConvergesOnAccWithFiveTimesFewerCallsThanSpsa) {
  // The acceptance claim: on ACC the analytic-gradient learner reaches a
  // verified (metric-feasible) controller with at least 5x fewer verifier
  // calls than the SPSA difference method under identical options.
  const auto bench = ode::make_acc_benchmark();
  const auto run = [&](bool grad) {
    core::LearnerOptions opt = grad_learn_options();
    opt.grad = grad;
    core::Learner learner(acc_tm_verifier(bench), bench.spec, opt);
    nn::LinearController ctrl(Mat{{0.0, 0.0}});
    return learner.learn(ctrl);
  };
  const core::LearnResult spsa = run(false);
  const core::LearnResult grad = run(true);
  ASSERT_TRUE(spsa.success);
  ASSERT_TRUE(grad.success);
  EXPECT_LE(grad.verifier_calls * 5, spsa.verifier_calls)
      << "grad " << grad.verifier_calls << " vs spsa " << spsa.verifier_calls;
  // Equal-or-better final metric: both runs stop at their first feasible
  // iterate, so both ends are certified (d_u > 0 and d_g > 0).
  ASSERT_FALSE(grad.history.empty());
  ASSERT_TRUE(grad.history.back().geo.has_value());
  EXPECT_GT(grad.history.back().geo->d_u, 0.0);
  EXPECT_GT(grad.history.back().geo->d_g, 0.0);
}

TEST(GradLearner, SpsaFallsBackUnchangedForUnsupportedController) {
  // An MLP controller is outside the gradient engine's support; opt.grad
  // must warn and reproduce the SPSA run bit for bit. (The verifier uses
  // the polar abstraction — the one the MLP family is verified with.)
  const auto bench = ode::make_acc_benchmark();
  core::LearnerOptions opt = grad_learn_options();
  opt.max_iters = 6;
  opt.restarts = 1;
  opt.require_containment = false;

  const auto run = [&](bool grad) {
    core::LearnerOptions o = opt;
    o.grad = grad;
    const auto verifier = std::make_shared<TmVerifier>(
        bench.system, bench.spec, std::make_shared<reach::PolarAbstraction>(),
        reach::TmReachOptions{});
    core::Learner learner(verifier, bench.spec, o);
    std::mt19937_64 rng(7);
    nn::MlpController ctrl({2, 4, 1}, 1.0, nn::Activation::kTanh,
                           nn::Activation::kTanh);
    ctrl.init_random(rng, 0.3);
    const core::LearnResult res = learner.learn(ctrl);
    return std::pair<Vec, std::size_t>{ctrl.params(), res.verifier_calls};
  };
  const auto [p_spsa, c_spsa] = run(false);
  const auto [p_grad, c_grad] = run(true);
  ASSERT_EQ(p_spsa.size(), p_grad.size());
  for (std::size_t i = 0; i < p_spsa.size(); ++i) {
    EXPECT_EQ(p_spsa[i], p_grad[i]) << "param " << i;
  }
  EXPECT_EQ(c_spsa, c_grad);
}

TEST(GradLearner, CacheCompositionIsBitIdentical) {
  const auto bench = ode::make_acc_benchmark();
  const auto run = [&](bool cache) {
    core::LearnerOptions opt = grad_learn_options();
    opt.cache = cache;
    core::Learner learner(acc_tm_verifier(bench), bench.spec, opt);
    nn::LinearController ctrl(Mat{{0.0, 0.0}});
    const core::LearnResult res = learner.learn(ctrl);
    return std::tuple<bool, std::size_t, Vec>{res.success, res.iterations,
                                              ctrl.params()};
  };
  const auto [s0, i0, p0] = run(false);
  const auto [s1, i1, p1] = run(true);
  EXPECT_EQ(s0, s1);
  EXPECT_EQ(i0, i1);
  ASSERT_EQ(p0.size(), p1.size());
  for (std::size_t i = 0; i < p0.size(); ++i) {
    EXPECT_EQ(p0[i], p1[i]) << "param " << i;
  }
}

TEST(GradLearner, RecordsTheDualPassMetricValues) {
  // The grad learner fills each history entry from its dual pass's metric
  // values, with no scalar re-evaluation. Those values must equal the dual
  // metrics and the scalar metrics of the same iterate bit for bit, and
  // only the active family is recorded. The first record belongs to the
  // initial controller, the last to the controller learn() returns.
  const auto bench = ode::make_acc_benchmark();
  const auto& spec = bench.spec;
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const auto metric :
       {core::MetricKind::kGeometric, core::MetricKind::kWasserstein}) {
    SCOPED_TRACE(core::to_string(metric));
    core::LearnerOptions opt = grad_learn_options();
    opt.metric = metric;
    opt.max_iters = 12;
    opt.restarts = 1;
    const auto verifier = acc_tm_verifier(bench);
    core::Learner learner(verifier, spec, opt);
    nn::LinearController ctrl(Mat{{0.0, 0.0}});
    const nn::ControllerPtr initial = ctrl.clone();
    const core::LearnResult res = learner.learn(ctrl);
    ASSERT_GE(res.history.size(), 2u);

    const TmGradient engine(*verifier);
    const auto expect_recorded = [&](const core::IterationRecord& rec,
                                     const nn::Controller& c) {
      const GradFlowpipe g = engine.compute(spec.x0, c);
      const reach::Flowpipe fp = verifier->compute(spec.x0, c);
      ASSERT_EQ(g.fp.valid, fp.valid);
      if (metric == core::MetricKind::kGeometric) {
        ASSERT_TRUE(rec.geo.has_value());
        EXPECT_FALSE(rec.wass.has_value());
        const GeometricMetricsGrad dual =
            fp.valid ? core::geometric_metrics_grad(g, spec)
                     : core::geometric_penalty_grad(spec, g);
        const core::GeometricMetrics scalar =
            fp.valid ? core::geometric_metrics(fp, spec)
                     : core::geometric_penalty(spec, fp);
        EXPECT_EQ(bits(rec.geo->d_u), bits(dual.d_u.value));
        EXPECT_EQ(bits(rec.geo->d_g), bits(dual.d_g.value));
        EXPECT_EQ(bits(rec.geo->d_u), bits(scalar.d_u));
        EXPECT_EQ(bits(rec.geo->d_g), bits(scalar.d_g));
      } else {
        ASSERT_TRUE(rec.wass.has_value());
        EXPECT_FALSE(rec.geo.has_value());
        const WassersteinMetricsGrad dual =
            fp.valid ? core::wasserstein_metrics_grad(g, spec, opt.wopt)
                     : core::wasserstein_penalty_grad(spec, g);
        const core::WassersteinMetrics scalar =
            fp.valid ? core::wasserstein_metrics(fp, spec, opt.wopt)
                     : core::wasserstein_penalty(spec, fp);
        EXPECT_EQ(bits(rec.wass->w_goal), bits(dual.w_goal.value));
        EXPECT_EQ(bits(rec.wass->w_unsafe), bits(dual.w_unsafe.value));
        EXPECT_EQ(bits(rec.wass->w_goal), bits(scalar.w_goal));
        EXPECT_EQ(bits(rec.wass->w_unsafe), bits(scalar.w_unsafe));
      }
    };
    expect_recorded(res.history.front(), *initial);
    expect_recorded(res.history.back(), ctrl);
  }
}

TEST(GradLearner, DeterministicAcrossThreadCounts) {
  const auto bench = ode::make_acc_benchmark();
  const auto run = [&](std::size_t threads) {
    core::LearnerOptions opt = grad_learn_options();
    opt.threads = threads;
    core::Learner learner(acc_tm_verifier(bench), bench.spec, opt);
    nn::LinearController ctrl(Mat{{0.0, 0.0}});
    const core::LearnResult res = learner.learn(ctrl);
    return std::pair<Vec, std::size_t>{ctrl.params(), res.iterations};
  };
  const auto [p1, i1] = run(1);
  for (const std::size_t t : {std::size_t{2}, std::size_t{4}}) {
    const auto [pt, it] = run(t);
    EXPECT_EQ(i1, it) << "threads " << t;
    ASSERT_EQ(p1.size(), pt.size());
    for (std::size_t i = 0; i < p1.size(); ++i) {
      EXPECT_EQ(p1[i], pt[i]) << "threads " << t << " param " << i;
    }
  }
}

}  // namespace
}  // namespace dwv
