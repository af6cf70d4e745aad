#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ostream>
#include <random>
#include <string>

#include "ode/benchmarks.hpp"
#include "ode/expr_system.hpp"
#include "reach/serialize.hpp"
#include "reach/tm_flowpipe.hpp"
#include "sim/simulate.hpp"

namespace dwv::reach {
namespace {

using interval::Interval;
using interval::IVec;
using linalg::Mat;
using linalg::Vec;
using taylor::TaylorModel;
using taylor::TmEnv;
using taylor::TmVec;

// --- single validated integration step ---

TEST(TmIntegrateStep, LinearDecayMatchesClosedForm) {
  // x' = -x from [0.9, 1.1]: x(h) = x0 e^{-h}.
  TmEnv env;
  env.dom = IVec(1, Interval(-1.0, 1.0));
  env.order = 4;
  TmVec x(1);
  x[0] = {poly::Poly::constant(1, 1.0) + poly::Poly::variable(1, 0) * 0.1,
          Interval(0.0)};
  // f(x, u) = -x + 0*u over variables (x, u).
  poly::Poly f(2);
  f.add_term({1, 0}, -1.0);
  TmVec u{TaylorModel::constant(env, 0.0)};

  const double h = 0.1;
  const TmStepResult r = tm_integrate_step(env, x, u, {f}, h, {});
  ASSERT_TRUE(r.ok);
  const Interval end = taylor::tm_range(env, r.at_end[0]);
  const double lo_true = 0.9 * std::exp(-h);
  const double hi_true = 1.1 * std::exp(-h);
  EXPECT_LE(end.lo(), lo_true + 1e-9);
  EXPECT_GE(end.hi(), hi_true - 1e-9);
  // And reasonably tight (within 1e-5 of exact).
  EXPECT_NEAR(end.lo(), lo_true, 1e-5);
  EXPECT_NEAR(end.hi(), hi_true, 1e-5);
  // Tube covers the whole step.
  EXPECT_TRUE(r.tube_range[0].contains(1.1));
  EXPECT_TRUE(r.tube_range[0].contains(hi_true));
}

TEST(TmIntegrateStep, ConstantInputIntegrator) {
  // x' = u with u = 2: x(h) = x0 + 2 h exactly.
  TmEnv env;
  env.dom = IVec(1, Interval(-1.0, 1.0));
  env.order = 3;
  TmVec x(1);
  x[0] = {poly::Poly::variable(1, 0) * 0.5, Interval(0.0)};
  poly::Poly f(2);
  f.add_term({0, 1}, 1.0);
  TmVec u{TaylorModel::constant(env, 2.0)};
  const TmStepResult r = tm_integrate_step(env, x, u, {f}, 0.25, {});
  ASSERT_TRUE(r.ok);
  const Interval end = taylor::tm_range(env, r.at_end[0]);
  EXPECT_NEAR(end.lo(), -0.5 + 0.5, 1e-9);
  EXPECT_NEAR(end.hi(), 0.5 + 0.5, 1e-9);
}

// --- full-channel oracle for the step ---

// The Picard step with every pass and every validation attempt in the full
// channel: polynomials, remainders and the range queries feeding them, no
// remainder tape, no poly-only passes, and the converged-pass break only
// where the adaptive controller asks for the convergence index. Built from
// public kernels on its own scratch; tm_integrate_step skips only work
// whose bits are dead or repeated, so it must agree bit for bit.
Interval widen(const Interval& v, double factor, double bump) {
  const double r = v.rad() * factor + bump;
  const double m = v.mid();
  return Interval(m - r, m + r);
}

TmStepResult full_channel_step(const TmEnv& env_set, const TmVec& state,
                               const TmVec& control, const TmDynamics& f,
                               double h, const TmReachOptions& opt) {
  const std::size_t n = state.size();
  const std::size_t m = control.size();
  const std::size_t nv = env_set.nvars();
  TmEnv env;
  env.dom = IVec(nv + 1);
  for (std::size_t i = 0; i < nv; ++i) env.dom[i] = env_set.dom[i];
  env.dom[nv] = Interval(0.0, h);
  env.order = env_set.order;
  env.cutoff = env_set.cutoff;
  env.range_mode = env_set.range_mode;

  TmVec x0(n);
  for (std::size_t i = 0; i < n; ++i) {
    state[i].poly.lift_vars_into(nv + 1, x0[i].poly);
    x0[i].rem = state[i].rem;
  }
  TmVec u(m);
  for (std::size_t j = 0; j < m; ++j) {
    control[j].poly.lift_vars_into(nv + 1, u[j].poly);
    u[j].rem = control[j].rem;
  }
  const auto picard = [&](const TmVec& phi) {
    TmVec args(phi);
    args.insert(args.end(), u.begin(), u.end());
    TmVec g;
    f.eval_into(env, args, g);
    TmVec out(n);
    for (std::size_t i = 0; i < n; ++i) {
      TaylorModel integ;
      taylor::tm_integrate_time_into(env, g[i], nv, integ);
      poly::Poly::add_into(x0[i].poly, integ.poly, out[i].poly);
      out[i].rem = x0[i].rem + integ.rem;
    }
    return out;
  };

  const std::size_t iters =
      opt.adaptive ? std::max(opt.picard_iters,
                              static_cast<std::size_t>(env_set.order) + 1)
                   : opt.picard_iters;
  TmVec phi = x0;
  for (std::size_t it = 0; it < iters; ++it) {
    TmVec next = picard(phi);
    bool converged = opt.adaptive;
    for (std::size_t i = 0; i < n && converged; ++i) {
      converged = next[i].poly.terms() == phi[i].poly.terms();
    }
    phi = std::move(next);
    for (TaylorModel& tm : phi) tm.rem = Interval(0.0);
    if (converged) break;
  }

  TmStepResult res;
  std::vector<Interval> rem_j(n);
  for (std::size_t i = 0; i < n; ++i) {
    rem_j[i] = interval::hull(x0[i].rem, Interval::symmetric(opt.rem_init));
  }
  for (std::size_t attempt = 0; attempt <= opt.max_inflations; ++attempt) {
    TmVec cand = phi;
    for (std::size_t i = 0; i < n; ++i) cand[i].rem = rem_j[i];
    const TmVec pnext = picard(cand);
    std::vector<Interval> d_range(n);
    bool contained = true;
    for (std::size_t i = 0; i < n; ++i) {
      TaylorModel diff;
      poly::Poly::sub_into(pnext[i].poly, cand[i].poly, diff.poly);
      diff.rem = pnext[i].rem - Interval(0.0);
      d_range[i] = taylor::tm_range(env, diff);
      if (!rem_j[i].contains(d_range[i])) contained = false;
    }
    if (contained) {
      res.tube_range = IVec(n);
      res.at_end.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        const TaylorModel validated{cand[i].poly, d_range[i]};
        res.tube_range[i] = taylor::tm_range(env, validated);
        taylor::tm_subst_last_into(env, validated, h, res.at_end[i]);
        const double tube_rad = res.tube_range[i].rad();
        if (tube_rad > 0.0) {
          res.defect_rel =
              std::max(res.defect_rel, d_range[i].rad() / tube_rad);
        }
        res.max_poly_terms =
            std::max(res.max_poly_terms, validated.poly.term_count());
      }
      res.attempts = attempt;
      res.ok = true;
      return res;
    }
    for (std::size_t i = 0; i < n; ++i) {
      rem_j[i] = widen(interval::hull(rem_j[i], d_range[i]), opt.rem_inflate,
                       opt.rem_init);
    }
  }
  res.attempts = opt.max_inflations + 1;
  res.failure = "remainder validation failed (Picard operator not contracting)";
  return res;
}

void expect_interval_bits(const Interval& a, const Interval& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.lo()),
            std::bit_cast<std::uint64_t>(b.lo()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.hi()),
            std::bit_cast<std::uint64_t>(b.hi()));
}

void expect_tm_bits(const TaylorModel& a, const TaylorModel& b) {
  EXPECT_EQ(a.poly.nvars(), b.poly.nvars());
  ASSERT_EQ(a.poly.term_count(), b.poly.term_count());
  for (std::size_t t = 0; t < a.poly.term_count(); ++t) {
    EXPECT_EQ(a.poly.terms()[t].key, b.poly.terms()[t].key);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.poly.terms()[t].coeff),
              std::bit_cast<std::uint64_t>(b.poly.terms()[t].coeff));
  }
  expect_interval_bits(a.rem, b.rem);
}

TEST(TmIntegrateStep, MatchesFullChannelOracleBitForBit) {
  // Seeded polynomial dynamics over n = 1..3 states and one input, orders
  // 2-5, with Picard pass counts below and above the order, tight first
  // remainder guesses (validation retries) and both range modes. Each case
  // runs several consecutive steps on one env, so the scratch carries its
  // convergence prediction from step to step like a driver lane.
  std::size_t steps = 0;
  std::size_t retried = 0;
  std::size_t failed = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> coef(-1.0, 1.0);
    std::uniform_int_distribution<int> pick(0, 99);
    const std::size_t n = 1 + seed % 3;
    const std::size_t nxu = n + 1;

    TmEnv env;
    env.dom = IVec(n, Interval(-1.0, 1.0));
    env.order = static_cast<std::uint32_t>(2 + seed % 4);
    if (seed % 5 == 0) env.range_mode = poly::RangeMode::kCenteredForm;
    TmReachOptions opt;
    opt.order = env.order;
    opt.picard_iters = env.order - 1 + seed % 4;
    opt.max_inflations = seed % 7 == 0 ? 1 : 2 + seed % 5;
    opt.rem_init = seed % 4 == 1 ? 1e-4 : seed % 2 == 0 ? 1e-13 : 1e-9;
    opt.adaptive = seed % 3 == 0;

    // f_i = -x_i + couplings, plus a quadratic and a cubic term and the
    // input: stable enough to validate, nonlinear enough to retry.
    std::vector<poly::Poly> fp;
    for (std::size_t i = 0; i < n; ++i) {
      poly::Poly f(nxu);
      poly::Exponents e(nxu, 0);
      e[i] = 1;
      f.add_term(e, -1.0 + 0.3 * coef(rng));
      e[i] = 0;
      e[(i + 1) % nxu] = 1;
      f.add_term(e, 0.5 * coef(rng));
      e[(i + 1) % nxu] = 0;
      e[i] = 2;
      f.add_term(e, 0.4 * coef(rng));
      e[i] = 0;
      e[(i + 1) % n] += 2;
      e[n] = 1;
      f.add_term(e, 0.3 * coef(rng));
      e.assign(nxu, 0);
      e[n] = 1;
      f.add_term(e, 1.0);
      fp.push_back(std::move(f));
    }
    const PolyTmDynamics dyn(fp);

    TmVec x(n);
    for (std::size_t i = 0; i < n; ++i) {
      poly::Poly p = poly::Poly::constant(n, 0.5 * coef(rng));
      for (std::size_t j = 0; j < n; ++j) {
        p += poly::Poly::variable(n, j) * (0.05 * coef(rng));
      }
      x[i] = {std::move(p), Interval::symmetric(pick(rng) < 50 ? 0.0 : 1e-6)};
    }
    TmVec u(1);
    u[0] = {poly::Poly::constant(n, 0.2 * coef(rng)) +
                poly::Poly::variable(n, 0) * (0.01 * coef(rng)),
            Interval::symmetric(1e-7)};
    const double h = 0.02 + 0.1 * (pick(rng) / 100.0);

    TmStepResult got;
    for (int step = 0; step < 4; ++step) {
      SCOPED_TRACE(::testing::Message() << "step " << step);
      tm_integrate_step(env, x, u, dyn, h, opt, got);
      const TmStepResult want = full_channel_step(env, x, u, dyn, h, opt);
      ++steps;
      ASSERT_EQ(got.ok, want.ok);
      EXPECT_EQ(got.failure, want.failure);
      EXPECT_EQ(got.attempts, want.attempts);
      if (got.attempts > 0) ++retried;
      if (!got.ok) {
        ++failed;
        break;
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.defect_rel),
                std::bit_cast<std::uint64_t>(want.defect_rel));
      EXPECT_EQ(got.max_poly_terms, want.max_poly_terms);
      ASSERT_EQ(got.tube_range.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        expect_interval_bits(got.tube_range[i], want.tube_range[i]);
        expect_tm_bits(got.at_end[i], want.at_end[i]);
      }
      x = got.at_end;
    }
  }
  // The corpus must hold first-attempt proofs, retries and a failure.
  EXPECT_GT(retried, 0u);
  EXPECT_LT(retried, steps);
  EXPECT_GT(failed, 0u);
}

// --- full verifier soundness on the paper systems ---

struct TmCase {
  std::string benchmark;
  std::string abstraction;
};

// gtest shows the param next to each case name; without a printer it dumps
// the struct's bytes, heap pointers included, so the names would shift with
// the allocation history of the binary.
void PrintTo(const TmCase& c, std::ostream* os) {
  *os << c.benchmark << '/' << c.abstraction;
}

class TmVerifierSoundness : public ::testing::TestWithParam<TmCase> {};

TEST_P(TmVerifierSoundness, FlowpipeEnclosesSimulations) {
  const auto& param = GetParam();
  ode::Benchmark bench = param.benchmark == "oscillator"
                             ? ode::make_oscillator_benchmark()
                             : ode::make_3d_benchmark();
  bench.spec.stop_at_goal = false;
  bench.spec.steps = 12;  // short horizon keeps the test fast

  ControlAbstractionPtr abs;
  if (param.abstraction == "polar") {
    abs = std::make_shared<PolarAbstraction>();
  } else if (param.abstraction == "reachnn") {
    abs = std::make_shared<ReachNnAbstraction>();
  } else {
    abs = std::make_shared<IntervalAbstraction>();
  }
  TmVerifier verifier(bench.system, bench.spec, abs, {});

  std::mt19937_64 rng(13);
  nn::MlpController ctrl({bench.system->state_dim(), 6, 1}, 1.0,
                         nn::Activation::kTanh, nn::Activation::kTanh);
  ctrl.init_random(rng, 0.3);

  const Flowpipe fp = verifier.compute(bench.spec.x0, ctrl);
  ASSERT_TRUE(fp.valid) << fp.failure;

  for (int trial = 0; trial < 20; ++trial) {
    const Vec x0 = bench.spec.x0.sample(rng);
    const sim::Trace tr = sim::simulate(*bench.system, ctrl, x0,
                                        bench.spec.delta, bench.spec.steps,
                                        {.substeps = 16});
    for (std::size_t k = 0; k < tr.states.size(); ++k) {
      EXPECT_TRUE(fp.step_sets[k].contains(tr.states[k]))
          << param.benchmark << "/" << param.abstraction << " trial "
          << trial << " step " << k;
    }
    for (std::size_t i = 0; i < tr.fine_states.size(); ++i) {
      const std::size_t k = std::min(i / 16, bench.spec.steps - 1);
      EXPECT_TRUE(fp.interval_hulls[k].contains(tr.fine_states[i]))
          << param.benchmark << "/" << param.abstraction << " fine " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TmVerifierSoundness,
    ::testing::Values(TmCase{"oscillator", "polar"},
                      TmCase{"oscillator", "reachnn"},
                      TmCase{"oscillator", "interval"},
                      TmCase{"sys3d", "polar"}, TmCase{"sys3d", "reachnn"}),
    [](const auto& info) {
      return info.param.benchmark + "_" + info.param.abstraction;
    });

TEST(TmVerifier, LinearControllerViaLinearAbstraction) {
  // The TM machinery also handles linear controllers on nonlinear systems.
  auto bench = ode::make_oscillator_benchmark();
  bench.spec.steps = 10;
  bench.spec.stop_at_goal = false;
  TmVerifier verifier(bench.system, bench.spec,
                      std::make_shared<LinearAbstraction>(), {});
  nn::LinearController ctrl(Mat{{-0.5, -1.0}});
  const Flowpipe fp = verifier.compute(bench.spec.x0, ctrl);
  ASSERT_TRUE(fp.valid) << fp.failure;

  std::mt19937_64 rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const Vec x0 = bench.spec.x0.sample(rng);
    const sim::Trace tr = sim::simulate(*bench.system, ctrl, x0,
                                        bench.spec.delta, bench.spec.steps);
    for (std::size_t k = 0; k < tr.states.size(); ++k) {
      EXPECT_TRUE(fp.step_sets[k].contains(tr.states[k]));
    }
  }
}

TEST(TmVerifier, HigherOrderIsTighter) {
  auto bench = ode::make_oscillator_benchmark();
  bench.spec.steps = 10;
  bench.spec.stop_at_goal = false;
  std::mt19937_64 rng(5);
  nn::MlpController ctrl({2, 6, 1}, 1.0, nn::Activation::kTanh,
                         nn::Activation::kTanh);
  ctrl.init_random(rng, 0.3);

  TmReachOptions low;
  low.order = 2;
  TmReachOptions high;
  high.order = 4;
  const Flowpipe fl =
      TmVerifier(bench.system, bench.spec,
                 std::make_shared<PolarAbstraction>(), low)
          .compute(bench.spec.x0, ctrl);
  const Flowpipe fh =
      TmVerifier(bench.system, bench.spec,
                 std::make_shared<PolarAbstraction>(), high)
          .compute(bench.spec.x0, ctrl);
  ASSERT_TRUE(fl.valid && fh.valid);
  double wl = 0.0;
  double wh = 0.0;
  for (std::size_t k = 1; k <= 10; ++k) {
    wl += fl.step_sets[k][0].width() + fl.step_sets[k][1].width();
    wh += fh.step_sets[k][0].width() + fh.step_sets[k][1].width();
  }
  EXPECT_LE(wh, wl + 1e-9);
}

TEST(TmVerifier, DivergentControllerFailsGracefully) {
  auto bench = ode::make_oscillator_benchmark();
  bench.spec.steps = 60;
  TmVerifier verifier(bench.system, bench.spec,
                      std::make_shared<LinearAbstraction>(), {});
  // Destabilizing feedback.
  nn::LinearController ctrl(Mat{{5.0, 5.0}});
  const Flowpipe fp = verifier.compute(bench.spec.x0, ctrl);
  EXPECT_FALSE(fp.valid);
  EXPECT_FALSE(fp.failure.empty());
  // Partial pipe is still reported.
  EXPECT_GE(fp.step_sets.size(), 1u);
}

TEST(TmVerifier, StopAtGoalShortensPipe) {
  const auto bench = ode::make_3d_benchmark();
  TmVerifier verifier(bench.system, bench.spec,
                      std::make_shared<LinearAbstraction>(), {});
  // A gain that drives x1 down into the goal region (found empirically via
  // the learner family): u = -k x3 - c pushes x3 negative, x1 follows.
  nn::LinearController ctrl(Mat{{-0.2, -1.5, -2.0}});
  const Flowpipe fp = verifier.compute(bench.spec.x0, ctrl);
  if (fp.valid && bench.spec.goal.contains(fp.step_sets.back())) {
    EXPECT_LE(fp.steps(), bench.spec.steps);
  }
  // Either way the pipe must be well-formed.
  EXPECT_EQ(fp.interval_hulls.size() + 1, fp.step_sets.size());
}

// --- golden bits of the scalar driver -------------------------------------

std::uint64_t pipe_digest(const Flowpipe& fp) {
  ser::Writer w;
  ser::put(w, fp);
  return ser::checksum64(w.bytes().data(), w.bytes().size());
}

std::uint64_t prefix_digest(const TmSymbolicPrefix& prefix) {
  ser::Writer w;
  ser::put(w, prefix);
  return ser::checksum64(w.bytes().data(), w.bytes().size());
}

nn::MlpController tanh_mlp(std::size_t state_dim) {
  nn::MlpController ctrl({state_dim, 6, 1}, 1.0, nn::Activation::kTanh,
                         nn::Activation::kTanh);
  std::mt19937_64 rng(13);
  ctrl.init_random(rng, 0.3);
  return ctrl;
}

ode::Benchmark oscillator(std::size_t steps) {
  auto bench = ode::make_oscillator_benchmark();
  bench.spec.steps = steps;
  bench.spec.stop_at_goal = false;
  return bench;
}

TmVerifier polar(const ode::Benchmark& bench, const TmReachOptions& opt) {
  return TmVerifier(bench.system, bench.spec,
                    std::make_shared<PolarAbstraction>(), opt);
}

// Lower-left quarter of a box: a child cell for prefix replay.
geom::Box quarter(const geom::Box& b) {
  IVec q(b.dim());
  for (std::size_t i = 0; i < b.dim(); ++i) {
    q[i] = Interval(b[i].lo(), b[i].mid());
  }
  return geom::Box(q);
}

TEST(TmVerifierBits, ComputeBitsPinned) {
  // Golden digests of the serialized pipes of TmVerifier::compute (and of
  // compute_symbolic's prefix bytes and a child replay), recorded while the
  // scalar driver still ran the full-channel kernel sequence. Remainder
  // tape, poly-only Picard passes and pinned range domains are pure
  // speedups, so any moved bit is a regression.
  struct Case {
    std::string name;
    std::uint64_t golden;
    std::uint64_t got;
  };
  std::vector<Case> cases;
  const auto pin = [&](const char* name, std::uint64_t golden,
                       std::uint64_t got) {
    cases.push_back({name, golden, got});
  };

  const ode::Benchmark osc = oscillator(30);
  const nn::MlpController osc_ctrl = tanh_mlp(2);
  {
    const Flowpipe fp = polar(osc, {}).compute(osc.spec.x0, osc_ctrl);
    EXPECT_TRUE(fp.valid) << fp.failure;
    pin("osc_polar_fixed", 0xa02d592bb62da194ULL, pipe_digest(fp));
  }
  {
    TmReachOptions opt;
    opt.adaptive = true;
    const Flowpipe fp = polar(osc, opt).compute(osc.spec.x0, osc_ctrl);
    EXPECT_TRUE(fp.valid) << fp.failure;
    // The dense tanh channel keeps the oscillator on the base grid, so
    // these bits equal the fixed grid's.
    pin("osc_polar_adaptive", 0xa02d592bb62da194ULL, pipe_digest(fp));
    // Too few inflations for the whole period: rejected substeps retry at
    // half the step, so the time domain changes mid-period.
    opt.substeps = 1;
    opt.max_inflations = 2;
    const Flowpipe rej = polar(osc, opt).compute(osc.spec.x0, osc_ctrl);
    EXPECT_TRUE(rej.valid) << rej.failure;
    EXPECT_GT(rej.tm_stats.rejects, 0u);
    pin("osc_polar_adaptive_rejects", 0xaad3b7f03fdfb65fULL,
        pipe_digest(rej));
  }
  {
    TmReachOptions opt;
    opt.symbolic_remainder = true;
    const Flowpipe fp = polar(osc, opt).compute(osc.spec.x0, osc_ctrl);
    EXPECT_TRUE(fp.valid) << fp.failure;
    pin("osc_polar_symbolic_remainder", 0xb0766360adbae0f0ULL,
        pipe_digest(fp));
  }
  const auto acc = ode::make_acc_benchmark();
  const nn::LinearController acc_ctrl(Mat{{0.5, -1.2}});
  const auto acc_verifier = [](const ode::Benchmark& bench,
                               const TmReachOptions& opt) {
    return TmVerifier(bench.system, bench.spec,
                      std::make_shared<LinearAbstraction>(), opt);
  };
  for (const bool adaptive : {false, true}) {
    TmReachOptions opt;
    opt.adaptive = adaptive;
    const Flowpipe fp = acc_verifier(acc, opt).compute(acc.spec.x0, acc_ctrl);
    EXPECT_TRUE(fp.valid) << fp.failure;
    // The linear channel is sparse, so the adaptive schedule moves.
    if (adaptive) {
      EXPECT_GT(fp.tm_stats.h_max, fp.tm_stats.h_min);
    }
    pin(adaptive ? "acc_linear_adaptive" : "acc_linear",
        adaptive ? 0x23dd0a5bd6ff4dafULL : 0xc27ebe4c056c7de6ULL,
        pipe_digest(fp));
  }
  {
    auto sys3d = ode::make_3d_benchmark();
    sys3d.spec.steps = 12;
    sys3d.spec.stop_at_goal = false;
    const Flowpipe fp = polar(sys3d, {}).compute(sys3d.spec.x0, tanh_mlp(3));
    EXPECT_TRUE(fp.valid) << fp.failure;
    pin("sys3d_polar", 0xc8341e9cff3a4b58ULL, pipe_digest(fp));
  }
  {
    // Expression dynamics are not replay-safe: the full channel stays on.
    auto pend = ode::make_pendulum_benchmark();
    pend.spec.steps = 12;
    pend.spec.stop_at_goal = false;
    const nn::LinearController ctrl(Mat{{-2.0, -1.5}});
    const Flowpipe fp = TmVerifier(pend.system, pend.spec,
                                   std::make_shared<LinearAbstraction>(), {})
                            .compute(pend.spec.x0, ctrl);
    EXPECT_TRUE(fp.valid) << fp.failure;
    pin("pendulum_expr", 0x1ef650d2f630031ULL, pipe_digest(fp));
  }
  {
    // Validation retries from a tiny first guess: without inflations the
    // same pipe fails, so the valid run proves containment on attempts > 0.
    TmReachOptions opt;
    opt.rem_init = 1e-13;
    opt.max_inflations = 0;
    EXPECT_FALSE(polar(osc, opt).compute(osc.spec.x0, osc_ctrl).valid);
    opt.max_inflations = 60;
    const Flowpipe fp = polar(osc, opt).compute(osc.spec.x0, osc_ctrl);
    EXPECT_TRUE(fp.valid) << fp.failure;
    pin("osc_validation_retry", 0xcf85d544cad4398dULL, pipe_digest(fp));
  }
  {
    TmReachOptions opt;
    opt.substeps = 1;
    opt.max_inflations = 2;
    const Flowpipe fp = polar(osc, opt).compute(osc.spec.x0, osc_ctrl);
    EXPECT_FALSE(fp.valid);
    pin("osc_fixed_grid_failure", 0xb4fe6c123dd3e7b9ULL, pipe_digest(fp));
  }
  // compute_symbolic: the parent's pipe and prefix bytes, then a child
  // cell replaying that prefix (the adaptive prefix carries a schedule
  // tape, so the child restricts each tube over its own tau domain).
  const auto symbolic = [&](const char* name, const TmVerifier& v,
                            const geom::Box& x0, const nn::Controller& ctrl,
                            std::uint64_t golden_parent,
                            std::uint64_t golden_child) {
    const TmComputeResult parent = v.compute_symbolic(x0, ctrl);
    ASSERT_NE(parent.prefix, nullptr) << name;
    const TmComputeResult child =
        v.compute_symbolic(quarter(x0), ctrl, parent.prefix.get());
    ASSERT_NE(child.prefix, nullptr) << name;
    cases.push_back({name, golden_parent,
                     pipe_digest(parent.fp) ^ prefix_digest(*parent.prefix)});
    cases.push_back({std::string(name) + "_child", golden_child,
                     pipe_digest(child.fp) ^ prefix_digest(*child.prefix)});
  };
  symbolic("osc_prefix", polar(oscillator(12), {}), osc.spec.x0, osc_ctrl,
           0x34c0b2ba257af109ULL, 0x5d69208e7fb1fa35ULL);
  {
    ode::Benchmark acc20 = acc;
    acc20.spec.steps = 20;
    acc20.spec.stop_at_goal = false;
    TmReachOptions opt;
    opt.adaptive = true;
    symbolic("acc_adaptive_prefix", acc_verifier(acc20, opt), acc.spec.x0,
             acc_ctrl, 0xccee795f5e70d502ULL, 0xfe87dabea9c2cb2dULL);
  }

  for (const Case& c : cases) {
    EXPECT_EQ(c.got, c.golden)
        << c.name << ": 0x" << std::hex << c.got << "ULL";
  }
}

}  // namespace
}  // namespace dwv::reach
