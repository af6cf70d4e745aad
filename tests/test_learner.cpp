#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>

#include "core/learner.hpp"
#include "ode/benchmarks.hpp"
#include "reach/control_abstraction.hpp"
#include "reach/linear_reach.hpp"
#include "reach/serialize.hpp"
#include "reach/tm_flowpipe.hpp"
#include "sim/monte_carlo.hpp"

namespace dwv::core {
namespace {

using linalg::Mat;

std::shared_ptr<reach::LinearVerifier> acc_verifier(
    const ode::Benchmark& bench) {
  return std::make_shared<reach::LinearVerifier>(bench.system, bench.spec);
}

TEST(Learner, ConvergesOnAccGeometric) {
  const auto bench = ode::make_acc_benchmark();
  LearnerOptions opt;
  opt.metric = MetricKind::kGeometric;
  opt.max_iters = 400;
  opt.step_size = 0.5;
  opt.perturbation = 0.05;
  opt.gradient = GradientMode::kSpsaAveraged;
  opt.spsa_samples = 2;
  opt.require_containment = true;
  opt.restarts = 3;
  opt.seed = 1;
  Learner learner(acc_verifier(bench), bench.spec, opt);
  nn::LinearController ctrl(Mat{{0.0, 0.0}});
  const LearnResult res = learner.learn(ctrl);
  ASSERT_TRUE(res.success);
  EXPECT_LE(res.iterations, opt.max_iters);
  EXPECT_GT(res.verifier_calls, res.iterations);  // perturbations included
  // The paper's claim: the learned controller is formally reach-avoid AND
  // experimentally perfect.
  const sim::McStats mc = sim::monte_carlo_rates(
      *bench.system, ctrl, bench.spec, 200, 9);
  EXPECT_DOUBLE_EQ(mc.safe_rate, 1.0);
  EXPECT_DOUBLE_EQ(mc.goal_rate, 1.0);
}

TEST(Learner, ConvergesOnAccWasserstein) {
  const auto bench = ode::make_acc_benchmark();
  LearnerOptions opt;
  opt.metric = MetricKind::kWasserstein;
  opt.alpha = 0.2;
  opt.max_iters = 400;
  opt.step_size = 0.5;
  opt.perturbation = 0.05;
  opt.gradient = GradientMode::kSpsaAveraged;
  opt.spsa_samples = 2;
  opt.require_containment = true;
  opt.restarts = 3;
  opt.seed = 3;
  Learner learner(acc_verifier(bench), bench.spec, opt);
  nn::LinearController ctrl(Mat{{0.0, 0.0}});
  const LearnResult res = learner.learn(ctrl);
  ASSERT_TRUE(res.success);
  const sim::McStats mc = sim::monte_carlo_rates(
      *bench.system, ctrl, bench.spec, 200, 9);
  EXPECT_DOUBLE_EQ(mc.safe_rate, 1.0);
  EXPECT_DOUBLE_EQ(mc.goal_rate, 1.0);
}

// Exactly the family the learner runs with is recorded; the other one is
// never computed and stays nullopt.
void expect_active_family_only(const IterationRecord& rec, MetricKind metric) {
  if (metric == MetricKind::kGeometric) {
    ASSERT_TRUE(rec.geo.has_value()) << "iter " << rec.iter;
    EXPECT_FALSE(rec.wass.has_value()) << "iter " << rec.iter;
    EXPECT_TRUE(std::isfinite(rec.geo->d_u)) << "iter " << rec.iter;
    EXPECT_TRUE(std::isfinite(rec.geo->d_g)) << "iter " << rec.iter;
  } else {
    ASSERT_TRUE(rec.wass.has_value()) << "iter " << rec.iter;
    EXPECT_FALSE(rec.geo.has_value()) << "iter " << rec.iter;
    EXPECT_GE(rec.wass->w_goal, 0.0) << "iter " << rec.iter;
    EXPECT_GE(rec.wass->w_unsafe, 0.0) << "iter " << rec.iter;
  }
}

TEST(Learner, HistoryIsRecordedAndMonotoneInIter) {
  const auto bench = ode::make_acc_benchmark();
  for (const MetricKind metric :
       {MetricKind::kGeometric, MetricKind::kWasserstein}) {
    SCOPED_TRACE(to_string(metric));
    LearnerOptions opt;
    opt.metric = metric;
    opt.max_iters = 10;
    opt.restarts = 1;
    opt.seed = 5;
    Learner learner(acc_verifier(bench), bench.spec, opt);
    nn::LinearController ctrl(Mat{{0.0, 0.0}});
    const LearnResult res = learner.learn(ctrl);
    ASSERT_FALSE(res.history.empty());
    for (std::size_t i = 0; i < res.history.size(); ++i) {
      EXPECT_EQ(res.history[i].iter, i);
      expect_active_family_only(res.history[i], metric);
    }
    if (metric == MetricKind::kWasserstein) {
      EXPECT_NE(res.history[0].wass->w_goal, 0.0);
    }
  }
}

TEST(Learner, EvaluateDoesNotMutateController) {
  const auto bench = ode::make_acc_benchmark();
  for (const MetricKind metric :
       {MetricKind::kGeometric, MetricKind::kWasserstein}) {
    SCOPED_TRACE(to_string(metric));
    LearnerOptions opt;
    opt.metric = metric;
    Learner learner(acc_verifier(bench), bench.spec, opt);
    nn::LinearController ctrl(Mat{{0.5, -1.5}});
    const auto before = ctrl.params();
    const IterationRecord rec = learner.evaluate(ctrl);
    EXPECT_EQ(ctrl.params(), before);
    expect_active_family_only(rec, metric);
  }
}

TEST(Learner, CoordinateGradientImprovesObjective) {
  // Per-coordinate central differences follow the exact metric gradient and
  // reliably improve the objective, but (unlike SPSA) lack the stochastic
  // exploration needed to escape the safe-but-drifting local optimum of the
  // ACC landscape — the gradient-mode ablation bench quantifies this.
  const auto bench = ode::make_acc_benchmark();
  LearnerOptions opt;
  opt.gradient = GradientMode::kCoordinate;
  opt.max_iters = 60;
  opt.step_size = 0.3;
  opt.perturbation = 0.05;
  opt.restarts = 1;
  opt.seed = 2;
  Learner learner(acc_verifier(bench), bench.spec, opt);
  // Warm start: the origin is a saddle where the two metric gradients
  // cancel almost exactly; deterministic descent bounces there.
  nn::LinearController ctrl(Mat{{0.3, -1.5}});
  const LearnResult res = learner.learn(ctrl);
  ASSERT_GE(res.history.size(), 2u);
  for (const IterationRecord& rec : res.history) {
    ASSERT_TRUE(rec.geo.has_value()) << "iter " << rec.iter;
  }
  const auto& first = res.history.front();
  const auto& best = *std::max_element(
      res.history.begin(), res.history.end(),
      [](const IterationRecord& a, const IterationRecord& b) {
        return a.geo->d_u + a.geo->d_g < b.geo->d_u + b.geo->d_g;
      });
  // The combined objective improves substantially (goal progress may trade
  // a little safety margin; the weighted sum is what the update ascends).
  EXPECT_GT(best.geo->d_u + best.geo->d_g,
            first.geo->d_u + first.geo->d_g + 1.0);
}

TEST(Learner, RespectsIterationBudget) {
  const auto bench = ode::make_acc_benchmark();
  LearnerOptions opt;
  opt.max_iters = 5;
  opt.restarts = 1;
  opt.step_size = 1e-6;  // cannot reach feasibility
  opt.seed = 11;
  Learner learner(acc_verifier(bench), bench.spec, opt);
  nn::LinearController ctrl(Mat{{0.0, 0.0}});
  const LearnResult res = learner.learn(ctrl);
  EXPECT_FALSE(res.success);
  EXPECT_EQ(res.iterations, 5u);
  EXPECT_EQ(res.history.size(), 6u);  // iterations 0..5
}

TEST(Learner, SuccessImpliesFormallyPositiveMetrics) {
  const auto bench = ode::make_acc_benchmark();
  LearnerOptions opt;
  opt.max_iters = 400;
  opt.step_size = 0.5;
  opt.perturbation = 0.05;
  opt.gradient = GradientMode::kSpsaAveraged;
  opt.spsa_samples = 2;
  opt.require_containment = true;
  opt.restarts = 3;
  opt.seed = 4;
  Learner learner(acc_verifier(bench), bench.spec, opt);
  nn::LinearController ctrl(Mat{{0.0, 0.0}});
  const LearnResult res = learner.learn(ctrl);
  ASSERT_TRUE(res.success);
  const IterationRecord& last = res.history.back();
  ASSERT_TRUE(last.geo.has_value());
  EXPECT_GT(last.geo->d_u, 0.0);
  EXPECT_GT(last.geo->d_g, 0.0);
  EXPECT_TRUE(last.feasible);
  EXPECT_TRUE(res.final_flowpipe.valid);
}

TEST(Learner, SinkhornModeAlsoConverges) {
  // The entropic OT fast path can replace the exact EMD inside the loop.
  const auto bench = ode::make_acc_benchmark();
  LearnerOptions opt;
  opt.metric = MetricKind::kWasserstein;
  opt.alpha = 0.2;
  opt.max_iters = 400;
  opt.step_size = 0.5;
  opt.perturbation = 0.05;
  opt.gradient = GradientMode::kSpsaAveraged;
  opt.spsa_samples = 2;
  opt.require_containment = true;
  opt.restarts = 3;
  opt.seed = 3;
  opt.wopt.use_sinkhorn = true;
  opt.wopt.sinkhorn.epsilon = 0.05;
  Learner learner(acc_verifier(bench), bench.spec, opt);
  nn::LinearController ctrl(Mat{{0.0, 0.0}});
  const LearnResult res = learner.learn(ctrl);
  EXPECT_TRUE(res.success);
}

TEST(Learner, SpsaAveragedWithZeroSamplesIsClamped) {
  // Regression: spsa_samples = 0 divided the averaged gradient by zero,
  // turning theta into NaNs from the first update onward. Validation
  // clamps to one sample.
  const auto bench = ode::make_acc_benchmark();
  LearnerOptions opt;
  opt.gradient = GradientMode::kSpsaAveraged;
  opt.spsa_samples = 0;
  opt.max_iters = 5;
  opt.restarts = 1;
  opt.seed = 7;
  EXPECT_EQ(opt.validated().spsa_samples, 1u);
  Learner learner(acc_verifier(bench), bench.spec, opt);
  nn::LinearController ctrl(Mat{{0.1, -0.4}});
  const LearnResult res = learner.learn(ctrl);
  ASSERT_FALSE(res.history.empty());
  for (const IterationRecord& rec : res.history) {
    ASSERT_TRUE(rec.geo.has_value()) << "iter " << rec.iter;
    EXPECT_TRUE(std::isfinite(rec.geo->d_u)) << "iter " << rec.iter;
    EXPECT_TRUE(std::isfinite(rec.geo->d_g)) << "iter " << rec.iter;
  }
  const auto theta = ctrl.params();
  for (std::size_t i = 0; i < theta.size(); ++i) {
    EXPECT_TRUE(std::isfinite(theta[i]));
  }
}

TEST(Learner, RejectsNonsensicalOptions) {
  // A zero perturbation divides the SPSA quotient by zero and fills theta
  // with NaNs, and a zero restart scale breaks std::normal_distribution's
  // precondition; validation must refuse them (and their kin) in every
  // build type, not only where asserts are compiled in.
  const auto bench = ode::make_acc_benchmark();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    const char* name;
    double LearnerOptions::*field;
    double value;
  } cases[] = {
      {"perturbation 0", &LearnerOptions::perturbation, 0.0},
      {"perturbation -1", &LearnerOptions::perturbation, -1.0},
      {"perturbation inf", &LearnerOptions::perturbation, inf},
      {"perturbation nan", &LearnerOptions::perturbation, nan},
      {"step_size 0", &LearnerOptions::step_size, 0.0},
      {"step_size -0.1", &LearnerOptions::step_size, -0.1},
      {"step_size inf", &LearnerOptions::step_size, inf},
      {"step_size nan", &LearnerOptions::step_size, nan},
      {"restart_scale 0", &LearnerOptions::restart_scale, 0.0},
      {"restart_scale -1", &LearnerOptions::restart_scale, -1.0},
      {"restart_scale inf", &LearnerOptions::restart_scale, inf},
      {"restart_scale nan", &LearnerOptions::restart_scale, nan},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    LearnerOptions opt;
    opt.*c.field = c.value;
    EXPECT_THROW((void)opt.validated(), std::invalid_argument);
    EXPECT_THROW(Learner(acc_verifier(bench), bench.spec, opt),
                 std::invalid_argument);
  }
}

TEST(Learner, UnconvergedRunReportsLastRealFlowpipe) {
  // Regression: exhausting the budget without success used to clobber
  // final_flowpipe with a default-constructed (empty) pipe; exports and
  // plots must instead see the final reachable set.
  const auto bench = ode::make_acc_benchmark();
  LearnerOptions opt;
  opt.max_iters = 8;
  opt.restarts = 3;
  opt.step_size = 1e-7;  // cannot reach feasibility
  opt.seed = 11;
  Learner learner(acc_verifier(bench), bench.spec, opt);
  nn::LinearController ctrl(Mat{{0.0, 0.0}});
  const LearnResult res = learner.learn(ctrl);
  ASSERT_FALSE(res.success);
  ASSERT_FALSE(res.history.empty());
  EXPECT_FALSE(res.final_flowpipe.step_sets.empty());
  EXPECT_EQ(res.final_flowpipe.steps(), bench.spec.steps);
}

// Digest of everything a run decides: the final parameter bits, every
// recorded metric bit and feasibility flag, the iteration and verifier-call
// counts, and the success flag.
std::uint64_t run_digest(const nn::Controller& ctrl, const LearnResult& res) {
  reach::ser::Writer w;
  for (const double v : ctrl.params()) w.f64(v);
  for (const IterationRecord& rec : res.history) {
    w.u64(rec.iter);
    if (rec.geo) {
      w.f64(rec.geo->d_u);
      w.f64(rec.geo->d_g);
    }
    if (rec.wass) {
      w.f64(rec.wass->w_goal);
      w.f64(rec.wass->w_unsafe);
    }
    w.u8(rec.feasible ? 1 : 0);
  }
  w.u64(res.iterations);
  w.u64(res.verifier_calls);
  w.u8(res.success ? 1 : 0);
  return reach::ser::checksum64(w.bytes().data(), w.bytes().size());
}

TEST(Learner, RunBitsPinned) {
  // Golden digests of short Algorithm-1 runs over every direction source:
  // SPSA, averaged SPSA (with the 0-sample clamp) and coordinate probes
  // through the LinearVerifier; the dual gradient pass on the ACC linear
  // controller under both metric families, with and without containment
  // (the margin / SQP march); and the MLP run that asks for the gradient
  // and falls back to SPSA. Budgets cross restart boundaries and end on
  // max_iters, except the converging runs. A refactor of the learner loop
  // must keep every digest.
  const auto bench = ode::make_acc_benchmark();
  const auto linear = acc_verifier(bench);
  const auto tm = std::make_shared<reach::TmVerifier>(
      bench.system, bench.spec, std::make_shared<reach::LinearAbstraction>(),
      reach::TmReachOptions{});
  const auto polar = std::make_shared<reach::TmVerifier>(
      bench.system, bench.spec, std::make_shared<reach::PolarAbstraction>(),
      reach::TmReachOptions{});
  const auto base = [] {
    LearnerOptions o;
    o.threads = 1;
    o.seed = 5;
    return o;
  };
  const auto spsa = [&](GradientMode mode, std::size_t samples,
                        std::size_t iters, std::size_t restarts) {
    LearnerOptions o = base();
    o.gradient = mode;
    o.spsa_samples = samples;
    o.max_iters = iters;
    o.restarts = restarts;
    return o;
  };
  const auto grad = [&](MetricKind metric, bool contain) {
    LearnerOptions o = base();
    o.metric = metric;
    o.alpha = metric == MetricKind::kWasserstein ? 0.2 : 1.0;
    o.step_size = 0.5;
    o.max_iters = 9;
    o.restarts = 2;
    o.require_containment = contain;
    o.grad = true;
    return o;
  };
  LearnerOptions wass_spsa = spsa(GradientMode::kSpsa, 2, 7, 2);
  wass_spsa.metric = MetricKind::kWasserstein;
  LearnerOptions converging = spsa(GradientMode::kSpsaAveraged, 2, 400, 4);
  converging.step_size = 0.5;
  converging.perturbation = 0.05;
  converging.require_containment = true;
  converging.seed = 1;
  LearnerOptions fallback = spsa(GradientMode::kSpsaAveraged, 2, 4, 2);
  fallback.grad = true;

  const struct {
    const char* name;
    reach::VerifierPtr verifier;
    LearnerOptions opt;
    bool mlp;
    std::uint64_t digest;
  } cases[] = {
      {"spsa", linear, spsa(GradientMode::kSpsa, 2, 10, 3), false,
       0x11517f578f73e7a3ull},
      {"spsa_wass", linear, wass_spsa, false, 0x227b091c3649681eull},
      {"averaged", linear, spsa(GradientMode::kSpsaAveraged, 3, 7, 2), false,
       0x6b7f73449db2f00bull},
      {"averaged_0", linear, spsa(GradientMode::kSpsaAveraged, 0, 6, 1),
       false, 0x4542170898b7334full},
      {"coordinate", linear, spsa(GradientMode::kCoordinate, 2, 8, 3), false,
       0x7f21d23e2564868bull},
      {"converging", linear, converging, false, 0xceda02e5badcaafbull},
      {"grad_geo", tm, grad(MetricKind::kGeometric, false), false,
       0xac4b97fe4d06f564ull},
      {"grad_geo_contain", tm, grad(MetricKind::kGeometric, true), false,
       0x1b066c39fc16e330ull},
      // Under the Wasserstein family the goal score -w_goal never turns
      // positive, so the margin march cannot start and containment changes
      // nothing before feasibility: both runs share one digest.
      {"grad_wass", tm, grad(MetricKind::kWasserstein, false), false,
       0x9ab080f9b6370d20ull},
      {"grad_wass_contain", tm, grad(MetricKind::kWasserstein, true), false,
       0x9ab080f9b6370d20ull},
      {"mlp_fallback", polar, fallback, true, 0x32846a69b5f91538ull},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    Learner learner(c.verifier, bench.spec, c.opt);
    nn::ControllerPtr ctrl;
    if (c.mlp) {
      std::mt19937_64 rng(7);
      auto mlp = std::make_unique<nn::MlpController>(
          std::vector<std::size_t>{2, 4, 1}, 1.0, nn::Activation::kTanh,
          nn::Activation::kTanh);
      mlp->init_random(rng, 0.3);
      ctrl = std::move(mlp);
    } else {
      ctrl = std::make_unique<nn::LinearController>(Mat{{0.0, 0.0}});
    }
    const LearnResult res = learner.learn(*ctrl);
    EXPECT_EQ(run_digest(*ctrl, res), c.digest);
  }
}

TEST(Learner, MetricKindNames) {
  EXPECT_EQ(to_string(MetricKind::kGeometric), "geometric");
  EXPECT_EQ(to_string(MetricKind::kWasserstein), "wasserstein");
}

}  // namespace
}  // namespace dwv::core
