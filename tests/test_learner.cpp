#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/learner.hpp"
#include "ode/benchmarks.hpp"
#include "reach/linear_reach.hpp"
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

TEST(Learner, MetricKindNames) {
  EXPECT_EQ(to_string(MetricKind::kGeometric), "geometric");
  EXPECT_EQ(to_string(MetricKind::kWasserstein), "wasserstein");
}

}  // namespace
}  // namespace dwv::core
