#include <gtest/gtest.h>

#include "core/initial_set.hpp"
#include "core/verdict.hpp"
#include "ode/benchmarks.hpp"
#include "plantless_verifier.hpp"
#include "reach/linear_reach.hpp"
#include "sim/simulate.hpp"

namespace dwv::core {
namespace {

using linalg::Mat;

TEST(InitialSetSearch, FullCoverageForStrongController) {
  const auto bench = ode::make_acc_benchmark();
  reach::LinearVerifier verifier(bench.system, bench.spec);
  nn::LinearController good(Mat{{0.8, -2.75}});
  const InitialSetResult res =
      search_initial_set(verifier, bench.spec, good);
  EXPECT_TRUE(res.full());
  EXPECT_EQ(res.rejected.size(), 0u);
  EXPECT_GE(res.verifier_calls, 1u);
}

TEST(InitialSetSearch, ZeroCoverageForBadController) {
  const auto bench = ode::make_acc_benchmark();
  // Every cell holds a counterexample, so only the plant-less wrapper
  // makes the search ask the verifier about them.
  const reach::LinearVerifier linear(bench.system, bench.spec);
  const test::PlantlessVerifier verifier(linear);
  nn::LinearController zero(Mat{{0.0, 0.0}});
  InitialSetOptions opt;
  opt.max_depth = 2;
  const InitialSetResult res =
      search_initial_set(verifier, bench.spec, zero, opt);
  EXPECT_DOUBLE_EQ(res.coverage, 0.0);
  EXPECT_TRUE(res.certified.empty());
  EXPECT_FALSE(res.rejected.empty());
}

TEST(InitialSetSearch, CellsPartitionX0) {
  const auto bench = ode::make_acc_benchmark();
  reach::LinearVerifier verifier(bench.system, bench.spec);
  nn::LinearController good(Mat{{0.8, -2.75}});
  InitialSetOptions opt;
  opt.max_depth = 3;
  const InitialSetResult res =
      search_initial_set(verifier, bench.spec, good, opt);
  double vol = 0.0;
  for (const auto& b : res.certified) vol += b.volume();
  for (const auto& b : res.rejected) vol += b.volume();
  EXPECT_NEAR(vol, bench.spec.x0.volume(), 1e-9);
}

TEST(InitialSetSearch, EveryCertifiedCellIsSound) {
  // Paper Theorem 2 (soundness): every state in X_I reaches the goal
  // without entering the unsafe set. Cross-check by simulation.
  const auto bench = ode::make_acc_benchmark();
  reach::LinearVerifier verifier(bench.system, bench.spec);
  nn::LinearController good(Mat{{0.8, -2.75}});
  const InitialSetResult res =
      search_initial_set(verifier, bench.spec, good);
  ASSERT_FALSE(res.certified.empty());

  std::mt19937_64 rng(23);
  for (const auto& cell : res.certified) {
    for (int i = 0; i < 10; ++i) {
      const linalg::Vec x0 = cell.sample(rng);
      const sim::Trace tr = sim::simulate(*bench.system, good, x0,
                                          bench.spec.delta, bench.spec.steps);
      const sim::TraceVerdict v = sim::evaluate_trace(tr, bench.spec);
      EXPECT_TRUE(v.safe);
      EXPECT_TRUE(v.reached);
    }
  }
}

TEST(InitialSetSearch, DeeperSearchNeverCoversLess) {
  const auto bench = ode::make_acc_benchmark();
  // Every cell to depth 4 holds a counterexample, so only the plant-less
  // wrapper makes the search ask the verifier about them.
  const reach::LinearVerifier linear(bench.system, bench.spec);
  const test::PlantlessVerifier verifier(linear);
  // A mediocre controller: goal reaching holds only for part of X0.
  nn::LinearController mid(Mat{{0.45, -1.6}});
  InitialSetOptions shallow;
  shallow.max_depth = 1;
  InitialSetOptions deep;
  deep.max_depth = 4;
  const double c1 =
      search_initial_set(verifier, bench.spec, mid, shallow).coverage;
  const double c2 =
      search_initial_set(verifier, bench.spec, mid, deep).coverage;
  EXPECT_GE(c2, c1 - 1e-12);
}

}  // namespace
}  // namespace dwv::core
