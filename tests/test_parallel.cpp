// Concurrency tests (CTest label: parallel; run these under the TSan
// preset). Covers the pool itself plus the paper-level property the
// parallel verification engine must keep: thread count is a pure
// performance knob — learner histories, merged subdivision flowpipes, and
// initial-set searches are bit-identical between threads = 1 and
// threads = N.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/initial_set.hpp"
#include "core/learner.hpp"
#include "ode/benchmarks.hpp"
#include "parallel/pool.hpp"
#include "plantless_verifier.hpp"
#include "reach/linear_reach.hpp"
#include "reach/subdivide.hpp"
#include "reach/tm_flowpipe.hpp"

namespace dwv {
namespace {

using linalg::Mat;

TEST(ResolveThreads, ExplicitValueIsVerbatim) {
  EXPECT_EQ(parallel::resolve_threads(1), 1u);
  EXPECT_EQ(parallel::resolve_threads(7), 7u);
}

TEST(ResolveThreads, AutoIsAtLeastOne) {
  EXPECT_GE(parallel::resolve_threads(0), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallel::parallel_for(4, n, [&](std::size_t i) { hits[i]++; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, SingleThreadRunsInlineInOrder) {
  std::vector<std::size_t> order;
  parallel::parallel_for(1, 16, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, HandlesEmptyAndSingletonRanges) {
  int calls = 0;
  parallel::parallel_for(8, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel::parallel_for(8, 1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, RethrowsLowestIndexException) {
  try {
    parallel::parallel_for(4, 64, [&](std::size_t i) {
      if (i == 7 || i == 41) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "7");
  }
}

TEST(ParallelFor, NestedLoopsDoNotDeadlock) {
  std::atomic<int> total{0};
  parallel::parallel_for(4, 8, [&](std::size_t) {
    parallel::parallel_for(4, 8, [&](std::size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 64);
}

// ----------------------------------------------------------------------
// Determinism across thread counts.
// ----------------------------------------------------------------------

void expect_boxes_identical(const geom::Box& a, const geom::Box& b) {
  ASSERT_EQ(a.dim(), b.dim());
  for (std::size_t i = 0; i < a.dim(); ++i) {
    EXPECT_EQ(a[i].lo(), b[i].lo());
    EXPECT_EQ(a[i].hi(), b[i].hi());
  }
}

void expect_flowpipes_identical(const reach::Flowpipe& a,
                                const reach::Flowpipe& b) {
  EXPECT_EQ(a.valid, b.valid);
  ASSERT_EQ(a.step_sets.size(), b.step_sets.size());
  ASSERT_EQ(a.interval_hulls.size(), b.interval_hulls.size());
  for (std::size_t k = 0; k < a.step_sets.size(); ++k) {
    expect_boxes_identical(a.step_sets[k], b.step_sets[k]);
  }
  for (std::size_t k = 0; k < a.interval_hulls.size(); ++k) {
    expect_boxes_identical(a.interval_hulls[k], b.interval_hulls[k]);
  }
}

core::LearnResult learn_acc(
    core::GradientMode mode, std::size_t threads,
    core::MetricKind metric = core::MetricKind::kGeometric) {
  const auto bench = ode::make_acc_benchmark();
  core::LearnerOptions opt;
  opt.metric = metric;
  opt.gradient = mode;
  opt.spsa_samples = 3;
  opt.max_iters = 20;
  opt.step_size = 0.3;
  opt.perturbation = 0.05;
  opt.restarts = 2;
  opt.seed = 12;
  opt.threads = threads;
  core::Learner learner(
      std::make_shared<reach::LinearVerifier>(bench.system, bench.spec),
      bench.spec, opt);
  nn::LinearController ctrl(Mat{{0.1, -0.4}});
  return learner.learn(ctrl);
}

void expect_learn_results_identical(const core::LearnResult& a,
                                    const core::LearnResult& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.verifier_calls, b.verifier_calls);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].iter, b.history[i].iter);
    EXPECT_EQ(a.history[i].feasible, b.history[i].feasible);
    // Optionals: the recorded family must agree in presence and value.
    EXPECT_EQ(a.history[i].geo, b.history[i].geo) << "iter " << i;
    EXPECT_EQ(a.history[i].wass, b.history[i].wass) << "iter " << i;
  }
  expect_flowpipes_identical(a.final_flowpipe, b.final_flowpipe);
}

TEST(ParallelDeterminism, LearnerSpsaAveragedBitIdentical) {
  expect_learn_results_identical(
      learn_acc(core::GradientMode::kSpsaAveraged, 1),
      learn_acc(core::GradientMode::kSpsaAveraged, 4));
}

TEST(ParallelDeterminism, LearnerCoordinateBitIdentical) {
  expect_learn_results_identical(
      learn_acc(core::GradientMode::kCoordinate, 1),
      learn_acc(core::GradientMode::kCoordinate, 4));
}

TEST(ParallelDeterminism, LearnerWassersteinBitIdentical) {
  const core::LearnResult serial = learn_acc(
      core::GradientMode::kSpsaAveraged, 1, core::MetricKind::kWasserstein);
  ASSERT_FALSE(serial.history.empty());
  EXPECT_TRUE(serial.history.front().wass.has_value());
  expect_learn_results_identical(
      serial, learn_acc(core::GradientMode::kSpsaAveraged, 4,
                        core::MetricKind::kWasserstein));
}

TEST(ParallelDeterminism, SubdividingVerifierBitIdentical) {
  auto bench = ode::make_oscillator_benchmark();
  bench.spec.steps = 8;
  bench.spec.stop_at_goal = false;
  const auto inner = std::make_shared<reach::TmVerifier>(
      bench.system, bench.spec, std::make_shared<reach::PolarAbstraction>(),
      reach::TmReachOptions{});
  nn::MlpController ctrl({2, 6, 1}, 1.0, nn::Activation::kTanh,
                         nn::Activation::kTanh);
  std::mt19937_64 rng(5);
  ctrl.init_random(rng, 0.3);

  const reach::Flowpipe serial =
      reach::SubdividingVerifier(inner, {.cells_per_dim = 2, .threads = 1})
          .compute(bench.spec.x0, ctrl);
  const reach::Flowpipe parallel =
      reach::SubdividingVerifier(inner, {.cells_per_dim = 2, .threads = 4})
          .compute(bench.spec.x0, ctrl);
  ASSERT_TRUE(serial.valid);
  expect_flowpipes_identical(serial, parallel);
}

TEST(ParallelDeterminism, InitialSetSearchBitIdentical) {
  const auto bench = ode::make_acc_benchmark();
  // Every cell to depth 3 holds a counterexample, so only the plant-less
  // wrapper makes the search ask the verifier about them.
  const reach::LinearVerifier linear(bench.system, bench.spec);
  const test::PlantlessVerifier verifier(linear);
  // Mediocre controller so the search actually branches.
  nn::LinearController mid(Mat{{0.45, -1.6}});

  core::InitialSetOptions serial_opt;
  serial_opt.max_depth = 3;
  serial_opt.threads = 1;
  core::InitialSetOptions parallel_opt = serial_opt;
  parallel_opt.threads = 4;

  const core::InitialSetResult a =
      core::search_initial_set(verifier, bench.spec, mid, serial_opt);
  const core::InitialSetResult b =
      core::search_initial_set(verifier, bench.spec, mid, parallel_opt);

  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.verifier_calls, b.verifier_calls);
  ASSERT_EQ(a.certified.size(), b.certified.size());
  ASSERT_EQ(a.rejected.size(), b.rejected.size());
  for (std::size_t i = 0; i < a.certified.size(); ++i) {
    expect_boxes_identical(a.certified[i], b.certified[i]);
  }
  for (std::size_t i = 0; i < a.rejected.size(); ++i) {
    expect_boxes_identical(a.rejected[i], b.rejected[i]);
  }
}

}  // namespace
}  // namespace dwv
