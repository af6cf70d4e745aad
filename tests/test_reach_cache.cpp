// Flowpipe cache tests (CTest label: parallel; the TSan preset runs this
// suite). The contract under test: a cache hit returns bit-for-bit what
// recomputation would — at any thread count — plus the counter, eviction,
// and symbolic-prefix-reuse behavior of DESIGN.md §8.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "core/initial_set.hpp"
#include "core/learner.hpp"
#include "core/verdict.hpp"
#include "linalg/expm.hpp"
#include "ode/benchmarks.hpp"
#include "parallel/pool.hpp"
#include "reach/cache.hpp"
#include "reach/linear_reach.hpp"
#include "reach/tm_flowpipe.hpp"
#include "sim/simulate.hpp"

namespace dwv {
namespace {

using linalg::Mat;
using linalg::Vec;

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

std::shared_ptr<const reach::TmVerifier> oscillator_tm_verifier(
    ode::Benchmark& bench) {
  bench.spec.steps = 6;
  bench.spec.stop_at_goal = false;
  return std::make_shared<const reach::TmVerifier>(
      bench.system, bench.spec, std::make_shared<reach::PolarAbstraction>(),
      reach::TmReachOptions{});
}

nn::MlpController oscillator_controller(std::uint64_t seed) {
  nn::MlpController ctrl({2, 5, 1}, 1.0, nn::Activation::kTanh,
                         nn::Activation::kTanh);
  std::mt19937_64 rng(seed);
  ctrl.init_random(rng, 0.3);
  return ctrl;
}

TEST(FlowpipeCache, HitIsBitIdenticalToColdComputation) {
  auto bench = ode::make_oscillator_benchmark();
  const auto inner = oscillator_tm_verifier(bench);
  const auto ctrl = oscillator_controller(7);
  const reach::CachingVerifier cached(inner);

  const reach::Flowpipe cold = inner->compute(bench.spec.x0, ctrl);
  const reach::Flowpipe first = cached.compute(bench.spec.x0, ctrl);
  const reach::Flowpipe second = cached.compute(bench.spec.x0, ctrl);

  expect_flowpipes_identical(cold, first);
  expect_flowpipes_identical(cold, second);

  const reach::CacheStats s = cached.cache()->stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_GT(s.miss_compute_seconds, 0.0);
  EXPECT_EQ(cached.name(), "cached(" + inner->name() + ")");
}

TEST(FlowpipeCache, KeyDiscriminatesBoxAndParameters) {
  const geom::Box box{{0.0, 1.0}, {2.0, 3.0}};
  const geom::Box other{{0.0, 1.0}, {2.0, 3.5}};
  Vec p(2);
  p[0] = 0.25;
  p[1] = -1.5;
  Vec q = p;
  q[1] = std::nextafter(-1.5, 0.0);  // differs in the last bit only

  const auto k1 = reach::FlowpipeCache::make_key(11, box, p);
  EXPECT_TRUE(k1 == reach::FlowpipeCache::make_key(11, box, p));
  EXPECT_FALSE(k1 == reach::FlowpipeCache::make_key(11, other, p));
  EXPECT_FALSE(k1 == reach::FlowpipeCache::make_key(11, box, q));
  EXPECT_FALSE(k1 == reach::FlowpipeCache::make_key(12, box, p));

  // -0.0 and +0.0 compare equal, so their keys must coincide.
  Vec z0(1), z1(1);
  z0[0] = 0.0;
  z1[0] = -0.0;
  const geom::Box zb{{-1.0, 1.0}};
  EXPECT_TRUE(reach::FlowpipeCache::make_key(1, zb, z0) ==
              reach::FlowpipeCache::make_key(1, zb, z1));
}

TEST(FlowpipeCache, EvictsLeastRecentlyUsedUnderSmallBudget) {
  const auto bench = ode::make_acc_benchmark();
  const auto inner = std::make_shared<const reach::LinearVerifier>(
      bench.system, bench.spec);
  reach::FlowpipeCache::Config cfg;
  cfg.capacity = 2;
  cfg.shards = 1;
  const reach::CachingVerifier cached(inner, cfg);

  const nn::LinearController a(Mat{{0.1, -0.4}});
  const nn::LinearController b(Mat{{0.2, -0.4}});
  const nn::LinearController c(Mat{{0.3, -0.4}});

  cached.compute(bench.spec.x0, a);  // miss, resident {a}
  cached.compute(bench.spec.x0, b);  // miss, resident {b, a}
  cached.compute(bench.spec.x0, c);  // miss, evicts a -> {c, b}
  EXPECT_EQ(cached.cache()->size(), 2u);
  EXPECT_EQ(cached.cache()->stats().evictions, 1u);

  cached.compute(bench.spec.x0, b);  // hit (still resident)
  cached.compute(bench.spec.x0, a);  // miss again (was evicted)
  const reach::CacheStats s = cached.cache()->stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 4u);

  cached.cache()->clear();
  EXPECT_EQ(cached.cache()->size(), 0u);
}

TEST(FlowpipeCache, ConcurrentLookupsAreBitIdentical) {
  const auto bench = ode::make_acc_benchmark();
  const auto inner = std::make_shared<const reach::LinearVerifier>(
      bench.system, bench.spec);
  const reach::CachingVerifier cached(inner);

  constexpr std::size_t kControllers = 8;
  constexpr std::size_t kCalls = 64;
  std::vector<nn::LinearController> ctrls;
  std::vector<reach::Flowpipe> cold;
  for (std::size_t i = 0; i < kControllers; ++i) {
    ctrls.emplace_back(
        Mat{{0.1 + 0.05 * static_cast<double>(i), -0.4}});
    cold.push_back(inner->compute(bench.spec.x0, ctrls.back()));
  }

  // Concurrent mixed misses-and-hits over a handful of keys: every result
  // must equal the cold computation regardless of which thread populated
  // the entry (racing misses store identical values).
  std::vector<reach::Flowpipe> got(kCalls);
  parallel::parallel_for(4, kCalls, [&](std::size_t i) {
    got[i] = cached.compute(bench.spec.x0, ctrls[i % kControllers]);
  });
  for (std::size_t i = 0; i < kCalls; ++i) {
    expect_flowpipes_identical(cold[i % kControllers], got[i]);
  }

  const reach::CacheStats s = cached.cache()->stats();
  EXPECT_EQ(s.lookups(), kCalls);
  // At least one miss per distinct key; every other lookup may race, but
  // with 8 keys and 64 calls most must have hit.
  EXPECT_GE(s.misses, kControllers);
  EXPECT_GT(s.hits, 0u);
}

core::LearnResult learn_acc(
    bool cache, std::size_t threads,
    core::MetricKind metric = core::MetricKind::kGeometric) {
  const auto bench = ode::make_acc_benchmark();
  core::LearnerOptions opt;
  opt.metric = metric;
  opt.gradient = core::GradientMode::kSpsaAveraged;
  opt.spsa_samples = 4;
  opt.max_iters = 20;
  opt.step_size = 0.3;
  opt.perturbation = 0.05;
  opt.restarts = 2;
  opt.seed = 12;
  opt.threads = threads;
  opt.cache = cache;
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
    EXPECT_EQ(a.history[i].feasible, b.history[i].feasible);
    // Optionals: the recorded family must agree in presence and value.
    EXPECT_EQ(a.history[i].geo, b.history[i].geo) << "iter " << i;
    EXPECT_EQ(a.history[i].wass, b.history[i].wass) << "iter " << i;
  }
  expect_flowpipes_identical(a.final_flowpipe, b.final_flowpipe);
}

TEST(LearnerCache, CacheOnEqualsCacheOffBitwise) {
  const core::LearnResult off = learn_acc(false, 1);
  const core::LearnResult on = learn_acc(true, 1);
  expect_learn_results_identical(off, on);
  // d = 2 SPSA draws from only 2 distinct unordered probe pairs, so the
  // averaged samples must collide.
  EXPECT_GT(on.cache_stats.hits, 0u);
  EXPECT_EQ(off.cache_stats.lookups(), 0u);
}

TEST(LearnerCache, CachedParallelEqualsColdSerial) {
  expect_learn_results_identical(learn_acc(false, 1), learn_acc(true, 4));
}

TEST(LearnerCache, WassersteinCachedParallelEqualsColdSerial) {
  const auto w = core::MetricKind::kWasserstein;
  const core::LearnResult off = learn_acc(false, 1, w);
  const core::LearnResult on = learn_acc(true, 4, w);
  ASSERT_FALSE(off.history.empty());
  EXPECT_TRUE(off.history.front().wass.has_value());
  expect_learn_results_identical(off, on);
  EXPECT_GT(on.cache_stats.hits, 0u);
}

TEST(ZohCache, MemoizedDiscretizationMatchesDirect) {
  linalg::zoh_cache_reset();
  const Mat a{{0.0, 1.0}, {-2.0, -3.0}};
  const Mat b{{0.0}, {1.0}};
  const auto direct = linalg::discretize_zoh(a, b, 0.1);
  const auto first = linalg::discretize_zoh_cached(a, b, 0.1);
  const auto second = linalg::discretize_zoh_cached(a, b, 0.1);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(direct.ad.data()[i], first.ad.data()[i]);
    EXPECT_EQ(direct.ad.data()[i], second.ad.data()[i]);
  }
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(direct.bd.data()[i], first.bd.data()[i]);
    EXPECT_EQ(direct.bd.data()[i], second.bd.data()[i]);
  }
  const auto s = linalg::zoh_cache_stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
}

TEST(SymbolicPrefix, ReplayedChildPipeEnclosesSimulatedTrajectories) {
  auto bench = ode::make_oscillator_benchmark();
  const auto verifier = oscillator_tm_verifier(bench);
  const auto ctrl = oscillator_controller(9);

  const reach::TmComputeResult parent =
      verifier->compute_symbolic(bench.spec.x0, ctrl);
  ASSERT_TRUE(parent.fp.valid);
  ASSERT_NE(parent.prefix, nullptr);
  EXPECT_GT(parent.prefix->periods.size(), 0u);

  const auto [child, _] = bench.spec.x0.bisect();
  const reach::TmComputeResult replayed =
      verifier->compute_symbolic(child, ctrl, parent.prefix.get());
  const reach::Flowpipe cold = verifier->compute(child, ctrl);
  ASSERT_TRUE(replayed.fp.valid);
  ASSERT_TRUE(cold.valid);
  ASSERT_EQ(replayed.fp.step_sets.size(), cold.step_sets.size());

  // Soundness of the replay: closed-loop trajectories from the child box
  // must stay inside the replayed step sets at every control instant (the
  // slack only absorbs the RK4 reference's own discretization error).
  constexpr double kSlack = 1e-6;
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int sample = 0; sample < 10; ++sample) {
    Vec x0(child.dim());
    for (std::size_t i = 0; i < child.dim(); ++i) {
      x0[i] = child[i].lo() + unit(rng) * (child[i].hi() - child[i].lo());
    }
    const sim::Trace trace = sim::simulate(*bench.system, ctrl, x0,
                                           bench.spec.delta, bench.spec.steps);
    ASSERT_FALSE(trace.diverged);
    const std::size_t checked =
        std::min(trace.states.size(), replayed.fp.step_sets.size());
    for (std::size_t k = 0; k < checked; ++k) {
      const geom::Box& box = replayed.fp.step_sets[k];
      for (std::size_t i = 0; i < box.dim(); ++i) {
        EXPECT_GE(trace.states[k][i], box[i].lo() - kSlack)
            << "step " << k << " dim " << i;
        EXPECT_LE(trace.states[k][i], box[i].hi() + kSlack)
            << "step " << k << " dim " << i;
      }
    }
  }
}

TEST(SymbolicPrefix, InitialSetReuseIsThreadCountInvariantAndSound) {
  const auto bench = ode::make_acc_benchmark();
  const auto verifier = std::make_shared<const reach::TmVerifier>(
      bench.system, bench.spec, std::make_shared<reach::LinearAbstraction>(),
      reach::TmReachOptions{});
  // Mediocre controller so the search actually branches.
  const nn::LinearController mid(Mat{{0.45, -1.6}});

  core::InitialSetOptions serial_opt;
  serial_opt.max_depth = 2;
  serial_opt.threads = 1;
  serial_opt.reuse_parent_prefix = true;
  core::InitialSetOptions parallel_opt = serial_opt;
  parallel_opt.threads = 4;

  const core::InitialSetResult a =
      core::search_initial_set(*verifier, bench.spec, mid, serial_opt);
  const core::InitialSetResult b =
      core::search_initial_set(*verifier, bench.spec, mid, parallel_opt);

  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.verifier_calls, b.verifier_calls);
  ASSERT_EQ(a.certified.size(), b.certified.size());
  ASSERT_EQ(a.rejected.size(), b.rejected.size());
  for (std::size_t i = 0; i < a.certified.size(); ++i) {
    expect_boxes_identical(a.certified[i], b.certified[i]);
  }

  // Replay is conservative: every cell certified with reuse on must also
  // be certified by a cold (reuse-off) computation of that cell.
  for (const geom::Box& cell : a.certified) {
    const reach::Flowpipe fp = verifier->compute(cell, mid);
    const core::FlowpipeFacts facts = core::analyze_flowpipe(fp, bench.spec);
    EXPECT_TRUE(fp.valid && facts.goal_certified);
  }
}

}  // namespace
}  // namespace dwv
