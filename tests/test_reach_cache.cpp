// Flowpipe cache tests (CTest label: parallel; the TSan preset runs this
// suite). The contract under test: a cache hit returns bit-for-bit what
// recomputation would — at any thread count — plus the counter and
// eviction behavior of DESIGN.md §8.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "core/learner.hpp"
#include "linalg/expm.hpp"
#include "ode/benchmarks.hpp"
#include "parallel/pool.hpp"
#include "reach/cache.hpp"
#include "reach/interval_reach.hpp"
#include "reach/linear_reach.hpp"
#include "reach/tm_flowpipe.hpp"

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

TEST(FlowpipeCache, IntervalVerifiersOverDifferentSpecsDoNotAlias) {
  // Same name ("interval-euler"), same (x0, theta) key: only cache_salt()
  // tells the two horizons apart in a shared cache.
  const auto bench = ode::make_acc_benchmark();
  ode::ReachAvoidSpec short_spec = bench.spec;
  short_spec.steps = 50;
  ode::ReachAvoidSpec long_spec = bench.spec;
  long_spec.steps = 100;
  const auto short_iv = std::make_shared<const reach::IntervalVerifier>(
      bench.system, short_spec, reach::IntervalReachOptions{});
  const auto long_iv = std::make_shared<const reach::IntervalVerifier>(
      bench.system, long_spec, reach::IntervalReachOptions{});
  EXPECT_NE(short_iv->cache_salt(), long_iv->cache_salt());
  const auto cache = std::make_shared<reach::FlowpipeCache>();
  const reach::CachingVerifier short_cv(short_iv, cache);
  const reach::CachingVerifier long_cv(long_iv, cache);
  const nn::LinearController ctrl(Mat{{0.5, -1.2}});

  const reach::Flowpipe short_cold = short_iv->compute(bench.spec.x0, ctrl);
  const reach::Flowpipe long_cold = long_iv->compute(bench.spec.x0, ctrl);
  // The horizons give different pipes, so an aliased hit would show.
  EXPECT_NE(short_cold.step_sets.size(), long_cold.step_sets.size());
  for (int round = 0; round < 2; ++round) {
    expect_flowpipes_identical(long_cv.compute(bench.spec.x0, ctrl),
                               long_cold);
    expect_flowpipes_identical(short_cv.compute(bench.spec.x0, ctrl),
                               short_cold);
  }
  // The first round misses twice; the second hits each verifier's own pipe.
  const reach::CacheStats s = cache->stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.insertions, 2u);
}

TEST(FlowpipeCache, TmVerifiersOverDifferentOptionsDoNotAlias) {
  // Same name and spec; only reinit_rem_fraction differs, which changes
  // the pipe. The salt must tell the two apart in a shared cache, while
  // default options keep the salt they always had.
  const auto bench = ode::make_acc_benchmark();
  reach::TmReachOptions no_reinit;
  no_reinit.reinit_rem_fraction = 0.0;
  const auto make = [&](const reach::TmReachOptions& opt) {
    return std::make_shared<const reach::TmVerifier>(
        bench.system, bench.spec, std::make_shared<reach::LinearAbstraction>(),
        opt);
  };
  const auto base = make(reach::TmReachOptions{});
  const auto other = make(no_reinit);
  EXPECT_EQ(base->name(), other->name());
  EXPECT_NE(base->cache_salt(), other->cache_salt());
  EXPECT_EQ(base->cache_salt(), make(reach::TmReachOptions{})->cache_salt());

  const auto cache = std::make_shared<reach::FlowpipeCache>();
  const reach::CachingVerifier base_cv(base, cache);
  const reach::CachingVerifier other_cv(other, cache);
  const nn::LinearController ctrl(Mat{{0.5, -1.2}});
  const reach::Flowpipe base_cold = base->compute(bench.spec.x0, ctrl);
  const reach::Flowpipe other_cold = other->compute(bench.spec.x0, ctrl);
  // The options give different pipes, so an aliased hit would show.
  ASSERT_NE(base_cold.tm_stats.reinits, other_cold.tm_stats.reinits);
  expect_flowpipes_identical(base_cv.compute(bench.spec.x0, ctrl), base_cold);
  const reach::Flowpipe got = other_cv.compute(bench.spec.x0, ctrl);
  expect_flowpipes_identical(got, other_cold);
  EXPECT_EQ(got.tm_stats.reinits, other_cold.tm_stats.reinits);
  EXPECT_EQ(cache->stats().misses, 2u);
  EXPECT_EQ(cache->stats().hits, 0u);
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

}  // namespace
}  // namespace dwv
