// Differential suite for the lane-batched verification engine (DESIGN.md
// section 11): every batched path must reproduce the scalar path bit for
// bit — flowpipes across ragged batch widths, SIMD vs forced-scalar
// dispatch, the work-stealing frontier vs a serial breadth-first oracle,
// batched SPSA probes in the learner, grouped subdivision cells, and the
// cache-aware batch stat sequence. Runs under the `parallel` CTest label
// so the TSan preset also races the deque and the work-stealing runner.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/initial_set.hpp"
#include "core/learner.hpp"
#include "core/verdict.hpp"
#include "interval/lanes.hpp"
#include "nn/controller.hpp"
#include "ode/benchmarks.hpp"
#include "ode/expr_system.hpp"
#include "parallel/pool.hpp"
#include "parallel/work_steal.hpp"
#include "plantless_verifier.hpp"
#include "poly/range_engine.hpp"
#include "reach/batch.hpp"
#include "reach/cache.hpp"
#include "reach/control_abstraction.hpp"
#include "reach/interval_reach.hpp"
#include "reach/linear_reach.hpp"
#include "reach/serialize.hpp"
#include "reach/subdivide.hpp"
#include "reach/tm_flowpipe.hpp"

namespace {

using namespace dwv;
using interval::Interval;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_box_eq(const geom::Box& a, const geom::Box& b) {
  ASSERT_EQ(a.dim(), b.dim());
  for (std::size_t d = 0; d < a.dim(); ++d) {
    EXPECT_EQ(bits(a[d].lo()), bits(b[d].lo()));
    EXPECT_EQ(bits(a[d].hi()), bits(b[d].hi()));
  }
}

void expect_boxes_eq(const std::vector<geom::Box>& a,
                     const std::vector<geom::Box>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_box_eq(a[i], b[i]);
}

void expect_flowpipe_eq(const reach::Flowpipe& a, const reach::Flowpipe& b) {
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.failure, b.failure);
  expect_boxes_eq(a.step_sets, b.step_sets);
  expect_boxes_eq(a.interval_hulls, b.interval_hulls);
}

void expect_result_eq(const core::InitialSetResult& a,
                      const core::InitialSetResult& b) {
  expect_boxes_eq(a.certified, b.certified);
  expect_boxes_eq(a.rejected, b.rejected);
  EXPECT_EQ(bits(a.coverage), bits(b.coverage));
  EXPECT_EQ(a.verifier_calls, b.verifier_calls);
}

// Restores the lane dispatch override on scope exit so a failing assertion
// cannot leak forced-scalar mode into later tests.
struct ForceScalarGuard {
  explicit ForceScalarGuard(bool on) { interval::lanes::set_force_scalar(on); }
  ~ForceScalarGuard() { interval::lanes::set_force_scalar(false); }
};

// Varied, non-symmetric sub-boxes of x0 (the batched call sites always see
// sibling cells, but the kernels must not rely on that).
std::vector<geom::Box> varied_cells(const geom::Box& x0, std::size_t count) {
  std::vector<geom::Box> cells;
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (std::size_t c = 0; c < count; ++c) {
    interval::IVec v(x0.dim());
    for (std::size_t d = 0; d < x0.dim(); ++d) {
      const double w = x0[d].width();
      double a = x0[d].lo() + 0.8 * w * u(rng);
      double b = a + 0.05 * w + 0.15 * w * u(rng);
      v[d] = Interval(a, std::min(b, x0[d].hi()));
    }
    cells.emplace_back(v);
  }
  return cells;
}

nn::LinearController acc_gain() {
  linalg::Mat k(1, 2);
  k(0, 0) = 0.5;
  k(0, 1) = -1.2;
  return nn::LinearController(k);
}

nn::MlpController osc_mlp() {
  nn::MlpController ctrl({2, 8, 1}, 1.0);
  linalg::Vec p(ctrl.param_count());
  for (std::size_t i = 0; i < p.size(); ++i)
    p[i] = 0.1 * std::sin(1.0 + 2.7 * static_cast<double>(i));
  ctrl.set_params(p);
  return ctrl;
}

// --- SoA range kernel ----------------------------------------------------

// Exactly the naive_range operation chain, per lane, in scalar arithmetic.
Interval scalar_naive_range(const poly::Poly& p,
                            const std::vector<Interval>& dom) {
  const std::size_t n = p.nvars();
  Interval s(0.0);
  for (const auto& t : p.terms()) {
    Interval m(t.coeff);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t e = poly::key_exp(t.key, n, i);
      if (e > 0) m *= interval::pow_n(dom[i], e);
    }
    s += m;
  }
  return s;
}

void range_lanes_roundtrip() {
  constexpr std::size_t kW = poly::RangeLanes::kWidth;
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> coeff(-2.0, 2.0);
  std::uniform_real_distribution<double> dom(-1.5, 1.5);
  for (std::size_t nvars : {1ul, 2ul, 3ul, 4ul}) {
    poly::Poly p(nvars);
    for (int t = 0; t < 9; ++t) {
      poly::Exponents e(nvars);
      for (auto& x : e) x = static_cast<std::uint32_t>(rng() % 4);
      p.add_term(e, coeff(rng));
    }
    std::vector<double> lo(nvars * kW), hi(nvars * kW);
    std::vector<std::vector<Interval>> doms(kW,
                                            std::vector<Interval>(nvars));
    for (std::size_t v = 0; v < nvars; ++v) {
      for (std::size_t k = 0; k < kW; ++k) {
        double a = dom(rng), b = dom(rng);
        if (a > b) std::swap(a, b);
        lo[v * kW + k] = a;
        hi[v * kW + k] = b;
        doms[k][v] = Interval(a, b);
      }
    }
    poly::RangeLanes lanes;
    lanes.bind(lo.data(), hi.data(), nvars);
    std::vector<double> out_lo(kW), out_hi(kW);
    lanes.eval(p, out_lo.data(), out_hi.data());
    for (std::size_t k = 0; k < kW; ++k) {
      const Interval ref = scalar_naive_range(p, doms[k]);
      EXPECT_EQ(bits(ref.lo()), bits(out_lo[k])) << "nvars " << nvars;
      EXPECT_EQ(bits(ref.hi()), bits(out_hi[k])) << "lane " << k;
    }
  }
}

TEST(RangeLanes, MatchesScalarNaiveRangeSimd) {
  ForceScalarGuard g(false);
  range_lanes_roundtrip();
}

TEST(RangeLanes, MatchesScalarNaiveRangeForcedScalar) {
  ForceScalarGuard g(true);
  EXPECT_STREQ(interval::lanes::active_ops().name, "scalar");
  range_lanes_roundtrip();
}

// --- BatchVerifier vs scalar compute -------------------------------------

void batch_matches_scalar(bool force_scalar) {
  ForceScalarGuard g(force_scalar);
  const auto bm = ode::make_acc_benchmark();
  const auto ctrl = acc_gain();
  const reach::IntervalVerifier v(bm.system, bm.spec, {});
  for (std::size_t count : {1ul, 3ul, 4ul, 13ul}) {
    const std::vector<geom::Box> cells = varied_cells(bm.spec.x0, count);
    std::vector<reach::Flowpipe> ref;
    for (const geom::Box& c : cells) ref.push_back(v.compute(c, ctrl));
    const reach::BatchVerifier bv(&v, 0);
    ASSERT_TRUE(bv.batched());
    const std::vector<reach::Flowpipe> got = bv.compute(cells, ctrl);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      expect_flowpipe_eq(got[i], ref[i]);
  }
}

TEST(BatchVerifier, FlowpipesBitIdenticalSimd) { batch_matches_scalar(false); }

TEST(BatchVerifier, FlowpipesBitIdenticalForcedScalar) {
  batch_matches_scalar(true);
}

TEST(BatchVerifier, MlpControllerLanesMatchScalar) {
  const auto bm = ode::make_oscillator_benchmark();
  const auto ctrl = osc_mlp();
  const reach::IntervalVerifier v(bm.system, bm.spec, {});
  const std::vector<geom::Box> cells = varied_cells(bm.spec.x0, 7);
  std::vector<reach::Flowpipe> ref;
  for (const geom::Box& c : cells) ref.push_back(v.compute(c, ctrl));
  const reach::BatchVerifier bv(&v, 0);
  const std::vector<reach::Flowpipe> got = bv.compute(cells, ctrl);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    expect_flowpipe_eq(got[i], ref[i]);
}

TEST(BatchVerifier, LinearVerifierSharedMapHoist) {
  const auto bm = ode::make_acc_benchmark();
  const auto ctrl = acc_gain();
  const reach::LinearVerifier v(bm.system, bm.spec);
  const std::vector<geom::Box> cells = varied_cells(bm.spec.x0, 6);
  std::vector<reach::Flowpipe> ref;
  for (const geom::Box& c : cells) ref.push_back(v.compute(c, ctrl));
  const reach::BatchVerifier bv(&v, 4);
  ASSERT_TRUE(bv.batched());
  const std::vector<reach::Flowpipe> got = bv.compute(cells, ctrl);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    expect_flowpipe_eq(got[i], ref[i]);
}

TEST(BatchVerifier, WidthOneFallsBackToScalarPath) {
  const auto bm = ode::make_acc_benchmark();
  const auto ctrl = acc_gain();
  const reach::IntervalVerifier v(bm.system, bm.spec, {});
  const reach::BatchVerifier bv(&v, 1);
  EXPECT_FALSE(bv.batched());
  EXPECT_EQ(bv.batch(), 1u);
  const std::vector<geom::Box> cells = varied_cells(bm.spec.x0, 3);
  const std::vector<reach::Flowpipe> got = bv.compute(cells, ctrl);
  for (std::size_t i = 0; i < cells.size(); ++i)
    expect_flowpipe_eq(got[i], v.compute(cells[i], ctrl));
}

// Callers parallelize above the batch; a thread count is rejected.
TEST(BatchVerifier, ThreadsOtherThanOneThrow) {
  const auto bm = ode::make_acc_benchmark();
  const reach::IntervalVerifier v(bm.system, bm.spec, {});
  EXPECT_NO_THROW(reach::BatchVerifier(&v, 0, 1));
  EXPECT_THROW(reach::BatchVerifier(&v, 0, 0), std::invalid_argument);
  EXPECT_THROW(reach::BatchVerifier(&v, 0, 2), std::invalid_argument);
}

// Cache-aware batching must reproduce the sequential lookup/insert stat
// sequence — including intra-batch duplicates, which a scalar loop scores
// as hits of the first occurrence's insert.
TEST(BatchVerifier, CacheStatsMatchScalarSequence) {
  const auto bm = ode::make_acc_benchmark();
  const auto ctrl = acc_gain();
  std::vector<geom::Box> cells = varied_cells(bm.spec.x0, 5);
  cells.push_back(cells[1]);  // intra-batch duplicate
  cells.push_back(cells[3]);

  const auto make = [&]() {
    return reach::CachingVerifier(
        std::make_shared<reach::IntervalVerifier>(
            bm.system, bm.spec, reach::IntervalReachOptions{}),
        reach::FlowpipeCache::Config{});
  };

  const auto scalar_cv = make();
  std::vector<reach::Flowpipe> ref;
  for (const geom::Box& c : cells) ref.push_back(scalar_cv.compute(c, ctrl));
  const reach::CacheStats sref = scalar_cv.cache()->stats();

  const auto batch_cv = make();
  const reach::BatchVerifier bv(&batch_cv, 4);
  ASSERT_TRUE(bv.batched());
  const std::vector<reach::Flowpipe> got = bv.compute(cells, ctrl);
  const reach::CacheStats sgot = batch_cv.cache()->stats();

  for (std::size_t i = 0; i < ref.size(); ++i)
    expect_flowpipe_eq(got[i], ref[i]);
  EXPECT_EQ(sgot.hits, sref.hits);
  EXPECT_EQ(sgot.misses, sref.misses);
  EXPECT_EQ(sgot.insertions, sref.insertions);
  EXPECT_EQ(sgot.evictions, sref.evictions);
}

// --- BatchVerifier over TmVerifier vs scalar compute ---------------------

reach::TmVerifier osc_tm_verifier(const ode::Benchmark& bm,
                                  const reach::TmReachOptions& opt = {}) {
  return reach::TmVerifier(bm.system, bm.spec,
                           std::make_shared<reach::PolarAbstraction>(), opt);
}

// The cells computed concurrently on `threads` pool threads, one
// index-addressed slot per cell.
std::vector<reach::Flowpipe> compute_on_threads(
    const reach::Verifier& v, const std::vector<geom::Box>& cells,
    const nn::Controller& ctrl, std::size_t threads) {
  std::vector<reach::Flowpipe> out(cells.size());
  parallel::parallel_for(threads, cells.size(), [&](std::size_t i) {
    out[i] = v.compute(cells[i], ctrl);
  });
  return out;
}

// Per-cell compute of every cell, then the same cells through BatchVerifier
// (which runs TM cells one by one) and concurrently at 1, 2 and 4 threads:
// every pipe must match its per-cell run bit for bit. Returns the per-cell
// pipes.
std::vector<reach::Flowpipe> expect_tm_batch_matches_scalar(
    const reach::TmVerifier& v, const std::vector<geom::Box>& cells,
    const nn::Controller& ctrl) {
  std::vector<reach::Flowpipe> ref;
  for (const geom::Box& c : cells) ref.push_back(v.compute(c, ctrl));
  const reach::BatchVerifier bv(&v, 0);
  EXPECT_FALSE(bv.batched());
  const std::vector<reach::Flowpipe> seq = bv.compute(cells, ctrl);
  EXPECT_EQ(seq.size(), ref.size());
  for (std::size_t i = 0; i < ref.size() && i < seq.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "BatchVerifier cell " << i);
    expect_flowpipe_eq(seq[i], ref[i]);
  }
  for (std::size_t threads : {1ul, 2ul, 4ul}) {
    const std::vector<reach::Flowpipe> got =
        compute_on_threads(v, cells, ctrl, threads);
    EXPECT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size() && i < got.size(); ++i) {
      SCOPED_TRACE(::testing::Message()
                   << "threads " << threads << " cell " << i);
      expect_flowpipe_eq(got[i], ref[i]);
    }
  }
  return ref;
}

void tm_batch_matches_scalar(bool force_scalar, bool symbolic_remainder) {
  ForceScalarGuard g(force_scalar);
  auto bm = ode::make_oscillator_benchmark();
  bm.spec.steps = 6;
  bm.spec.stop_at_goal = false;
  const auto ctrl = osc_mlp();
  reach::TmReachOptions opt;
  opt.symbolic_remainder = symbolic_remainder;
  const reach::TmVerifier v = osc_tm_verifier(bm, opt);
  for (std::size_t count : {1ul, 3ul, 4ul, 13ul}) {
    expect_tm_batch_matches_scalar(v, varied_cells(bm.spec.x0, count), ctrl);
  }
}

TEST(TmBatch, FlowpipesBitIdenticalSimd) {
  tm_batch_matches_scalar(false, false);
}

TEST(TmBatch, FlowpipesBitIdenticalForcedScalar) {
  tm_batch_matches_scalar(true, false);
}

TEST(TmBatch, FlowpipesBitIdenticalSymbolicRemainder) {
  tm_batch_matches_scalar(false, true);
}

// The thread count must not change bits: cells land in index-addressed
// slots regardless of which thread integrates them.
TEST(TmBatch, ThreadCountBitIdentical) {
  auto bm = ode::make_oscillator_benchmark();
  bm.spec.steps = 6;
  bm.spec.stop_at_goal = false;
  const auto ctrl = osc_mlp();
  expect_tm_batch_matches_scalar(osc_tm_verifier(bm),
                                 varied_cells(bm.spec.x0, 9), ctrl);
}

// A goal-stopped cell ends after one period in the middle of the group:
// its short flowpipe must survive, and every neighbor must stay
// byte-identical to the scalar runs.
TEST(TmBatch, EarlyRetiredCellDoesNotClobberNeighbors) {
  auto bm = ode::make_oscillator_benchmark();
  bm.spec.steps = 6;
  bm.spec.stop_at_goal = true;
  const auto ctrl = osc_mlp();
  std::vector<geom::Box> cells = varied_cells(bm.spec.x0, 6);
  // Goal = [-0.05,0.05]^2: this cell stops at the first period.
  cells.insert(cells.begin() + 2,
               geom::Box{Interval(-0.01, 0.01), Interval(-0.01, 0.01)});
  const std::vector<reach::Flowpipe> ref =
      expect_tm_batch_matches_scalar(osc_tm_verifier(bm), cells, ctrl);
  EXPECT_LT(ref[2].step_sets.size(), ref[0].step_sets.size());
}

// Restart-budget exhaustion mid-horizon: with a tightened divergence
// bound, some cells die partway through the horizon while neighbors
// finish. The dead cell's partial flowpipe (the PR 1 final_flowpipe
// guard) and every survivor must match the scalar rerun bit for bit.
TEST(TmBatch, ExhaustedCellMidHorizonMatchesScalar) {
  auto bm = ode::make_oscillator_benchmark();
  bm.spec.steps = 8;
  bm.spec.stop_at_goal = false;
  const auto ctrl = osc_mlp();
  // Mixed positions: the x0-corner cells reach the 0.7 divergence bound
  // mid-horizon (step ~4); the origin-adjacent cells (Van der Pol grows
  // slowly near the unstable equilibrium) survive the full 8 steps.
  const std::vector<geom::Box> cells{
      geom::Box{Interval(-0.51, -0.49), Interval(0.49, 0.51)},
      geom::Box{Interval(-0.02, -0.01), Interval(0.01, 0.02)},
      geom::Box{Interval(-0.50, -0.495), Interval(0.50, 0.505)},
      geom::Box{Interval(0.015, 0.025), Interval(-0.02, -0.01)},
      geom::Box{Interval(-0.05, -0.04), Interval(0.04, 0.05)},
  };
  reach::TmReachOptions opt;
  opt.divergence_bound = 0.7;
  const std::vector<reach::Flowpipe> ref =
      expect_tm_batch_matches_scalar(osc_tm_verifier(bm, opt), cells, ctrl);
  // The mixed scenario must actually occur (a cell dying mid-horizon next
  // to survivors) or the guard proves nothing.
  bool any_invalid_mid = false, any_valid = false;
  for (const reach::Flowpipe& fp : ref) {
    if (!fp.valid && fp.step_sets.size() > 1) any_invalid_mid = true;
    if (fp.valid) any_valid = true;
  }
  EXPECT_TRUE(any_invalid_mid && any_valid);
}

// BatchVerifier over a caching TM verifier at a capacity SMALLER than the
// batch, with intra-batch duplicate keys: the scalar lookup/insert/evict
// stat transcript must be replayed exactly (the dropped-fallback bugfix),
// and concurrent computes through the cache must return the same pipes at
// every thread count.
TEST(TmBatch, CacheStatsMatchScalarAtSmallCapacity) {
  auto bm = ode::make_oscillator_benchmark();
  bm.spec.steps = 5;
  bm.spec.stop_at_goal = false;
  const auto ctrl = osc_mlp();
  std::vector<geom::Box> cells = varied_cells(bm.spec.x0, 5);
  cells.push_back(cells[1]);  // intra-batch duplicate
  cells.push_back(cells[3]);

  const auto make = [&]() {
    reach::FlowpipeCache::Config cfg;
    cfg.capacity = 2;  // smaller than the batch width below
    cfg.shards = 1;
    return reach::CachingVerifier(
        std::make_shared<reach::TmVerifier>(
            bm.system, bm.spec, std::make_shared<reach::PolarAbstraction>(),
            reach::TmReachOptions{}),
        cfg);
  };

  const auto scalar_cv = make();
  std::vector<reach::Flowpipe> ref;
  for (const geom::Box& c : cells) ref.push_back(scalar_cv.compute(c, ctrl));
  const reach::CacheStats sref = scalar_cv.cache()->stats();
  EXPECT_GT(sref.evictions, 0u);

  const auto batch_cv = make();
  const reach::BatchVerifier bv(&batch_cv, 4);
  ASSERT_FALSE(bv.batched());
  const std::vector<reach::Flowpipe> got = bv.compute(cells, ctrl);
  const reach::CacheStats sgot = batch_cv.cache()->stats();
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    expect_flowpipe_eq(got[i], ref[i]);
  EXPECT_EQ(sgot.hits, sref.hits);
  EXPECT_EQ(sgot.misses, sref.misses);
  EXPECT_EQ(sgot.insertions, sref.insertions);
  EXPECT_EQ(sgot.evictions, sref.evictions);

  for (std::size_t threads : {1ul, 2ul, 4ul}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    const auto cv = make();
    const std::vector<reach::Flowpipe> par =
        compute_on_threads(cv, cells, ctrl, threads);
    ASSERT_EQ(par.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      expect_flowpipe_eq(par[i], ref[i]);
  }
}

// Expression-tree dynamics are not replay-safe: the TM driver must keep
// the full remainder channel live for them and still match scalar.
TEST(TmBatch, ExprDynamicsBatchMatchesScalar) {
  auto bm = ode::make_pendulum_benchmark();
  bm.spec.steps = 5;
  bm.spec.stop_at_goal = false;
  const nn::LinearController ctrl(linalg::Mat{{-1.0, -0.5}});
  const reach::TmVerifier v(bm.system, bm.spec,
                            std::make_shared<reach::LinearAbstraction>(),
                            reach::TmReachOptions{});
  expect_tm_batch_matches_scalar(v, varied_cells(bm.spec.x0, 5), ctrl);
}

// --- golden bits of every TM batch entry point ----------------------------

std::uint64_t pipes_digest(const std::vector<reach::Flowpipe>& fps) {
  reach::ser::Writer w;
  for (const reach::Flowpipe& fp : fps) reach::ser::put(w, fp);
  return reach::ser::checksum64(w.bytes().data(), w.bytes().size());
}

// Oscillator cells for the pinned runs: varied sub-boxes plus one cell
// inside the goal, which stops after its first period.
std::vector<geom::Box> pinned_osc_cells(const geom::Box& x0) {
  std::vector<geom::Box> cells = varied_cells(x0, 7);
  cells.insert(cells.begin() + 3,
               geom::Box{Interval(-0.01, 0.01), Interval(-0.01, 0.01)});
  return cells;
}

// The oscillator POLAR verifier: the serialized pipes of a fixed-grid, an
// adaptive and a queue-on run, through BatchVerifier and concurrently at 1
// and 2 threads, must keep these bits (and equal the per-cell compute
// bits).
TEST(TmBatchBits, BatchVerifierDigestsPinned) {
  auto bm = ode::make_oscillator_benchmark();
  bm.spec.steps = 8;
  const auto ctrl = osc_mlp();
  const std::vector<geom::Box> cells = pinned_osc_cells(bm.spec.x0);
  struct Case {
    const char* name;
    reach::TmReachOptions opt;
    std::uint64_t golden;
  };
  reach::TmReachOptions adaptive;
  adaptive.adaptive = true;
  reach::TmReachOptions queue;
  queue.symbolic_remainder = true;
  const std::vector<Case> cases{{"fixed", {}, 0xaeee26fcb1d7cbfcULL},
                                {"adaptive", adaptive, 0x2ebaf99a5c489318ULL},
                                {"queue", queue, 0x800234229efef451ULL}};
  for (const Case& c : cases) {
    const reach::TmVerifier v = osc_tm_verifier(bm, c.opt);
    std::vector<reach::Flowpipe> ref;
    for (const geom::Box& b : cells) ref.push_back(v.compute(b, ctrl));
    ASSERT_LT(ref[3].step_sets.size(), ref[0].step_sets.size()) << c.name;
    EXPECT_EQ(pipes_digest(ref), c.golden)
        << c.name << " scalar: 0x" << std::hex << pipes_digest(ref) << "ULL";
    const reach::BatchVerifier bv(&v, 0);
    const std::uint64_t seq = pipes_digest(bv.compute(cells, ctrl));
    EXPECT_EQ(seq, c.golden) << c.name << " BatchVerifier: 0x" << std::hex
                             << seq << "ULL";
    for (std::size_t threads : {1ul, 2ul}) {
      const std::uint64_t got =
          pipes_digest(compute_on_threads(v, cells, ctrl, threads));
      EXPECT_EQ(got, c.golden) << c.name << " threads " << threads << ": 0x"
                               << std::hex << got << "ULL";
    }
  }
}

// The same through a CachingVerifier at capacity 2 with duplicate keys:
// pipes and the hit/miss/insertion/eviction transcript are pinned.
TEST(TmBatchBits, CachingBatchDigestsPinned) {
  auto bm = ode::make_oscillator_benchmark();
  bm.spec.steps = 6;
  bm.spec.stop_at_goal = false;
  const auto ctrl = osc_mlp();
  std::vector<geom::Box> cells = varied_cells(bm.spec.x0, 5);
  cells.push_back(cells[1]);
  cells.push_back(cells[3]);
  cells.push_back(cells[1]);
  reach::FlowpipeCache::Config cfg;
  cfg.capacity = 2;
  cfg.shards = 1;
  const reach::CachingVerifier cv(
      std::make_shared<reach::TmVerifier>(
          bm.system, bm.spec, std::make_shared<reach::PolarAbstraction>(),
          reach::TmReachOptions{}),
      cfg);
  const reach::BatchVerifier bv(&cv, 4);
  const std::uint64_t got = pipes_digest(bv.compute(cells, ctrl));
  EXPECT_EQ(got, 0xf52f24d611f3bcdaULL) << "0x" << std::hex << got << "ULL";
  const reach::CacheStats s = cv.cache()->stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 7u);
  EXPECT_EQ(s.insertions, 7u);
  EXPECT_EQ(s.evictions, 5u);
}

// SubdividingVerifier over TM: the merged pipe at every batch width.
TEST(TmBatchBits, SubdivideDigestPinned) {
  auto bm = ode::make_oscillator_benchmark();
  bm.spec.steps = 6;
  const auto ctrl = osc_mlp();
  for (std::size_t batch : {0ul, 1ul, 3ul}) {
    for (std::size_t threads : {1ul, 2ul}) {
      reach::SubdivideOptions so;
      so.cells_per_dim = 3;
      so.threads = threads;
      so.batch = batch;
      const reach::SubdividingVerifier sv(
          std::make_shared<reach::TmVerifier>(
              bm.system, bm.spec, std::make_shared<reach::PolarAbstraction>(),
              reach::TmReachOptions{}),
          so);
      const std::uint64_t got =
          pipes_digest({sv.compute(bm.spec.x0, ctrl)});
      EXPECT_EQ(got, 0xc8c3ae74e71233e6ULL) << "batch " << batch << " threads " << threads
                             << ": 0x" << std::hex << got << "ULL";
    }
  }
}

// --- work-stealing search vs a serial breadth-first oracle ---------------

// Algorithm 2 as a serial breadth-first queue, one verifier call per cell:
// the reference the work-stealing frontier must reproduce bit for bit
// (certified/rejected lists and the coverage sum in breadth-first order,
// the call count).
core::InitialSetResult bfs_search(const reach::Verifier& v,
                                  const ode::ReachAvoidSpec& spec,
                                  const nn::Controller& ctrl,
                                  const core::InitialSetOptions& opt) {
  struct Cell {
    geom::Box box;
    std::size_t depth;
  };
  core::InitialSetResult res;
  double certified_volume = 0.0;
  std::deque<Cell> queue;
  queue.push_back({spec.x0, 0});
  while (!queue.empty()) {
    Cell cell = std::move(queue.front());
    queue.pop_front();
    const reach::Flowpipe fp = v.compute(cell.box, ctrl);
    ++res.verifier_calls;
    const core::FlowpipeFacts facts = core::analyze_flowpipe(fp, spec);
    const bool safe_ok = !opt.check_safety || facts.safe_certified;
    if (fp.valid && safe_ok && facts.goal_certified) {
      certified_volume += cell.box.volume();
      res.certified.push_back(cell.box);
    } else if (cell.depth < opt.max_depth) {
      auto [lo, hi] = cell.box.bisect();
      queue.push_back({std::move(lo), cell.depth + 1});
      queue.push_back({std::move(hi), cell.depth + 1});
    } else {
      res.rejected.push_back(cell.box);
    }
  }
  const double total_volume = spec.x0.volume();
  res.coverage = total_volume > 0.0 ? certified_volume / total_volume : 0.0;
  return res;
}

// Every cell of the acc_gain() trees below holds a counterexample, so a
// search over a plant-naming verifier would skip all of them. The
// plant-less wrapper keeps the frontier calling the verifier on each cell,
// but it also hides the verifier's type from BatchVerifier, which then
// computes cell by cell. The mixed tree below, where the centre rollouts
// spare the inner cells, keeps the raw interval and caching verifiers on
// their lane and cache-replay paths.

// ACC with X0 widened 3x around its centre under the gain (0.8, -2.75):
// the outer cells are falsified, the inner ones are verified.
ode::ReachAvoidSpec mixed_acc_spec(ode::ReachAvoidSpec spec) {
  for (std::size_t d = 0; d < spec.x0.dim(); ++d) {
    const double c = 0.5 * (spec.x0[d].lo() + spec.x0[d].hi());
    const double h = 1.5 * (spec.x0[d].hi() - spec.x0[d].lo());
    spec.x0[d] = Interval(c - h, c + h);
  }
  return spec;
}

nn::LinearController mixed_acc_gain() {
  return nn::LinearController(linalg::Mat{{0.8, -2.75}});
}

// Searches the mixed tree through `v` at batch 3 on 4 threads and expects
// the result of batch 1 on 1 thread.
void expect_mixed_batch_invariant(const reach::Verifier& v,
                                  const ode::ReachAvoidSpec& spec) {
  core::InitialSetOptions serial;
  serial.max_depth = 6;
  serial.threads = 1;
  serial.batch = 1;
  const auto ref = core::search_initial_set(v, spec, mixed_acc_gain(), serial);
  EXPECT_GT(ref.verifier_calls, 0u);
  EXPECT_GT(ref.falsified, 0u);
  core::InitialSetOptions wide = serial;
  wide.threads = 4;
  wide.batch = 3;
  expect_result_eq(core::search_initial_set(v, spec, mixed_acc_gain(), wide),
                   ref);
}

TEST(WorkStealSearch, MatchesLevelSynchronousSearch) {
  const auto bm = ode::make_acc_benchmark();
  const auto ctrl = acc_gain();
  const reach::IntervalVerifier iv(bm.system, bm.spec, {});
  const test::PlantlessVerifier v(iv);
  core::InitialSetOptions base;
  base.max_depth = 4;
  const auto ref = bfs_search(v, bm.spec, ctrl, base);
  EXPECT_GT(ref.verifier_calls, 1u);
  for (std::size_t threads : {1ul, 4ul}) {
    for (std::size_t batch : {0ul, 1ul, 3ul}) {
      core::InitialSetOptions o = base;
      o.threads = threads;
      o.batch = batch;
      const auto got = core::search_initial_set(v, bm.spec, ctrl, o);
      expect_result_eq(got, ref);
    }
  }
}

TEST(WorkStealSearch, ForcedScalarDispatchSameResult) {
  ForceScalarGuard g(true);
  const auto bm = ode::make_acc_benchmark();
  const auto ctrl = acc_gain();
  const reach::IntervalVerifier iv(bm.system, bm.spec, {});
  const test::PlantlessVerifier v(iv);
  core::InitialSetOptions base;
  base.max_depth = 3;
  const auto ref = bfs_search(v, bm.spec, ctrl, base);
  core::InitialSetOptions o = base;
  o.threads = 4;
  const auto got = core::search_initial_set(v, bm.spec, ctrl, o);
  expect_result_eq(got, ref);

  const auto mixed = mixed_acc_spec(bm.spec);
  expect_mixed_batch_invariant(reach::IntervalVerifier(bm.system, mixed, {}),
                               mixed);
}

TEST(WorkStealSearch, CachingVerifierStatsMatch) {
  const auto bm = ode::make_acc_benchmark();
  const auto ctrl = acc_gain();
  const auto make = [&]() {
    return reach::CachingVerifier(
        std::make_shared<reach::IntervalVerifier>(
            bm.system, bm.spec, reach::IntervalReachOptions{}),
        reach::FlowpipeCache::Config{});
  };
  core::InitialSetOptions base;
  base.max_depth = 4;
  const auto ref_cv = make();
  const auto ref = bfs_search(test::PlantlessVerifier(ref_cv), bm.spec, ctrl,
                              base);
  const reach::CacheStats sref = ref_cv.cache()->stats();
  for (std::size_t threads : {1ul, 4ul}) {
    const auto cv = make();
    core::InitialSetOptions o = base;
    o.threads = threads;
    const auto got = core::search_initial_set(test::PlantlessVerifier(cv),
                                              bm.spec, ctrl, o);
    expect_result_eq(got, ref);
    const reach::CacheStats s = cv.cache()->stats();
    EXPECT_EQ(s.hits, sref.hits);
    EXPECT_EQ(s.misses, sref.misses);
    EXPECT_EQ(s.insertions, sref.insertions);
  }

  // The raw caching verifier on the mixed tree: the frontier replays the
  // cache transcript of each batch group.
  const auto mixed = mixed_acc_spec(bm.spec);
  const auto make_mixed = [&]() {
    return reach::CachingVerifier(
        std::make_shared<reach::IntervalVerifier>(
            bm.system, mixed, reach::IntervalReachOptions{}),
        reach::FlowpipeCache::Config{});
  };
  const auto serial_cv = make_mixed();
  const auto wide_cv = make_mixed();
  core::InitialSetOptions serial;
  serial.max_depth = 6;
  serial.threads = 1;
  serial.batch = 1;
  core::InitialSetOptions wide = serial;
  wide.threads = 4;
  wide.batch = 3;
  const auto mref =
      core::search_initial_set(serial_cv, mixed, mixed_acc_gain(), serial);
  EXPECT_GT(mref.verifier_calls, 0u);
  expect_result_eq(
      core::search_initial_set(wide_cv, mixed, mixed_acc_gain(), wide), mref);
  const reach::CacheStats a = serial_cv.cache()->stats();
  const reach::CacheStats b = wide_cv.cache()->stats();
  EXPECT_EQ(a.misses, mref.verifier_calls);
  EXPECT_EQ(b.hits, a.hits);
  EXPECT_EQ(b.misses, a.misses);
  EXPECT_EQ(b.insertions, a.insertions);
}

// --- learner: batched SPSA probes ----------------------------------------

TEST(LearnerBatch, BatchedProbesBitIdentical) {
  const auto bm = ode::make_acc_benchmark();
  for (const bool cache : {false, true}) {
    linalg::Vec ref_params;
    std::size_t ref_calls = 0;
    reach::CacheStats ref_stats;
    for (const std::size_t batch : {1ul, 0ul}) {
      core::LearnerOptions lo;
      lo.max_iters = 5;
      lo.restarts = 1;
      lo.threads = 1;
      lo.gradient = core::GradientMode::kSpsaAveraged;
      lo.spsa_samples = 3;
      lo.batch = batch;
      lo.cache = cache;
      const core::Learner learner(
          std::make_shared<reach::IntervalVerifier>(
              bm.system, bm.spec, reach::IntervalReachOptions{}),
          bm.spec, lo);
      auto ctrl = acc_gain();
      const core::LearnResult r = learner.learn(ctrl);
      if (batch == 1) {
        ref_params = ctrl.params();
        ref_calls = r.verifier_calls;
        ref_stats = r.cache_stats;
      } else {
        const linalg::Vec got = ctrl.params();
        ASSERT_EQ(got.size(), ref_params.size());
        for (std::size_t i = 0; i < got.size(); ++i)
          EXPECT_EQ(bits(got[i]), bits(ref_params[i])) << "cache " << cache;
        EXPECT_EQ(r.verifier_calls, ref_calls);
        EXPECT_EQ(r.cache_stats.hits, ref_stats.hits);
        EXPECT_EQ(r.cache_stats.misses, ref_stats.misses);
      }
    }
  }
}

// --- subdivision: grouped cells ------------------------------------------

TEST(SubdivideBatch, GroupedCellsBitIdentical) {
  const auto bm = ode::make_acc_benchmark();
  const auto ctrl = acc_gain();
  reach::Flowpipe ref;
  for (const std::size_t batch : {1ul, 0ul, 3ul}) {
    reach::SubdivideOptions so;
    so.cells_per_dim = 3;
    so.threads = 1;
    so.batch = batch;
    const reach::SubdividingVerifier sv(
        std::make_shared<reach::IntervalVerifier>(
            bm.system, bm.spec, reach::IntervalReachOptions{}),
        so);
    const reach::Flowpipe fp = sv.compute(bm.spec.x0, ctrl);
    if (batch == 1) ref = fp;
    else expect_flowpipe_eq(fp, ref);
  }
}

// --- work-stealing deque -------------------------------------------------

TEST(WorkStealDeque, OwnerLifoThiefFifo) {
  parallel::WorkStealDeque<int> dq(4);  // forces ring growth
  for (int i = 0; i < 40; ++i) dq.push(i);
  int v = -1;
  ASSERT_TRUE(dq.steal(v));
  EXPECT_EQ(v, 0);  // thief takes the oldest
  ASSERT_TRUE(dq.pop(v));
  EXPECT_EQ(v, 39);  // owner takes the newest
  int remaining = 0;
  while (dq.pop(v)) ++remaining;
  EXPECT_EQ(remaining, 38);
  EXPECT_FALSE(dq.pop(v));
  EXPECT_FALSE(dq.steal(v));
}

// Full runner under contention: a spawn tree whose total node count is
// known; every node must be processed exactly once across all workers.
TEST(WorkStealRun, ProcessesEveryNodeExactlyOnce) {
  constexpr std::uint64_t kDepth = 12;
  std::atomic<std::uint64_t> processed{0};
  const std::vector<std::uint64_t> roots{1};
  parallel::work_steal_run<std::uint64_t>(
      4, roots,
      [&](std::uint64_t node,
          parallel::WorkStealContext<std::uint64_t>& ctx) {
        processed.fetch_add(1, std::memory_order_relaxed);
        // node encodes its heap index; leaves at depth kDepth.
        if (node < (1u << kDepth)) {
          ctx.spawn(2 * node);
          ctx.spawn(2 * node + 1);
        }
      });
  // Complete binary tree with 2^(kDepth+1)-1 nodes.
  EXPECT_EQ(processed.load(), (1u << (kDepth + 1)) - 1);
}

// try_pop (the lane-batch widener) must count against pending exactly like
// regularly popped items — otherwise the runner would hang or exit early.
TEST(WorkStealRun, TryPopDrainsOwnDeque) {
  std::atomic<std::uint64_t> processed{0};
  const std::vector<std::uint64_t> roots{1, 2, 3, 4, 5};
  parallel::work_steal_run<std::uint64_t>(
      3, roots,
      [&](std::uint64_t node,
          parallel::WorkStealContext<std::uint64_t>& ctx) {
        // Drained items bypass the runner, so the body must process them
        // itself — exactly what the lane-batch widener in
        // search_initial_set does with try_pop'd siblings.
        const auto process = [&](std::uint64_t n) {
          processed.fetch_add(1, std::memory_order_relaxed);
          if (n < 64) {
            ctx.spawn(n * 16);
            ctx.spawn(n * 16 + 1);
          }
        };
        process(node);
        std::uint64_t extra = 0;
        while (ctx.try_pop(extra)) process(extra);
      });
  // 5 roots, each spawning a small tree; exact count depends on the
  // values, so recompute: nodes < 64 spawn two children.
  std::uint64_t expect = 0;
  std::vector<std::uint64_t> stack(roots.begin(), roots.end());
  while (!stack.empty()) {
    const std::uint64_t n = stack.back();
    stack.pop_back();
    ++expect;
    if (n < 64) {
      stack.push_back(n * 16);
      stack.push_back(n * 16 + 1);
    }
  }
  EXPECT_EQ(processed.load(), expect);
}

}  // namespace
