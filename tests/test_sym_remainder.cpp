// Symbolic remainder queue suite (DESIGN.md §12): interval-matrix
// transport enclosures, queue mechanics (push/transport/overflow flush),
// Monte-Carlo soundness of queued flowpipes on the paper benchmarks,
// the queued-vs-conventional tightness guarantee, and bit-identity of
// concurrently computed cells under the queue.
// Runs under the `parallel` CTest label (threaded groups inside).
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "interval/lanes.hpp"
#include "nn/controller.hpp"
#include "ode/benchmarks.hpp"
#include "ode/expr_system.hpp"
#include "parallel/pool.hpp"
#include "reach/control_abstraction.hpp"
#include "reach/sym_remainder.hpp"
#include "reach/tm_flowpipe.hpp"
#include "sim/simulate.hpp"

namespace {

using namespace dwv;
using interval::Interval;
using interval::IVec;
using linalg::Mat;
using linalg::Vec;
using reach::Flowpipe;
using reach::TmReachOptions;
using reach::TmVerifier;
using reach::sym::IMat;
using reach::sym::SymRemainderQueue;

// --- interval matrix kernels ---------------------------------------------

TEST(ImatExp, ScalarMatchesExp) {
  IMat j(1);
  j.at(0, 0) = Interval(-0.7);
  IMat a;
  ASSERT_TRUE(reach::sym::imat_exp(j, Interval(0.5), 6, a));
  const double truth = std::exp(-0.7 * 0.5);
  EXPECT_TRUE(a.at(0, 0).contains(truth));
  EXPECT_LT(a.at(0, 0).width(), 1e-6);
}

TEST(ImatExp, IntervalTimeEnclosesAllPartialTimes) {
  IMat j(1);
  j.at(0, 0) = Interval(0.9);
  IMat a;
  ASSERT_TRUE(reach::sym::imat_exp(j, Interval(0.0, 0.4), 6, a));
  for (double t = 0.0; t <= 0.4; t += 0.05) {
    EXPECT_TRUE(a.at(0, 0).contains(std::exp(0.9 * t))) << t;
  }
}

TEST(ImatExp, RotationMatchesCosSin) {
  // J = [[0, -1], [1, 0]]: exp(tJ) = [[cos t, -sin t], [sin t, cos t]].
  IMat j(2);
  j.at(0, 1) = Interval(-1.0);
  j.at(1, 0) = Interval(1.0);
  IMat a;
  const double t = 0.3;
  ASSERT_TRUE(reach::sym::imat_exp(j, Interval(t), 8, a));
  EXPECT_TRUE(a.at(0, 0).contains(std::cos(t)));
  EXPECT_TRUE(a.at(0, 1).contains(-std::sin(t)));
  EXPECT_TRUE(a.at(1, 0).contains(std::sin(t)));
  EXPECT_TRUE(a.at(1, 1).contains(std::cos(t)));
  EXPECT_LT(a.at(0, 0).width(), 1e-5);
}

TEST(ImatExp, FailsWhenTailDiverges) {
  IMat j(1);
  j.at(0, 0) = Interval(100.0);
  IMat a;
  EXPECT_FALSE(reach::sym::imat_exp(j, Interval(1.0), 3, a));
}

TEST(ImatMul, PointMatricesMultiplyExactly) {
  IMat a(2), b(2);
  a.at(0, 0) = Interval(1.0);
  a.at(0, 1) = Interval(2.0);
  a.at(1, 0) = Interval(3.0);
  a.at(1, 1) = Interval(4.0);
  b.at(0, 0) = Interval(5.0);
  b.at(0, 1) = Interval(6.0);
  b.at(1, 0) = Interval(7.0);
  b.at(1, 1) = Interval(8.0);
  IMat c;
  reach::sym::imat_mul(a, b, c);
  EXPECT_TRUE(c.at(0, 0).contains(19.0));
  EXPECT_TRUE(c.at(1, 1).contains(50.0));
  EXPECT_LT(c.at(0, 0).width(), 1e-12);
}

// --- queue mechanics -----------------------------------------------------

TEST(SymQueue, PushTransportAndBox) {
  SymRemainderQueue q;
  q.reset(2, 100);
  EXPECT_TRUE(q.empty());

  q.push(IVec{Interval(-1.0, 1.0), Interval(0.0)});
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.box()[0].hi(), 1.0);

  // Rotate by 90 degrees: the deviation moves to the second component.
  IMat rot(2);
  rot.at(0, 1) = Interval(-1.0);
  rot.at(1, 0) = Interval(1.0);
  q.transport(rot);
  EXPECT_NEAR(q.box()[0].hi(), 0.0, 1e-12);
  EXPECT_NEAR(q.box()[1].hi(), 1.0, 1e-12);

  // A second entry accumulates additively in the box.
  q.push(IVec{Interval(-0.5, 0.5), Interval(0.0)});
  EXPECT_NEAR(q.box()[0].hi(), 0.5, 1e-12);
  EXPECT_NEAR(q.box()[1].hi(), 1.0, 1e-12);
}

TEST(SymQueue, OverflowFlushPreservesBox) {
  SymRemainderQueue q;
  q.reset(1, 3);
  for (int k = 0; k < 7; ++k) q.push(IVec{Interval(-0.125, 0.125)});
  // Capacity 3: pushes 4..7 each trigger a flush-to-single-entry first.
  EXPECT_LE(q.size(), 3u);
  EXPECT_GE(q.flushes(), 1u);
  EXPECT_NEAR(q.box()[0].hi(), 7 * 0.125, 1e-9);
  EXPECT_NEAR(q.box()[0].lo(), -7 * 0.125, 1e-9);
}

TEST(SymQueue, RotationQueueBeatsBoxTransport) {
  // The reason the queue exists: transporting a box through N rotations by
  // hulling after each one grows it by sqrt(2) per 45-degree turn, while
  // the matrix-product transport keeps the original radius (up to series
  // slack). 8 turns of 45 degrees = factor ~16 difference.
  const double phi = 0.25 * 3.14159265358979323846;
  IMat rot(2);
  rot.at(0, 0) = Interval(std::cos(phi));
  rot.at(0, 1) = Interval(-std::sin(phi));
  rot.at(1, 0) = Interval(std::sin(phi));
  rot.at(1, 1) = Interval(std::cos(phi));

  SymRemainderQueue q;
  q.reset(2, 100);
  q.push(IVec{Interval(-1.0, 1.0), Interval(-1.0, 1.0)});

  IVec boxed{Interval(-1.0, 1.0), Interval(-1.0, 1.0)};
  IVec tmp;
  for (int k = 0; k < 8; ++k) {
    q.transport(rot);
    reach::sym::imat_apply(rot, boxed, tmp);
    boxed = tmp;
  }
  EXPECT_LT(q.box()[0].hi(), 1.5);    // one matrix product: still ~sqrt(2)
  EXPECT_GT(boxed[0].hi(), 10.0);     // box transport wrapped 8 times
}

// --- queued flowpipes ----------------------------------------------------

nn::MlpController osc_mlp() {
  nn::MlpController ctrl({2, 6, 1}, 1.0, nn::Activation::kTanh,
                         nn::Activation::kTanh);
  std::mt19937_64 rng(13);
  ctrl.init_random(rng, 0.3);
  return ctrl;
}

TmVerifier osc_verifier(const ode::Benchmark& bench,
                        const TmReachOptions& opt) {
  return TmVerifier(bench.system, bench.spec,
                    std::make_shared<reach::PolarAbstraction>(), opt);
}

TmVerifier acc_verifier(const ode::Benchmark& bench,
                        const TmReachOptions& opt) {
  return TmVerifier(bench.system, bench.spec,
                    std::make_shared<reach::LinearAbstraction>(), opt);
}

void expect_contains_trajectories(const ode::Benchmark& bench,
                                  const nn::Controller& ctrl,
                                  const Flowpipe& fp, int trials,
                                  const char* tag) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < trials; ++trial) {
    const Vec x0 = bench.spec.x0.sample(rng);
    const sim::Trace tr =
        sim::simulate(*bench.system, ctrl, x0, bench.spec.delta,
                      bench.spec.steps, {.substeps = 16});
    for (std::size_t k = 0; k < tr.states.size() && k < fp.step_sets.size();
         ++k) {
      ASSERT_TRUE(fp.step_sets[k].contains(tr.states[k]))
          << tag << " trial " << trial << " step " << k;
    }
    for (std::size_t i = 0; i < tr.fine_states.size(); ++i) {
      const std::size_t k = std::min(i / 16, fp.interval_hulls.size() - 1);
      ASSERT_TRUE(fp.interval_hulls[k].contains(tr.fine_states[i]))
          << tag << " trial " << trial << " fine " << i;
    }
  }
}

TEST(SymRemainderFlowpipe, OscillatorQueuedIsSound) {
  auto bench = ode::make_oscillator_benchmark();
  bench.spec.steps = 12;
  bench.spec.stop_at_goal = false;
  const nn::MlpController ctrl = osc_mlp();
  for (std::size_t queue : {std::size_t{1}, std::size_t{4},
                            std::size_t{1000}}) {
    TmReachOptions opt;
    opt.symbolic_remainder = true;
    opt.sym_queue_size = queue;
    const TmVerifier v = osc_verifier(bench, opt);
    const Flowpipe fp = v.compute(bench.spec.x0, ctrl);
    ASSERT_TRUE(fp.valid) << "queue=" << queue << ": " << fp.failure;
    expect_contains_trajectories(bench, ctrl, fp, 10, "oscillator-queued");
  }
}

TEST(SymRemainderFlowpipe, AccQueuedIsSound) {
  auto bench = ode::make_acc_benchmark();
  bench.spec.steps = 12;
  bench.spec.stop_at_goal = false;
  const nn::LinearController ctrl(Mat{{0.5, -1.2}});
  TmReachOptions opt;
  opt.symbolic_remainder = true;
  const TmVerifier v = acc_verifier(bench, opt);
  const Flowpipe fp = v.compute(bench.spec.x0, ctrl);
  ASSERT_TRUE(fp.valid) << fp.failure;
  expect_contains_trajectories(bench, ctrl, fp, 10, "acc-queued");
}

// The tightness contract the bench reports on: with the queue on, the
// final enclosure is no wider than the conventional interval-remainder
// transport on both paper benchmarks.
TEST(SymRemainderFlowpipe, QueuedNoWiderThanConventional) {
  struct Case {
    const char* name;
    ode::Benchmark bench;
    std::shared_ptr<const nn::Controller> ctrl;
    bool linear_abs;
  };
  std::vector<Case> cases;
  {
    auto bench = ode::make_oscillator_benchmark();
    bench.spec.steps = 12;
    bench.spec.stop_at_goal = false;
    cases.push_back({"oscillator", bench,
                     std::make_shared<nn::MlpController>(osc_mlp()), false});
  }
  {
    auto bench = ode::make_acc_benchmark();
    bench.spec.steps = 12;
    bench.spec.stop_at_goal = false;
    cases.push_back({"acc", bench,
                     std::make_shared<nn::LinearController>(
                         Mat{{0.5, -1.2}}),
                     true});
  }
  for (const Case& c : cases) {
    TmReachOptions off;
    TmReachOptions on;
    on.symbolic_remainder = true;
    const TmVerifier v_off =
        c.linear_abs ? acc_verifier(c.bench, off) : osc_verifier(c.bench, off);
    const TmVerifier v_on =
        c.linear_abs ? acc_verifier(c.bench, on) : osc_verifier(c.bench, on);
    const Flowpipe f_off = v_off.compute(c.bench.spec.x0, *c.ctrl);
    const Flowpipe f_on = v_on.compute(c.bench.spec.x0, *c.ctrl);
    ASSERT_TRUE(f_off.valid) << c.name << ": " << f_off.failure;
    ASSERT_TRUE(f_on.valid) << c.name << ": " << f_on.failure;
    ASSERT_EQ(f_on.step_sets.size(), f_off.step_sets.size()) << c.name;
    const geom::Box& last_on = f_on.step_sets.back();
    const geom::Box& last_off = f_off.step_sets.back();
    for (std::size_t d = 0; d < last_on.dim(); ++d) {
      EXPECT_LE(last_on[d].width(), last_off[d].width())
          << c.name << " dim " << d;
    }
    // Engagement guard: on polynomial dynamics the queue must actually be
    // in play — bit-identical pipes would mean sym_on silently stayed off.
    bool any_diff = false;
    for (std::size_t k = 0; k < f_on.step_sets.size() && !any_diff; ++k) {
      for (std::size_t d = 0; d < f_on.step_sets[k].dim(); ++d) {
        if (f_on.step_sets[k][d].lo() != f_off.step_sets[k][d].lo() ||
            f_on.step_sets[k][d].hi() != f_off.step_sets[k][d].hi()) {
          any_diff = true;
          break;
        }
      }
    }
    EXPECT_TRUE(any_diff) << c.name << ": queued mode never engaged";
  }
}

// Expression-tree dynamics build their state Jacobian from the symbolic
// derivative trees (Expr::derivative + interval evaluation), so the queue
// engages instead of silently reproducing the conventional recurrence —
// the pre-fix behavior this test used to pin down.
TEST(SymRemainderFlowpipe, ExprDynamicsEngageTheQueue) {
  auto bench = ode::make_pendulum_benchmark();
  bench.spec.steps = 6;
  bench.spec.stop_at_goal = false;
  const nn::LinearController ctrl(Mat{{-1.0, -0.5}});
  TmReachOptions on;
  on.symbolic_remainder = true;
  const TmVerifier v_off(bench.system, bench.spec,
                         std::make_shared<reach::LinearAbstraction>(),
                         TmReachOptions{});
  const TmVerifier v_on(bench.system, bench.spec,
                        std::make_shared<reach::LinearAbstraction>(), on);
  const Flowpipe f_off = v_off.compute(bench.spec.x0, ctrl);
  const Flowpipe f_on = v_on.compute(bench.spec.x0, ctrl);
  ASSERT_TRUE(f_off.valid) << f_off.failure;
  ASSERT_TRUE(f_on.valid) << f_on.failure;
  ASSERT_EQ(f_off.step_sets.size(), f_on.step_sets.size());
  // Queued enclosures stay sound and no wider than conventional ones.
  const geom::Box& last_on = f_on.step_sets.back();
  const geom::Box& last_off = f_off.step_sets.back();
  for (std::size_t d = 0; d < last_on.dim(); ++d) {
    EXPECT_LE(last_on[d].width(), last_off[d].width()) << "dim " << d;
  }
  // Engagement guard: bit-identical pipes would mean the queue silently
  // stayed off for expression dynamics (the old bug).
  bool any_diff = false;
  for (std::size_t k = 0; k < f_on.step_sets.size() && !any_diff; ++k) {
    for (std::size_t d = 0; d < f_on.step_sets[k].dim(); ++d) {
      if (f_on.step_sets[k][d].lo() != f_off.step_sets[k][d].lo() ||
          f_on.step_sets[k][d].hi() != f_off.step_sets[k][d].hi()) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff) << "queue never engaged on expression dynamics";
}

// Queue-on and queue-off verifiers must never alias in a flowpipe cache.
TEST(SymRemainderFlowpipe, CacheSaltSeparatesQueueModes) {
  auto bench = ode::make_oscillator_benchmark();
  TmReachOptions on;
  on.symbolic_remainder = true;
  TmReachOptions on_small = on;
  on_small.sym_queue_size = 7;
  const TmVerifier v_off = osc_verifier(bench, TmReachOptions{});
  const TmVerifier v_on = osc_verifier(bench, on);
  const TmVerifier v_on_small = osc_verifier(bench, on_small);
  EXPECT_NE(v_off.cache_salt(), v_on.cache_salt());
  EXPECT_NE(v_on.cache_salt(), v_on_small.cache_salt());
}

// --- batched driver under the queue --------------------------------------

void expect_flowpipe_bits(const Flowpipe& a, const Flowpipe& b) {
  ASSERT_EQ(a.valid, b.valid);
  ASSERT_EQ(a.step_sets.size(), b.step_sets.size());
  for (std::size_t k = 0; k < a.step_sets.size(); ++k) {
    for (std::size_t d = 0; d < a.step_sets[k].dim(); ++d) {
      EXPECT_EQ(a.step_sets[k][d].lo(), b.step_sets[k][d].lo());
      EXPECT_EQ(a.step_sets[k][d].hi(), b.step_sets[k][d].hi());
    }
  }
  ASSERT_EQ(a.interval_hulls.size(), b.interval_hulls.size());
  for (std::size_t k = 0; k < a.interval_hulls.size(); ++k) {
    for (std::size_t d = 0; d < a.interval_hulls[k].dim(); ++d) {
      EXPECT_EQ(a.interval_hulls[k][d].lo(), b.interval_hulls[k][d].lo());
      EXPECT_EQ(a.interval_hulls[k][d].hi(), b.interval_hulls[k][d].hi());
    }
  }
}

// Restores the lane dispatch override on scope exit so a failing assertion
// cannot leak forced-scalar mode into later tests.
struct ForceScalarGuard {
  explicit ForceScalarGuard(bool on) { interval::lanes::set_force_scalar(on); }
  ~ForceScalarGuard() { interval::lanes::set_force_scalar(false); }
};

void batched_queue_matches_scalar(bool force_scalar) {
  ForceScalarGuard g(force_scalar);
  auto bench = ode::make_oscillator_benchmark();
  bench.spec.steps = 8;
  bench.spec.stop_at_goal = false;
  const nn::MlpController ctrl = osc_mlp();
  TmReachOptions opt;
  opt.symbolic_remainder = true;
  const TmVerifier v = osc_verifier(bench, opt);

  // 5 sibling cells.
  std::vector<geom::Box> cells;
  std::mt19937_64 rng(21);
  for (int c = 0; c < 5; ++c) {
    interval::IVec b(2);
    for (std::size_t d = 0; d < 2; ++d) {
      const Interval& dom = bench.spec.x0[d];
      const double w = dom.width();
      std::uniform_real_distribution<double> u(0.0, 0.7);
      const double a = dom.lo() + u(rng) * w;
      b[d] = Interval(a, a + 0.25 * w);
    }
    cells.emplace_back(b);
  }
  std::vector<Flowpipe> ref;
  for (const geom::Box& c : cells) ref.push_back(v.compute(c, ctrl));
  for (std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::vector<Flowpipe> got(cells.size());
    parallel::parallel_for(threads, cells.size(), [&](std::size_t i) {
      got[i] = v.compute(cells[i], ctrl);
    });
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_flowpipe_bits(got[i], ref[i]);
    }
  }
}

TEST(SymRemainderBatch, BatchedQueueMatchesScalarBitForBitSimd) {
  batched_queue_matches_scalar(false);
}

TEST(SymRemainderBatch, BatchedQueueMatchesScalarBitForBitForcedScalar) {
  batched_queue_matches_scalar(true);
}

}  // namespace
