// Adaptive step/order control suite (DESIGN.md §14): option validation,
// Monte-Carlo soundness of adaptive flowpipes on the paper benchmarks,
// bit-identical determinism of the adaptive schedule through BatchVerifier
// across thread counts and lane backends, the degenerate-controller no-op
// contract (an adaptive run pinned to the fixed grid reproduces the
// fixed-grid bits), schedule-tape replay for child cells, and the
// gradient engine's value-channel bit-identity under adaptation.
// Runs under the `parallel` CTest label (threaded groups inside).
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <vector>

#include "interval/lanes.hpp"
#include "nn/controller.hpp"
#include "ode/benchmarks.hpp"
#include "reach/batch.hpp"
#include "reach/control_abstraction.hpp"
#include "reach/grad_flowpipe.hpp"
#include "reach/step_control.hpp"
#include "reach/tm_flowpipe.hpp"
#include "sim/simulate.hpp"

namespace {

using namespace dwv;
using interval::Interval;
using linalg::Mat;
using linalg::Vec;
using reach::Flowpipe;
using reach::TmReachOptions;
using reach::TmVerifier;

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

void expect_flowpipe_bits(const Flowpipe& a, const Flowpipe& b) {
  ASSERT_EQ(a.valid, b.valid);
  ASSERT_EQ(a.step_sets.size(), b.step_sets.size());
  for (std::size_t k = 0; k < a.step_sets.size(); ++k) {
    for (std::size_t d = 0; d < a.step_sets[k].dim(); ++d) {
      EXPECT_EQ(a.step_sets[k][d].lo(), b.step_sets[k][d].lo())
          << "step " << k << " dim " << d;
      EXPECT_EQ(a.step_sets[k][d].hi(), b.step_sets[k][d].hi())
          << "step " << k << " dim " << d;
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

// --- option validation ----------------------------------------------------

TEST(AdaptiveOptions, DegenerateValuesThrow) {
  auto bench = ode::make_oscillator_benchmark();
  TmReachOptions bad_substeps;
  bad_substeps.substeps = 0;
  EXPECT_THROW(osc_verifier(bench, bad_substeps), std::invalid_argument);
  TmReachOptions bad_order;
  bad_order.order = 0;
  EXPECT_THROW(osc_verifier(bench, bad_order), std::invalid_argument);
}

TEST(AdaptiveOptions, NameAndCacheSaltReflectAdaptive) {
  auto bench = ode::make_oscillator_benchmark();
  TmReachOptions on;
  on.adaptive = true;
  TmReachOptions on_loose = on;
  on_loose.adaptive_rtol = 1e-1;
  const TmVerifier v_off = osc_verifier(bench, TmReachOptions{});
  const TmVerifier v_on = osc_verifier(bench, on);
  const TmVerifier v_loose = osc_verifier(bench, on_loose);
  EXPECT_EQ(v_off.name().find("adaptive"), std::string::npos);
  EXPECT_NE(v_on.name().find("adaptive"), std::string::npos);
  EXPECT_NE(v_off.cache_salt(), v_on.cache_salt());
  EXPECT_NE(v_on.cache_salt(), v_loose.cache_salt());
}

// --- soundness ------------------------------------------------------------

TEST(AdaptiveFlowpipe, OscillatorIsSound) {
  auto bench = ode::make_oscillator_benchmark();
  bench.spec.steps = 12;
  bench.spec.stop_at_goal = false;
  const nn::MlpController ctrl = osc_mlp();
  TmReachOptions opt;
  opt.adaptive = true;
  const TmVerifier v = osc_verifier(bench, opt);
  const Flowpipe fp = v.compute(bench.spec.x0, ctrl);
  ASSERT_TRUE(fp.valid) << fp.failure;
  EXPECT_GT(fp.tm_stats.substeps, 0u);
  expect_contains_trajectories(bench, ctrl, fp, 10, "oscillator-adaptive");
}

TEST(AdaptiveFlowpipe, AccIsSoundAndAdapts) {
  auto bench = ode::make_acc_benchmark();
  bench.spec.stop_at_goal = false;
  const nn::LinearController ctrl(Mat{{0.5, -1.2}});
  TmReachOptions opt;
  opt.adaptive = true;
  const TmVerifier v = acc_verifier(bench, opt);
  const Flowpipe fp = v.compute(bench.spec.x0, ctrl);
  ASSERT_TRUE(fp.valid) << fp.failure;
  expect_contains_trajectories(bench, ctrl, fp, 10, "acc-adaptive");
  // Engagement guard: on the full ACC horizon the controller must actually
  // vary the step — a constant schedule would mean adaptation silently
  // stayed off.
  EXPECT_GT(fp.tm_stats.h_max, fp.tm_stats.h_min);
  EXPECT_LT(fp.tm_stats.substeps,
            static_cast<std::size_t>(bench.spec.steps) * opt.substeps);
}

TEST(AdaptiveFlowpipe, SymbolicRemainderComposesWithAdaptive) {
  auto bench = ode::make_oscillator_benchmark();
  bench.spec.steps = 12;
  bench.spec.stop_at_goal = false;
  const nn::MlpController ctrl = osc_mlp();
  TmReachOptions opt;
  opt.adaptive = true;
  opt.symbolic_remainder = true;
  const TmVerifier v = osc_verifier(bench, opt);
  const Flowpipe fp = v.compute(bench.spec.x0, ctrl);
  ASSERT_TRUE(fp.valid) << fp.failure;
  expect_contains_trajectories(bench, ctrl, fp, 10, "oscillator-adaptive-sym");
}

// --- determinism across threads and lane backends ------------------------

// Restores the lane dispatch override on scope exit so a failing assertion
// cannot leak forced-scalar mode into later tests.
struct ForceScalarGuard {
  explicit ForceScalarGuard(bool on) { interval::lanes::set_force_scalar(on); }
  ~ForceScalarGuard() { interval::lanes::set_force_scalar(false); }
};

void adaptive_batch_matches_scalar(bool force_scalar) {
  ForceScalarGuard g(force_scalar);
  auto bench = ode::make_oscillator_benchmark();
  bench.spec.steps = 8;
  bench.spec.stop_at_goal = false;
  const nn::MlpController ctrl = osc_mlp();
  TmReachOptions opt;
  opt.adaptive = true;
  const TmVerifier v = osc_verifier(bench, opt);

  // 13 sibling cells.
  std::vector<geom::Box> cells;
  std::mt19937_64 rng(21);
  for (int c = 0; c < 13; ++c) {
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
    const reach::BatchVerifier bv(&v, 0, threads);
    const std::vector<Flowpipe> got = bv.compute(cells, ctrl);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(::testing::Message()
                   << "threads " << threads << " cell " << i);
      expect_flowpipe_bits(got[i], ref[i]);
      // Grouped cells must also replay the same schedule, not merely land
      // on the same boxes.
      EXPECT_EQ(got[i].tm_stats.substeps, ref[i].tm_stats.substeps);
      EXPECT_EQ(got[i].tm_stats.rejects, ref[i].tm_stats.rejects);
      EXPECT_EQ(got[i].tm_stats.order_escalations,
                ref[i].tm_stats.order_escalations);
    }
  }
}

TEST(AdaptiveDeterminism, BatchMatchesScalarBitForBitSimd) {
  adaptive_batch_matches_scalar(false);
}

TEST(AdaptiveDeterminism, BatchMatchesScalarBitForBitForcedScalar) {
  adaptive_batch_matches_scalar(true);
}

// --- degenerate controller = fixed grid, bit for bit ----------------------

// With the controller pinned so it can neither grow, shrink, nor change the
// order (one substep per period, a tolerance no defect exceeds, and a
// one-point order range), the adaptive driver must walk exactly the fixed
// grid and reproduce the default path's bits — the strongest in-tree form
// of the "adaptive off ⇒ unchanged" contract.
TEST(AdaptiveNoOp, PinnedControllerMatchesFixedGridBits) {
  auto bench = ode::make_oscillator_benchmark();
  bench.spec.steps = 10;
  bench.spec.stop_at_goal = false;
  const nn::MlpController ctrl = osc_mlp();
  TmReachOptions fixed;
  fixed.substeps = 1;
  TmReachOptions pinned = fixed;
  pinned.adaptive = true;
  pinned.adaptive_rtol = 1e9;
  pinned.adaptive_max_halvings = 0;
  pinned.adaptive_order_min = pinned.order;
  pinned.adaptive_order_max = pinned.order;
  const Flowpipe f_fixed =
      osc_verifier(bench, fixed).compute(bench.spec.x0, ctrl);
  const Flowpipe f_pinned =
      osc_verifier(bench, pinned).compute(bench.spec.x0, ctrl);
  ASSERT_TRUE(f_fixed.valid) << f_fixed.failure;
  ASSERT_TRUE(f_pinned.valid) << f_pinned.failure;
  expect_flowpipe_bits(f_pinned, f_fixed);
  EXPECT_EQ(f_pinned.tm_stats.substeps, f_fixed.tm_stats.substeps);
  EXPECT_EQ(f_pinned.tm_stats.rejects, 0u);
  EXPECT_EQ(f_pinned.tm_stats.order_escalations, 0u);
}

// --- fixed-grid failure path ---------------------------------------------

// The fixed grid is the controller's non-adaptive policy, and it has no
// retry: a substep whose remainder validation fails ends the pipe at once,
// at the base step, with nothing counted as a reject (the counter is part
// of the serialized pipe). Two inflation attempts are too few for the
// oscillator's Picard operator to contract within the horizon.
void fixed_grid_failure_stands(bool queue, std::size_t step_sets) {
  auto bench = ode::make_oscillator_benchmark();
  bench.spec.stop_at_goal = false;
  const nn::MlpController ctrl = osc_mlp();
  TmReachOptions opt;
  opt.substeps = 1;
  opt.max_inflations = 2;
  opt.symbolic_remainder = queue;
  const TmVerifier v = osc_verifier(bench, opt);
  const Flowpipe fp = v.compute(bench.spec.x0, ctrl);
  EXPECT_FALSE(fp.valid);
  EXPECT_EQ(fp.failure,
            "remainder validation failed (Picard operator not contracting)");
  EXPECT_EQ(fp.step_sets.size(), step_sets);
  EXPECT_EQ(fp.tm_stats.rejects, 0u);
  // substeps = 1: the base step is the whole control period.
  EXPECT_EQ(fp.tm_stats.h_min, 0.1);
  EXPECT_EQ(fp.tm_stats.h_max, 0.1);

  const std::vector<geom::Box> cells(3, bench.spec.x0);
  for (std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const reach::BatchVerifier bv(&v, 0, threads);
    const std::vector<Flowpipe> got = bv.compute(cells, ctrl);
    ASSERT_EQ(got.size(), cells.size());
    for (const Flowpipe& g : got) {
      expect_flowpipe_bits(g, fp);
      EXPECT_EQ(g.failure, fp.failure);
      EXPECT_EQ(g.tm_stats.substeps, fp.tm_stats.substeps);
      EXPECT_EQ(g.tm_stats.rejects, 0u);
    }
  }
}

TEST(FixedGridFailure, FailsAtBaseStepWithoutRejects) {
  fixed_grid_failure_stands(/*queue=*/false, 17);
}

TEST(FixedGridFailure, QueueOnFailsAtBaseStepWithoutRejects) {
  fixed_grid_failure_stands(/*queue=*/true, 14);
}

// --- schedule-tape replay for child cells ---------------------------------

TEST(AdaptiveTape, ChildReplaysParentScheduleAndStaysSound) {
  auto bench = ode::make_oscillator_benchmark();
  bench.spec.steps = 8;
  bench.spec.stop_at_goal = false;
  const nn::MlpController ctrl = osc_mlp();
  TmReachOptions opt;
  opt.adaptive = true;
  opt.symbolic_remainder = true;
  const TmVerifier v = osc_verifier(bench, opt);

  const auto parent = v.compute_symbolic(bench.spec.x0, ctrl);
  ASSERT_TRUE(parent.fp.valid) << parent.fp.failure;
  ASSERT_NE(parent.prefix, nullptr);
  // The parent recorded a non-empty (h, order) tape for every period.
  ASSERT_FALSE(parent.prefix->periods.empty());
  for (const auto& period : parent.prefix->periods) {
    ASSERT_EQ(period.h.size(), period.tube.size());
    ASSERT_EQ(period.order.size(), period.tube.size());
  }

  // A child quadrant of x0, replayed from the parent's recorded models.
  interval::IVec half(2);
  for (std::size_t d = 0; d < 2; ++d) {
    const Interval& dom = bench.spec.x0[d];
    half[d] = Interval(dom.lo(), dom.mid());
  }
  geom::Box child(half);
  ode::Benchmark child_bench = bench;
  child_bench.spec.x0 = child;
  const auto replayed = v.compute_symbolic(child, ctrl, parent.prefix.get());
  ASSERT_TRUE(replayed.fp.valid) << replayed.fp.failure;
  expect_contains_trajectories(child_bench, ctrl, replayed.fp, 10,
                               "adaptive-child-replay");
  // The replayed prefix carries the parent's tape forward verbatim, so a
  // grandchild replays the same schedule.
  ASSERT_NE(replayed.prefix, nullptr);
  const std::size_t shared =
      std::min(replayed.prefix->periods.size(), parent.prefix->periods.size());
  ASSERT_GT(shared, 0u);
  for (std::size_t p = 0; p < shared; ++p) {
    const auto& pp = parent.prefix->periods[p];
    const auto& cp = replayed.prefix->periods[p];
    ASSERT_EQ(cp.h.size(), pp.h.size()) << "period " << p;
    for (std::size_t s = 0; s < pp.h.size(); ++s) {
      EXPECT_EQ(cp.h[s], pp.h[s]) << "period " << p << " sub " << s;
      EXPECT_EQ(cp.order[s], pp.order[s]) << "period " << p << " sub " << s;
    }
  }
}

// --- gradient dual pass ---------------------------------------------------

TEST(AdaptiveGradient, DualPassReproducesAdaptiveValueBits) {
  auto bench = ode::make_acc_benchmark();
  bench.spec.steps = 12;
  bench.spec.stop_at_goal = false;
  const nn::LinearController ctrl(Mat{{0.5, -1.2}});
  TmReachOptions opt;
  opt.adaptive = true;
  const TmVerifier v = acc_verifier(bench, opt);
  ASSERT_EQ(reach::TmGradient::unsupported_reason(v, ctrl), nullptr);
  const Flowpipe fp = v.compute(bench.spec.x0, ctrl);
  ASSERT_TRUE(fp.valid) << fp.failure;
  const reach::TmGradient g(v);
  const reach::GradFlowpipe gfp = g.compute(bench.spec.x0, ctrl);
  ASSERT_TRUE(gfp.fp.valid) << gfp.fp.failure;
  expect_flowpipe_bits(gfp.fp, fp);
  // The dual pass derives the identical schedule, not merely the same
  // boxes: every controller decision is a function of value-channel bits.
  EXPECT_EQ(gfp.fp.tm_stats.substeps, fp.tm_stats.substeps);
  EXPECT_EQ(gfp.fp.tm_stats.rejects, fp.tm_stats.rejects);
  EXPECT_EQ(gfp.fp.tm_stats.order_escalations,
            fp.tm_stats.order_escalations);
  EXPECT_EQ(gfp.fp.tm_stats.h_min, fp.tm_stats.h_min);
  EXPECT_EQ(gfp.fp.tm_stats.h_max, fp.tm_stats.h_max);
}

}  // namespace
