// Sampled-data simulator tests. Besides the accuracy and verdict checks,
// this file holds the simulator's bit-identity oracles (DESIGN.md §17):
// the Vec-temporary RK4 formula and the Trace-based reach-avoid verdict
// that the library used before it integrated in place and streamed the
// Monte-Carlo verdict. simulate() must reproduce the former bit for bit,
// evaluate_trace() the latter, and monte_carlo_rates() a reference loop of
// simulate() + evaluate_trace() field for field, with no per-substep heap
// allocation.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <random>

#include <gtest/gtest.h>

#include "ode/benchmarks.hpp"
#include "ode/expr_system.hpp"
#include "ode/reachnn_suite.hpp"
#include "ode/systems.hpp"
#include "sim/monte_carlo.hpp"
#include "sim/simulate.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: every path through operator new bumps it, so a
// test can bound the heap allocations of a code region.
// ---------------------------------------------------------------------------

std::atomic<std::size_t> g_alloc_count{0};

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void* operator new(std::size_t n, std::align_val_t al) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n ? n : 1) != 0)
    throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dwv::sim {
namespace {

using interval::Interval;
using linalg::Mat;
using linalg::Vec;

// x' = -x has the exact solution x0 e^{-t}; RK4 at h=0.1 is ~1e-9 accurate.
class DecaySystem final : public ode::System {
 public:
  std::string name() const override { return "decay"; }
  std::size_t state_dim() const override { return 1; }
  std::size_t input_dim() const override { return 1; }
  void f_into(const double* x, const double* u, double* dx) const override {
    dx[0] = -x[0] + u[0];
  }
  Mat dfdx(const Vec&, const Vec&) const override { return Mat{{-1.0}}; }
  Mat dfdu(const Vec&, const Vec&) const override { return Mat{{1.0}}; }
  std::vector<poly::Poly> poly_dynamics() const override {
    poly::Poly p(2);
    p.add_term({1, 0}, -1.0);
    p.add_term({0, 1}, 1.0);
    return {p};
  }
};

class ZeroController final : public nn::Controller {
 public:
  std::string describe() const override { return "zero"; }
  std::size_t state_dim() const override { return 1; }
  std::size_t input_dim() const override { return 1; }
  Vec act(const Vec&) const override { return Vec{0.0}; }
  Vec params() const override { return Vec{}; }
  void set_params(const Vec&) override {}
  std::unique_ptr<nn::Controller> clone() const override {
    return std::make_unique<ZeroController>();
  }
};

// --------------------------------------------------------------- oracles ---

// The Vec-temporary RK4 step the simulator used before it integrated in
// place: every expression allocates, and the operation order below is the
// contract rk4_step_into keeps.
Vec oracle_rk4_step(const ode::System& sys, const Vec& x, const Vec& u,
                    double dt) {
  const Vec k1 = sys.f(x, u);
  const Vec k2 = sys.f(x + 0.5 * dt * k1, u);
  const Vec k3 = sys.f(x + 0.5 * dt * k2, u);
  const Vec k4 = sys.f(x + dt * k3, u);
  return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
}

// The former simulate loop over oracle_rk4_step.
Trace oracle_simulate(const ode::System& sys, const nn::Controller& ctrl,
                      const Vec& x0, double delta, std::size_t steps,
                      const SimOptions& opt) {
  Trace tr;
  tr.delta = delta;
  Vec x = x0;
  tr.states.push_back(x);
  tr.fine_states.push_back(x);
  const double h = delta / static_cast<double>(opt.substeps);
  for (std::size_t i = 0; i < steps; ++i) {
    const Vec u = ctrl.act(x);
    tr.inputs.push_back(u);
    for (std::size_t k = 0; k < opt.substeps; ++k) {
      x = oracle_rk4_step(sys, x, u, h);
      if (!x.all_finite() || x.norm_inf() > opt.divergence_bound) {
        tr.diverged = true;
        tr.fine_states.push_back(x);
        tr.states.push_back(x);
        return tr;
      }
      tr.fine_states.push_back(x);
    }
    tr.states.push_back(x);
  }
  return tr;
}

// The former Trace-based verdict: goal at control instants, safety over
// the fine states, cut at the reach time under stop-at-goal semantics.
TraceVerdict oracle_evaluate_trace(const Trace& trace,
                                   const ode::ReachAvoidSpec& spec) {
  TraceVerdict v;
  if (trace.diverged) return v;
  for (std::size_t i = 0; i < trace.states.size(); ++i) {
    if (spec.goal.contains(trace.states[i])) {
      v.reached = true;
      v.reach_step = i;
      break;
    }
  }
  std::size_t fine_limit = trace.fine_states.size();
  if (spec.stop_at_goal && v.reached && trace.states.size() > 1) {
    const std::size_t substeps =
        (trace.fine_states.size() - 1) / (trace.states.size() - 1);
    fine_limit = std::min(fine_limit, v.reach_step * substeps + 1);
  }
  v.safe = true;
  for (std::size_t i = 0; i < fine_limit; ++i) {
    if (spec.unsafe.contains(trace.fine_states[i])) {
      v.safe = false;
      break;
    }
  }
  return v;
}

// Monte-Carlo rates as a loop of simulate() + evaluate_trace(), each trace
// also checked against the oracle verdict.
McStats reference_mc(const ode::System& sys, const nn::Controller& ctrl,
                     const ode::ReachAvoidSpec& spec, std::size_t samples,
                     std::uint64_t seed, const SimOptions& opt) {
  std::mt19937_64 rng(seed);
  McStats st;
  st.samples = samples;
  std::size_t safe = 0;
  std::size_t reached = 0;
  double reach_steps = 0.0;
  for (std::size_t i = 0; i < samples; ++i) {
    const Vec x0 = spec.x0.sample(rng);
    const Trace tr = simulate(sys, ctrl, x0, spec.delta, spec.steps, opt);
    const TraceVerdict v = evaluate_trace(tr, spec);
    const TraceVerdict o = oracle_evaluate_trace(tr, spec);
    EXPECT_EQ(v.safe, o.safe);
    EXPECT_EQ(v.reached, o.reached);
    EXPECT_EQ(v.reach_step, o.reach_step);
    if (v.safe) ++safe;
    if (v.reached) {
      ++reached;
      reach_steps += static_cast<double>(v.reach_step);
    }
  }
  st.safe_rate = static_cast<double>(safe) / static_cast<double>(samples);
  st.goal_rate = static_cast<double>(reached) / static_cast<double>(samples);
  st.mean_reach_step =
      reached ? reach_steps / static_cast<double>(reached) : 0.0;
  return st;
}

bool same_bits(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void expect_same_states(const std::vector<Vec>& a, const std::vector<Vec>& b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(same_bits(a[i], b[i])) << what << " #" << i << ": " << a[i]
                                       << " vs " << b[i];
  }
}

void expect_same_stats(const McStats& got, const McStats& want) {
  EXPECT_EQ(got.samples, want.samples);
  EXPECT_EQ(got.safe_rate, want.safe_rate);
  EXPECT_EQ(got.goal_rate, want.goal_rate);
  EXPECT_EQ(got.mean_reach_step, want.mean_reach_step);
}

// Random linear gain K (m x n) with entries uniform in [-scale, scale].
nn::LinearController random_gain(std::size_t n, std::size_t m,
                                 std::mt19937_64& rng, double scale) {
  std::uniform_real_distribution<double> d(-scale, scale);
  Mat k(m, n);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c) k(r, c) = d(rng);
  return nn::LinearController(k);
}

// ACC, Van der Pol, B1-B4, 3-D (= B5) and the expression-tree pendulum.
std::vector<ode::Benchmark> all_simulated_systems() {
  std::vector<ode::Benchmark> out = ode::make_reachnn_suite();
  out.push_back(ode::make_acc_benchmark());
  out.push_back(ode::make_oscillator_benchmark());
  out.push_back(ode::make_pendulum_benchmark());
  return out;
}

// Goal [0.4, 0.6] on the way from x0 ~ 1 down into Xu = [-10, 0.2].
ode::ReachAvoidSpec decay_through_goal_spec() {
  ode::ReachAvoidSpec spec;
  spec.x0 = geom::Box{Interval(0.9, 1.1)};
  spec.goal = geom::Box{Interval(0.4, 0.6)};
  spec.unsafe = geom::Box{Interval(-10.0, 0.2)};
  spec.goal_dims = {0};
  spec.unsafe_dims = {0};
  spec.delta = 0.2;
  spec.steps = 30;
  spec.state_bounds = geom::Box{Interval(-20.0, 20.0)};
  return spec;
}

// ----------------------------------------------------------------- tests ---

TEST(Rk4, MatchesExponentialDecay) {
  const DecaySystem sys;
  Vec x{1.0};
  const Vec u{0.0};
  for (int i = 0; i < 10; ++i) x = rk4_step(sys, x, u, 0.1);
  // RK4 global error is O(h^4): ~1e-7 at h = 0.1 over unit time.
  EXPECT_NEAR(x[0], std::exp(-1.0), 1e-6);
}

TEST(Rk4, FWrapsFInto) {
  for (const ode::Benchmark& b : all_simulated_systems()) {
    const ode::System& sys = *b.system;
    const Vec x = b.spec.x0.center();
    const Vec u(sys.input_dim(), 0.3);
    Vec dx(sys.state_dim());
    sys.f_into(x.data(), u.data(), dx.data());
    EXPECT_TRUE(same_bits(sys.f(x, u), dx)) << b.name;
  }
}

TEST(Simulate, TraceShapes) {
  const DecaySystem sys;
  const ZeroController ctrl;
  SimOptions opt;
  opt.substeps = 4;
  const Trace tr = simulate(sys, ctrl, Vec{2.0}, 0.1, 20, opt);
  EXPECT_EQ(tr.states.size(), 21u);
  EXPECT_EQ(tr.inputs.size(), 20u);
  EXPECT_EQ(tr.fine_states.size(), 81u);
  EXPECT_FALSE(tr.diverged);
  EXPECT_NEAR(tr.states.back()[0], 2.0 * std::exp(-2.0), 1e-7);
}

TEST(Simulate, DetectsDivergence) {
  // x' = +x^3-ish blowup via a controller pushing hard: use unstable gain.
  const ode::VanDerPolSystem sys;
  nn::LinearController ctrl(Mat{{50.0, 50.0}});
  const Trace tr =
      simulate(sys, ctrl, Vec{1.0, 1.0}, 0.1, 200, {.substeps = 2});
  EXPECT_TRUE(tr.diverged);
}

// (a) The in-place RK4 loop reproduces the Vec-temporary formula bit for
// bit on every simulated system: paper systems, ReachNN B1-B4 and the
// expression-tree pendulum, with random gains (some runs diverge).
TEST(Simulate, MatchesVecTemporaryRk4BitForBit) {
  std::mt19937_64 rng(2024);
  std::size_t diverged = 0;
  std::size_t runs = 0;
  for (const ode::Benchmark& b : all_simulated_systems()) {
    const ode::System& sys = *b.system;
    for (const double scale : {0.5, 3.0, 40.0}) {
      const nn::LinearController ctrl =
          random_gain(sys.state_dim(), sys.input_dim(), rng, scale);
      for (const std::size_t substeps : {1u, 3u, 8u}) {
        const SimOptions opt{.substeps = substeps};
        const Vec x0 = b.spec.x0.sample(rng);
        const Trace got =
            simulate(sys, ctrl, x0, b.spec.delta, b.spec.steps, opt);
        const Trace want =
            oracle_simulate(sys, ctrl, x0, b.spec.delta, b.spec.steps, opt);
        SCOPED_TRACE(b.name + " scale " + std::to_string(scale) +
                     " substeps " + std::to_string(substeps));
        EXPECT_EQ(got.diverged, want.diverged);
        EXPECT_EQ(got.delta, want.delta);
        expect_same_states(got.states, want.states, "state");
        expect_same_states(got.inputs, want.inputs, "input");
        expect_same_states(got.fine_states, want.fine_states, "fine state");
        diverged += got.diverged ? 1 : 0;
        ++runs;
      }
    }
  }
  // Both the full-horizon and the divergence exits are exercised.
  EXPECT_GT(diverged, 0u);
  EXPECT_LT(diverged, runs);
}

TEST(EvaluateTrace, SafetyAndGoal) {
  const auto bench = ode::make_acc_benchmark();
  // A good gain (found by the learner family): reaches and stays safe.
  nn::LinearController good(Mat{{0.8, -2.75}});
  std::mt19937_64 rng(3);
  const Vec x0 = bench.spec.x0.sample(rng);
  const Trace tr =
      simulate(*bench.system, good, x0, bench.spec.delta, bench.spec.steps);
  const TraceVerdict v = evaluate_trace(tr, bench.spec);
  EXPECT_TRUE(v.safe);
  EXPECT_TRUE(v.reached);
  EXPECT_GT(v.reach_step, 0u);

  // Zero gain: drifts, grazes the unsafe half-space.
  nn::LinearController zero(Mat{{0.0, 0.0}});
  const Trace tz =
      simulate(*bench.system, zero, Vec{122.0, 52.0}, bench.spec.delta,
               bench.spec.steps);
  const TraceVerdict vz = evaluate_trace(tz, bench.spec);
  EXPECT_FALSE(vz.safe);
}

TEST(EvaluateTrace, StopAtGoalIgnoresPostGoalUnsafety) {
  // Craft a spec where the trace reaches the goal and then enters Xu;
  // under stop-at-goal semantics it still counts as safe.
  ode::ReachAvoidSpec spec = decay_through_goal_spec();
  const DecaySystem sys;  // decays through the goal into the unsafe zone
  const ZeroController ctrl;
  const Trace tr = simulate(sys, ctrl, Vec{1.0}, spec.delta, spec.steps);

  spec.stop_at_goal = true;
  const TraceVerdict v1 = evaluate_trace(tr, spec);
  EXPECT_TRUE(v1.reached);
  EXPECT_TRUE(v1.safe);

  spec.stop_at_goal = false;
  const TraceVerdict v2 = evaluate_trace(tr, spec);
  EXPECT_TRUE(v2.reached);
  EXPECT_FALSE(v2.safe);
}

TEST(EvaluateTrace, DivergenceAfterGoalIsUnsafeAndNotReached) {
  ode::ReachAvoidSpec spec = decay_through_goal_spec();
  spec.goal = geom::Box{Interval(2.0, 5.0)};
  spec.delta = 0.1;
  const DecaySystem sys;
  nn::LinearController grow(Mat{{11.0}});  // x' = 10 x
  const Trace tr = simulate(sys, grow, Vec{1.0}, spec.delta, spec.steps);
  ASSERT_TRUE(tr.diverged);
  // The run passes through Xg at a control instant before it diverges.
  ASSERT_TRUE(std::any_of(tr.states.begin(), tr.states.end() - 1,
                          [&](const Vec& x) { return spec.goal.contains(x); }));
  const TraceVerdict v = evaluate_trace(tr, spec);
  EXPECT_FALSE(v.safe);
  EXPECT_FALSE(v.reached);
  EXPECT_EQ(v.reach_step, 0u);
}

TEST(MonteCarlo, RatesForKnownGoodController) {
  const auto bench = ode::make_acc_benchmark();
  nn::LinearController good(Mat{{0.8, -2.75}});
  const McStats st =
      monte_carlo_rates(*bench.system, good, bench.spec, 200, 77);
  EXPECT_EQ(st.samples, 200u);
  EXPECT_DOUBLE_EQ(st.safe_rate, 1.0);
  EXPECT_DOUBLE_EQ(st.goal_rate, 1.0);
  EXPECT_GT(st.mean_reach_step, 0.0);
}

TEST(MonteCarlo, RatesForBadController) {
  const auto bench = ode::make_acc_benchmark();
  nn::LinearController bad(Mat{{0.0, 0.0}});
  const McStats st =
      monte_carlo_rates(*bench.system, bad, bench.spec, 200, 77);
  EXPECT_LT(st.goal_rate, 0.5);
}

TEST(MonteCarlo, DeterministicForFixedSeed) {
  const auto bench = ode::make_oscillator_benchmark();
  nn::LinearController k(Mat{{0.3, -0.7}});
  const McStats a = monte_carlo_rates(*bench.system, k, bench.spec, 100, 5);
  const McStats b = monte_carlo_rates(*bench.system, k, bench.spec, 100, 5);
  EXPECT_DOUBLE_EQ(a.safe_rate, b.safe_rate);
  EXPECT_DOUBLE_EQ(a.goal_rate, b.goal_rate);
  EXPECT_DOUBLE_EQ(a.mean_reach_step, b.mean_reach_step);
}

// (b) The streaming verdict equals simulate() + evaluate_trace() field for
// field on the paper systems under random gains, with both stop-at-goal
// semantics and several substep counts.
TEST(MonteCarlo, MatchesTraceReferenceOnPaperSystems) {
  std::mt19937_64 rng(7);
  for (const ode::Benchmark& b :
       {ode::make_acc_benchmark(), ode::make_oscillator_benchmark(),
        ode::make_3d_benchmark()}) {
    const ode::System& sys = *b.system;
    for (int trial = 0; trial < 4; ++trial) {
      const nn::LinearController ctrl =
          random_gain(sys.state_dim(), sys.input_dim(), rng, 3.0);
      for (const bool stop : {true, false}) {
        for (const std::size_t substeps : {1u, 8u}) {
          ode::ReachAvoidSpec spec = b.spec;
          spec.stop_at_goal = stop;
          const SimOptions opt{.substeps = substeps};
          SCOPED_TRACE(b.name + " trial " + std::to_string(trial));
          expect_same_stats(monte_carlo_rates(sys, ctrl, spec, 60, 11, opt),
                            reference_mc(sys, ctrl, spec, 60, 11, opt));
        }
      }
    }
  }
}

TEST(MonteCarlo, MatchesTraceReferenceWhenGoalPrecedesUnsafety) {
  ode::ReachAvoidSpec spec = decay_through_goal_spec();
  const DecaySystem sys;
  const ZeroController ctrl;
  for (const bool stop : {true, false}) {
    spec.stop_at_goal = stop;
    const McStats got = monte_carlo_rates(sys, ctrl, spec, 50, 3);
    expect_same_stats(got, reference_mc(sys, ctrl, spec, 50, 3, {}));
    EXPECT_EQ(got.goal_rate, 1.0);
    EXPECT_EQ(got.safe_rate, stop ? 1.0 : 0.0);
  }
}

TEST(MonteCarlo, MatchesTraceReferenceWhenDivergingAfterGoal) {
  ode::ReachAvoidSpec spec = decay_through_goal_spec();
  spec.goal = geom::Box{Interval(2.0, 5.0)};
  spec.delta = 0.1;
  const DecaySystem sys;
  // Gains around 11 (x' = ~10 x) pass through Xg, then diverge; the lower
  // ones reach Xg without diverging inside the horizon.
  for (const double gain : {11.0, 1.2}) {
    nn::LinearController ctrl(Mat{{gain}});
    for (const bool stop : {true, false}) {
      spec.stop_at_goal = stop;
      const McStats got = monte_carlo_rates(sys, ctrl, spec, 40, 9);
      expect_same_stats(got, reference_mc(sys, ctrl, spec, 40, 9, {}));
      if (gain > 10.0) {
        EXPECT_EQ(got.goal_rate, 0.0);
        EXPECT_EQ(got.safe_rate, 0.0);
      }
    }
  }
}

TEST(MonteCarlo, MatchesTraceReferenceWithZeroSteps) {
  // Without control periods only x0 is judged: x0 ~ U[0, 1] against
  // Xg = [0.5, 1] and Xu = [0, 0.2].
  ode::ReachAvoidSpec spec = decay_through_goal_spec();
  spec.x0 = geom::Box{Interval(0.0, 1.0)};
  spec.goal = geom::Box{Interval(0.5, 1.0)};
  spec.unsafe = geom::Box{Interval(0.0, 0.2)};
  spec.steps = 0;
  const DecaySystem sys;
  const ZeroController ctrl;
  for (const bool stop : {true, false}) {
    spec.stop_at_goal = stop;
    const McStats got = monte_carlo_rates(sys, ctrl, spec, 200, 21);
    expect_same_stats(got, reference_mc(sys, ctrl, spec, 200, 21, {}));
    EXPECT_GT(got.goal_rate, 0.0);
    EXPECT_LT(got.goal_rate, 1.0);
    EXPECT_GT(got.safe_rate, 0.0);
    EXPECT_LT(got.safe_rate, 1.0);
  }
}

// (c) After warm-up, a 500-rollout MC run allocates per rollout only its
// initial-state sample and the controller's input vector per control
// period: nothing per RK4 substep and no Trace, so the count does not
// depend on the substep count.
TEST(MonteCarlo, AllocatesNothingPerSubstep) {
  const auto bench = ode::make_acc_benchmark();
  const nn::LinearController good(Mat{{0.8, -2.75}});
  const std::size_t samples = 500;
  const auto count = [&](std::size_t substeps) {
    const SimOptions opt{.substeps = substeps};
    (void)monte_carlo_rates(*bench.system, good, bench.spec, 2, 1, opt);
    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    const McStats st =
        monte_carlo_rates(*bench.system, good, bench.spec, samples, 1, opt);
    const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(st.safe_rate, 1.0);
    return after - before;
  };
  const std::size_t at8 = count(8);
  const std::size_t at32 = count(32);
  EXPECT_EQ(at8, at32);
  EXPECT_LE(at8, samples * (bench.spec.steps + 2));
}

}  // namespace
}  // namespace dwv::sim
