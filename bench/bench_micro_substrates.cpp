// Micro-benchmarks of the computational substrates: Taylor-model
// arithmetic, polygon clipping, optimal transport solvers, one TM flowpipe
// step, one linear flowpipe step, and one POLAR controller abstraction.
// (google-benchmark)
#include <benchmark/benchmark.h>

#include <random>

#include "geom/polygon2d.hpp"
#include "linalg/expm.hpp"
#include "ode/benchmarks.hpp"
#include "reach/control_abstraction.hpp"
#include "reach/linear_reach.hpp"
#include "reach/tm_flowpipe.hpp"
#include "transport/emd.hpp"
#include "transport/sinkhorn.hpp"

namespace {

using namespace dwv;

void BM_MatExp4x4(benchmark::State& state) {
  linalg::Mat a(4, 4);
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) a(i, j) = u(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::expm(a));
  }
}
BENCHMARK(BM_MatExp4x4);

void BM_TmMul(benchmark::State& state) {
  taylor::TmEnv env;
  env.dom = interval::IVec(3, interval::Interval(-1.0, 1.0));
  env.order = static_cast<std::uint32_t>(state.range(0));
  taylor::TaylorModel x = taylor::TaylorModel::variable(env, 0);
  taylor::TaylorModel y = taylor::TaylorModel::variable(env, 1);
  taylor::TaylorModel p = taylor::tm_add(taylor::tm_mul(env, x, y), x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(taylor::tm_mul(env, p, p));
  }
}
BENCHMARK(BM_TmMul)->Arg(2)->Arg(3)->Arg(5);

void BM_PolygonClip(benchmark::State& state) {
  const auto a = geom::Polygon2d::rect(0.0, 2.0, 0.0, 2.0);
  const auto b = geom::Polygon2d::rect(1.0, 3.0, 1.0, 3.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.clip(b).area());
  }
}
BENCHMARK(BM_PolygonClip);

void BM_EmdExact(benchmark::State& state) {
  const std::size_t grid = static_cast<std::size_t>(state.range(0));
  const geom::Box a{interval::Interval(0.0, 1.0), interval::Interval(0.0, 1.0)};
  const geom::Box b{interval::Interval(2.0, 3.0), interval::Interval(1.0, 2.0)};
  const auto ma = transport::uniform_on_box(a, {grid, grid});
  const auto mb = transport::uniform_on_box(b, {grid, grid});
  for (auto _ : state) {
    benchmark::DoNotOptimize(transport::w1_exact(ma, mb));
  }
}
BENCHMARK(BM_EmdExact)->Arg(4)->Arg(6)->Arg(8);

void BM_Sinkhorn(benchmark::State& state) {
  const std::size_t grid = static_cast<std::size_t>(state.range(0));
  const geom::Box a{interval::Interval(0.0, 1.0), interval::Interval(0.0, 1.0)};
  const geom::Box b{interval::Interval(2.0, 3.0), interval::Interval(1.0, 2.0)};
  const auto ma = transport::uniform_on_box(a, {grid, grid});
  const auto mb = transport::uniform_on_box(b, {grid, grid});
  for (auto _ : state) {
    benchmark::DoNotOptimize(transport::sinkhorn(ma, mb).cost);
  }
}
BENCHMARK(BM_Sinkhorn)->Arg(4)->Arg(8);

void BM_LinearFlowpipeAcc(benchmark::State& state) {
  const auto bench = ode::make_acc_benchmark();
  reach::LinearVerifier verifier(bench.system, bench.spec);
  nn::LinearController ctrl(linalg::Mat{{0.5, -1.0}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.compute(bench.spec.x0, ctrl));
  }
}
BENCHMARK(BM_LinearFlowpipeAcc);

void BM_TmStepOscillator(benchmark::State& state) {
  const auto bench = ode::make_oscillator_benchmark();
  taylor::TmEnv env;
  env.dom = interval::IVec(2, interval::Interval(-1.0, 1.0));
  env.order = 3;
  taylor::TmVec x(2);
  x[0] = {poly::Poly::constant(2, -0.5) + poly::Poly::variable(2, 0) * 0.01,
          interval::Interval(0.0)};
  x[1] = {poly::Poly::constant(2, 0.5) + poly::Poly::variable(2, 1) * 0.01,
          interval::Interval(0.0)};
  taylor::TmVec u{taylor::TaylorModel::constant(env, 0.1)};
  const auto f = bench.system->poly_dynamics();
  reach::TmReachOptions opt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reach::tm_integrate_step(env, x, u, f, 0.05, opt));
  }
}
BENCHMARK(BM_TmStepOscillator);

// PolarAbstraction::abstract, ns per call: the oscillator learner's 2-6-1
// tanh MLP (scale 2) over initial TM states x_i = c_i + r_i s_i, set up
// as TmVerifier::compute does (unit box pinned in the range engine). The
// calls cycle through 64 shifted initial boxes, more range queries than
// the engine's result memo holds, so the walks run as they do on a
// learner's fresh states.
void BM_PolarAbstract(benchmark::State& state) {
  const auto bench = ode::make_oscillator_benchmark();
  nn::MlpController ctrl({2, 6, 1}, 2.0, nn::Activation::kTanh,
                         nn::Activation::kTanh);
  std::mt19937_64 rng(8);
  ctrl.init_random(rng, 0.4);
  taylor::TmEnv env;
  env.dom = interval::IVec(2, interval::Interval(-1.0, 1.0));
  env.order = 3;
  env.cutoff = 1e-12;
  env.scratch().range.pin_domain(env.dom, 2 * env.order + 2);
  const linalg::Vec c = bench.spec.x0.center();
  const linalg::Vec r = bench.spec.x0.radius();
  std::vector<taylor::TmVec> states(64, taylor::TmVec(2));
  for (std::size_t k = 0; k < states.size(); ++k) {
    for (std::size_t i = 0; i < 2; ++i) {
      const double ci = c[i] + 1e-3 * static_cast<double>(k);
      states[k][i] = {poly::Poly::constant(2, ci) +
                          poly::Poly::variable(2, i) * r[i],
                      interval::Interval(0.0)};
    }
  }
  const reach::PolarAbstraction polar;
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(polar.abstract(env, states[k], ctrl));
    k = (k + 1) % states.size();
  }
}
BENCHMARK(BM_PolarAbstract);

}  // namespace

BENCHMARK_MAIN();
