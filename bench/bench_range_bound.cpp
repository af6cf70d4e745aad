// Microbenchmarks for the shared range-bounding engine: per-query interval
// range bounds (naive Poly::eval_range vs the power-table-backed
// RangeEngine), derivative-range bounds, bounds over the TM step domain
// [-1,1]^2 x [0,h] (whose -denorm_min power bounds take the exact
// subnormal product path), bounding the models of a real validated
// Taylor-model step, and end-to-end ACC learning / oscillator
// verification wall clock. Results are printed as a table and written to
// BENCH_range_bound.json.
//
// The engine sections are gated on the range_engine header, so the same
// source compiles against the pre-engine tree and produces the before
// numbers quoted in the PR (only the naive and end-to-end rows run there).
//
//   $ ./bench_range_bound
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "core/learner.hpp"
#include "ode/benchmarks.hpp"
#include "poly/poly.hpp"
#include "reach/control_abstraction.hpp"
#include "reach/tm_dynamics.hpp"
#include "reach/tm_flowpipe.hpp"
#include "taylor/taylor_model.hpp"

#if __has_include("poly/range_engine.hpp")
#include "poly/range_engine.hpp"
#define DWV_HAVE_RANGE_ENGINE 1
#endif

using namespace dwv;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Results {
  std::vector<std::pair<std::string, double>> rows;

  void add(const std::string& name, double value, const char* unit) {
    rows.emplace_back(name, value);
    std::printf("%-34s %14.3f %s\n", name.c_str(), value, unit);
  }

  void write_json(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (!f) return;
    std::fprintf(f, "{\n  \"bench\": \"range_bound\",\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(f, "  \"%s\": %.3f%s\n", rows[i].first.c_str(),
                   rows[i].second, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
  }
};

// Times `reps` invocations of `fn` and returns ns per invocation, after a
// short warm-up pass (fills the engine's power tables, so the measured
// engine numbers are the amortized steady state — the regime every query
// after the first one in a flowpipe run sees).
template <typename Fn>
double time_ns(std::size_t reps, Fn&& fn) {
  for (std::size_t i = 0; i < reps / 10 + 1; ++i) fn();
  const double t0 = now_seconds();
  for (std::size_t i = 0; i < reps; ++i) fn();
  return (now_seconds() - t0) * 1e9 / static_cast<double>(reps);
}

poly::Poly make_poly(std::uint64_t seed, std::size_t nvars,
                     std::size_t terms, std::uint32_t max_per_var) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coeff(-1.5, 1.5);
  poly::Poly p(nvars);
  for (std::size_t t = 0; t < terms; ++t) {
    poly::Exponents e(nvars);
    for (auto& x : e)
      x = static_cast<std::uint32_t>(rng() % (max_per_var + 1));
    p.add_term(e, coeff(rng));
  }
  return p;
}

double g_sink = 0.0;  // defeat dead-code elimination

bool g_identical = true;  // every engine result must match naive bit-for-bit

bool bits_equal(const interval::Interval& a, const interval::Interval& b) {
  return std::bit_cast<std::uint64_t>(a.lo()) ==
             std::bit_cast<std::uint64_t>(b.lo()) &&
         std::bit_cast<std::uint64_t>(a.hi()) ==
             std::bit_cast<std::uint64_t>(b.hi());
}

// ----------------------------------------------------------------------
// Per-query range bounds on the two hot polynomial shapes: the 3-variable
// flowpipe shape (2 set vars + time, ~10 terms) and a denser 6-variable
// poly (stress shape for the abstraction layers).
// ----------------------------------------------------------------------

void bench_per_query(Results& out, const char* tag, std::uint64_t seed,
                     std::size_t nvars, std::size_t terms,
                     std::uint32_t max_per_var) {
  const poly::Poly p = make_poly(seed, nvars, terms, max_per_var);
  interval::IVec dom(nvars);
  std::mt19937_64 rng(seed * 31 + 7);
  std::uniform_real_distribution<double> mid(-0.5, 0.5);
  for (auto& d : dom) {
    const double m = mid(rng);
    d = interval::Interval(m - 0.2, m + 0.2);
  }

  const double naive_ns = time_ns(200000, [&] {
    g_sink += p.eval_range(dom).hi();
  });
  out.add(std::string(tag) + "_eval_range_naive_ns", naive_ns, "ns/query");

#ifdef DWV_HAVE_RANGE_ENGINE
  poly::RangeEngine engine;
  engine.set_result_memo(false);  // time the table-amortized walk itself
  g_identical = g_identical && bits_equal(engine.eval_range(p, dom),
                                          p.eval_range(dom));
  const double engine_ns = time_ns(200000, [&] {
    g_sink += engine.eval_range(p, dom).hi();
  });
  out.add(std::string(tag) + "_eval_range_engine_ns", engine_ns, "ns/query");
  out.add(std::string(tag) + "_eval_range_speedup", naive_ns / engine_ns,
          "x");
  engine.set_result_memo(true);  // default config: repeat queries hit
  g_identical = g_identical && bits_equal(engine.eval_range(p, dom),
                                          p.eval_range(dom));
  const double memo_ns = time_ns(200000, [&] {
    g_sink += engine.eval_range(p, dom).hi();
  });
  out.add(std::string(tag) + "_eval_range_memo_ns", memo_ns, "ns/query");
#endif
}

// Derivative-range bound: naive = materialize derivative(v) then bound it;
// engine = walk the packed terms directly against the cached tables.
void bench_derivative_range(Results& out) {
  const poly::Poly p = make_poly(41, 3, 10, 3);
  const interval::IVec dom(3, interval::Interval(-0.4, 0.6));

  const double naive_ns = time_ns(100000, [&] {
    g_sink += p.derivative(1).eval_range(dom).hi();
  });
  out.add("deriv3_range_naive_ns", naive_ns, "ns/query");

#ifdef DWV_HAVE_RANGE_ENGINE
  poly::RangeEngine engine;
  engine.set_result_memo(false);
  g_identical = g_identical &&
                bits_equal(engine.derivative_range(p, 1, dom),
                           p.derivative(1).eval_range(dom));
  const double engine_ns = time_ns(100000, [&] {
    g_sink += engine.derivative_range(p, 1, dom).hi();
  });
  out.add("deriv3_range_engine_ns", engine_ns, "ns/query");
  out.add("deriv3_range_speedup", naive_ns / engine_ns, "x");
#endif
}

// ----------------------------------------------------------------------
// Step-domain bounds: the time-extended box [-1,1]^2 x [0,0.05] that every
// validated TM step bounds its tube models over, with polys of step-sized
// degree (order 4 in the set variables and tau) and coefficients spanning
// TM magnitudes. Every power of [0,h] and every even power of [-1,1] has
// the lower bound -denorm_min, so Poly::eval_range pays a hardware
// subnormal assist per such multiply while the engine takes the exact
// integer path. Memo off (fresh models); median of 5 timing rounds.
// ----------------------------------------------------------------------

void bench_step_domain(Results& out) {
  interval::IVec dom(3, interval::Interval(-1.0, 1.0));
  dom[2] = interval::Interval(0.0, 0.05);
  std::vector<poly::Poly> polys;
  std::mt19937_64 rng(2026);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (int k = 0; k < 16; ++k) {
    poly::Poly p(3);
    for (int t = 0; t < 20; ++t) {
      poly::Exponents e(3);
      for (auto& x : e) x = static_cast<std::uint32_t>(rng() % 5);
      p.add_term(e, std::ldexp(unit(rng), static_cast<int>(rng() % 30) - 24));
    }
    polys.push_back(p);
  }
  const auto median_ns = [](auto&& fn) {
    std::vector<double> ns;
    for (int round = 0; round < 5; ++round) ns.push_back(time_ns(2000, fn));
    std::sort(ns.begin(), ns.end());
    return ns[2] / 16.0;  // per query
  };

  const double naive_ns = median_ns([&] {
    for (const poly::Poly& p : polys) g_sink += p.eval_range(dom).hi();
  });
  out.add("step_domain_range_naive_ns", naive_ns, "ns/query");

#ifdef DWV_HAVE_RANGE_ENGINE
  poly::RangeEngine engine;
  engine.set_result_memo(false);
  for (const poly::Poly& p : polys)
    g_identical =
        g_identical && bits_equal(engine.eval_range(p, dom), p.eval_range(dom));
  const double engine_ns = median_ns([&] {
    for (const poly::Poly& p : polys) g_sink += engine.eval_range(p, dom).hi();
  });
  out.add("step_domain_range_engine_ns", engine_ns, "ns/query");
  out.add("step_domain_range_speedup", naive_ns / engine_ns, "x");
#endif
}

// ----------------------------------------------------------------------
// Validated-step range bounding: take the models produced by ONE real
// tm_integrate_step (the 2-D system of bench_poly_kernel) and bound all of
// them — the tube models over (set vars, tau) and the end models over the
// set vars — the exact queries tm_range issues inside the verifier loop.
// ----------------------------------------------------------------------

void bench_step_bound(Results& out) {
  reach::PolyTmDynamics dyn([] {
    poly::Poly f0(3);
    f0.add_term({0, 1, 0}, 1.0);
    poly::Poly f1(3);
    f1.add_term({1, 0, 0}, -1.0);
    f1.add_term({0, 1, 0}, -0.5);
    f1.add_term({1, 1, 0}, 0.1);
    f1.add_term({0, 0, 1}, 1.0);
    return std::vector<poly::Poly>{f0, f1};
  }());
  taylor::TmEnv env;
  env.dom = interval::IVec(2, interval::Interval(-0.1, 0.1));
  env.order = 3;
  env.cutoff = 1e-12;
  taylor::TmVec state;
  state.push_back(taylor::TaylorModel::variable(env, 0));
  state.push_back(taylor::TaylorModel::variable(env, 1));
  taylor::TmVec control;
  control.push_back(taylor::TaylorModel::constant(env, 0.25));
  const double h = 0.05;
  const reach::TmStepResult res =
      reach::tm_integrate_step(env, state, control, dyn, h, {});

  interval::IVec dom_time(3);
  dom_time[0] = env.dom[0];
  dom_time[1] = env.dom[1];
  dom_time[2] = interval::Interval(0.0, h);

  const double naive_ns = time_ns(50000, [&] {
    for (const auto& tm : res.tube_tm)
      g_sink += (tm.poly.eval_range(dom_time) + tm.rem).hi();
    for (const auto& tm : res.at_end)
      g_sink += (tm.poly.eval_range(env.dom) + tm.rem).hi();
  });
  out.add("step_bound_naive_ns", naive_ns, "ns/step-bound");

#ifdef DWV_HAVE_RANGE_ENGINE
  // One engine serves both domains, exactly like the borrowed scratch the
  // env_set/env_time pair shares inside tm_integrate_step. Default config
  // (result memo on): re-bounding the same models — what the verifier does
  // once per constraint check and hull extraction — hits the memo.
  poly::RangeEngine engine;
  for (const auto& tm : res.tube_tm)
    g_identical = g_identical && bits_equal(engine.eval_range(tm.poly,
                                                              dom_time),
                                            tm.poly.eval_range(dom_time));
  for (const auto& tm : res.at_end)
    g_identical = g_identical && bits_equal(engine.eval_range(tm.poly,
                                                              env.dom),
                                            tm.poly.eval_range(env.dom));
  const double engine_ns = time_ns(50000, [&] {
    for (const auto& tm : res.tube_tm)
      g_sink += (engine.eval_range(tm.poly, dom_time) + tm.rem).hi();
    for (const auto& tm : res.at_end)
      g_sink += (engine.eval_range(tm.poly, env.dom) + tm.rem).hi();
  });
  out.add("step_bound_engine_ns", engine_ns, "ns/step-bound");
  out.add("step_bound_speedup", naive_ns / engine_ns, "x");
  // Walk-only variant (memo off): the first-bound cost of fresh models.
  engine.set_result_memo(false);
  const double walk_ns = time_ns(50000, [&] {
    for (const auto& tm : res.tube_tm)
      g_sink += (engine.eval_range(tm.poly, dom_time) + tm.rem).hi();
    for (const auto& tm : res.at_end)
      g_sink += (engine.eval_range(tm.poly, env.dom) + tm.rem).hi();
  });
  out.add("step_bound_walk_ns", walk_ns, "ns/step-bound");
#endif
}

// ----------------------------------------------------------------------
// End-to-end: the ACC learning workload of bench_table2 (TM verifier with
// the linear abstraction, averaged SPSA, no cache so every iteration pays
// full verifier cost) and one oscillator POLAR-lite verifier call. These
// rows quantify how much of the verifier's wall clock the range-bounding
// hot path is; compare against the same rows from the pre-engine tree.
// ----------------------------------------------------------------------

void bench_end_to_end(Results& out) {
  {
    const auto bench = ode::make_acc_benchmark();
    const auto verifier = std::make_shared<reach::TmVerifier>(
        bench.system, bench.spec,
        std::make_shared<reach::LinearAbstraction>(),
        reach::TmReachOptions{});
    core::LearnerOptions opt;
    opt.gradient = core::GradientMode::kSpsaAveraged;
    opt.spsa_samples = 6;
    opt.max_iters = 10;
    opt.restarts = 1;
    opt.step_size = 0.3;
    opt.perturbation = 0.05;
    opt.seed = 12;
    opt.threads = 1;
    opt.cache = false;
    core::Learner learner(verifier, bench.spec, opt);
    nn::LinearController ctrl(linalg::Mat{{0.1, -0.4}});
    const double t0 = now_seconds();
    const core::LearnResult res = learner.learn(ctrl);
    const double seconds = now_seconds() - t0;
    g_sink += static_cast<double>(res.iterations);
    out.add("acc_learn_seconds", seconds, "s (SPSAx6, 10 iters)");
  }
  {
    const auto bench = ode::make_oscillator_benchmark();
    const auto verifier = std::make_shared<reach::TmVerifier>(
        bench.system, bench.spec,
        std::make_shared<reach::PolarAbstraction>(),
        reach::TmReachOptions{});
    nn::MlpController ctrl({bench.system->state_dim(), 6, 1}, 2.0,
                           nn::Activation::kTanh, nn::Activation::kTanh);
    std::mt19937_64 rng(8);
    ctrl.init_random(rng, 0.4);
    (void)verifier->compute(bench.spec.x0, ctrl);  // warm-up
    const std::size_t calls = 3;
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < calls; ++i) {
      g_sink += verifier->compute(bench.spec.x0, ctrl).step_sets.size();
    }
    out.add("osc_verify_call_seconds",
            (now_seconds() - t0) / static_cast<double>(calls),
            "s/call (POLAR-lite)");
  }
}

}  // namespace

int main() {
  std::printf("range-bounding engine microbenchmarks\n");
  std::printf("-------------------------------------\n");
  Results out;
  bench_per_query(out, "poly3", 11, 3, 10, 3);
  bench_per_query(out, "poly6", 19, 6, 30, 3);
  bench_derivative_range(out);
  bench_step_domain(out);
  bench_step_bound(out);
  bench_end_to_end(out);
#ifdef DWV_HAVE_RANGE_ENGINE
  std::printf("\nengine results bit-identical to naive: %s\n",
              g_identical ? "yes" : "NO");
  if (!g_identical) return 1;
#endif
  out.write_json("BENCH_range_bound.json");
  std::printf("wrote BENCH_range_bound.json (sink %.3g)\n", g_sink);
  return 0;
}
