// Table 2: average runtime of one verifier call inside the learning loop
// for each (example, verification tool) pair:
//   ACC(Flow*-lite), Os(ReachNN-lite), Os(POLAR-lite),
//   3D(ReachNN-lite), 3D(POLAR-lite).
//
// Paper (authors' testbed, full-scale tools): 6.05s / 516s / 72s / 195s /
// 23s. Our re-implementations are deliberately lighter (smaller NNs, lower
// TM order), so absolute numbers are smaller; the reproduced property is
// the ORDERING: the linear engine is cheapest and POLAR-lite is markedly
// cheaper than ReachNN-lite per call.
// A second section reports the parallel verification engine: wall-clock
// time of the learner and subdivision workloads per thread count, with a
// bit-identity check (thread count must be a pure performance knob).
// A third section reports the cross-iteration flowpipe cache: end-to-end
// ACC learning wall clock cache-off vs cache-on (bit-identical learned
// parameters required) and the X_I search with parent-prefix reuse.
#include <chrono>
#include <thread>

#include "bench_common.hpp"
#include "reach/cache.hpp"
#include "reach/subdivide.hpp"

namespace {

using namespace dwvbench;

// Tiny local sink to stop the optimizer from eliding the call.
template <class T>
void benchmark_dont_optimize(T&& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

// ----------------------------------------------------------------------
// Parallel scaling: the two fan-out workloads of the design-while-verify
// loop, timed per thread count. Histories/flowpipes must be bit-identical
// across thread counts (pre-drawn perturbations, index-ordered reductions).
// ----------------------------------------------------------------------

struct TimedLearn {
  double seconds = 0.0;
  core::LearnResult res;
};

TimedLearn run_learner_workload(std::size_t threads) {
  auto bench = ode::make_oscillator_benchmark();
  bench.spec.steps = std::min<std::size_t>(bench.spec.steps, 10);
  const auto verifier = make_verifier(bench, "polar");
  core::LearnerOptions opt;
  opt.gradient = core::GradientMode::kSpsaAveraged;
  opt.spsa_samples = 4;  // 8 concurrent probes + 1 serial iterate per iter
  opt.max_iters = 4;
  opt.restarts = 1;
  opt.step_size = 1e-6;  // keep the trajectory fixed across thread counts
  opt.seed = 3;
  opt.threads = threads;
  core::Learner learner(verifier, bench.spec, opt);
  auto ctrl = make_nn_controller(bench, 1);
  TimedLearn out;
  const auto t0 = std::chrono::steady_clock::now();
  out.res = learner.learn(ctrl);
  const auto t1 = std::chrono::steady_clock::now();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

struct TimedSubdivide {
  double seconds = 0.0;
  reach::Flowpipe fp;
};

TimedSubdivide run_subdivide_workload(std::size_t threads) {
  auto bench = ode::make_oscillator_benchmark();
  bench.spec.steps = std::min<std::size_t>(bench.spec.steps, 10);
  bench.spec.stop_at_goal = false;
  const auto inner = make_verifier(bench, "polar");
  const reach::SubdividingVerifier sub(
      inner, {.cells_per_dim = 3, .threads = threads});  // 9 cells
  const auto ctrl = make_nn_controller(bench, 1);
  TimedSubdivide out;
  const auto t0 = std::chrono::steady_clock::now();
  out.fp = sub.compute(bench.spec.x0, ctrl);
  const auto t1 = std::chrono::steady_clock::now();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

bool histories_identical(const core::LearnResult& a,
                         const core::LearnResult& b) {
  if (a.history.size() != b.history.size()) return false;
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    // Optional comparison: the recorded family must match in presence
    // and value.
    if (a.history[i].geo != b.history[i].geo) return false;
    if (a.history[i].wass != b.history[i].wass) return false;
  }
  return true;
}

bool flowpipes_identical(const reach::Flowpipe& a, const reach::Flowpipe& b) {
  if (a.step_sets.size() != b.step_sets.size()) return false;
  for (std::size_t k = 0; k < a.step_sets.size(); ++k) {
    for (std::size_t i = 0; i < a.step_sets[k].dim(); ++i) {
      if (a.step_sets[k][i].lo() != b.step_sets[k][i].lo()) return false;
      if (a.step_sets[k][i].hi() != b.step_sets[k][i].hi()) return false;
    }
  }
  return true;
}

void print_parallel_scaling() {
  std::printf(
      "\n=== parallel verification engine: threads scaling ===\n"
      "(hardware threads available: %u; on a single-core host the threaded\n"
      "rows time-share and speedup stays ~1x — the knob is still exercised\n"
      "and determinism still checked)\n\n",
      std::thread::hardware_concurrency());
  std::printf("%-24s %-12s %-12s %-10s %-10s\n", "workload", "1 thread [s]",
              "4 threads [s]", "speedup", "identical");

  {
    const TimedLearn serial = run_learner_workload(1);
    const TimedLearn threaded = run_learner_workload(4);
    std::printf("%-24s %-12.3f %-12.3f %-10.2f %-10s\n",
                "learner(Os, SPSAx4)", serial.seconds, threaded.seconds,
                serial.seconds / threaded.seconds,
                histories_identical(serial.res, threaded.res) ? "yes" : "NO");
  }
  {
    const TimedSubdivide serial = run_subdivide_workload(1);
    const TimedSubdivide threaded = run_subdivide_workload(4);
    std::printf("%-24s %-12.3f %-12.3f %-10.2f %-10s\n",
                "subdivide(Os, 3x3)", serial.seconds, threaded.seconds,
                serial.seconds / threaded.seconds,
                flowpipes_identical(serial.fp, threaded.fp) ? "yes" : "NO");
  }
}

// ----------------------------------------------------------------------
// Cross-iteration flowpipe cache: Algorithm 1 re-verifies recurring
// parameter vectors (averaged SPSA draws from only 2^(d-1) distinct
// unordered probe pairs; d = 2 on ACC gives 2), so memoization removes
// most verifier calls without changing a single bit of the result.
// ----------------------------------------------------------------------

struct TimedCachedLearn {
  double seconds = 0.0;
  core::LearnResult res;
  linalg::Vec params;
};

TimedCachedLearn run_acc_cached_learn(bool cache) {
  const auto bench = ode::make_acc_benchmark();
  // ACC's linear feedback through the TM engine: each verifier call is
  // expensive enough that the cache's copy-on-hit is essentially free.
  const auto verifier = std::make_shared<reach::TmVerifier>(
      bench.system, bench.spec, std::make_shared<reach::LinearAbstraction>(),
      reach::TmReachOptions{});
  core::LearnerOptions opt;
  opt.gradient = core::GradientMode::kSpsaAveraged;
  opt.spsa_samples = 6;  // 12 probes/iter over <= 4 distinct parameter keys
  opt.max_iters = 10;
  opt.restarts = 1;
  opt.step_size = 0.3;
  opt.perturbation = 0.05;
  opt.seed = 12;
  opt.threads = 1;
  opt.cache = cache;
  core::Learner learner(verifier, bench.spec, opt);
  nn::LinearController ctrl(linalg::Mat{{0.1, -0.4}});
  TimedCachedLearn out;
  const auto t0 = std::chrono::steady_clock::now();
  out.res = learner.learn(ctrl);
  const auto t1 = std::chrono::steady_clock::now();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.params = ctrl.params();
  return out;
}

bool params_identical(const linalg::Vec& a, const linalg::Vec& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

void print_cache_section() {
  std::printf(
      "\n=== cross-iteration flowpipe cache ===\n"
      "(bit-identity required: a cache hit returns exactly what\n"
      "recomputation would, so 'identical' must read yes)\n\n");

  const TimedCachedLearn off = run_acc_cached_learn(false);
  const TimedCachedLearn on = run_acc_cached_learn(true);
  const bool identical = params_identical(off.params, on.params) &&
                         off.res.success == on.res.success &&
                         off.res.iterations == on.res.iterations &&
                         histories_identical(off.res, on.res) &&
                         flowpipes_identical(off.res.final_flowpipe,
                                             on.res.final_flowpipe);
  std::printf("%-26s %-13s %-13s %-10s %-10s\n", "workload", "no cache [s]",
              "cache [s]", "speedup", "identical");
  std::printf("%-26s %-13.3f %-13.3f %-10.2f %-10s\n",
              "learn(ACC, SPSAx6)", off.seconds, on.seconds,
              off.seconds / on.seconds, identical ? "yes" : "NO");
  const reach::CacheStats cs = on.res.cache_stats;
  std::printf(
      "cache: %llu hits / %llu lookups (%.1f%% hit rate), "
      "%.3fs miss compute, %.3fs overhead\n",
      static_cast<unsigned long long>(cs.hits),
      static_cast<unsigned long long>(cs.lookups()), 100.0 * cs.hit_rate(),
      cs.miss_compute_seconds, cs.overhead_seconds);

  // Branch-and-refine parent-prefix reuse (Algorithm 2): child cells
  // restrict the parent's symbolic models instead of re-integrating the
  // shared prefix. Replayed pipes are sound but looser, so coverage may
  // differ slightly — both coverages are reported.
  const auto bench = ode::make_acc_benchmark();
  const auto verifier = std::make_shared<reach::TmVerifier>(
      bench.system, bench.spec, std::make_shared<reach::LinearAbstraction>(),
      reach::TmReachOptions{});
  // A good gain (the Table-2 row's) whose goal certification still needs
  // refinement, so the search actually branches before covering X0.
  const nn::LinearController mid(linalg::Mat{{0.8, -2.75}});
  core::InitialSetOptions iopt;
  iopt.max_depth = 5;
  iopt.threads = 1;

  const auto time_search = [&](bool reuse) {
    core::InitialSetOptions o = iopt;
    o.reuse_parent_prefix = reuse;
    const auto t0 = std::chrono::steady_clock::now();
    const core::InitialSetResult r =
        core::search_initial_set(*verifier, bench.spec, mid, o);
    const auto t1 = std::chrono::steady_clock::now();
    return std::make_pair(std::chrono::duration<double>(t1 - t0).count(), r);
  };
  const auto [cold_s, cold_r] = time_search(false);
  const auto [warm_s, warm_r] = time_search(true);
  std::printf(
      "%-26s %-13.3f %-13.3f %-10.2f coverage %.1f%% -> %.1f%%\n",
      "X_I search(ACC, prefix)", cold_s, warm_s, cold_s / warm_s,
      100.0 * cold_r.coverage, 100.0 * warm_r.coverage);
}

double mean_call_seconds(const ode::Benchmark& bench,
                         const reach::VerifierPtr& verifier,
                         const nn::Controller& ctrl, std::size_t calls) {
  // Warm-up call (first call touches cold caches).
  (void)verifier->compute(bench.spec.x0, ctrl);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < calls; ++i) {
    benchmark_dont_optimize(verifier->compute(bench.spec.x0, ctrl));
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count() /
         static_cast<double>(calls);
}

}  // namespace

int main() {
  using namespace dwvbench;
  std::printf(
      "=== Table 2: mean verifier runtime per learning iteration ===\n");
  std::printf("%-18s %-12s %-12s\n", "configuration", "ours [s]",
              "paper [s]");

  const std::size_t calls = 5;

  {
    const auto bench = ode::make_acc_benchmark();
    nn::LinearController ctrl(linalg::Mat{{0.8, -2.75}});
    const double t =
        mean_call_seconds(bench, make_verifier(bench, "linear"), ctrl, calls);
    std::printf("%-18s %-12.4f %-12s\n", "ACC(Flow*-lite)", t, "6.05");
  }

  const auto osc = ode::make_oscillator_benchmark();
  const auto osc_ctrl = make_nn_controller(osc, 1);
  {
    const double t =
        mean_call_seconds(osc, make_verifier(osc, "reachnn"), osc_ctrl, calls);
    std::printf("%-18s %-12.4f %-12s\n", "Os(ReachNN-lite)", t, "516");
  }
  {
    const double t =
        mean_call_seconds(osc, make_verifier(osc, "polar"), osc_ctrl, calls);
    std::printf("%-18s %-12.4f %-12s\n", "Os(POLAR-lite)", t, "72");
  }

  const auto s3 = ode::make_3d_benchmark();
  const auto s3_ctrl = make_nn_controller(s3, 1);
  {
    const double t =
        mean_call_seconds(s3, make_verifier(s3, "reachnn"), s3_ctrl, calls);
    std::printf("%-18s %-12.4f %-12s\n", "3D(ReachNN-lite)", t, "195");
  }
  {
    const double t =
        mean_call_seconds(s3, make_verifier(s3, "polar"), s3_ctrl, calls);
    std::printf("%-18s %-12.4f %-12s\n", "3D(POLAR-lite)", t, "23");
  }

  std::printf(
      "\nshape check: linear << POLAR-lite < ReachNN-lite per call, matching\n"
      "the paper's relative tool costs (absolute values differ: our tools\n"
      "are laptop-scale re-implementations, not the original systems).\n");

  print_parallel_scaling();
  print_cache_section();
  return 0;
}
