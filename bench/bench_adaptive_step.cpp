// Benchmarks for the adaptive step-size / order controller (DESIGN.md
// §14): the fixed delta/substeps grid vs TmReachOptions::adaptive on the
// two paper benchmarks. Every speedup is a same-run ratio (adaptive off vs
// on in this process), so the keys transfer across machines. Three
// contracts are asserted inline and FAIL the bench (nonzero exit):
//  - soundness: simulated trajectories stay inside both flowpipes
//    (Monte-Carlo guard, 10 trials x 16 fine substeps per period),
//  - tightness: the adaptive enclosure is no wider than the fixed grid's
//    (final-box width-sum ratio <= 1.0),
//  - determinism: adaptive cells grouped through reach::BatchVerifier
//    (2 threads) reproduce the per-cell adaptive runs bit for bit.
// Results are printed as a table and written to BENCH_adaptive_step.json.
//
//   $ ./bench_adaptive_step
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "nn/controller.hpp"
#include "ode/benchmarks.hpp"
#include "reach/batch.hpp"
#include "reach/control_abstraction.hpp"
#include "reach/tm_flowpipe.hpp"
#include "sim/simulate.hpp"

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
    std::printf("%-36s %12.3f %s\n", name.c_str(), value, unit);
  }

  void write_json(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (!f) return;
    std::fprintf(f, "{\n  \"bench\": \"adaptive_step\",\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(f, "  \"%s\": %.3f%s\n", rows[i].first.c_str(),
                   rows[i].second, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
  }
};

int g_fail = 0;

void require(bool ok, const char* what) {
  if (!ok) {
    std::printf("CONTRACT FAILURE: %s\n", what);
    ++g_fail;
  }
}

bool box_eq(const geom::Box& a, const geom::Box& b) {
  if (a.dim() != b.dim()) return false;
  for (std::size_t d = 0; d < a.dim(); ++d) {
    if (std::bit_cast<std::uint64_t>(a[d].lo()) !=
            std::bit_cast<std::uint64_t>(b[d].lo()) ||
        std::bit_cast<std::uint64_t>(a[d].hi()) !=
            std::bit_cast<std::uint64_t>(b[d].hi()))
      return false;
  }
  return true;
}

bool boxes_eq(const std::vector<geom::Box>& a,
              const std::vector<geom::Box>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!box_eq(a[i], b[i])) return false;
  return true;
}

// Minimum wall time of `reps` runs of `fn` (best-of sheds scheduler noise;
// the ratio of two best-of numbers from the same process is stable).
template <typename Fn>
double time_best_seconds(std::size_t reps, Fn&& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    fn();
    best = std::min(best, now_seconds() - t0);
  }
  return best;
}

double final_width_sum(const reach::Flowpipe& fp) {
  double s = 0.0;
  const geom::Box& last = fp.step_sets.back();
  for (std::size_t d = 0; d < last.dim(); ++d) s += last[d].width();
  return s;
}

// Monte-Carlo soundness guard: densely simulated trajectories must stay
// inside the step sets and interval hulls (the in-test idiom of
// tests/test_sym_remainder.cpp, gtest-free).
bool contains_trajectories(const ode::Benchmark& bench,
                           const nn::Controller& ctrl,
                           const reach::Flowpipe& fp, int trials) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < trials; ++trial) {
    const linalg::Vec x0 = bench.spec.x0.sample(rng);
    const sim::Trace tr =
        sim::simulate(*bench.system, ctrl, x0, bench.spec.delta,
                      bench.spec.steps, {.substeps = 16});
    for (std::size_t k = 0; k < tr.states.size() && k < fp.step_sets.size();
         ++k) {
      if (!fp.step_sets[k].contains(tr.states[k])) return false;
    }
    for (std::size_t i = 0; i < tr.fine_states.size(); ++i) {
      const std::size_t k = std::min(i / 16, fp.interval_hulls.size() - 1);
      if (!fp.interval_hulls[k].contains(tr.fine_states[i])) return false;
    }
  }
  return true;
}

nn::MlpController osc_mlp() {
  nn::MlpController ctrl({2, 6, 1}, 1.0, nn::Activation::kTanh,
                         nn::Activation::kTanh);
  std::mt19937_64 rng(13);
  ctrl.init_random(rng, 0.3);
  return ctrl;
}

// One benchmark instance: fixed grid vs adaptive schedule on the same
// verifier configuration, with all three inline contracts.
void bench_case(Results& out, const char* tag, const ode::Benchmark& bench,
                const nn::Controller& ctrl,
                const reach::ControlAbstractionPtr& abs,
                const reach::TmReachOptions& base) {
  reach::TmReachOptions fixed = base;
  fixed.adaptive = false;
  reach::TmReachOptions adapt = base;
  adapt.adaptive = true;

  const reach::TmVerifier v_fixed(bench.system, bench.spec, abs, fixed);
  const reach::TmVerifier v_adapt(bench.system, bench.spec, abs, adapt);

  reach::Flowpipe f_fixed, f_adapt;
  const double t_fixed = time_best_seconds(
      9, [&] { f_fixed = v_fixed.compute(bench.spec.x0, ctrl); });
  const double t_adapt = time_best_seconds(
      9, [&] { f_adapt = v_adapt.compute(bench.spec.x0, ctrl); });

  require(f_fixed.valid, "fixed-grid flowpipe valid");
  require(f_adapt.valid, "adaptive flowpipe valid");
  require(contains_trajectories(bench, ctrl, f_fixed, 10),
          "fixed-grid flowpipe contains simulated trajectories");
  require(contains_trajectories(bench, ctrl, f_adapt, 10),
          "adaptive flowpipe contains simulated trajectories");

  const double ratio = final_width_sum(f_adapt) / final_width_sum(f_fixed);
  require(ratio <= 1.0, "adaptive enclosure no wider than the fixed grid");

  // Determinism guard: the cells as one BatchVerifier group sharded over
  // 2 threads must reproduce the per-cell adaptive results bit for bit.
  {
    const std::vector<geom::Box> cells =
        bench.spec.x0.grid(std::vector<std::size_t>(bench.spec.x0.dim(), 2));
    std::vector<reach::Flowpipe> seq;
    for (const geom::Box& c : cells) seq.push_back(v_adapt.compute(c, ctrl));
    const reach::BatchVerifier bv(&v_adapt, 0, 2);
    const std::vector<reach::Flowpipe> bat = bv.compute(cells, ctrl);
    require(seq.size() == bat.size(), "adaptive batch flowpipe count");
    for (std::size_t i = 0; i < seq.size(); ++i) {
      require(seq[i].valid == bat[i].valid &&
                  boxes_eq(seq[i].step_sets, bat[i].step_sets) &&
                  boxes_eq(seq[i].interval_hulls, bat[i].interval_hulls),
              "batched adaptive flowpipe == scalar adaptive flowpipe");
    }
  }

  std::printf(
      "%s: fixed %zu substeps; adaptive %zu substeps, %zu rejects, "
      "%zu escalations, %zu reductions, h in [%g, %g]\n",
      tag, f_fixed.tm_stats.substeps, f_adapt.tm_stats.substeps,
      f_adapt.tm_stats.rejects, f_adapt.tm_stats.order_escalations,
      f_adapt.tm_stats.order_reductions, f_adapt.tm_stats.h_min,
      f_adapt.tm_stats.h_max);

  const std::string p = std::string("adaptive_") + tag;
  out.add(p + "_fixed_seconds", t_fixed, "s");
  out.add(p + "_adaptive_seconds", t_adapt, "s");
  out.add(p + "_speedup", t_fixed / t_adapt, "x");
  out.add(p + "_substeps_speedup",
          static_cast<double>(f_fixed.tm_stats.substeps) /
              static_cast<double>(f_adapt.tm_stats.substeps),
          "x");
  out.add(p + "_tightness_ratio", ratio, "x (<= 1)");
}

}  // namespace

int main() {
  std::printf("adaptive step/order control benchmarks\n");
  std::printf("--------------------------------------\n");
  Results out;

  // ACC over the full 10 s horizon with the paper's linear gain.
  {
    auto bench = ode::make_acc_benchmark();
    bench.spec.stop_at_goal = false;
    const nn::LinearController ctrl(linalg::Mat{{0.5, -1.2}});
    bench_case(out, "acc", bench, ctrl,
               std::make_shared<reach::LinearAbstraction>(), {});
  }
  // Van der Pol oscillator under a deterministic tanh MLP through the
  // Bernstein-polynomial abstraction (the nonlinear paper benchmark).
  {
    auto bench = ode::make_oscillator_benchmark();
    bench.spec.steps = 12;
    bench.spec.stop_at_goal = false;
    const nn::MlpController ctrl = osc_mlp();
    bench_case(out, "osc", bench, ctrl,
               std::make_shared<reach::PolarAbstraction>(), {});
  }

  out.write_json("BENCH_adaptive_step.json");
  std::printf("\nwrote BENCH_adaptive_step.json%s\n",
              g_fail ? " (CONTRACT FAILURES!)" : "");
  return g_fail == 0 ? 0 : 1;
}
