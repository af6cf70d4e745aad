// Shared configuration and reporting helpers for the table/figure
// reproduction harnesses. Each bench binary prints the paper's rows next to
// the measured values so the comparison is self-contained.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/initial_set.hpp"
#include "core/learner.hpp"
#include "core/verdict.hpp"
#include "ode/benchmarks.hpp"
#include "reach/tm_flowpipe.hpp"
#include "reach/verifier_kinds.hpp"
#include "rl/ddpg.hpp"
#include "rl/svg.hpp"
#include "sim/monte_carlo.hpp"

namespace dwvbench {

using namespace dwv;

/// Number of repetitions for mean/std columns; override with DWV_SEEDS.
inline std::size_t seed_count() {
  if (const char* s = std::getenv("DWV_SEEDS")) {
    const long v = std::strtol(s, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 3;
}

/// Monte-Carlo sample count for SC/GR (paper: 500); DWV_MC overrides.
inline std::size_t mc_samples() {
  if (const char* s = std::getenv("DWV_MC")) {
    const long v = std::strtol(s, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 500;
}

struct MeanStd {
  double mean = 0.0;
  double stddev = 0.0;
};

inline MeanStd mean_std(const std::vector<double>& xs) {
  MeanStd r;
  if (xs.empty()) return r;
  for (double x : xs) r.mean += x;
  r.mean /= static_cast<double>(xs.size());
  double s = 0.0;
  for (double x : xs) s += (x - r.mean) * (x - r.mean);
  r.stddev = xs.size() > 1
                 ? std::sqrt(s / static_cast<double>(xs.size() - 1))
                 : 0.0;
  return r;
}

// ------------------------------------------------------------------------
// Per-benchmark tuned learner settings (the working points found during
// development; see DESIGN.md "Design notes").
// ------------------------------------------------------------------------

inline core::LearnerOptions acc_learner_options(core::MetricKind metric,
                                                std::uint64_t seed) {
  core::LearnerOptions opt;
  opt.metric = metric;
  opt.alpha = metric == core::MetricKind::kWasserstein ? 0.2 : 1.0;
  opt.max_iters = 400;
  opt.step_size = 0.5;
  opt.perturbation = 0.05;
  opt.gradient = core::GradientMode::kSpsaAveraged;
  opt.spsa_samples = 2;
  opt.require_containment = true;
  opt.restarts = 4;
  opt.seed = seed;
  return opt;
}

inline core::LearnerOptions oscillator_learner_options(
    core::MetricKind metric, std::uint64_t seed) {
  core::LearnerOptions opt;
  opt.metric = metric;
  opt.alpha = metric == core::MetricKind::kWasserstein ? 0.2 : 1.0;
  opt.max_iters = metric == core::MetricKind::kWasserstein ? 240 : 400;
  opt.step_size = metric == core::MetricKind::kWasserstein ? 0.2 : 0.3;
  opt.require_containment = true;
  opt.restarts = 4;
  opt.restart_scale = 0.4;
  opt.seed = seed;
  return opt;
}

inline core::LearnerOptions sys3d_learner_options(core::MetricKind metric,
                                                  std::uint64_t seed) {
  core::LearnerOptions opt;
  opt.metric = metric;
  opt.alpha = metric == core::MetricKind::kWasserstein ? 0.2 : 1.0;
  opt.max_iters = 160;
  opt.step_size = 0.25;
  opt.require_containment = true;
  opt.restarts = 3;
  opt.restart_scale = 0.4;
  opt.seed = seed;
  return opt;
}

/// Fresh NN controller of the architecture used for the nonlinear
/// benchmarks (tanh hidden + tanh output; see DESIGN.md on why the smooth
/// hidden activation replaces the paper's ReLU for verification tightness).
inline nn::MlpController make_nn_controller(const ode::Benchmark& bench,
                                            std::uint64_t seed) {
  const double scale = bench.name == "oscillator" ? 2.0 : 1.0;
  nn::MlpController ctrl({bench.system->state_dim(), 6, 1}, scale,
                         nn::Activation::kTanh, nn::Activation::kTanh);
  std::mt19937_64 rng(seed * 7 + 1);
  ctrl.init_random(rng, 0.4);
  return ctrl;
}

/// Verifier by kind name (reach::make_verifier: "linear", "linctrl",
/// "poly", "polar", "reachnn", "interval"; unknown kinds throw).
inline reach::VerifierPtr make_verifier(const ode::Benchmark& bench,
                                        const std::string& kind,
                                        reach::TmReachOptions tm_opt = {}) {
  return reach::make_verifier(kind, bench.system, bench.spec, tm_opt);
}

// ------------------------------------------------------------------------
// Table-1 row runners.
// ------------------------------------------------------------------------

struct RowResult {
  std::string label;
  MeanStd ci;                  ///< convergence iterations across seeds
  double sc = 0.0;             ///< safe-control rate (pooled)
  double gr = 0.0;             ///< goal-reaching rate (pooled)
  std::string verdict;         ///< formal "Verified result" column
  double mean_verifier_time = 0.0;  ///< avg seconds per verifier call
  std::size_t successes = 0;
  std::size_t runs = 0;
};

inline void print_row(const RowResult& r, const char* paper_ci,
                      const char* paper_sc, const char* paper_gr,
                      const char* paper_verdict) {
  std::printf("%-22s CI %7.1f(+-%5.1f)  SC %5.1f%%  GR %5.1f%%  %-22s %zu/%zu",
              r.label.c_str(), r.ci.mean, r.ci.stddev, 100.0 * r.sc,
              100.0 * r.gr, r.verdict.c_str(), r.successes, r.runs);
  std::printf("  | paper: CI %-12s SC %-7s GR %-7s %s\n", paper_ci,
              paper_sc, paper_gr, paper_verdict);
}

/// Runs Algorithm 1 (+ the formal verdict) for one metric and verifier.
template <class ControllerFactory>
RowResult run_ours(const ode::Benchmark& bench,
                   const reach::VerifierPtr& verifier,
                   core::LearnerOptions base_opt, const std::string& label,
                   ControllerFactory make_controller) {
  RowResult row;
  row.label = label;
  std::vector<double> cis;
  double time_sum = 0.0;
  std::size_t safe_hits = 0;
  std::size_t goal_hits = 0;
  std::size_t mc_total = 0;
  bool all_certified = true;

  const std::size_t seeds = seed_count();
  for (std::uint64_t s = 1; s <= seeds; ++s) {
    core::LearnerOptions opt = base_opt;
    opt.seed = s;
    core::Learner learner(verifier, bench.spec, opt);
    auto ctrl = make_controller(s);
    const core::LearnResult res = learner.learn(*ctrl);
    ++row.runs;
    time_sum += res.verifier_seconds /
                std::max<std::size_t>(1, res.verifier_calls);
    if (!res.success) continue;  // Algorithm 1 returns nothing on failure
    ++row.successes;
    cis.push_back(static_cast<double>(res.iterations));
    const core::FlowpipeFacts facts =
        core::analyze_flowpipe(res.final_flowpipe, bench.spec);
    all_certified =
        all_certified && facts.safe_certified && facts.goal_certified;

    const sim::McStats mc = sim::monte_carlo_rates(
        *bench.system, *ctrl, bench.spec, mc_samples(), 1000 + s);
    safe_hits += static_cast<std::size_t>(mc.safe_rate *
                                          static_cast<double>(mc.samples));
    goal_hits += static_cast<std::size_t>(mc.goal_rate *
                                          static_cast<double>(mc.samples));
    mc_total += mc.samples;
  }
  row.ci = mean_std(cis);
  row.sc = mc_total ? static_cast<double>(safe_hits) /
                          static_cast<double>(mc_total)
                    : 0.0;
  row.gr = mc_total ? static_cast<double>(goal_hits) /
                          static_cast<double>(mc_total)
                    : 0.0;
  row.mean_verifier_time = time_sum / static_cast<double>(seeds);
  row.verdict = row.successes == 0
                    ? "Unknown"
                    : (all_certified ? "reach-avoid (X_I=X0)"
                                     : "reach-avoid (partial)");
  return row;
}

/// Design-then-verify baseline rows (SVG / DDPG): train, then verify.
inline RowResult finish_baseline_row(
    const ode::Benchmark& bench, RowResult row,
    const std::vector<std::unique_ptr<nn::Controller>>& policies,
    const reach::VerifierPtr& verifier) {
  std::size_t safe_hits = 0;
  std::size_t goal_hits = 0;
  std::size_t mc_total = 0;
  core::Verdict worst = core::Verdict::kReachAvoid;
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const sim::McStats mc = sim::monte_carlo_rates(
        *bench.system, *policies[i], bench.spec, mc_samples(), 2000 + i);
    safe_hits += static_cast<std::size_t>(mc.safe_rate *
                                          static_cast<double>(mc.samples));
    goal_hits += static_cast<std::size_t>(mc.goal_rate *
                                          static_cast<double>(mc.samples));
    mc_total += mc.samples;
    const core::VerificationReport rep = core::verify_controller(
        *verifier, *bench.system, *policies[i], bench.spec, 200, 77 + i);
    // Report the weakest verdict across seeds (Unsafe < Unknown < RA).
    if (rep.verdict == core::Verdict::kUnsafe) {
      worst = core::Verdict::kUnsafe;
    } else if (rep.verdict == core::Verdict::kUnknown &&
               worst == core::Verdict::kReachAvoid) {
      worst = core::Verdict::kUnknown;
    }
  }
  row.sc = static_cast<double>(safe_hits) / static_cast<double>(mc_total);
  row.gr = static_cast<double>(goal_hits) / static_cast<double>(mc_total);
  row.verdict = core::to_string(worst);
  return row;
}

/// The ACC spec with X0 widened 3x around its centre: under the gain
/// (0.8, -2.75) only the inner part reaches the goal, so an X_I search
/// over it both falsifies cells and verifies them (the X_I micro-benches
/// time this tree; tests/test_shard_search.cpp's AccSearch is the same).
inline ode::ReachAvoidSpec widened_acc_spec(const ode::Benchmark& acc) {
  ode::ReachAvoidSpec spec = acc.spec;
  for (std::size_t d = 0; d < spec.x0.dim(); ++d) {
    const double c = 0.5 * (spec.x0[d].lo() + spec.x0[d].hi());
    const double h = 1.5 * (spec.x0[d].hi() - spec.x0[d].lo());
    spec.x0[d] = interval::Interval(c - h, c + h);
  }
  return spec;
}

}  // namespace dwvbench
