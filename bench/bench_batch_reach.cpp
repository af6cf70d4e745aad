// Benchmarks for the lane-batched verification engine (DESIGN.md section
// 11): SoA interval lane kernels, reach::BatchVerifier over grouped cells,
// the work-stealing refinement frontier of search_initial_set, and batched
// SPSA probe evaluation in the learner. Every speedup is a same-run ratio
// (batching off vs on in this process), so the keys transfer across
// machines; the bit-identity contract is asserted inline — the bench FAILS
// (nonzero exit) if any batched result deviates from the scalar path by a
// single bit. Results are printed as a table and written to
// BENCH_batch_reach.json.
//
//   $ ./bench_batch_reach
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/initial_set.hpp"
#include "core/learner.hpp"
#include "interval/lanes.hpp"
#include "nn/controller.hpp"
#include "ode/benchmarks.hpp"
#include "reach/batch.hpp"
#include "reach/control_abstraction.hpp"
#include "reach/interval_reach.hpp"
#include "reach/tm_flowpipe.hpp"

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
    std::printf("%-28s %12.3f %s\n", name.c_str(), value, unit);
  }

  void write_json(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (!f) return;
    std::fprintf(f, "{\n  \"bench\": \"batch_reach\",\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(f, "  \"%s\": %.3f%s\n", rows[i].first.c_str(),
                   rows[i].second, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
  }
};

int g_bitfail = 0;

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

void require(bool ok, const char* what) {
  if (!ok) {
    std::printf("BIT-IDENTITY FAILURE: %s\n", what);
    ++g_bitfail;
  }
}

// Minimum wall time of `reps` runs of `fn` (best-of to shed scheduler
// noise; the ratio of two best-of numbers from the same process is stable).
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

// Cells of a regular grid over the ACC initial box — the workload shape of
// every batched call site (sibling sub-boxes of a refinement level).
std::vector<geom::Box> make_cells(const geom::Box& x0, std::size_t per_dim) {
  return x0.grid(std::vector<std::size_t>(x0.dim(), per_dim));
}

// --- SoA lane kernels vs scalar interval arithmetic ----------------------
void bench_lane_kernels(Results& out) {
  constexpr std::size_t kW = interval::lanes::kWidth;
  const interval::lanes::Ops& lanes = interval::lanes::active_ops();
  const interval::lanes::Ops& scalar = interval::lanes::scalar_ops();
  alignas(32) double alo[kW], ahi[kW], blo[kW], bhi[kW], rlo[kW], rhi[kW];
  for (std::size_t k = 0; k < kW; ++k) {
    alo[k] = -0.25 - 0.01 * static_cast<double>(k);
    ahi[k] = 0.75 + 0.02 * static_cast<double>(k);
    blo[k] = 0.5 - 0.03 * static_cast<double>(k);
    bhi[k] = 1.5 + 0.01 * static_cast<double>(k);
  }
  constexpr std::size_t kReps = 2000000;
  const double t_scalar = time_best_seconds(5, [&] {
    for (std::size_t i = 0; i < kReps; ++i) {
      scalar.mul(alo, ahi, blo, bhi, rlo, rhi);
      scalar.add(rlo, rhi, blo, bhi, rlo, rhi);
    }
  });
  const double t_lanes = time_best_seconds(5, [&] {
    for (std::size_t i = 0; i < kReps; ++i) {
      lanes.mul(alo, ahi, blo, bhi, rlo, rhi);
      lanes.add(rlo, rhi, blo, bhi, rlo, rhi);
    }
  });
  std::printf("lane backend: %s\n", lanes.name);
  out.add("lane_mul_add_scalar_ns", t_scalar * 1e9 / kReps, "ns/op");
  out.add("lane_mul_add_lanes_ns", t_lanes * 1e9 / kReps, "ns/op");
}

// --- BatchVerifier over grouped cells vs sequential compute --------------
void bench_batch_verifier(Results& out) {
  const auto bm = ode::make_acc_benchmark();
  linalg::Mat k(1, 2);
  k(0, 0) = 0.5;
  k(0, 1) = -1.2;
  const nn::LinearController ctrl(k);
  const reach::IntervalVerifier v(bm.system, bm.spec, {});
  const std::vector<geom::Box> cells = make_cells(bm.spec.x0, 6);  // 36

  std::vector<reach::Flowpipe> seq;
  const double t_seq = time_best_seconds(5, [&] {
    seq.clear();
    for (const geom::Box& c : cells) seq.push_back(v.compute(c, ctrl));
  });

  const reach::BatchVerifier bv(&v, 0);
  std::vector<reach::Flowpipe> bat;
  const double t_bat =
      time_best_seconds(5, [&] { bat = bv.compute(cells, ctrl); });

  require(seq.size() == bat.size(), "batch flowpipe count");
  for (std::size_t i = 0; i < seq.size(); ++i) {
    require(seq[i].valid == bat[i].valid &&
                boxes_eq(seq[i].step_sets, bat[i].step_sets) &&
                boxes_eq(seq[i].interval_hulls, bat[i].interval_hulls),
            "batched flowpipe == scalar flowpipe");
  }
  out.add("batch_reach_seq_seconds", t_seq, "s");
  out.add("batch_reach_batch_seconds", t_bat, "s");
  out.add("batch_reach_speedup", t_seq / t_bat, "x");
}

// --- TmVerifier: BatchVerifier groups vs sequential compute --------------
void bench_tm_batch(Results& out) {
  const auto bm = ode::make_acc_benchmark();
  linalg::Mat k(1, 2);
  k(0, 0) = 0.5;
  k(0, 1) = -1.2;
  const nn::LinearController ctrl(k);
  const reach::TmVerifier v(bm.system, bm.spec,
                            std::make_shared<reach::LinearAbstraction>());
  const std::vector<geom::Box> cells = make_cells(bm.spec.x0, 6);  // 36

  // Best-of-9: a TM rep runs ~40ms, long enough for scheduler noise to
  // distort a best-of-5 minimum on either side of the reported ratio.
  std::vector<reach::Flowpipe> seq;
  const double t_seq = time_best_seconds(9, [&] {
    seq.clear();
    for (const geom::Box& c : cells) seq.push_back(v.compute(c, ctrl));
  });

  // The batched verifier as shipped: TM cells one at a time, sharded
  // across the process thread pool (threads = 0 resolves via DWV_THREADS /
  // hardware_concurrency), so the ratio is thread-level parallelism only.
  const reach::BatchVerifier bv(&v, 0, 0);
  std::vector<reach::Flowpipe> bat;
  const double t_bat =
      time_best_seconds(9, [&] { bat = bv.compute(cells, ctrl); });

  require(seq.size() == bat.size(), "tm batch flowpipe count");
  for (std::size_t i = 0; i < seq.size(); ++i) {
    require(seq[i].valid == bat[i].valid &&
                boxes_eq(seq[i].step_sets, bat[i].step_sets) &&
                boxes_eq(seq[i].interval_hulls, bat[i].interval_hulls),
            "batched TM flowpipe == scalar TM flowpipe");
  }
  out.add("tm_batch_seq_seconds", t_seq, "s");
  out.add("tm_batch_batch_seconds", t_bat, "s");
  out.add("tm_batch_speedup", t_seq / t_bat, "x");
}

// --- symbolic remainder queue: enclosure tightness vs queue-off ----------
//
// The queued mode's contract (DESIGN.md §12): final enclosures no wider
// than the conventional interval-remainder transport on the paper
// benchmarks. Reported as the ratio (queued final width sum / queue-off
// final width sum); the bench FAILS if a ratio exceeds 1.0, and
// check_bench_regression.py gates committed ratios against creep.
double final_width_sum(const reach::Flowpipe& fp) {
  double s = 0.0;
  const geom::Box& last = fp.step_sets.back();
  for (std::size_t d = 0; d < last.dim(); ++d) s += last[d].width();
  return s;
}

void bench_sym_tightness(Results& out) {
  // ACC over the full 10 s horizon with the paper's linear gain.
  {
    auto bm = ode::make_acc_benchmark();
    bm.spec.stop_at_goal = false;
    linalg::Mat k(1, 2);
    k(0, 0) = 0.5;
    k(0, 1) = -1.2;
    const nn::LinearController ctrl(k);
    reach::TmReachOptions on;
    on.symbolic_remainder = true;
    const reach::TmVerifier v_off(bm.system, bm.spec,
                                  std::make_shared<reach::LinearAbstraction>());
    const reach::TmVerifier v_on(bm.system, bm.spec,
                                 std::make_shared<reach::LinearAbstraction>(),
                                 on);
    const reach::Flowpipe f_off = v_off.compute(bm.spec.x0, ctrl);
    const reach::Flowpipe f_on = v_on.compute(bm.spec.x0, ctrl);
    require(f_off.valid && f_on.valid, "acc tightness pipes valid");
    require(f_on.step_sets.size() == f_off.step_sets.size(),
            "acc tightness step counts match");
    const double ratio = final_width_sum(f_on) / final_width_sum(f_off);
    require(ratio <= 1.0, "acc queued enclosure no wider than queue-off");
    out.add("tm_sym_acc_tightness_ratio", ratio, "x (<= 1)");
  }
  // Van der Pol oscillator under a deterministic tanh MLP (the rotating
  // flow where the queue's matrix transport beats per-step box hulls).
  {
    auto bm = ode::make_oscillator_benchmark();
    bm.spec.stop_at_goal = false;
    bm.spec.steps = 12;
    nn::MlpController ctrl({2, 8, 1}, 1.0);
    linalg::Vec p(ctrl.param_count());
    for (std::size_t i = 0; i < p.size(); ++i)
      p[i] = 0.1 * std::sin(1.0 + 2.7 * static_cast<double>(i));
    ctrl.set_params(p);
    reach::TmReachOptions on;
    on.symbolic_remainder = true;
    const reach::TmVerifier v_off(bm.system, bm.spec,
                                  std::make_shared<reach::PolarAbstraction>());
    const reach::TmVerifier v_on(bm.system, bm.spec,
                                 std::make_shared<reach::PolarAbstraction>(),
                                 on);
    const reach::Flowpipe f_off = v_off.compute(bm.spec.x0, ctrl);
    const reach::Flowpipe f_on = v_on.compute(bm.spec.x0, ctrl);
    require(f_off.valid && f_on.valid, "oscillator tightness pipes valid");
    require(f_on.step_sets.size() == f_off.step_sets.size(),
            "oscillator tightness step counts match");
    const double ratio = final_width_sum(f_on) / final_width_sum(f_off);
    require(ratio <= 1.0,
            "oscillator queued enclosure no wider than queue-off");
    out.add("tm_sym_osc_tightness_ratio", ratio, "x (<= 1)");
  }
}

// --- search_initial_set: lane groups vs one cell per call ----------------
// ACC with X0 widened 3x around its centre under the gain (0.8, -2.75):
// centre rollouts falsify the outer cells and the interval verifier
// checks the other 416. On the plain ACC spec every cell of a weak gain's
// tree holds a counterexample, so the search would skip the verifier
// altogether.
void bench_initial_set(Results& out) {
  const auto bm = ode::make_acc_benchmark();
  const ode::ReachAvoidSpec spec = dwvbench::widened_acc_spec(bm);
  const nn::LinearController ctrl(linalg::Mat{{0.8, -2.75}});
  const reach::IntervalVerifier v(bm.system, spec, {});

  core::InitialSetOptions base;
  base.max_depth = 8;
  base.threads = 8;
  base.batch = 1;
  core::InitialSetOptions batched = base;
  batched.batch = 0;

  core::InitialSetResult r_base, r_batch;
  const double t_base = time_best_seconds(5, [&] {
    r_base = core::search_initial_set(v, spec, ctrl, base);
  });
  const double t_batch = time_best_seconds(5, [&] {
    r_batch = core::search_initial_set(v, spec, ctrl, batched);
  });

  require(boxes_eq(r_base.certified, r_batch.certified) &&
              boxes_eq(r_base.rejected, r_batch.rejected) &&
              std::bit_cast<std::uint64_t>(r_base.coverage) ==
                  std::bit_cast<std::uint64_t>(r_batch.coverage) &&
              r_base.verifier_calls == r_batch.verifier_calls,
          "lane-batched X_I == per-cell X_I");
  std::printf("initial_set: %zu calls, %zu certified, %zu rejected\n",
              r_base.verifier_calls, r_base.certified.size(),
              r_base.rejected.size());
  out.add("initial_set_base_seconds", t_base, "s");
  out.add("initial_set_batch_seconds", t_batch, "s");
  out.add("initial_set_speedup", t_base / t_batch, "x");
}

// --- learner: batched SPSA probe pairs vs per-probe evaluation -----------
void bench_spsa_probes(Results& out) {
  const auto bm = ode::make_acc_benchmark();
  const auto run = [&](std::size_t batch, linalg::Vec& params_out) {
    core::LearnerOptions lo;
    lo.max_iters = 4;
    lo.restarts = 1;
    lo.threads = 1;
    lo.gradient = core::GradientMode::kSpsaAveraged;
    lo.spsa_samples = 4;
    lo.batch = batch;
    const core::Learner learner(
        std::make_shared<reach::IntervalVerifier>(
            bm.system, bm.spec, reach::IntervalReachOptions{}),
        bm.spec, lo);
    linalg::Mat k0(1, 2);
    k0(0, 0) = 0.5;
    k0(0, 1) = -1.2;
    nn::LinearController ctrl(k0);
    const double t0 = now_seconds();
    learner.learn(ctrl);
    const double dt = now_seconds() - t0;
    params_out = ctrl.params();
    return dt;
  };

  linalg::Vec p_seq, p_bat, scratch;
  double t_seq = 1e300, t_bat = 1e300;
  for (int r = 0; r < 5; ++r) {
    t_seq = std::min(t_seq, run(1, r == 0 ? p_seq : scratch));
    t_bat = std::min(t_bat, run(0, r == 0 ? p_bat : scratch));
  }
  bool eq = p_seq.size() == p_bat.size();
  for (std::size_t i = 0; eq && i < p_seq.size(); ++i)
    eq = std::bit_cast<std::uint64_t>(p_seq[i]) ==
         std::bit_cast<std::uint64_t>(p_bat[i]);
  require(eq, "batched SPSA learned params == per-probe params");
  out.add("spsa_probe_seq_seconds", t_seq, "s");
  out.add("spsa_probe_batch_seconds", t_bat, "s");
  out.add("spsa_probe_speedup", t_seq / t_bat, "x");
}

}  // namespace

int main() {
  std::printf("lane-batched verification benchmarks\n");
  std::printf("------------------------------------\n");
  Results out;
  bench_lane_kernels(out);
  bench_batch_verifier(out);
  bench_tm_batch(out);
  bench_sym_tightness(out);
  bench_initial_set(out);
  bench_spsa_probes(out);
  out.write_json("BENCH_batch_reach.json");
  std::printf("\nwrote BENCH_batch_reach.json%s\n",
              g_bitfail ? " (BIT-IDENTITY FAILURES!)" : "");
  return g_bitfail == 0 ? 0 : 1;
}
