// The four workloads of the end-to-end benchmark (README.md in this
// directory gives the why of each). Every job builds its benchmark,
// verifier and learner afresh, as one `dwv` command does, and then makes
// the public calls that command makes.
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <optional>
#include <random>
#include <stdexcept>

#include "core/initial_set.hpp"
#include "core/learner.hpp"
#include "core/metrics.hpp"
#include "core/verdict.hpp"
#include "e2e.hpp"
#include "nn/serialize.hpp"
#include "ode/benchmarks.hpp"
#include "reach/batch.hpp"
#include "reach/grad_flowpipe.hpp"
#include "reach/linear_reach.hpp"
#include "reach/serialize.hpp"
#include "reach/tm_flowpipe.hpp"
#include "sim/monte_carlo.hpp"

namespace e2e {
namespace {

using namespace dwv;
namespace fs = std::filesystem;

// Replays of single-layer calls are repeated and reported as the median of
// the repetitions, so sub-millisecond calls rise above timer noise.
constexpr std::size_t kComputeReps = 5;
constexpr std::size_t kMetricReps = 21;
constexpr std::size_t kLeafReplay = 32;  // leaf cells replayed per job
constexpr std::size_t kMcSamples = 500;  // Table 1 / `dwv learn`
constexpr std::size_t kSpotSamples = 16;  // MC rollouts per certified cell

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Checksum of exact result bits, printed per job so later changes can
/// show whether bits moved.
class Digest {
 public:
  Digest& u64(std::uint64_t v) {
    w_.u64(v);
    return *this;
  }
  Digest& f64(double v) {
    w_.f64(v);
    return *this;
  }
  Digest& vec(const linalg::Vec& v) {
    for (std::size_t i = 0; i < v.size(); ++i) w_.f64(v[i]);
    return *this;
  }
  Digest& pipe(const reach::Flowpipe& fp) {
    reach::ser::put(w_, fp);
    return *this;
  }
  Digest& search(const core::InitialSetResult& r) {
    core::put(w_, r);
    return *this;
  }
  std::uint64_t value() const {
    return reach::ser::checksum64(w_.bytes().data(), w_.bytes().size());
  }

 private:
  reach::ser::Writer w_;
};

reach::ser::Bytes pipe_bytes(const reach::Flowpipe& fp) {
  reach::ser::Writer w;
  reach::ser::put(w, fp);
  return w.take();
}

bool same_bits(const linalg::Vec& a, const linalg::Vec& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

/// Sum of the widths of the flowpipe's last step set (tightness guard).
double final_width(const reach::Flowpipe& fp) {
  if (fp.step_sets.empty()) return 0.0;
  double w = 0.0;
  const geom::Box& b = fp.step_sets.back();
  for (std::size_t i = 0; i < b.dim(); ++i) w += b[i].width();
  return w;
}

/// Runs fn() `reps` times under one span and returns the median duration.
template <class F>
double timed_median(Tracer& tr, const char* name, std::size_t reps, F&& fn) {
  std::vector<double> ts;
  const double t0 = now_s();
  for (std::size_t i = 0; i < reps; ++i) {
    const double a = now_s();
    fn();
    ts.push_back(now_s() - a);
  }
  const double t1 = now_s();
  std::nth_element(ts.begin(), ts.begin() + ts.size() / 2, ts.end());
  const double med = ts[ts.size() / 2];
  Span s{name, "replay", tr.job(), t0, t1, {}};
  s.args["reps"] = static_cast<double>(reps);
  s.args["median_s"] = med;
  tr.add(std::move(s));
  return med;
}

void put_tm_stats(JobResult& r, const reach::TmReachStats& s) {
  r.layers["reach.tm.substeps"] = static_cast<double>(s.substeps);
  r.layers["reach.tm.rejects"] = static_cast<double>(s.rejects);
  r.layers["reach.tm.reinits"] = static_cast<double>(s.reinits);
}

void put_learn_layers(Tracer& tr, JobResult& r, const char* span,
                      double learn_s, const core::LearnResult& lr) {
  const double calls = static_cast<double>(lr.verifier_calls);
  r.layers["learner.wall_s"] = learn_s;
  r.layers["learner.self_s"] = learn_s - lr.verifier_seconds;
  r.layers["learner.calls_per_iter"] =
      calls / static_cast<double>(std::max<std::size_t>(1, lr.iterations));
  r.layers["reach.verify_s"] = lr.verifier_seconds;
  r.layers["reach.call_s"] = lr.verifier_seconds / std::max(1.0, calls);
  tr.annotate(span, "verifier_seconds", lr.verifier_seconds);
  tr.annotate(span, "verifier_calls", calls);
  tr.annotate(span, "iterations", static_cast<double>(lr.iterations));
}

void put_cache_layers(JobResult& r, const std::string& phase,
                      const reach::CacheStats& s) {
  const std::string p = "cache." + phase + ".";
  r.layers[p + "hits"] = static_cast<double>(s.hits);
  r.layers[p + "misses"] = static_cast<double>(s.misses);
  r.layers[p + "disk_hits"] = static_cast<double>(s.disk_hits);
  r.layers[p + "disk_bytes_read"] = static_cast<double>(s.disk_bytes_read);
  r.layers[p + "disk_bytes_written"] =
      static_cast<double>(s.disk_bytes_written);
  r.layers[p + "overhead_s"] = s.overhead_seconds;
  r.layers[p + "miss_compute_s"] = s.miss_compute_seconds;
}

/// Layer replays shared by every workload, on a job's final state: the
/// scalar verifier call on X0 (and its TM counters), both feedback metrics
/// on its flowpipe, Learner::evaluate and (where supported) the dual
/// gradient pass. When `expect` is given, the replayed flowpipe must
/// reproduce it bit for bit.
void replay_common(Tracer& tr, JobResult& r, const reach::VerifierPtr& v,
                   const ode::ReachAvoidSpec& spec, const nn::Controller& ctrl,
                   const reach::Flowpipe* expect) {
  reach::Flowpipe fp;
  r.layers["reach.compute_s"] =
      timed_median(tr, "reach.compute", kComputeReps,
                   [&] { fp = v->compute(spec.x0, ctrl); });
  if (expect != nullptr && pipe_bytes(fp) != pipe_bytes(*expect)) {
    r.fail("scalar compute replay differs from the job's final flowpipe");
  }
  put_tm_stats(r, fp.tm_stats);
  r.layers["metrics.geometric_s"] =
      timed_median(tr, "core.metrics.geometric", kMetricReps,
                   [&] { (void)core::geometric_metrics(fp, spec); });
  if (fp.valid) {
    r.layers["metrics.wasserstein_s"] =
        timed_median(tr, "core.metrics.wasserstein", kMetricReps,
                     [&] { (void)core::wasserstein_metrics(fp, spec); });
  }
  const core::Learner probe(v, spec, core::LearnerOptions{});
  r.layers["metrics.evaluate_s"] =
      timed_median(tr, "core.learner.evaluate", kComputeReps,
                   [&] { (void)probe.evaluate(ctrl); });

  const auto* tv = dynamic_cast<const reach::TmVerifier*>(v.get());
  if (tv != nullptr && reach::TmGradient::unsupported_reason(*tv, ctrl) ==
                           nullptr) {
    const reach::TmGradient engine(*tv);
    reach::GradFlowpipe g;
    r.layers["grad.pass_s"] =
        timed_median(tr, "reach.grad", kComputeReps,
                     [&] { g = engine.compute(spec.x0, ctrl); });
    if (pipe_bytes(g.fp) != pipe_bytes(fp)) {
      r.fail("dual pass value channel differs from scalar compute");
    }
  }
}

// ---------------------------------------------------------------------------
// Algorithm 1 + final verdict + 500-rollout MC check, as `dwv learn` does.

struct LearnSetup {
  ode::Benchmark bench;
  reach::VerifierPtr verifier;
  core::LearnerOptions opt;
};

class LearnWorkload : public Workload {
 public:
  JobResult run(Tracer& tr) override {
    JobResult r;
    LearnSetup s = make_setup();
    nn::ControllerPtr ctrl = base_->clone();
    const core::Learner learner(s.verifier, s.bench.spec, s.opt);
    core::LearnResult lr;
    const double learn_s = tr.span("core.learner", "job",
                                   [&] { lr = learner.learn(*ctrl); });
    core::VerificationReport rep;
    const double verdict_s = tr.span("core.verdict", "job", [&] {
      rep = core::verify_controller(*s.verifier, *s.bench.system, *ctrl,
                                    s.bench.spec);
    });
    sim::McStats mc;
    const double mc_s = tr.span("sim.mc", "job", [&] {
      mc = sim::monte_carlo_rates(*s.bench.system, *ctrl, s.bench.spec,
                                  kMcSamples, mc_seed_);
    });

    if (!lr.success) r.fail("learner did not converge within its budget");
    if (rep.verdict != core::Verdict::kReachAvoid) {
      r.fail("final verdict is " + core::to_string(rep.verdict));
    }
    if (mc.safe_rate != 1.0) r.fail("MC found an unsafe trace");
    r.verifier_calls = static_cast<double>(lr.verifier_calls);
    r.iterations = static_cast<double>(lr.iterations);
    r.coverage = rep.verdict == core::Verdict::kReachAvoid ? 1.0 : 0.0;
    r.final_width = final_width(lr.final_flowpipe);
    r.sc_rate = mc.safe_rate;
    r.gr_rate = mc.goal_rate;
    r.digest = Digest()
                   .vec(ctrl->params())
                   .pipe(lr.final_flowpipe)
                   .u64(lr.iterations)
                   .u64(lr.verifier_calls)
                   .u64(static_cast<std::uint64_t>(rep.verdict))
                   .f64(mc.safe_rate)
                   .f64(mc.goal_rate)
                   .value();
    if (tr.on()) {
      put_learn_layers(tr, r, "core.learner", learn_s, lr);
      r.layers["verdict.s"] = verdict_s;
      r.layers["sim.mc_s"] = mc_s;
    }
    last_ = std::move(s);
    last_ctrl_ = std::move(ctrl);
    last_fp_ = lr.final_flowpipe;
    return r;
  }

  void replay(Tracer& tr, JobResult& r) override {
    replay_common(tr, r, last_.verifier, last_.bench.spec, *last_ctrl_,
                  &last_fp_);
  }

 protected:
  LearnWorkload(nn::ControllerPtr base, std::uint64_t mc_seed)
      : base_(std::move(base)), mc_seed_(mc_seed) {}

  virtual LearnSetup make_setup() const = 0;

 private:
  nn::ControllerPtr base_;
  std::uint64_t mc_seed_;
  LearnSetup last_;
  nn::ControllerPtr last_ctrl_;
  reach::Flowpipe last_fp_;
};

/// The oscillator learner of `dwv learn oscillator` (tools/dwv_cli.cpp):
/// 2-6-1 tanh MLP at scale 2.0, POLAR-lite TM verifier (order 3,
/// substeps 2), geometric metric, single-sample SPSA.
class OscPolarLearn final : public LearnWorkload {
 public:
  OscPolarLearn(std::uint64_t input_seed, const WorkloadConfig& cfg)
      : LearnWorkload(make_ctrl(input_seed), mix(cfg.seed)),
        input_seed_(input_seed) {}

 private:
  static nn::ControllerPtr make_ctrl(std::uint64_t input_seed) {
    auto c = std::make_unique<nn::MlpController>(
        std::vector<std::size_t>{2, 6, 1}, 2.0, nn::Activation::kTanh,
        nn::Activation::kTanh);
    std::mt19937_64 rng(input_seed * 7 + 1);
    c->init_random(rng, 0.4);
    return c;
  }

  LearnSetup make_setup() const override {
    LearnSetup s{ode::make_oscillator_benchmark(), nullptr, {}};
    s.verifier = std::make_shared<reach::TmVerifier>(
        s.bench.system, s.bench.spec,
        std::make_shared<reach::PolarAbstraction>(), reach::TmReachOptions{});
    s.opt.require_containment = true;
    s.opt.seed = input_seed_;
    s.opt.max_iters = 240;
    s.opt.step_size = 0.25;
    s.opt.restarts = 4;
    s.opt.restart_scale = 0.4;
    s.opt.threads = 1;
    s.opt.batch = 0;
    return s;
  }

  std::uint64_t input_seed_;
};

/// The ACC learner options of `dwv learn acc`, at one thread.
core::LearnerOptions acc_learner_options() {
  core::LearnerOptions o;
  o.require_containment = true;
  o.max_iters = 400;
  o.step_size = 0.5;
  o.perturbation = 0.05;
  o.gradient = core::GradientMode::kSpsaAveraged;
  o.spsa_samples = 2;
  o.restarts = 4;
  o.threads = 1;
  o.batch = 0;
  return o;
}

/// Exactly `dwv learn acc`: zero linear gain, zonotope LinearVerifier,
/// averaged SPSA with 2 samples, 400-iteration budget.
class AccLinearLearn final : public LearnWorkload {
 public:
  AccLinearLearn(std::uint64_t input_seed, const WorkloadConfig& cfg)
      : LearnWorkload(std::make_unique<nn::LinearController>(linalg::Mat(1, 2)),
                      mix(cfg.seed)),
        input_seed_(input_seed) {}

 private:
  LearnSetup make_setup() const override {
    LearnSetup s{ode::make_acc_benchmark(), nullptr, acc_learner_options()};
    s.verifier =
        std::make_shared<reach::LinearVerifier>(s.bench.system, s.bench.spec);
    s.opt.seed = input_seed_;
    return s;
  }

  std::uint64_t input_seed_;
};

// ---------------------------------------------------------------------------
// Algorithm 2 at depth 9 on the oscillator through POLAR-lite.

class OscXiSearch final : public Workload {
 public:
  explicit OscXiSearch(const WorkloadConfig& cfg)
      : bench_(ode::make_oscillator_benchmark()), mc_seed_(mix(cfg.seed)) {
    const std::string path =
        cfg.controller.empty() ? cfg.data_dir + "/osc_seed3_x1.06.ctrl"
                               : cfg.controller;
    ctrl_ = nn::load_controller_file(path);
  }

  JobResult run(Tracer& tr) override {
    JobResult r;
    verifier_ = std::make_shared<reach::TmVerifier>(
        bench_.system, bench_.spec, std::make_shared<reach::PolarAbstraction>(),
        reach::TmReachOptions{});
    core::InitialSetResult res;
    const double cpu0 = cpu_seconds();
    const double wall = tr.span("core.search", "job", [&] {
      res = core::search_initial_set(*verifier_, bench_.spec, *ctrl_,
                                     options(kThreads));
    });
    const double cpu = cpu_seconds() - cpu0;

    if (res.certified.empty()) r.fail("search certified no cell");
    if (!(res.coverage > 0.0 && res.coverage <= 1.0)) {
      r.fail("coverage outside (0, 1]");
    }
    r.verifier_calls = static_cast<double>(res.verifier_calls);
    r.iterations =
        static_cast<double>(res.certified.size() + res.rejected.size());
    r.coverage = res.coverage;
    r.digest = Digest().search(res).value();
    if (tr.on()) {
      const double calls = static_cast<double>(res.verifier_calls);
      r.layers["search.wall_s"] = wall;
      r.layers["search.cpu_s"] = cpu;
      r.layers["search.parallelism"] = cpu / wall;
      r.layers["search.call_s"] = cpu / std::max(1.0, calls);
      r.layers["search.certified_cells"] =
          static_cast<double>(res.certified.size());
      r.layers["search.rejected_cells"] =
          static_cast<double>(res.rejected.size());
      tr.annotate("core.search", "cpu_s", cpu);
      tr.annotate("core.search", "verifier_calls", calls);
    }
    last_ = std::move(res);
    return r;
  }

  void check_reference(JobResult& ref) override {
    // The same search on one thread must give the same bits.
    const core::InitialSetResult serial =
        core::search_initial_set(*verifier_, bench_.spec, *ctrl_, options(1));
    if (Digest().search(serial).value() != ref.digest) {
      ref.fail("search at 1 thread differs from 2 threads");
    }
    // MC soundness spot-check: every rollout from a certified cell must be
    // safe and reach the goal.
    std::size_t safe = 0, goal = 0, total = 0;
    for (std::size_t i = 0; i < last_.certified.size(); ++i) {
      ode::ReachAvoidSpec cell = bench_.spec;
      cell.x0 = last_.certified[i];
      const sim::McStats mc = sim::monte_carlo_rates(
          *bench_.system, *ctrl_, cell, kSpotSamples, mc_seed_ + i);
      if (mc.safe_rate != 1.0 || mc.goal_rate != 1.0) {
        ref.fail("MC spot-check contradicts certified cell " +
                 std::to_string(i));
      }
      safe += static_cast<std::size_t>(mc.safe_rate * kSpotSamples + 0.5);
      goal += static_cast<std::size_t>(mc.goal_rate * kSpotSamples + 0.5);
      total += kSpotSamples;
    }
    ref.sc_rate = total ? static_cast<double>(safe) / total : 0.0;
    ref.gr_rate = total ? static_cast<double>(goal) / total : 0.0;
    ref.final_width =
        final_width(verifier_->compute(bench_.spec.x0, *ctrl_));
  }

  void replay(Tracer& tr, JobResult& r) override {
    replay_common(tr, r, verifier_, bench_.spec, *ctrl_, nullptr);
    // A fixed, evenly spread subset of the leaf cells, through scalar
    // compute() and through the lockstep batch lanes (which must agree).
    std::vector<geom::Box> leaves = last_.certified;
    leaves.insert(leaves.end(), last_.rejected.begin(), last_.rejected.end());
    std::vector<geom::Box> pick;
    const std::size_t stride =
        std::max<std::size_t>(1, leaves.size() / kLeafReplay);
    for (std::size_t i = 0; i < leaves.size() && pick.size() < kLeafReplay;
         i += stride) {
      pick.push_back(leaves[i]);
    }
    const double n = static_cast<double>(pick.size());
    std::vector<reach::Flowpipe> scalar(pick.size());
    r.layers["reach.leaf_scalar_s"] =
        tr.span("reach.leaf_scalar", "replay", [&] {
          for (std::size_t i = 0; i < pick.size(); ++i) {
            scalar[i] = verifier_->compute(pick[i], *ctrl_);
          }
        }) / n;
    std::vector<reach::Flowpipe> batched;
    const reach::BatchVerifier bv(verifier_.get(), 0, 1);
    r.layers["reach.leaf_batch_s"] =
        tr.span("reach.leaf_batch", "replay",
                [&] { batched = bv.compute(pick, *ctrl_); }) /
        n;
    for (std::size_t i = 0; i < pick.size(); ++i) {
      if (pipe_bytes(scalar[i]) != pipe_bytes(batched[i])) {
        r.fail("batch lanes differ from scalar compute on a leaf cell");
        break;
      }
    }
  }

 private:
  static constexpr std::size_t kThreads = 2;

  static core::InitialSetOptions options(std::size_t threads) {
    core::InitialSetOptions o;
    o.max_depth = 9;
    o.threads = threads;
    o.batch = 0;
    o.reuse_parent_prefix = false;
    return o;
  }

  ode::Benchmark bench_;
  nn::ControllerPtr ctrl_;
  std::uint64_t mc_seed_;
  reach::VerifierPtr verifier_;
  core::InitialSetResult last_;
};

// ---------------------------------------------------------------------------
// ACC TM learning with analytic gradients and the persistent cache: a cold
// learn into an empty directory, then a fresh Learner re-learning warm.

class AccTmGradCache final : public Workload {
 public:
  AccTmGradCache(std::uint64_t input_seed, const WorkloadConfig& cfg)
      : input_seed_(input_seed), mc_seed_(mix(cfg.seed)) {
    if (cfg.work_dir.empty()) {
      throw std::invalid_argument("acc_tm_grad_cache needs a work directory");
    }
    // A small random initial gain, so each input seed is its own problem.
    std::mt19937_64 rng(input_seed * 7 + 1);
    std::normal_distribution<double> g(0.0, kGainScale);
    linalg::Mat k(1, 2);
    k(0, 0) = g(rng);
    k(0, 1) = g(rng);
    base_ = std::make_unique<nn::LinearController>(k);
    dir_ = cfg.work_dir + "/acc_tm_grad_cache." + std::to_string(::getpid());
  }

  ~AccTmGradCache() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  JobResult run(Tracer& tr) override {
    JobResult r;
    fs::create_directories(dir_);
    const ode::Benchmark bench = ode::make_acc_benchmark();
    const auto verifier = make_verifier(bench);
    core::LearnerOptions opt = acc_learner_options();
    opt.seed = input_seed_;
    opt.grad = true;
    opt.cache_dir = dir_;

    std::optional<core::Learner> cold;
    tr.span("reach.cache.create", "job",
            [&] { cold.emplace(verifier, bench.spec, opt); });
    nn::ControllerPtr ctrl = base_->clone();
    core::LearnResult lc;
    const double cold_s = tr.span("core.learner.cold", "job",
                                  [&] { lc = cold->learn(*ctrl); });

    std::optional<core::Learner> warm;
    const double open_s = tr.span("reach.cache.open", "job", [&] {
      warm.emplace(make_verifier(bench), bench.spec, opt);
    });
    nn::ControllerPtr ctrl_warm = base_->clone();
    core::LearnResult lw;
    const double warm_s = tr.span("core.learner.warm", "job",
                                  [&] { lw = warm->learn(*ctrl_warm); });
    tr.annotate("core.learner.warm", "verifier_calls",
                static_cast<double>(lw.verifier_calls));
    tr.annotate("core.learner.warm", "disk_hits",
                static_cast<double>(lw.cache_stats.disk_hits));

    if (!lc.success || !lw.success) r.fail("learner did not converge");
    if (lc.cache_stats.disk_hits != 0) r.fail("cold half read the disk tier");
    if (lw.cache_stats.misses != 0) r.fail("warm half computed a flowpipe");
    if (lw.cache_stats.disk_hits == 0) r.fail("warm half read no disk record");
    if (!same_bits(ctrl->params(), ctrl_warm->params()) ||
        pipe_bytes(lc.final_flowpipe) != pipe_bytes(lw.final_flowpipe)) {
      r.fail("warm result differs from cold");
    }
    const core::FlowpipeFacts facts =
        core::analyze_flowpipe(lc.final_flowpipe, bench.spec);
    r.verifier_calls =
        static_cast<double>(lc.verifier_calls + lw.verifier_calls);
    r.iterations = static_cast<double>(lc.iterations);
    r.coverage = facts.safe_certified && facts.goal_certified ? 1.0 : 0.0;
    r.final_width = final_width(lc.final_flowpipe);
    r.digest = Digest()
                   .vec(ctrl->params())
                   .pipe(lc.final_flowpipe)
                   .u64(lc.iterations)
                   .u64(lc.verifier_calls)
                   .u64(lw.verifier_calls)
                   .value();
    if (tr.on()) {
      put_learn_layers(tr, r, "core.learner.cold", cold_s, lc);
      put_cache_layers(r, "cold", lc.cache_stats);
      put_cache_layers(r, "warm", lw.cache_stats);
      r.layers["cache.open_s"] = open_s;
      r.layers["learner.warm_s"] = warm_s;
    }
    last_ctrl_ = std::move(ctrl);
    last_fp_ = lc.final_flowpipe;
    return r;
  }

  void check_reference(JobResult& ref) override {
    const ode::Benchmark bench = ode::make_acc_benchmark();
    const sim::McStats mc = sim::monte_carlo_rates(
        *bench.system, *last_ctrl_, bench.spec, kMcSamples, mc_seed_);
    if (mc.safe_rate != 1.0) ref.fail("MC found an unsafe trace");
    ref.sc_rate = mc.safe_rate;
    ref.gr_rate = mc.goal_rate;
  }

  void replay(Tracer& tr, JobResult& r) override {
    const ode::Benchmark bench = ode::make_acc_benchmark();
    replay_common(tr, r, make_verifier(bench), bench.spec, *last_ctrl_,
                  &last_fp_);
  }

  void after_job() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

 private:
  static constexpr double kGainScale = 0.05;

  static reach::VerifierPtr make_verifier(const ode::Benchmark& b) {
    return std::make_shared<reach::TmVerifier>(
        b.system, b.spec, std::make_shared<reach::LinearAbstraction>(),
        reach::TmReachOptions{});
  }

  std::uint64_t input_seed_;
  std::uint64_t mc_seed_;
  nn::ControllerPtr base_;
  std::string dir_;
  nn::ControllerPtr last_ctrl_;
  reach::Flowpipe last_fp_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "osc_polar_learn", "acc_linear_learn", "osc_xi_search",
      "acc_tm_grad_cache"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& cfg) {
  const auto seed_or = [&](std::uint64_t dflt) {
    return cfg.input_seed != 0 ? cfg.input_seed : dflt;
  };
  if (name == "osc_polar_learn") {
    return std::make_unique<OscPolarLearn>(seed_or(3), cfg);
  }
  if (name == "acc_linear_learn") {
    return std::make_unique<AccLinearLearn>(seed_or(1), cfg);
  }
  if (name == "osc_xi_search") return std::make_unique<OscXiSearch>(cfg);
  if (name == "acc_tm_grad_cache") {
    return std::make_unique<AccTmGradCache>(seed_or(1), cfg);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace e2e
