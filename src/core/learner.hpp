// Algorithm 1: verification-in-the-loop control learning.
//
// Each iteration queries the verifier for the reachable set under SPSA
// perturbations of the controller parameters, approximates the metric
// gradients with the paper's difference method (Eq. 5, Fig. 2), and ascends
// until the reach-avoid feedback metrics certify feasibility or the
// iteration budget is exhausted.
#pragma once

#include <functional>
#include <optional>
#include <random>

#include "core/metrics.hpp"
#include "core/verdict.hpp"
#include "nn/controller.hpp"
#include "reach/cache.hpp"
#include "reach/verifier.hpp"

namespace dwv::reach {
class TmVerifier;
}

namespace dwv::core {

enum class MetricKind { kGeometric, kWasserstein };
std::string to_string(MetricKind m);

enum class GradientMode {
  kSpsa,           ///< one Bernoulli +-1 simultaneous perturbation (Fig. 2)
  kSpsaAveraged,   ///< average of several SPSA estimates
  kCoordinate,     ///< full central differences, one coordinate at a time
};

struct LearnerOptions {
  /// The feedback metric family that drives the run (Algorithm 1 uses one
  /// per run: d_u/d_g for Fig. 4, the Wasserstein pair for Fig. 5). It is
  /// also the only family computed per iterate and recorded in
  /// LearnResult::history.
  MetricKind metric = MetricKind::kGeometric;
  GradientMode gradient = GradientMode::kSpsa;
  std::size_t spsa_samples = 2;    ///< for kSpsaAveraged; clamped to >= 1
  std::size_t max_iters = 100;     ///< N in Algorithm 1
  /// Weights of the combined ascent objective J = alpha d_u + beta d_g
  /// (Algorithm 1 line 6; with a shared perturbation the two-gradient
  /// update is exactly SPSA on this weighted sum).
  double alpha = 1.0;
  double beta = 1.0;
  double perturbation = 0.02;      ///< SPSA perturbation magnitude p
  /// Step: theta += step_size * g / |g|_inf, decayed by 1/(1 + decay * t).
  double step_size = 0.1;
  double step_decay = 0.0;
  /// Use Adam on the (raw) SPSA gradient instead of the normalized step.
  bool use_adam = false;
  double adam_lr = 0.05;
  /// Stop only when, additionally, some step set is fully inside the goal
  /// (full-X0 certification instead of metric positivity).
  bool require_containment = false;
  /// Random re-initializations when a run stalls (Algorithm 1's "randomly
  /// initialize theta"); iterations keep accumulating across restarts.
  /// Each attempt gets a budget of max(1, max_iters / restarts) iterations,
  /// so the global iteration counter reaches `max_iters` (and the run
  /// returns) after at most `max_iters` restarts — setting
  /// `restarts > max_iters` never actually performs the extra restarts.
  std::size_t restarts = 3;
  double restart_scale = 1.0;  ///< stddev of the random re-initialization
  std::uint64_t seed = 42;
  /// Concurrent verifier calls for the independent probe evaluations (the
  /// SPSA tp/tm pair, all averaged samples, the 2d coordinate probes).
  /// 0 = auto (DWV_THREADS env var, else hardware concurrency); 1 = the
  /// exact serial path. All perturbations are drawn up front on the main
  /// thread and reductions run in index order, so results are bit-identical
  /// across thread counts.
  std::size_t threads = 0;
  /// Lane-batch width for grouped probe evaluations: each SPSA iteration
  /// submits its +-probe pair (and all averaged samples / coordinate
  /// probes) to a reach::BatchVerifier, which steps interval verifiers
  /// through the SoA lane kernels in lockstep and runs TM probes one at a
  /// time (DESIGN.md section 11).
  /// 0 = auto (the SIMD lane width), 1 = evaluate probes one at a time
  /// (the seed path). Results are bit-identical at any setting.
  std::size_t batch = 0;
  /// Memoize verifier calls across iterations (reach/cache.hpp): averaged
  /// SPSA re-draws probe pairs from a set of only 2^(d-1) distinct
  /// unordered pairs, and restarts re-evaluate recurring iterates. Hits
  /// return exactly what recomputation would (exact-material keys over a
  /// deterministic verifier), so enabling the cache changes no result bit
  /// at any thread count — only the wall clock. Verifier configuration —
  /// including a TmVerifier's symbolic-remainder-queue mode, whose results
  /// are only containment-comparable with queue-off runs (DESIGN.md §12) —
  /// is folded into the keys via Verifier::cache_salt, so probes cached
  /// under one mode can never answer the other.
  bool cache = false;
  std::size_t cache_capacity = 4096;  ///< resident flowpipes when caching
  std::size_t cache_shards = 16;      ///< lock stripes (contention knob)
  /// Persistent cache directory (DESIGN.md §15): non-empty adds the
  /// on-disk tier behind the memory tier, so a second learn of the same
  /// configuration warm-starts from the previous run's flowpipes (same
  /// bit-identity contract as the memory tier). Implies `cache`.
  std::string cache_dir;
  /// Analytic forward-mode gradients (reach::TmGradient): one dual verifier
  /// pass per iteration yields the flowpipe AND the exact metric gradient
  /// w.r.t. the controller parameters, replacing the 2 * spsa_samples probe
  /// calls of the difference method. The non-Adam ascent exploits the two
  /// separate metric gradients: it climbs d_u until the pipe is safe, then
  /// climbs d_g with the safety-eroding gradient component projected out,
  /// line-searching and then marching along each direction with cheap
  /// scalar probe evaluations (counted as verifier calls) so one dual pass
  /// serves several parameter updates. Requires a TmVerifier in its default
  /// range mode with polynomial dynamics and a linear or polynomial
  /// controller (and exact EMD for the Wasserstein metric); unsupported
  /// combinations print a warning to stderr and fall back to the configured
  /// SPSA mode. When false, the SPSA path runs exactly as before.
  bool grad = false;
  WassersteinOptions wopt;

  /// Returns a copy with out-of-range fields clamped into their documented
  /// domains (spsa_samples >= 1 — 0 would divide the averaged gradient by
  /// zero and poison theta with NaNs) and asserts on nonsensical settings
  /// (non-positive perturbation or step size). The Learner constructor
  /// applies this automatically.
  LearnerOptions validated() const;
};

/// One entry of the learning curve (Figs. 4 and 5). Exactly one family is
/// set: the one the learner ran with (`geo` under kGeometric, `wass` under
/// kWasserstein); the other is nullopt because it was never computed.
/// Diverged pipes carry the active family's failure penalty.
struct IterationRecord {
  std::size_t iter = 0;
  std::optional<GeometricMetrics> geo;
  std::optional<WassersteinMetrics> wass;
  bool feasible = false;
};

struct LearnResult {
  bool success = false;            ///< feasibility reached within budget
  std::size_t iterations = 0;      ///< convergence iterations (CI)
  std::vector<IterationRecord> history;
  std::size_t verifier_calls = 0;
  /// Summed wall time of every verifier call (with threads > 1 concurrent
  /// calls overlap, so this exceeds elapsed wall-clock time).
  double verifier_seconds = 0.0;
  /// Flowpipe of the last evaluated iterate — the certified pipe on
  /// success, otherwise the final reachable-set estimate (also when every
  /// restart is exhausted), so exports and plots always see a real pipe.
  reach::Flowpipe final_flowpipe;
  /// Snapshot of the flowpipe-cache counters at the end of the run (all
  /// zero when `LearnerOptions::cache` is off and no caching verifier was
  /// supplied). `verifier_seconds` already reflects the savings; this
  /// explains them (hits, misses, per-phase overhead/compute split).
  reach::CacheStats cache_stats;
};

class Learner {
 public:
  Learner(reach::VerifierPtr verifier, ode::ReachAvoidSpec spec,
          LearnerOptions opt = {});

  /// Runs Algorithm 1 starting from (and mutating) `ctrl`'s parameters.
  LearnResult learn(nn::Controller& ctrl) const;

  /// Evaluates the current controller once (no update); used by benches.
  /// Like the history, the record carries only the active metric family.
  IterationRecord evaluate(const nn::Controller& ctrl) const;

 private:
  struct MetricPair {
    double d_u = 0.0;  ///< "stay away from unsafe" score (larger better)
    double d_g = 0.0;  ///< "approach goal" score (larger better)
    bool feasible = false;
  };
  /// The active metric family of one pipe (penalties for an invalid pipe)
  /// in larger-is-better orientation: the only metric evaluation path.
  MetricPair measure(const reach::Flowpipe& fp) const;
  /// Wasserstein-mode feasibility: the pipe touches Xg and is certified
  /// safe.
  bool wasserstein_feasible(const reach::Flowpipe& fp) const;
  /// History entry for iterate `iter` from its measured pair: the active
  /// family (geo = {d_u, d_g}, or wass = {-d_g, d_u}; negation is exact)
  /// and m.feasible.
  IterationRecord to_record(std::size_t iter, const MetricPair& m) const;

  /// The TmVerifier the gradient engine would differentiate through (the
  /// inner verifier when wrapped in a CachingVerifier); null when the
  /// verifier is not a TmVerifier.
  const reach::TmVerifier* grad_target() const;

  /// Analytic-gradient variant of learn() (opt_.grad with a supported
  /// configuration): same restart/ascent/bookkeeping structure, but each
  /// iteration's gradient comes from one dual flowpipe pass instead of
  /// SPSA probe pairs.
  LearnResult learn_grad(nn::Controller& ctrl,
                         const reach::TmVerifier& tv) const;

  reach::VerifierPtr verifier_;
  ode::ReachAvoidSpec spec_;
  LearnerOptions opt_;
  /// Non-null when this learner memoizes verifier calls — either because
  /// `opt_.cache` wrapped the verifier here, or because the caller already
  /// passed a CachingVerifier (reused as-is, never double-wrapped).
  std::shared_ptr<reach::FlowpipeCache> cache_;
};

}  // namespace dwv::core
