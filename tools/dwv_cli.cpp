// dwv — command-line front-end for the design-while-verify pipeline.
//
//   dwv learn    <benchmark> [options]   run Algorithm 1 and save the result
//   dwv verify   <benchmark> [options]   verify a saved controller
//   dwv search   <benchmark> [options]   sharded/checkpointable X_I search
//                                        (Algorithm 2 at scale; DESIGN.md §16)
//   dwv simulate <benchmark> [options]   Monte-Carlo SC/GR of a controller
//   dwv cache-compact --cache-dir DIR    rewrite a persistent cache to its
//                                        live records (offline)
//   dwv list                             list the built-in benchmarks
//                                        (name, dimension, X0, goal box)
//
// Benchmarks: acc, oscillator, sys3d, b1, b2, b3, b4.
// Every --option is checked against one table of known names (kOptions):
// an unknown one prints "error: unknown option --x" and exits with status
// 2. Integer option values are parsed strictly (whole string, base 10,
// within the option's range), and so are --adaptive-rtol (a finite number
// > 0) and --shard (I/K, digits only, I < K): a malformed value prints
// "error: --opt expects ..." and exits with status 2 before any work.
// Common options:
//   --verifier linear|linctrl|poly|polar|reachnn|interval
//                             linear: zonotope verifier (linear
//                             controllers); the others are the TM engine
//                             with a linear-feedback (linctrl), polynomial
//                             (poly), POLAR, ReachNN or interval controller
//                             abstraction. --grad needs linctrl or poly.
//                             Default: linear for acc with a linear
//                             controller, linctrl for other linear
//                             controllers, polar otherwise
//   --metric W|G              feedback metric for learning (default G)
//   --controller FILE         controller file (learn: output; others: input)
//   --seed N                  RNG seed (default 1)
//   --iters N                 Algorithm-1 iteration budget
//   --samples N               Monte-Carlo sample count (default 500)
//   --threads N               concurrent verifier calls (SPSA probes,
//                             initial-set refinement); 0 = hardware
//                             concurrency (default), 1 = serial. Results
//                             are bit-identical across thread counts.
//   --batch K                 lane-batch width for grouped verifier calls
//                             (SPSA probe pairs, X_I refinement cells);
//                             0 = auto (the SIMD lane width, default),
//                             1 = one call at a time. Results are
//                             bit-identical at any K.
//   --no-batch                shorthand for --batch 1 (the pre-batching
//                             sequential path)
//   --cache                   memoize verifier calls across iterations
//                             (bit-identical results, fewer re-computations)
//   --cache-stats             print cache hit/miss/eviction counters and
//                             the per-phase timing split (implies --cache)
//   --cache-dir DIR           persistent flowpipe cache (DESIGN.md §15):
//                             adds an on-disk tier behind the memory tier
//                             so a re-run of the same configuration warm-
//                             starts from the previous run's flowpipes,
//                             bit for bit (implies --cache). Corrupt or
//                             stale records degrade to a cold start; an
//                             unwritable directory is an error (exit 1)
//   --sym-rem                 symbolic remainder queue for TM verifiers
//                             (Flow*-style; sound, typically tighter, only
//                             containment-comparable with queue-off runs)
//   --sym-queue N             queue capacity before a flush-to-interval
//                             (default 1000, as in ReachNN; implies
//                             --sym-rem)
//   --substeps N              TM integration substeps per control period
//                             (default 2; must be >= 1)
//   --order N                 TM truncation order (default 3; must be >= 1)
//   --adaptive                adaptive step-size / order control for TM
//                             verifiers (DESIGN.md §14): per-substep h and
//                             order are chosen from computed signals, with
//                             accept/reject retries; deterministic and
//                             bit-identical across threads, batch widths,
//                             and lane backends
//   --adaptive-rtol X         relative defect tolerance steering the
//                             adaptive controller (default 1e-2; implies
//                             --adaptive)
//   --verbose                 print TM integration counters (substeps, h
//                             range, rejects, order changes, reinits,
//                             symbolic-queue flushes)
//   --grad                    (learn) analytic forward-mode gradients
//                             through the TM verifier (one dual pass per
//                             iteration instead of SPSA probe pairs);
//                             unsupported configurations run SPSA
//                             unchanged and print why on stderr
// Search options (dwv search; results are bit-identical at any sharding):
//   --depth N                 maximum bisection depth (default 7; <= 62)
//   --shards K                run K subtree shards in this process, each
//                             with its own work-stealing pool (--threads
//                             is the TOTAL budget, split across shards)
//   --shard I/K               run ONLY subtree shard I of K (one process
//                             of a K-process run; --threads is per
//                             process); requires --out, merged later
//   --shard-grain N           frontier cells per shard before the
//                             deterministic prefix split (default 8)
//   --merge F1,F2,...         merge K shard files into the final result
//                             (bit-identical to a single-process run)
//   --out FILE                write the result: a shard file under
//                             --shard, the merged/complete search result
//                             otherwise (same bits => same file bytes)
//   --checkpoint FILE         append-only snapshot file; an existing
//                             valid checkpoint of the same configuration
//                             resumes the search (kill -9 safe: torn
//                             tails are truncated, final bits identical)
//   --checkpoint-every N      snapshot/progress cadence in cells
//                             (default 256)
//   --progress                print the growing certified coverage at
//                             every round boundary (anytime output)
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "core/initial_set.hpp"
#include "core/learner.hpp"
#include "core/search_shard.hpp"
#include "parallel/pool.hpp"
#include "linalg/expm.hpp"
#include "core/verdict.hpp"
#include "nn/serialize.hpp"
#include "ode/expr_system.hpp"
#include "ode/reachnn_suite.hpp"
#include "reach/cache.hpp"
#include "reach/tm_flowpipe.hpp"
#include "reach/verifier_kinds.hpp"
#include "sim/monte_carlo.hpp"

namespace {

using namespace dwv;

/// A malformed command line: reported as "error: ..." with exit code 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Every option dwv knows; any other --option is a usage error. Integer
// options carry the values they accept: a value must be a whole base-10
// integer within the range (no sign prefix '+', no whitespace, no trailing
// characters); anything else is a usage error, never a guess.
struct IntRange {
  long lo;
  long hi;
};
const std::map<std::string, std::optional<IntRange>> kOptions = {
    {"--adaptive", std::nullopt},
    {"--adaptive-rtol", std::nullopt},
    {"--batch", IntRange{0, 4096}},
    {"--cache", std::nullopt},
    {"--cache-dir", std::nullopt},
    {"--cache-stats", std::nullopt},
    {"--checkpoint", std::nullopt},
    {"--checkpoint-every", IntRange{1, 1'000'000'000}},
    {"--controller", std::nullopt},
    {"--depth", IntRange{0, static_cast<long>(core::kMaxSearchDepth)}},
    {"--grad", std::nullopt},
    {"--iters", IntRange{0, 1'000'000'000}},
    {"--merge", std::nullopt},
    {"--metric", std::nullopt},
    {"--no-batch", std::nullopt},
    {"--order", IntRange{1, 32}},
    {"--out", std::nullopt},
    {"--progress", std::nullopt},
    {"--samples", IntRange{1, 1'000'000'000}},
    {"--seed", IntRange{0, std::numeric_limits<long>::max()}},
    {"--shard", std::nullopt},
    {"--shard-grain", IntRange{1, 1'000'000}},
    {"--shards", IntRange{1, 4096}},
    {"--substeps", IntRange{1, 1 << 20}},
    {"--sym-queue", IntRange{1, 1'000'000}},
    {"--sym-rem", std::nullopt},
    {"--threads", IntRange{0, 1024}},
    {"--verbose", std::nullopt},
    {"--verifier", std::nullopt},
};

/// Strictly parses `value` as integer option `key` (see kOptions).
long parse_int_option(const std::string& key, const std::string& value) {
  const IntRange r = *kOptions.at(key);
  long v = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc() || ptr != end || v < r.lo || v > r.hi) {
    throw UsageError(key + " expects an integer in [" + std::to_string(r.lo) +
                     ", " + std::to_string(r.hi) + "], got '" + value + "'");
  }
  return v;
}

/// Strictly parses `value` as a finite number > 0 (--adaptive-rtol).
double parse_positive_double(const std::string& key,
                             const std::string& value) {
  double v = 0.0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || !(v > 0.0)) {
    throw UsageError(key + " expects a finite number > 0, got '" + value +
                     "'");
  }
  return v;
}

/// Strictly parses a --shard value "I/K": two base-10 digit strings with
/// I < K <= 4096 (the --shards range).
std::pair<std::size_t, std::size_t> parse_shard(const std::string& value) {
  // from_chars takes no sign, space or prefix; the whole part must parse.
  const auto digits = [](const std::string& t, std::size_t& out) {
    const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), out);
    return ec == std::errc() && ptr == t.data() + t.size();
  };
  const std::size_t slash = value.find('/');
  std::size_t i = 0, k = 0;
  if (slash == std::string::npos || !digits(value.substr(0, slash), i) ||
      !digits(value.substr(slash + 1), k) || i >= k || k > 4096) {
    throw UsageError("--shard expects I/K with digits only and I < K <= "
                     "4096, got '" + value + "'");
  }
  return {i, k};
}

/// Wall seconds elapsed since `start`.
double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Args {
  std::string command;
  std::string benchmark;
  std::map<std::string, std::string> options;

  std::string get(const std::string& key, const std::string& dflt) const {
    const auto it = options.find(key);
    return it == options.end() ? dflt : it->second;
  }
  long get_long(const std::string& key, long dflt) const {
    const auto it = options.find(key);
    return it == options.end() ? dflt : parse_int_option(key, it->second);
  }
  double get_positive_double(const std::string& key, double dflt) const {
    const auto it = options.find(key);
    return it == options.end() ? dflt
                               : parse_positive_double(key, it->second);
  }
};

// --batch K / --no-batch → lane-batch width fed to LearnerOptions (SPSA
// probe groups) and InitialSetOptions (refinement cells). 0 = auto
// (interval::lanes::kWidth), 1 = the sequential pre-batching path.
std::size_t batch_width(const Args& args) {
  if (args.options.count("--no-batch")) return 1;
  return static_cast<std::size_t>(args.get_long("--batch", 0));
}

int usage() {
  std::fprintf(stderr,
               "usage: dwv <learn|verify|search|simulate|cache-compact|list> "
               "[benchmark] [--option value]...\n"
               "see the header of tools/dwv_cli.cpp for details\n");
  return 2;
}

ode::Benchmark make_benchmark(const std::string& name) {
  if (name == "acc") return ode::make_acc_benchmark();
  if (name == "oscillator") return ode::make_oscillator_benchmark();
  if (name == "sys3d" || name == "b5") return ode::make_3d_benchmark();
  if (name == "b1") return ode::make_b1_benchmark();
  if (name == "b2") return ode::make_b2_benchmark();
  if (name == "b3") return ode::make_b3_benchmark();
  if (name == "b4") return ode::make_b4_benchmark();
  if (name == "pendulum") return ode::make_pendulum_benchmark();
  throw std::runtime_error("unknown benchmark: " + name);
}

// --sym-rem / --sym-queue N → TmReachOptions symbolic remainder queue
// (DESIGN.md §12). --sym-queue implies --sym-rem; the default queue size
// matches ReachNN's setQueueSize(1000).
reach::TmReachOptions tm_options(const Args& args) {
  reach::TmReachOptions opt;
  if (args.options.count("--sym-rem") || args.options.count("--sym-queue")) {
    opt.symbolic_remainder = true;
    opt.sym_queue_size =
        static_cast<std::size_t>(args.get_long("--sym-queue", 1000));
  }
  opt.substeps = static_cast<std::uint32_t>(
      args.get_long("--substeps", static_cast<long>(opt.substeps)));
  opt.order = static_cast<std::uint32_t>(
      args.get_long("--order", static_cast<long>(opt.order)));
  if (args.options.count("--adaptive") ||
      args.options.count("--adaptive-rtol")) {
    opt.adaptive = true;
    opt.adaptive_rtol =
        args.get_positive_double("--adaptive-rtol", opt.adaptive_rtol);
  }
  return opt;
}

void print_tm_stats(const reach::TmReachStats& s) {
  if (s.substeps == 0) return;  // not a TM verifier run
  std::printf(
      "tm: %zu substeps, h in [%g, %g], %zu rejects, %zu order escalations, "
      "%zu order reductions, %zu reinits, %zu sym flushes\n",
      s.substeps, s.h_min, s.h_max, s.rejects, s.order_escalations,
      s.order_reductions, s.reinits, s.sym_flushes);
}

// The default kind depends on the controller: the zonotope verifier for
// linear ACC, linear feedback through the TM engine elsewhere, POLAR-lite
// for networks.
reach::VerifierPtr make_verifier(const ode::Benchmark& bench,
                                 const std::string& kind,
                                 const nn::Controller* ctrl,
                                 const reach::TmReachOptions& tm_opt) {
  std::string k = kind;
  const bool linear_ctrl =
      dynamic_cast<const nn::LinearController*>(ctrl) != nullptr;
  if (k.empty()) {
    if (bench.name == "acc" && linear_ctrl) {
      k = "linear";
    } else if (linear_ctrl) {
      k = "linctrl";
    } else {
      k = "polar";
    }
  }
  return reach::make_verifier(k, bench.system, bench.spec, tm_opt);
}

nn::ControllerPtr default_controller(const ode::Benchmark& bench,
                                     std::uint64_t seed) {
  if (bench.name == "pendulum") {
    return std::make_unique<nn::LinearController>(
        linalg::Mat(1, bench.system->state_dim()));
  }
  if (bench.name == "acc") {
    return std::make_unique<nn::LinearController>(
        linalg::Mat(1, bench.system->state_dim()));
  }
  const double scale = bench.name == "oscillator" ? 2.0 : 1.0;
  auto ctrl = std::make_unique<nn::MlpController>(
      std::vector<std::size_t>{bench.system->state_dim(), 6, 1}, scale,
      nn::Activation::kTanh, nn::Activation::kTanh);
  std::mt19937_64 rng(seed * 7 + 1);
  ctrl->init_random(rng, 0.4);
  return ctrl;
}

core::LearnerOptions learner_options(const ode::Benchmark& bench,
                                     const Args& args) {
  core::LearnerOptions opt;
  opt.metric = args.get("--metric", "G") == "W"
                   ? core::MetricKind::kWasserstein
                   : core::MetricKind::kGeometric;
  opt.alpha = opt.metric == core::MetricKind::kWasserstein ? 0.2 : 1.0;
  opt.require_containment = true;
  opt.seed = static_cast<std::uint64_t>(args.get_long("--seed", 1));
  if (bench.name == "acc") {
    opt.max_iters = 400;
    opt.step_size = 0.5;
    opt.perturbation = 0.05;
    opt.gradient = core::GradientMode::kSpsaAveraged;
    opt.spsa_samples = 2;
    opt.restarts = 4;
  } else {
    opt.max_iters = 240;
    opt.step_size = 0.25;
    opt.restarts = 4;
    opt.restart_scale = 0.4;
  }
  if (args.options.count("--iters")) {
    opt.max_iters = static_cast<std::size_t>(args.get_long("--iters", 200));
  }
  opt.threads = static_cast<std::size_t>(args.get_long("--threads", 0));
  opt.batch = batch_width(args);
  opt.cache = args.options.count("--cache") != 0 ||
              args.options.count("--cache-stats") != 0;
  opt.cache_dir = args.get("--cache-dir", "");
  opt.grad = args.options.count("--grad") != 0;
  return opt;
}

// A --sym-rem request the verifier cannot honor used to be silently
// ignored (the queue gates on TmDynamics::has_state_jacobian); surface
// that decision so queue-on runs are never silently queue-off.
void warn_if_sym_rem_ignored(const Args& args,
                             const reach::VerifierPtr& verifier) {
  if (!args.options.count("--sym-rem") && !args.options.count("--sym-queue")) {
    return;
  }
  const auto* tv = dynamic_cast<const reach::TmVerifier*>(verifier.get());
  if (tv == nullptr) {
    std::fprintf(stderr,
                 "dwv: warning: --sym-rem has no effect on verifier '%s' "
                 "(not a Taylor-model verifier)\n",
                 verifier->name().c_str());
    return;
  }
  if (!tv->dynamics()->has_state_jacobian()) {
    std::fprintf(stderr,
                 "dwv: warning: --sym-rem requested but the dynamics "
                 "provide no state Jacobian; the symbolic remainder queue "
                 "stays off and results match a queue-off run bit for bit\n");
  }
}

void print_cache_stats(const reach::CacheStats& s) {
  // Total hits over both tiers, the numerator of the hit rate.
  std::printf(
      "cache: %llu hits (%llu memory, %llu disk) / %llu lookups (%.1f%%), "
      "%llu insertions, %llu evictions\n",
      static_cast<unsigned long long>(s.hits + s.disk_hits),
      static_cast<unsigned long long>(s.hits),
      static_cast<unsigned long long>(s.disk_hits),
      static_cast<unsigned long long>(s.lookups()), 100.0 * s.hit_rate(),
      static_cast<unsigned long long>(s.insertions),
      static_cast<unsigned long long>(s.evictions));
  std::printf("cache: %.3fs bookkeeping overhead, %.3fs miss compute\n",
              s.overhead_seconds, s.miss_compute_seconds);
  if (s.disk_hits != 0 || s.disk_entries != 0 ||
      s.disk_bytes_written != 0) {
    std::printf(
        "disk:  %llu hits, %llu records, %llu bytes read, "
        "%llu bytes written\n",
        static_cast<unsigned long long>(s.disk_hits),
        static_cast<unsigned long long>(s.disk_entries),
        static_cast<unsigned long long>(s.disk_bytes_read),
        static_cast<unsigned long long>(s.disk_bytes_written));
  }
  const linalg::ZohCacheStats z = linalg::zoh_cache_stats();
  std::printf("zoh:   %llu hits / %llu lookups\n",
              static_cast<unsigned long long>(z.hits),
              static_cast<unsigned long long>(z.hits + z.misses));
}

// "[lo,hi]x[lo,hi]..." — compact box rendering for the benchmark listing
// (goal boxes may leave dimensions unconstrained, which prints as inf).
std::string fmt_box(const geom::Box& b) {
  std::string s;
  char buf[64];
  for (std::size_t i = 0; i < b.dim(); ++i) {
    std::snprintf(buf, sizeof buf, "%s[%g,%g]", i == 0 ? "" : "x",
                  b.bounds()[i].lo(), b.bounds()[i].hi());
    s += buf;
  }
  return s;
}

int cmd_list() {
  struct Row {
    const char* name;
    const char* desc;
  };
  // State dimension, X0, and goal box come from the registered benchmark
  // itself, so the listing is enough to pick shard/depth settings for
  // `dwv search` without reading the scenario source.
  const Row rows[] = {
      {"acc", "linear adaptive cruise control (DAC'22 paper)"},
      {"oscillator", "Van der Pol oscillator (DAC'22 paper)"},
      {"sys3d", "3-D numerical system, alias b5 (DAC'22 paper / ReachNN)"},
      {"b1", "ReachNN suite benchmark 1"},
      {"b2", "ReachNN suite benchmark 2"},
      {"b3", "ReachNN suite benchmark 3"},
      {"b4", "ReachNN suite benchmark 4"},
      {"pendulum", "damped pendulum (expression-tree dynamics)"},
  };
  std::printf("built-in benchmarks:\n");
  for (const Row& row : rows) {
    const ode::Benchmark bench = make_benchmark(row.name);
    std::printf("  %-10s  %s\n", row.name, row.desc);
    std::printf("  %-10s  dim %zu  X0 %s  goal %s\n", "",
                bench.system->state_dim(), fmt_box(bench.spec.x0).c_str(),
                fmt_box(bench.spec.goal).c_str());
  }
  return 0;
}

int cmd_learn(const Args& args) {
  const ode::Benchmark bench = make_benchmark(args.benchmark);
  nn::ControllerPtr ctrl = default_controller(
      bench, static_cast<std::uint64_t>(args.get_long("--seed", 1)));
  const auto verifier =
      make_verifier(bench, args.get("--verifier", ""), ctrl.get(),
                    tm_options(args));
  warn_if_sym_rem_ignored(args, verifier);
  const core::LearnerOptions opt = learner_options(bench, args);

  std::printf("benchmark %s, verifier %s, metric %s, seed %llu\n",
              bench.name.c_str(), verifier->name().c_str(),
              core::to_string(opt.metric).c_str(),
              static_cast<unsigned long long>(opt.seed));
  core::Learner learner(verifier, bench.spec, opt);
  const core::LearnResult res = learner.learn(*ctrl);
  if (!res.grad_unavailable.empty()) {
    std::fflush(stdout);  // keep the banner above the notice when piped
    std::fprintf(stderr,
                 "dwv: analytic gradient unavailable (%s); ran SPSA instead\n",
                 res.grad_unavailable.c_str());
  }
  std::printf("%s after %zu iterations (%zu verifier calls, %.1fs)\n",
              res.success ? "CONVERGED" : "did not converge",
              res.iterations, res.verifier_calls, res.verifier_seconds);
  if (args.options.count("--cache-stats")) print_cache_stats(res.cache_stats);
  if (args.options.count("--verbose")) {
    print_tm_stats(res.final_flowpipe.tm_stats);
  }
  if (!res.success) return 1;

  const auto mc_start = std::chrono::steady_clock::now();
  const sim::McStats mc = sim::monte_carlo_rates(
      *bench.system, *ctrl, bench.spec,
      static_cast<std::size_t>(args.get_long("--samples", 500)), 99);
  std::printf("simulation: SC %.1f%%  GR %.1f%%  (%zu rollouts, %.3fs)\n",
              100.0 * mc.safe_rate, 100.0 * mc.goal_rate, mc.samples,
              seconds_since(mc_start));

  const std::string out = args.get("--controller", "");
  if (!out.empty()) {
    nn::save_controller_file(out, *ctrl);
    std::printf("controller saved to %s\n", out.c_str());
  }
  return 0;
}

int cmd_verify(const Args& args) {
  const ode::Benchmark bench = make_benchmark(args.benchmark);
  const std::string path = args.get("--controller", "");
  if (path.empty()) {
    std::fprintf(stderr, "verify requires --controller FILE\n");
    return 2;
  }
  const nn::ControllerPtr ctrl = nn::load_controller_file(path);
  reach::VerifierPtr verifier =
      make_verifier(bench, args.get("--verifier", ""), ctrl.get(),
                    tm_options(args));
  warn_if_sym_rem_ignored(args, verifier);
  std::shared_ptr<reach::FlowpipeCache> cache;
  if (args.options.count("--cache") || args.options.count("--cache-stats") ||
      args.options.count("--cache-dir")) {
    reach::FlowpipeCache::Config cfg;
    cfg.dir = args.get("--cache-dir", "");
    auto cached =
        std::make_shared<const reach::CachingVerifier>(verifier, cfg);
    cache = cached->cache();
    verifier = std::move(cached);
  }
  std::printf("verifying %s with %s...\n", ctrl->describe().c_str(),
              verifier->name().c_str());
  const core::VerificationReport rep = core::verify_controller(
      *verifier, *bench.system, *ctrl, bench.spec);
  std::printf("verdict: %s (%s)\n", core::to_string(rep.verdict).c_str(),
              rep.detail.c_str());
  if (args.options.count("--verbose")) print_tm_stats(rep.tm_stats);
  if (rep.verdict != core::Verdict::kReachAvoid &&
      rep.facts.safe_certified) {
    // Try the initial-set search: goal-reaching may hold for part of X0.
    core::InitialSetOptions iopt;
    iopt.threads = static_cast<std::size_t>(args.get_long("--threads", 0));
    iopt.batch = batch_width(args);
    const core::InitialSetResult xi =
        core::search_initial_set(*verifier, bench.spec, *ctrl, iopt);
    std::printf("X_I search: %.1f%% of X0 certified (%zu cells)\n",
                100.0 * xi.coverage, xi.certified.size());
  }
  if (cache && args.options.count("--cache-stats")) {
    print_cache_stats(cache->stats());
  }
  return rep.verdict == core::Verdict::kReachAvoid ? 0 : 1;
}

// The two kinds of rejected leaf: falsified ones hold a counterexample
// (their centre rollout fails the spec, so the verifier was skipped);
// unknown ones were verified, but too loosely to certify.
void print_rejected_split(const core::InitialSetResult& res) {
  std::printf("rejected: %zu falsified, %zu unknown\n", res.falsified,
              res.rejected.size() - res.falsified);
}

// dwv search — the sharded/checkpointable/anytime X_I search driver.
// Three modes sharing one configuration surface:
//   (default)      in-process search, optionally over --shards K subtrees
//   --shard I/K    one subtree of a K-process run, written to --out
//   --merge a,b,.. ordered-replay merge of K shard files
// All three produce bit-identical certified sets, so `cmp` on the --out
// files IS the cross-mode correctness check (CI runs exactly that).
int cmd_search(const Args& args) {
  const ode::Benchmark bench = make_benchmark(args.benchmark);
  const std::string path = args.get("--controller", "");
  const nn::ControllerPtr ctrl =
      path.empty()
          ? default_controller(
                bench, static_cast<std::uint64_t>(args.get_long("--seed", 1)))
          : nn::load_controller_file(path);
  reach::VerifierPtr verifier = make_verifier(
      bench, args.get("--verifier", ""), ctrl.get(), tm_options(args));
  warn_if_sym_rem_ignored(args, verifier);

  core::ShardSearchOptions sopt;
  sopt.base.max_depth =
      static_cast<std::size_t>(args.get_long("--depth", 7));
  sopt.base.batch = batch_width(args);
  sopt.shards = static_cast<std::size_t>(args.get_long("--shards", 1));
  sopt.prefix_grain =
      static_cast<std::size_t>(args.get_long("--shard-grain", 8));
  sopt.checkpoint_file = args.get("--checkpoint", "");
  sopt.checkpoint_every =
      static_cast<std::size_t>(args.get_long("--checkpoint-every", 256));
  if (args.options.count("--progress")) {
    sopt.progress = [](const core::ShardSearchProgress& p) {
      std::printf(
          "progress: round %zu  coverage >= %.2f%%  (%zu certified, "
          "%zu rejected, %zu pending, %zu calls)\n",
          p.rounds, 100.0 * p.coverage, p.certified_cells, p.rejected_cells,
          p.pending_cells, p.verifier_calls);
      std::fflush(stdout);
      return true;
    };
  }

  const std::string shard_arg = args.get("--shard", "");
  if (!shard_arg.empty()) {
    std::tie(sopt.shard_index, sopt.shards) = parse_shard(shard_arg);
  }
  const bool one_shard =
      sopt.shard_index != core::ShardSearchOptions::kAllShards;

  // --threads: total budget in-process (split across shards), per process
  // under --shard (each of the K processes gets its own pool).
  const std::size_t requested = parallel::resolve_threads(
      static_cast<std::size_t>(args.get_long("--threads", 0)));
  sopt.base.threads =
      one_shard ? requested : std::max<std::size_t>(1, requested / sopt.shards);

  std::shared_ptr<reach::FlowpipeCache> cache;
  if (args.options.count("--cache") || args.options.count("--cache-stats") ||
      args.options.count("--cache-dir")) {
    reach::FlowpipeCache::Config cfg;
    cfg.dir = args.get("--cache-dir", "");
    if (one_shard && !cfg.dir.empty()) {
      // Each shard process salts its own disk shard logs, so K processes
      // can share one cache directory without interleaving appends.
      cfg.disk_salt_mix = reach::hash_string(0x58495f5348415244ull, shard_arg);
    }
    auto cached = std::make_shared<const reach::CachingVerifier>(verifier, cfg);
    cache = cached->cache();
    verifier = std::move(cached);
  }

  const std::string out = args.get("--out", "");
  const std::uint64_t fingerprint =
      core::xi_search_fingerprint(*verifier, bench.spec, *ctrl, sopt.base);

  const std::string merge_arg = args.get("--merge", "");
  if (!merge_arg.empty()) {
    std::vector<core::ShardResult> parts;
    std::size_t start = 0;
    while (start <= merge_arg.size()) {
      const std::size_t comma = merge_arg.find(',', start);
      const std::string file =
          merge_arg.substr(start, comma == std::string::npos
                                      ? std::string::npos
                                      : comma - start);
      if (!file.empty()) parts.push_back(core::load_shard_result_file(file));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    for (const core::ShardResult& p : parts) {
      if (p.fingerprint != fingerprint) {
        std::fprintf(stderr,
                     "error: a shard file was produced by a different "
                     "search configuration than this command line\n");
        return 1;
      }
    }
    const core::InitialSetResult res =
        core::merge_shard_results(bench.spec, parts);
    std::printf(
        "merged %zu shards: %.1f%% of X0 certified (%zu cells, %zu "
        "rejected, %zu verifier calls)\n",
        parts.size(), 100.0 * res.coverage, res.certified.size(),
        res.rejected.size(), res.verifier_calls);
    print_rejected_split(res);
    if (!out.empty()) core::save_initial_set_result_file(out, fingerprint, res);
    return 0;
  }

  if (one_shard) {
    if (out.empty()) {
      std::fprintf(stderr, "--shard requires --out FILE (the shard result "
                           "to merge later)\n");
      return 2;
    }
    const core::ShardResult sr =
        core::search_initial_set_shard(*verifier, bench.spec, *ctrl, sopt);
    core::save_shard_result_file(out, sr);
    std::printf("shard %u/%u: %zu terminal cells, %llu verifier calls%s\n",
                sr.shard_index, sr.shards, sr.records.size(),
                static_cast<unsigned long long>(sr.verifier_calls),
                sr.complete ? "" : " (INCOMPLETE: cancelled)");
    if (cache && args.options.count("--cache-stats")) {
      print_cache_stats(cache->stats());
    }
    return 0;
  }

  const core::InitialSetResult res =
      core::search_initial_set_sharded(*verifier, bench.spec, *ctrl, sopt);
  std::printf(
      "X_I search: %.1f%% of X0 certified (%zu cells, %zu rejected, "
      "%zu verifier calls)\n",
      100.0 * res.coverage, res.certified.size(), res.rejected.size(),
      res.verifier_calls);
  print_rejected_split(res);
  if (!out.empty()) core::save_initial_set_result_file(out, fingerprint, res);
  if (cache && args.options.count("--cache-stats")) {
    print_cache_stats(cache->stats());
  }
  return 0;
}

int cmd_cache_compact(const Args& args) {
  const std::string dir = args.get("--cache-dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "cache-compact requires --cache-dir DIR\n");
    return 2;
  }
  const reach::CacheCompactionStats s = reach::compact_cache_dir(dir);
  std::printf(
      "compacted %zu shard logs: %zu records kept, %zu dropped, "
      "%zu stale files deleted\n",
      s.files, s.records_kept, s.records_dropped, s.stale_files_deleted);
  std::printf("%llu -> %llu bytes\n",
              static_cast<unsigned long long>(s.bytes_before),
              static_cast<unsigned long long>(s.bytes_after));
  return 0;
}

int cmd_simulate(const Args& args) {
  const ode::Benchmark bench = make_benchmark(args.benchmark);
  const std::string path = args.get("--controller", "");
  if (path.empty()) {
    std::fprintf(stderr, "simulate requires --controller FILE\n");
    return 2;
  }
  const nn::ControllerPtr ctrl = nn::load_controller_file(path);
  const std::size_t samples =
      static_cast<std::size_t>(args.get_long("--samples", 500));
  const auto mc_start = std::chrono::steady_clock::now();
  const sim::McStats mc = sim::monte_carlo_rates(
      *bench.system, *ctrl, bench.spec, samples,
      static_cast<std::uint64_t>(args.get_long("--seed", 1)));
  std::printf(
      "%zu runs: SC %.1f%%  GR %.1f%%  mean reach step %.1f  (%.3fs)\n",
      mc.samples, 100.0 * mc.safe_rate, 100.0 * mc.goal_rate,
      mc.mean_reach_step, seconds_since(mc_start));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Args args;
  args.command = argv[1];
  int i = 2;
  if (i < argc && argv[i][0] != '-') args.benchmark = argv[i++];
  for (; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    // Options take a value; a trailing option or one followed by another
    // --option is a boolean flag (--cache, --cache-stats, --adaptive).
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.options[argv[i]] = argv[i + 1];
      ++i;
    } else {
      args.options[argv[i]] = "1";
    }
  }

  try {
    // Validate every option up front, before any work starts.
    for (const auto& [key, value] : args.options) {
      const auto known = kOptions.find(key);
      if (known == kOptions.end()) throw UsageError("unknown option " + key);
      if (known->second) (void)parse_int_option(key, value);
      if (key == "--adaptive-rtol") (void)parse_positive_double(key, value);
      if (key == "--shard") (void)parse_shard(value);
    }
    if (args.command == "list") return cmd_list();
    if (args.command == "cache-compact") return cmd_cache_compact(args);
    if (args.benchmark.empty()) return usage();
    if (args.command == "learn") return cmd_learn(args);
    if (args.command == "verify") return cmd_verify(args);
    if (args.command == "search") return cmd_search(args);
    if (args.command == "simulate") return cmd_simulate(args);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
