// dwv_e2e: runs one workload of the end-to-end benchmark and prints its
// metrics. run.py in this directory builds it and drives it; see README.md.
//
//   dwv_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//           [--setup-only] [--input-seed K] [--controller FILE]
//           [--data-dir DIR] [--work-dir DIR] [--revision TEXT]
//
// A run is: set-up (inputs, then one cold job, timed from process start as
// setup_s), untimed reference checks on that cold job, then repeated jobs
// for --seconds (and at least kMinJobs). Every repetition must reproduce
// the cold job's verifier calls and result digest. With --trace 1 the run
// alternates untraced and traced jobs; traced jobs record spans and are
// followed by single-layer replays. The last line of output is one JSON
// object with the measured values.
//
// The end-to-end times are calibrated: right before and after each job (and
// before set-up) the process times a fixed compute kernel that belongs to
// this file, not to the library, and scales the job's wall time by
// kRefKernelS / kernel time. On a shared machine whose speed drifts by tens
// of percent over seconds to minutes, this cancels most of the drift while
// leaving any change in the library's own speed intact. Raw wall times are
// printed per job and reported as job.wall_s.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "e2e.hpp"
#include "linalg/expm.hpp"

namespace {

using e2e::JobResult;
using e2e::now_s;

// Timed jobs per run at least, so that the medians and the upper quartile
// (job_tail_s) rest on a fair number of samples.
constexpr std::size_t kMinJobs = 11;

// Kernel time that defines the calibrated second: the kernel's median time
// on an idle 4-vCPU Intel Xeon VM, so calibrated times read close to wall
// times there.
constexpr double kRefKernelS = 4.3e-3;

double g_kernel_sink = 0.0;

/// The calibration kernel: dense floating point, hash-map inserts and
/// lookups, and small allocations with a sort, the operation mix of the
/// verifier's inner loops. About 4 ms on the machine above.
double kernel_once() {
  const double t0 = now_s();
  constexpr int n = 48;
  std::vector<double> a(n * n), b(n * n), c(n * n);
  for (int i = 0; i < n * n; ++i) {
    a[i] = 1.0 + i % 7;
    b[i] = 0.5 - i % 5;
  }
  for (int r = 0; r < 6; ++r) {
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < n; ++k) {
        const double x = a[i * n + k];
        for (int j = 0; j < n; ++j) c[i * n + j] += x * b[k * n + j];
      }
    }
  }
  std::mt19937_64 rng(7);
  std::unordered_map<std::uint64_t, std::uint64_t> m;
  for (int i = 0; i < 20000; ++i) m[rng() % 50000] += i;
  std::uint64_t h = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto it = m.find(rng() % 50000);
    if (it != m.end()) h += it->second;
  }
  for (int r = 0; r < 20; ++r) {
    std::vector<double> v(2000);
    for (double& x : v) x = static_cast<double>(rng() % 1000);
    std::sort(v.begin(), v.end());
    h += static_cast<std::uint64_t>(v[7]);
  }
  g_kernel_sink += c[5] + static_cast<double>(h);
  return now_s() - t0;
}

/// Median of three kernel runs.
double kernel_seconds() {
  double t[3] = {kernel_once(), kernel_once(), kernel_once()};
  std::sort(t, t + 3);
  return t[1];
}

// Refuse to report from an unoptimized build: its timings mean nothing.
#ifndef NDEBUG
constexpr bool kAssertsOn = true;
#else
constexpr bool kAssertsOn = false;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::uint64_t input_seed = 0;
  std::string controller;
  std::string data_dir = "bench_e2e/data";
  std::string work_dir = ".bench_build/e2e-work";
  std::string revision = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "dwv_e2e: %s\n", why.c_str());
  std::fprintf(stderr,
               "usage: dwv_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--setup-only] [--input-seed K] "
               "[--controller FILE] [--data-dir DIR] [--work-dir DIR] "
               "[--revision TEXT]\n");
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& key, const std::string& v) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || v[0] == '-' || *end != '\0' || errno != 0) {
    usage(key + " expects a non-negative integer, got '" + v + "'");
  }
  return x;
}

double parse_double(const std::string& key, const std::string& v) {
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (v.empty() || *end != '\0' || errno != 0 || !(x >= 0.0)) {
    usage(key + " expects a non-negative number, got '" + v + "'");
  }
  return x;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string v = argv[++i];
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = parse_u64(key, v);
    } else if (key == "--seconds") {
      a.seconds = parse_double(key, v);
    } else if (key == "--trace") {
      if (v != "0" && v != "1") usage("--trace expects 0 or 1");
      a.trace = v == "1";
    } else if (key == "--input-seed") {
      a.input_seed = parse_u64(key, v);
    } else if (key == "--controller") {
      a.controller = v;
    } else if (key == "--data-dir") {
      a.data_dir = v;
    } else if (key == "--work-dir") {
      a.work_dir = v;
    } else if (key == "--revision") {
      a.revision = v;
    } else {
      usage("unknown option " + key);
    }
  }
  const auto& names = e2e::workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("unknown or missing --workload '" + a.workload + "'");
  }
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The upper quartile, interpolated between the two order statistics around
/// rank (n - 1) * 3/4; `above` receives the number of samples above it.
/// A fixed percentile rather than "the highest one with ten samples above
/// it": with the 11 to 14 jobs that slow workloads fit in a run, that rule
/// picks the minimum or near it, a best case whose rank jumps with the job
/// count and which, as an extreme of per-job ratios, selects the jobs whose
/// calibration kernel was timed in a slow moment.
double upper_quartile(std::vector<double> v, std::size_t* above) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double h = 0.75 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  *above = v.size() - 1 - lo;
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_error;
};

/// Runs one job, timed, and checks it against the cold job `ref` (null for
/// the cold job itself). Prints one line per job with its digest. `kernel`
/// receives the mean of `kernel_before` (timed by the caller just before
/// the call) and the kernel time just after the job.
JobResult run_job(e2e::Workload& w, e2e::Tracer& tr, int id, const char* kind,
                  const JobResult* ref, Tally& tally, double kernel_before,
                  double* wall, double* kernel) {
  tr.set_job(id);
  const dwv::linalg::ZohCacheStats z0 = dwv::linalg::zoh_cache_stats();
  const double cpu0 = e2e::cpu_seconds();
  const double t0 = now_s();
  JobResult r = w.run(tr);
  const double t1 = now_s();
  const double cpu = e2e::cpu_seconds() - cpu0;
  *wall = t1 - t0;
  *kernel = 0.5 * (kernel_before + kernel_seconds());
  const dwv::linalg::ZohCacheStats z1 = dwv::linalg::zoh_cache_stats();
  if (ref != nullptr) {
    if (r.verifier_calls != ref->verifier_calls) {
      r.fail("verifier calls differ from the cold job");
    } else if (r.digest != ref->digest) {
      r.fail("result digest differs from the cold job");
    }
  }
  if (tr.on()) {
    e2e::Span root{"job", "", id, t0, t1, {}};
    const double attributed = tr.child_seconds("job");
    root.args["remainder_s"] = *wall - attributed;
    tr.add(std::move(root));
    r.layers["job.remainder_s"] = *wall - attributed;
    r.layers["linalg.zoh_hits"] = static_cast<double>(z1.hits - z0.hits);
    r.layers["linalg.zoh_misses"] =
        static_cast<double>(z1.misses - z0.misses);
    const double rt0 = now_s();
    w.replay(tr, r);
    tr.add({"replay", "", id, rt0, now_s(), {}});
  }
  w.after_job();
  ++tally.attempted;
  if (!r.ok) {
    ++tally.failed;
    if (tally.first_error.empty()) tally.first_error = r.error;
  }
  std::printf(
      "job %d %s wall_s=%.6f cpu_s=%.6f kernel_ms=%.4f calls=%.0f "
      "digest=%016llx%s%s\n",
      id, kind, *wall, cpu, 1e3 * *kernel, r.verifier_calls,
      static_cast<unsigned long long>(r.digest), r.ok ? "" : " FAILED: ",
      r.ok ? "" : r.error.c_str());
  std::fflush(stdout);
  return r;
}

void print_json_map(const char* key, const std::map<std::string, double>& m,
                    bool last) {
  std::printf("\"%s\": {", key);
  const char* sep = "";
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\": %.17g", sep, k.c_str(), v);
    sep = ", ";
  }
  std::printf("}%s", last ? "" : ", ");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string build_type = DWV_E2E_BUILD_TYPE;
  if (kAssertsOn || build_type == "Debug" || build_type.empty()) {
    std::fprintf(stderr,
                 "dwv_e2e: refusing to measure a '%s' build (asserts %s); "
                 "configure with -DCMAKE_BUILD_TYPE=RelWithDebInfo\n",
                 build_type.c_str(), kAssertsOn ? "on" : "off");
    return 3;
  }
  const Args args = parse(argc, argv);

  std::map<std::string, std::string> env = {
      {"workload", args.workload},
      {"seed", std::to_string(args.seed)},
      {"input_seed", std::to_string(args.input_seed)},
      {"controller", args.controller},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"cpu", cpu_model()},
      {"compiler", DWV_E2E_COMPILER},
      {"build_type", build_type},
      {"revision", args.revision}};
  std::printf("env");
  for (const auto& [k, v] : env) {
    std::printf(" %s=\"%s\"", k.c_str(), v.c_str());
  }
  std::printf("\n");

  e2e::WorkloadConfig cfg;
  cfg.seed = args.seed;
  cfg.input_seed = args.input_seed;
  cfg.controller = args.controller;
  cfg.data_dir = args.data_dir;
  cfg.work_dir = args.work_dir;

  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  const double setup_kernel = kernel_seconds();
  const double t_start = now_s();
  std::unique_ptr<e2e::Workload> w;
  try {
    w = e2e::make_workload(args.workload, cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dwv_e2e: %s\n", e.what());
    return 1;
  }

  e2e::Tracer quiet(false);
  e2e::Tracer traced(true);
  Tally tally;
  double wall = 0.0, kernel = 0.0;
  const double t_cold = now_s();
  JobResult ref = run_job(*w, quiet, 0, "cold", nullptr, tally, setup_kernel,
                          &wall, &kernel);
  // Set-up is the input generation plus the cold job, without the kernel.
  const double setup_wall = (t_cold - t_start) + wall;
  const double setup_s = setup_wall * kRefKernelS / kernel;
  if (!args.setup_only) w->check_reference(ref);
  if (!ref.ok && tally.failed == 0) {
    ++tally.failed;
    tally.first_error = ref.error;
    std::printf("reference check FAILED: %s\n", ref.error.c_str());
  }

  // Calibrated times of untraced and traced jobs, raw walls, kernel times.
  std::vector<double> times, traced_times, walls, kernels;
  std::map<std::string, std::vector<double>> layer_samples;
  if (!args.setup_only) {
    // Long inputs (held-out seeds that do not converge) stop at the cap
    // rather than at kMinJobs, so a run always ends in bounded time.
    // A traced run times a pair of jobs per round, so it needs half the
    // rounds for the same number of samples.
    const double cap = args.seconds + 60.0;
    const std::size_t min_rounds = args.trace ? kMinJobs / 2 : kMinJobs;
    const double t_loop = now_s();
    int id = 1;
    for (std::size_t n = 0;; ++n) {
      const double elapsed = now_s() - t_loop;
      if ((elapsed >= args.seconds && n >= min_rounds) || elapsed >= cap) {
        break;
      }
      run_job(*w, quiet, id++, "untraced", &ref, tally, kernel_seconds(),
              &wall, &kernel);
      times.push_back(wall * kRefKernelS / kernel);
      walls.push_back(wall);
      kernels.push_back(kernel);
      if (args.trace) {
        const JobResult r = run_job(*w, traced, id++, "traced", &ref, tally,
                                    kernel_seconds(), &wall, &kernel);
        traced_times.push_back(wall * kRefKernelS / kernel);
        for (const auto& [k, v] : r.layers) layer_samples[k].push_back(v);
      }
    }
  }

  std::map<std::string, double> e2e_metrics;
  std::size_t tail_above = 0;
  if (!times.empty()) {
    e2e_metrics["job_s"] = median(times);
    e2e_metrics["job_tail_s"] = upper_quartile(times, &tail_above);
  }
  e2e_metrics["verifier_calls"] = ref.verifier_calls;
  e2e_metrics["iterations"] = ref.iterations;
  e2e_metrics["coverage"] = ref.coverage;
  e2e_metrics["sc_rate"] = ref.sc_rate;
  e2e_metrics["gr_rate"] = ref.gr_rate;
  e2e_metrics["final_width"] = ref.final_width;
  e2e_metrics["ok_rate"] =
      1.0 - static_cast<double>(tally.failed) /
                static_cast<double>(std::max<std::size_t>(1, tally.attempted));
  e2e_metrics["peak_rss_mb"] = peak_rss_mb();

  std::map<std::string, double> layers;
  for (const auto& [k, v] : layer_samples) layers[k] = median(v);
  if (!traced_times.empty()) {
    const double untraced = median(times);
    layers["job.wall_s"] = median(walls);
    layers["calib.kernel_s"] = median(kernels);
    layers["trace.job_s"] = median(traced_times);
    layers["trace.overhead_pct"] =
        100.0 * (median(traced_times) - untraced) / untraced;
    const std::string path = args.work_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    if (!e2e::write_chrome_trace(path, traced.spans(), env)) {
      std::fprintf(stderr, "dwv_e2e: cannot write trace file %s\n",
                   path.c_str());
      return 1;
    }
    std::printf("trace written to %s (%zu spans)\n", path.c_str(),
                traced.spans().size());
  }

  std::printf(
      "summary: %zu timed jobs, job_s %.6f, job_tail_s %.6f (p75, %zu above), "
      "setup_s %.6f, raw wall: job %.6f setup %.6f, kernel %.4f ms, "
      "fail_rate %.4f (%zu/%zu)%s%s\n",
      times.size(), e2e_metrics["job_s"], e2e_metrics["job_tail_s"],
      tail_above, setup_s, median(walls), setup_wall,
      1e3 * median(kernels),
      static_cast<double>(tally.failed) /
          static_cast<double>(std::max<std::size_t>(1, tally.attempted)),
      tally.failed, tally.attempted, tally.failed ? "; first failure: " : "",
      tally.first_error.c_str());
  std::printf("{\"workload\": \"%s\", \"ok\": %s, \"attempted\": %zu, "
              "\"failed\": %zu, \"setup_s\": %.17g, \"digest\": \"%016llx\", ",
              args.workload.c_str(), tally.failed == 0 ? "true" : "false",
              tally.attempted, tally.failed, setup_s,
              static_cast<unsigned long long>(ref.digest));
  print_json_map("e2e", e2e_metrics, false);
  print_json_map("layers", layers, true);
  std::printf("}\n");
  return 0;
}
