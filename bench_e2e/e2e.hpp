// Shared pieces of the end-to-end benchmark program dwv_e2e: the span
// recorder, the per-job result record, and the workload interface the four
// workloads in workloads.cpp implement.
//
// Spans are taken only around the library's public calls made from this
// directory (Learner::learn, verify_controller, monte_carlo_rates,
// search_initial_set, Verifier::compute, ...). The verifier itself is never
// wrapped: the learner, BatchVerifier and the search dynamic_cast the
// concrete verifier, so a timing decorator would switch off gradients,
// batch lanes and prefix reuse and measure a different program.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace e2e {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU time of the whole process (all threads), in seconds.
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// One closed interval of work, Chrome trace-event style ("ph":"X").
struct Span {
  std::string name;
  std::string parent;  ///< name of the enclosing span ("" for a job root)
  int job = 0;         ///< spans of one job share this id
  double t0 = 0.0;
  double t1 = 0.0;
  std::map<std::string, double> args;
};

/// In-memory span recorder. When off, `span` only runs the callable, so an
/// untraced job pays one branch per public call.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }
  void set_job(int id) { job_ = id; }
  int job() const { return job_; }

  /// Runs fn() and returns its wall time in seconds; records a span named
  /// `name` under `parent` when tracing is on.
  template <class F>
  double span(const char* name, const char* parent, F&& fn) {
    const double t0 = now_s();
    fn();
    const double t1 = now_s();
    if (on_) spans_.push_back({name, parent, job_, t0, t1, {}});
    return t1 - t0;
  }

  /// Records an already-timed span (the job roots timed in main.cpp).
  void add(Span s) {
    if (on_) spans_.push_back(std::move(s));
  }

  /// Attaches a counter to the most recent span named `name` of the
  /// current job (no-op when off or absent).
  void annotate(const char* name, const std::string& key, double value);

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of the durations of the current job's spans whose parent is
  /// `parent` (the attributed part of that span).
  double child_seconds(const char* parent) const;

 private:
  bool on_;
  int job_ = 0;
  std::vector<Span> spans_;
};

/// Writes the spans as Chrome trace-event JSON (loadable in Perfetto or
/// chrome://tracing); `meta` lands in "otherData". Returns false on I/O
/// failure.
bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans,
                        const std::map<std::string, std::string>& meta);

/// Outcome of one job. The count-like fields are identical in every
/// repetition of a run (main.cpp checks calls and digest against the
/// first, cold job).
struct JobResult {
  bool ok = true;
  std::string error;  ///< first failed invariant
  std::uint64_t digest = 0;
  double verifier_calls = 0.0;
  double iterations = 0.0;
  double coverage = 0.0;
  double final_width = 0.0;
  double sc_rate = 0.0;
  double gr_rate = 0.0;
  /// Per-layer values of a traced job (spans, result-struct counters and
  /// replays), keyed by the metric names of BENCHMARK.json.
  std::map<std::string, double> layers;

  void fail(const std::string& why) {
    if (ok) error = why;
    ok = false;
  }
};

struct WorkloadConfig {
  std::uint64_t seed = 1;
  /// Base input selector (learner init / SPSA seed, W4 gain); 0 = the
  /// workload's documented default.
  std::uint64_t input_seed = 0;
  /// Controller file of osc_xi_search ("" = the committed default).
  std::string controller;
  /// Directory holding the committed controllers.
  std::string data_dir;
  /// Scratch directory for the persistent-cache workload (inside the
  /// checkout; emptied and removed by the workload).
  std::string work_dir;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One job. Layer values are filled only when `tr.on()`.
  virtual JobResult run(Tracer& tr) = 0;

  /// Untimed, once per run, on the first (cold) job's result: checks that
  /// are too costly per job, and fills fields the job itself does not
  /// measure (MC rates of the search and cache workloads, final_width of
  /// the search). Marks `ref` failed on a broken invariant.
  virtual void check_reference(JobResult& ref) { (void)ref; }

  /// After a traced job: replays single-layer calls on that job's final
  /// state and stores their timings in `res.layers`.
  virtual void replay(Tracer& tr, JobResult& res) = 0;

  /// Untimed clean-up after every job (scratch directories).
  virtual void after_job() {}
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& cfg);

/// Names accepted by make_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

}  // namespace e2e
