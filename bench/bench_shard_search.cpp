// Benchmarks for the sharded, checkpointable X_I search (DESIGN.md §16):
// the in-process sharded driver at K = 1/2/4 subtree shards over a
// depth-8 ACC refinement tree over a widened X0 (416 interval-verifier
// calls; falsified cells skip the verifier), and checkpoint resume
// (restarting from a half-way snapshot vs searching
// from scratch — the work a crash does NOT repeat).
//
// Speedup keys are same-run ratios from this process, so they transfer
// across machines; note that shard_search_{2,4}x_speedup only exceed 1.0
// when the host grants the process that many cores (the committed baseline
// comes from a 4-vCPU VM; CI enforces an absolute floor on the 2x key on
// its own multicore run). shard_search_resume_speedup is core-count
// independent: it measures skipped work, not parallelism. The bit-identity
// contract is asserted inline — the bench FAILS (nonzero exit) if any
// sharded or resumed result deviates from the single-process search by a
// single bit. Results are printed as a table and written to
// BENCH_shard_search.json.
//
//   $ ./bench_shard_search
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/initial_set.hpp"
#include "core/search_shard.hpp"
#include "nn/controller.hpp"
#include "ode/benchmarks.hpp"
#include "reach/interval_reach.hpp"

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
    std::printf("%-32s %12.3f %s\n", name.c_str(), value, unit);
  }

  void write_json(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (!f) return;
    std::fprintf(f, "{\n  \"bench\": \"shard_search\",\n");
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

bool result_bits_eq(const core::InitialSetResult& a,
                    const core::InitialSetResult& b) {
  return boxes_eq(a.certified, b.certified) &&
         boxes_eq(a.rejected, b.rejected) &&
         std::bit_cast<std::uint64_t>(a.coverage) ==
             std::bit_cast<std::uint64_t>(b.coverage) &&
         a.verifier_calls == b.verifier_calls;
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

// The depth-8 workload: ACC with X0 widened 3x around its centre under
// the gain (0.8, -2.75). Centre rollouts falsify the outer cells, which
// skip the verifier; the interval verifier checks the rest, too loosely
// to certify any, so all 256 leaves are rejected. (A zero-gain tree would
// be falsified everywhere and time no verifier call at all.) The verified
// cells cluster around the centre of X0, so the round-robin partition at
// the default grain gives the two shards 163 and 240 of the 416 calls;
// both get 248 cells, and the first shard's extra falsified cells, two
// centre rollouts each, cost about what a verified cell does, so the two
// shards' work is even (0.024 and 0.023 s of one-thread CPU time each,
// prefix included, against 0.044 s for the whole search).
constexpr std::size_t kDepth = 8;
// A search of this tree takes ~35 ms, so each timing is the best of 15
// runs (about as much timed work as 3 runs of the older 0.5 s tree).
constexpr std::size_t kReps = 15;

void bench_shard_scaling(Results& out) {
  const auto bm = ode::make_acc_benchmark();
  const ode::ReachAvoidSpec spec = dwvbench::widened_acc_spec(bm);
  const nn::LinearController ctrl{linalg::Mat{{0.8, -2.75}}};
  const reach::IntervalVerifier v(bm.system, spec, {});

  core::InitialSetOptions base;
  base.max_depth = kDepth;
  base.threads = 1;

  // Single-process reference (the plain Algorithm-2 search).
  core::InitialSetResult ref;
  const double t_ref = time_best_seconds(
      kReps, [&] { ref = core::search_initial_set(v, spec, ctrl, base); });
  std::printf("shard_search: %zu calls, %zu certified, %zu rejected\n",
              ref.verifier_calls, ref.certified.size(), ref.rejected.size());

  double t_shard[3] = {0, 0, 0};
  const std::size_t shard_counts[3] = {1, 2, 4};
  for (std::size_t i = 0; i < 3; ++i) {
    core::ShardSearchOptions opt;
    opt.base = base;  // one thread per shard: scaling comes from shards
    opt.shards = shard_counts[i];
    core::InitialSetResult res;
    t_shard[i] = time_best_seconds(kReps, [&] {
      res = core::search_initial_set_sharded(v, spec, ctrl, opt);
    });
    require(result_bits_eq(res, ref), "sharded X_I == single-process X_I");
  }

  out.add("shard_search_single_seconds", t_ref, "s");
  out.add("shard_search_1x_seconds", t_shard[0], "s");
  out.add("shard_search_2x_seconds", t_shard[1], "s");
  out.add("shard_search_4x_seconds", t_shard[2], "s");
  out.add("shard_search_2x_speedup", t_shard[0] / t_shard[1], "x");
  out.add("shard_search_4x_speedup", t_shard[0] / t_shard[2], "x");
}

void bench_checkpoint_resume(Results& out) {
  namespace fs = std::filesystem;
  const auto bm = ode::make_acc_benchmark();
  const ode::ReachAvoidSpec spec = dwvbench::widened_acc_spec(bm);
  const nn::LinearController ctrl{linalg::Mat{{0.8, -2.75}}};
  const reach::IntervalVerifier v(bm.system, spec, {});

  core::ShardSearchOptions opt;
  opt.base.max_depth = kDepth;
  opt.base.threads = 1;

  const fs::path dir = fs::temp_directory_path() / "dwv_bench_shard_search";
  fs::create_directories(dir);
  const std::string half = (dir / "half.ck").string();
  const std::string work = (dir / "work.ck").string();

  // Reference: the full search, uncheckpointed.
  core::InitialSetResult ref;
  const double t_full = time_best_seconds(kReps, [&] {
    opt.checkpoint_file.clear();
    ref = core::search_initial_set_sharded(v, spec, ctrl, opt);
  });

  // A half-way snapshot: cancel after the first round. The tree is a full
  // binary tree of 2L - 1 cells over its L leaves, so a budget of L cells
  // is about half of it. Each timed resume restarts from a fresh copy of
  // it (resuming mutates the checkpoint file).
  opt.checkpoint_every = ref.certified.size() + ref.rejected.size();
  fs::remove(half);
  opt.checkpoint_file = half;
  opt.progress = [](const core::ShardSearchProgress&) { return false; };
  const core::InitialSetResult partial =
      core::search_initial_set_sharded(v, spec, ctrl, opt);
  require(partial.verifier_calls < ref.verifier_calls,
          "half-way snapshot stopped before completing");
  opt.progress = nullptr;

  core::InitialSetResult resumed;
  const double t_resume = time_best_seconds(kReps, [&] {
    fs::copy_file(half, work, fs::copy_options::overwrite_existing);
    opt.checkpoint_file = work;
    resumed = core::search_initial_set_sharded(v, spec, ctrl, opt);
  });
  require(result_bits_eq(resumed, ref),
          "resumed X_I == uninterrupted X_I");

  fs::remove_all(dir);
  out.add("shard_search_full_seconds", t_full, "s");
  out.add("shard_search_resume_seconds", t_resume, "s");
  out.add("shard_search_resume_speedup", t_full / t_resume, "x");
}

}  // namespace

int main() {
  std::printf("sharded X_I search benchmarks\n");
  std::printf("-----------------------------\n");
  Results out;
  bench_shard_scaling(out);
  bench_checkpoint_resume(out);
  out.write_json("BENCH_shard_search.json");
  std::printf("\nwrote BENCH_shard_search.json%s\n",
              g_bitfail ? " (BIT-IDENTITY FAILURES!)" : "");
  return g_bitfail == 0 ? 0 : 1;
}
