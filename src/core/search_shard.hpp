// Sharded, checkpointable, anytime X_I search (DESIGN.md §16).
//
// The one X_I search engine: core::search_initial_set is its one-shard
// case (shards = 1, prefix_grain = 1). It scales beyond one process
// without giving up bit-identity. The refinement tree's heap sequence
// numbers (root 1, children 2s and 2s+1) make every terminal decision
// globally ordered, so the search can be split into K deterministic
// subtrees — each run by its own work-stealing frontier with its own
// thread pool, in-process or in a separate OS process
// (`dwv search --shard i/K`) — and a merge step that replays terminal
// records in sequence order reproduces the single-process InitialSetResult
// bit for bit: the same certified/rejected lists, the same volume
// accumulation order, every bit of the coverage sum, at any K, thread
// count, or batch width (the ordered-replay argument, applied across
// processes).
//
// Checkpointing serializes the frontier (pending cells + sequence numbers
// + recorded symbolic prefixes, schedule tapes included) into an
// append-only checksummed snapshot file at a cell-count cadence; loading
// scans to the last intact snapshot and truncates any torn tail, so a
// kill -9 mid-search resumes to a bit-identical final result (cells
// verified after the last snapshot are simply re-verified — verifiers are
// deterministic pure functions, so the records come out the same).
//
// Anytime mode reports a monotonically growing certified inner
// approximation (coverage lower bound + cells so far) on a progress
// callback at every round boundary; returning false from the callback
// cancels the search and returns the partial result, which is itself a
// sound inner approximation of X_I.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/initial_set.hpp"

namespace dwv::core {

/// Snapshot handed to the anytime progress callback at round boundaries.
struct ShardSearchProgress {
  /// Certified-volume lower bound so far, as a fraction of |X0|.
  /// Monotonically non-decreasing across calls (cells are only ever added
  /// to the certified set, never removed).
  double coverage = 0.0;
  std::size_t certified_cells = 0;
  std::size_t rejected_cells = 0;
  /// Frontier cells not yet decided (0 on the final call).
  std::size_t pending_cells = 0;
  std::size_t verifier_calls = 0;
  /// Rounds completed (a round processes ~checkpoint_every cells).
  std::size_t rounds = 0;
};

/// Return false to cancel: the search stops at this round boundary and
/// returns the partial (anytime) result.
using ShardProgressFn = std::function<bool(const ShardSearchProgress&)>;

struct ShardSearchOptions {
  /// The underlying per-shard search configuration. `base.threads` is the
  /// thread count of EACH shard's work-stealing pool (0 = auto), so an
  /// in-process run uses up to shards * resolve_threads(base.threads)
  /// workers.
  InitialSetOptions base;
  /// Number of deterministic subtree shards K (>= 1).
  std::size_t shards = 1;
  /// Run only shard `shard_index` of K (search_initial_set_shard): the
  /// multi-process mode, one shard per OS process, merged afterwards with
  /// merge_shard_results. kAllShards = run every shard in-process
  /// (search_initial_set_sharded).
  static constexpr std::size_t kAllShards = static_cast<std::size_t>(-1);
  std::size_t shard_index = kAllShards;
  /// Target frontier cells PER SHARD before the deterministic prefix
  /// expansion stops and the tree is partitioned (>= 1; more grain =
  /// better load balance, more duplicated prefix work per process).
  std::size_t prefix_grain = 8;
  /// Append-only snapshot file (empty = no checkpointing). Created when
  /// missing; a valid existing checkpoint of the SAME configuration
  /// resumes the search (a different configuration throws). Torn tails
  /// from a crash mid-append are truncated on load.
  std::string checkpoint_file;
  /// Cell-count cadence of snapshots / progress callbacks: each round
  /// processes about this many cells (exceeded by at most one batch
  /// group), then snapshots and reports. Only bounds rounds when
  /// checkpointing or a progress callback is set; otherwise the search
  /// runs one unbounded round.
  std::size_t checkpoint_every = 256;
  ShardProgressFn progress;
};

/// What the search settled about one cell; the flag byte of its terminal
/// record in shard, result and checkpoint files.
enum class CellVerdict : std::uint8_t {
  kUnknown = 0,    ///< verified, but too loose to certify
  kCertified = 1,  ///< verified and certified
  /// Centre rollout fails the spec (core::centre_rollout_fails); never
  /// verified.
  kFalsified = 2,
};

/// One terminal decision of the refinement tree. `seq` is the cell's heap
/// sequence number — the global merge key that replays breadth-first
/// emission order.
struct ShardRecord {
  std::uint64_t seq = 0;
  geom::Box box;
  CellVerdict verdict = CellVerdict::kUnknown;
};

/// The terminal records of one shard's subtree, plus the material the
/// merge validates: every part of a merge must come from the same search
/// configuration (fingerprint), the same K, and cover each shard index
/// exactly once. Only shard 0 includes the shared prefix-expansion
/// records and calls (every shard recomputes the prefix locally; counting
/// it once keeps merged verifier_calls equal to a single-process run).
struct ShardResult {
  std::uint64_t fingerprint = 0;
  std::uint32_t shards = 1;
  std::uint32_t shard_index = 0;
  bool includes_prefix = false;
  /// False when the shard run was cancelled mid-search (partial records);
  /// merge_shard_results refuses incomplete parts.
  bool complete = true;
  std::uint64_t verifier_calls = 0;
  std::vector<ShardRecord> records;
};

/// Fingerprint of everything that determines the search's terminal
/// records: verifier identity (unwrapping a CachingVerifier — caching
/// cannot change bits), controller architecture + exact parameter bits,
/// the reach-avoid spec, and the result-affecting options (max_depth,
/// check_safety, reuse_parent_prefix). Deliberately EXCLUDES shards,
/// threads, and batch width — those never change bits, so shard files and
/// checkpoints remain mergeable/resumable across them.
std::uint64_t xi_search_fingerprint(const reach::Verifier& verifier,
                                    const ode::ReachAvoidSpec& spec,
                                    const nn::Controller& ctrl,
                                    const InitialSetOptions& base);

/// In-process sharded driver: runs all K shards (each a work-stealing
/// pool) and merges. Bit-identical to search_initial_set at any
/// shards/threads/batch setting. Requires opt.shard_index == kAllShards.
InitialSetResult search_initial_set_sharded(const reach::Verifier& verifier,
                                            const ode::ReachAvoidSpec& spec,
                                            const nn::Controller& ctrl,
                                            const ShardSearchOptions& opt);

/// Multi-process mode: runs only subtree opt.shard_index of opt.shards
/// (the deterministic prefix expansion is recomputed locally, so shard
/// processes need no coordination beyond the final merge).
ShardResult search_initial_set_shard(const reach::Verifier& verifier,
                                     const ode::ReachAvoidSpec& spec,
                                     const nn::Controller& ctrl,
                                     const ShardSearchOptions& opt);

/// Replays the union of the parts' terminal records in global sequence
/// order — bit-identical to the single-process result. Throws
/// std::runtime_error on inconsistent parts (mixed fingerprints or K,
/// missing/duplicate shard indices, incomplete parts, duplicate cells).
InitialSetResult merge_shard_results(const ode::ReachAvoidSpec& spec,
                                     std::vector<ShardResult> parts);

void put(reach::ser::Writer& w, const ShardResult& v);
bool get(reach::ser::Reader& r, ShardResult& out);

// --- Result files (`dwv search --out` / `--merge`) ----------------------
// Single checksummed record behind a magic + version header. Writing the
// same bits produces the same file bytes, so `cmp` on two result files is
// a bit-identity check of the searches that produced them. Loaders throw
// std::runtime_error on I/O errors, foreign files, or corruption.

void save_shard_result_file(const std::string& path, const ShardResult& v);
ShardResult load_shard_result_file(const std::string& path);

void save_initial_set_result_file(const std::string& path,
                                  std::uint64_t fingerprint,
                                  const InitialSetResult& v);
InitialSetResult load_initial_set_result_file(const std::string& path,
                                              std::uint64_t* fingerprint);

}  // namespace dwv::core
