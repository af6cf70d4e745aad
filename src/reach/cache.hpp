// Cross-iteration flowpipe cache for the verify-in-the-loop hot path.
//
// Algorithm 1 re-verifies controller parameter vectors that recur exactly:
// averaged SPSA draws Bernoulli perturbation vectors from a set of only
// 2^(d-1) distinct unordered probe pairs (tiny for the paper's low-d
// controllers), exhausted-restart and post-learning pipelines re-evaluate
// the same iterate, and subdivision cells repeat across calls with the same
// parameters. `FlowpipeCache` memoizes `Verifier::compute` results behind
// an exact-match key, so a hit returns byte-for-byte what recomputation
// would (verifiers are deterministic pure functions of (x0, theta)).
//
// Thread safety: the cache is sharded; each shard is an independently
// locked LRU map, so concurrent probe evaluations under the PR-1 work
// queue contend only when they land on the same shard. Statistics are
// relaxed atomics — counters, not synchronization.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "reach/verifier.hpp"

namespace dwv::reach {

/// Plain-value snapshot of the cache counters (see FlowpipeCache::stats).
struct CacheStats {
  /// In-memory tier hits (the value was resident).
  std::uint64_t hits = 0;
  /// Misses of BOTH tiers (the verifier had to compute).
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;
  /// Persistent-tier counters (all zero without a --cache-dir tier).
  /// A disk hit deserializes the record and backfills the memory tier, so
  /// later lookups of the same key count under `hits`.
  std::uint64_t disk_hits = 0;
  std::uint64_t disk_bytes_read = 0;
  std::uint64_t disk_bytes_written = 0;
  /// Records indexed on disk (live keys, not raw log records).
  std::uint64_t disk_entries = 0;
  /// Wall time spent inside cache bookkeeping (lookups + inserts,
  /// including disk serialization and I/O).
  double overhead_seconds = 0.0;
  /// Wall time spent in the wrapped verifier on misses — the per-phase
  /// split: total verify time = overhead + miss_compute (+ ~0 on hits).
  double miss_compute_seconds = 0.0;

  std::uint64_t lookups() const { return hits + disk_hits + misses; }
  double hit_rate() const {
    const std::uint64_t n = lookups();
    return n == 0 ? 0.0
                  : static_cast<double>(hits + disk_hits) /
                        static_cast<double>(n);
  }
};

/// Sharded LRU map from (verifier identity, initial box, controller
/// parameters) to the computed Flowpipe. Keys compare the full floating-
/// point material bit-exactly (never only a hash), so a hit cannot alias:
/// it returns exactly what recomputation would.
/// Sizing knobs for FlowpipeCache (top-level so it can serve as a default
/// argument; a nested struct with default member initializers cannot).
struct FlowpipeCacheConfig {
  /// Maximum resident entries across all shards (>= shards enforced).
  std::size_t capacity = 4096;
  /// Lock stripes; more shards = less contention under the thread pool.
  std::size_t shards = 16;
  /// Directory of the persistent tier (DESIGN.md §15); empty = memory
  /// only. Opening scans the directory's shard logs (corrupt, truncated,
  /// or version/salt-mismatched content degrades to a cold start, never an
  /// error), every insert appends, and a memory-tier miss consults the
  /// disk index before computing. I/O errors on the WRITE path (unwritable
  /// directory, disk full) throw std::runtime_error — a persistent cache
  /// that silently runs cold would break the warm-start contract.
  std::string dir;
  /// Salt naming this configuration's shard files: records produced under
  /// different verifier fingerprints / range modes / adaptive options live
  /// in different files and can never alias. CachingVerifier defaults it
  /// to its key seed (verifier name + cache_salt) when left 0.
  std::uint64_t disk_salt = 0;
  /// XOR-folded into the effective disk salt AFTER disk_salt is resolved
  /// (explicit or CachingVerifier-derived). Lets co-operating processes —
  /// e.g. the K shard processes of `dwv search --shard i/K` — share one
  /// cache directory without interleaving appends into the same shard
  /// logs: each process mixes a distinct value and therefore owns its own
  /// salted log files, while a later run that mixes the same value reads
  /// that process's records back. 0 = no mixing (the default, and the
  /// byte-compatible behaviour for all pre-existing cache directories).
  std::uint64_t disk_salt_mix = 0;
  /// Shard-log fan-out of the persistent tier.
  std::size_t disk_shards = 8;
};

class FlowpipeCache {
 public:
  using Config = FlowpipeCacheConfig;

  /// Exact-material cache key. `id` distinguishes verifier + controller
  /// structure (name/architecture); `words` holds the raw double bits of
  /// the initial box bounds followed by the flat parameter vector.
  struct Key {
    std::uint64_t id = 0;
    std::vector<std::uint64_t> words;
    std::uint64_t hash = 0;

    bool operator==(const Key& o) const {
      return id == o.id && hash == o.hash && words == o.words;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(k.hash);
    }
  };

  static Key make_key(std::uint64_t id, const geom::Box& x0,
                      const linalg::Vec& params);

  /// Opens the persistent tier when cfg.dir is set (creating the
  /// directory); throws std::runtime_error when the directory cannot be
  /// created or its shard logs cannot be opened for writing.
  explicit FlowpipeCache(Config cfg = {});
  ~FlowpipeCache();

  /// Returns a copy of the cached pipe and refreshes its LRU position.
  /// Pending placeholders (see insert_pending) count as misses: a racing
  /// reader must never observe a value that has not been computed yet.
  std::optional<Flowpipe> lookup(const Key& key);
  /// Inserts (or refreshes) an entry, evicting the shard's LRU tail when
  /// over budget. Refreshing a pending placeholder fills it.
  void insert(const Key& key, const Flowpipe& fp);

  // --- Scalar-sequence walk hooks (reach::BatchVerifier) -----------------
  // The batched cache walk replays the sequential scalar loop's cache
  // transcript: misses whose values arrive later (batched) insert a
  // PENDING placeholder at their scalar position — eviction is count-
  // based, so the placeholder drives the shard LRU exactly like the value
  // would — and the computed pipes are backfilled via replace(). Pending
  // entries are invisible to plain lookup(), so concurrent readers simply
  // recompute (exactly what they would have done without the batch).

  /// Inserts a pending placeholder for `key` (stats/LRU like insert()).
  void insert_pending(const Key& key);
  /// Walk-ordered lookup: a real entry is returned like lookup(); a
  /// pending placeholder counts as a HIT (LRU refresh included, matching
  /// the scalar sequence where the value would be resident) but returns
  /// nullopt with *pending_hit = true; otherwise a miss is counted.
  std::optional<Flowpipe> lookup_walk(const Key& key, bool* pending_hit);
  /// Overwrites the value of a resident entry (clearing its pending flag)
  /// WITHOUT touching statistics or LRU order; a no-op when the key is
  /// absent (e.g. the placeholder was already evicted).
  void replace(const Key& key, const Flowpipe& fp);

  CacheStats stats() const;
  void reset_stats();
  /// Drops the MEMORY tier only; the persistent tier keeps its records
  /// (use compact_cache_dir / filesystem removal to manage the disk).
  void clear();
  std::size_t size() const;
  std::size_t capacity() const { return cfg_.capacity; }
  bool has_disk_tier() const { return disk_ != nullptr; }

  /// Accounting hook for the time the caller spent computing a miss.
  void add_miss_compute_seconds(double s);

 private:
  struct Entry {
    Key key;
    Flowpipe fp;
    /// True while the value is a walk placeholder (not yet computed).
    bool pending = false;
  };
  struct Shard {
    std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
  };

  Shard& shard_for(const Key& key) {
    return *shards_[key.hash % shards_.size()];
  }

  /// Inserts `fp` into the memory tier under the shard lock (the shared
  /// tail of insert() and the disk-hit backfill), returning evictions.
  std::uint64_t mem_insert(const Key& key, const Flowpipe& fp);
  /// Probes the persistent tier; deserializes on hit. Never throws —
  /// corrupt or unreadable records are a miss.
  std::optional<Flowpipe> disk_fetch(const Key& key);
  /// Appends (key, fp) to the persistent tier unless the key is already
  /// on disk; throws std::runtime_error on write failure.
  void disk_append(const Key& key, const Flowpipe& fp);

  Config cfg_;
  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  struct DiskTier;
  std::unique_ptr<DiskTier> disk_;

  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> evictions_{0};
  mutable std::atomic<std::uint64_t> insertions_{0};
  mutable std::atomic<std::uint64_t> disk_hits_{0};
  mutable std::atomic<std::uint64_t> disk_bytes_read_{0};
  mutable std::atomic<std::uint64_t> disk_bytes_written_{0};
  mutable std::atomic<std::uint64_t> overhead_ns_{0};
  mutable std::atomic<std::uint64_t> miss_compute_ns_{0};
};

/// Offline compaction of a persistent cache directory (`dwv
/// cache-compact`): rewrites every shard log to its live records (last
/// valid record per key, first-seen order), drops corrupt or truncated
/// tails, and deletes stale-format files of this cache's magic. Each
/// rewritten log is published by atomic rename, so a crash mid-compaction
/// leaves the original file intact. Run it offline — a concurrently
/// appending process would lose appends made after the rewrite's snapshot.
struct CacheCompactionStats {
  std::size_t files = 0;            ///< shard logs rewritten
  std::size_t stale_files_deleted = 0;
  std::size_t records_kept = 0;
  std::size_t records_dropped = 0;  ///< superseded duplicates + corrupt
  std::uint64_t bytes_before = 0;
  std::uint64_t bytes_after = 0;
};
CacheCompactionStats compact_cache_dir(const std::string& dir);

/// Word-at-a-time mix over a word stream; the canonical hash used for
/// cache keys. Only ever used to pick shards/buckets — keys still compare
/// the full material bit-exactly, so hash quality affects speed, not
/// correctness.
std::uint64_t hash_words(std::uint64_t seed, const std::uint64_t* words,
                         std::size_t n);
/// FNV-1a over a byte string (short identity strings; not hot).
std::uint64_t hash_string(std::uint64_t seed, const std::string& s);

/// Decorator memoizing any Verifier. Bit-identity of hits follows from the
/// wrapped verifier being a deterministic pure function of (x0, theta):
/// the cache stores exactly what `inner->compute` returned for the same
/// exact key material, so enabling the cache (at any thread count) cannot
/// change a single bit of any result the caller observes.
class CachingVerifier final : public Verifier {
 public:
  CachingVerifier(VerifierPtr inner, std::shared_ptr<FlowpipeCache> cache);
  explicit CachingVerifier(VerifierPtr inner,
                           FlowpipeCache::Config cfg = {});

  std::string name() const override {
    return "cached(" + inner_->name() + ")";
  }

  Flowpipe compute(const geom::Box& x0,
                   const nn::Controller& ctrl) const override;

  std::optional<Plant> plant() const override { return inner_->plant(); }

  /// The exact key compute() would use for this job — exposed so the
  /// batched engine (reach::BatchVerifier) can reproduce the same
  /// lookup/insert sequence around its lane-group computations.
  FlowpipeCache::Key key_for(const geom::Box& x0,
                             const nn::Controller& ctrl) const;

  const std::shared_ptr<FlowpipeCache>& cache() const { return cache_; }
  const VerifierPtr& inner() const { return inner_; }

 private:
  VerifierPtr inner_;
  std::shared_ptr<FlowpipeCache> cache_;
  std::uint64_t name_seed_;
};

}  // namespace dwv::reach
