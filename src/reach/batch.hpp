// Batched verification engine: routes groups of independent (x0,
// controller) jobs through the lane-batched flowpipe steppers.
//
// Every phase of the design-while-verify loop computes many independent
// flowpipes over the same dynamics — SPSA probe pairs in the learner,
// per-cell flowpipes in SubdividingVerifier, the refinement frontier in
// search_initial_set. BatchVerifier is the shared entry point: it unwraps
// an optional CachingVerifier layer, detects a groupable inner verifier
// (IntervalVerifier lane groups, LinearVerifier per-batch closed-loop map
// hoist, TmVerifier cells one at a time, sharded over `threads`), and
// falls back to plain sequential compute() calls otherwise — so callers
// can submit batches unconditionally.
//
// Bit-identity contract (DESIGN.md section 11): result j of compute(jobs)
// is bit-identical to verifier->compute(jobs[j].x0, *jobs[j].ctrl), for
// any batch width and job order. With a caching layer, lookups and
// inserts are issued in job-index order with placeholder inserts standing
// in for not-yet-computed misses (backfilled via FlowpipeCache::replace),
// so cache hit/miss/insertion/eviction counts match the sequential scalar
// sequence at any capacity — including caches smaller than the batch and
// intra-batch duplicate keys that evict each other.
#pragma once

#include <cstddef>
#include <vector>

#include "geom/box.hpp"
#include "nn/controller.hpp"
#include "reach/flowpipe.hpp"
#include "reach/verifier.hpp"

namespace dwv::reach {

class CachingVerifier;
class IntervalVerifier;
class LinearVerifier;

/// One verification job: an initial box and a (non-owned) controller.
struct BatchJob {
  geom::Box x0;
  const nn::Controller* ctrl = nullptr;
};

class BatchVerifier {
 public:
  /// `verifier` is borrowed (not owned) and must outlive this object.
  /// `batch` is the lane-group width: 0 resolves to the SIMD lane width
  /// (interval::lanes::kWidth), 1 disables batching (pure sequential
  /// compute() calls), any other value groups jobs in chunks of `batch`.
  /// `threads` shards a group's TM cells across the process thread pool
  /// (0 = auto via DWV_THREADS); the default 1 runs them on the calling
  /// thread in index order, for callers that parallelize above it.
  /// Bit-identity holds at every thread count (index-addressed result
  /// slots over independent cells).
  explicit BatchVerifier(const Verifier* verifier, std::size_t batch = 0,
                         std::size_t threads = 1);

  /// The resolved group width (callers chunk parallel work by this).
  std::size_t batch() const { return batch_; }
  /// True when a grouped inner path (lanes, map hoist or TM) is in use.
  bool batched() const;

  /// Flowpipes for all jobs; result j bit-identical to
  /// verifier->compute(jobs[j].x0, *jobs[j].ctrl). Thread-safe.
  std::vector<Flowpipe> compute(const std::vector<BatchJob>& jobs) const;

  /// Convenience overload: all boxes against one controller.
  std::vector<Flowpipe> compute(const std::vector<geom::Box>& x0s,
                                const nn::Controller& ctrl) const;

 private:
  /// The batched kernel dispatch for jobs already known to miss the cache
  /// (or when no cache layer exists).
  std::vector<Flowpipe> compute_direct(const std::vector<BatchJob>& jobs)
      const;

  const Verifier* outer_;             ///< as handed in (cache layer included)
  const CachingVerifier* caching_;    ///< outer_ if it is a CachingVerifier
  const Verifier* inner_;             ///< outer_ minus its cache layer
  const IntervalVerifier* lane_;      ///< inner lane-batched path, if any
  const LinearVerifier* linear_;      ///< inner map-hoisted path, if any
  bool tm_;                           ///< inner verifier is a TmVerifier
  std::size_t batch_;
  std::size_t threads_;               ///< TM cell shard count (1 = inline)
};

}  // namespace dwv::reach
