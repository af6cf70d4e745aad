// Initial-set subdivision wrapper: splits X0 into a grid of cells, runs the
// inner verifier per cell, and merges the per-step sets. Because each cell
// starts smaller, every nonlinear over-approximation step (TM truncation,
// activation remainders, Bernstein fits) is tighter, at k^n times the cost.
// This is the classic accuracy/effort knob of reachability tools and the
// "extra tight" end of the verification-tightness ablation.
#pragma once

#include "reach/cache.hpp"
#include "reach/verifier.hpp"

namespace dwv::reach {

struct SubdivideOptions {
  /// Cells per dimension of the initial box.
  std::size_t cells_per_dim = 2;
  /// Concurrent per-cell flowpipe computations. 0 = auto (DWV_THREADS env
  /// var, else hardware concurrency); 1 = serial. The hull merge runs in
  /// cell order on the calling thread, so the merged pipe is bit-identical
  /// at any thread count.
  std::size_t threads = 0;
  /// Lane-batch width for grouped per-cell computations: cells go through
  /// a reach::BatchVerifier over the inner verifier, which steps interval
  /// groups in lockstep through the SoA lane kernels and runs TM cells one
  /// at a time (DESIGN.md section 11).
  /// 0 = auto (the SIMD lane width), 1 = per-cell (the seed path).
  /// Merged pipes are bit-identical at any setting.
  std::size_t batch = 0;
  /// When non-null, per-cell flowpipes are memoized here (the inner
  /// verifier is wrapped in a CachingVerifier keyed by cell box +
  /// controller parameters), so repeated compute() calls with recurring
  /// parameters — SPSA probe pairs, exhausted-restart re-evaluations —
  /// skip every cell they have seen. Share one cache across learner and
  /// subdivider to also hit across call sites. Keys carry the inner
  /// verifier's cache_salt, so per-cell pipes computed with a TmVerifier's
  /// symbolic remainder queue on never alias queue-off entries
  /// (DESIGN.md §12).
  std::shared_ptr<FlowpipeCache> cache = nullptr;
};

class SubdividingVerifier final : public Verifier {
 public:
  SubdividingVerifier(VerifierPtr inner, SubdivideOptions opt = {})
      : inner_(std::move(inner)), opt_(opt) {
    if (opt_.cache) {
      inner_ = std::make_shared<const CachingVerifier>(std::move(inner_),
                                                       opt_.cache);
    }
  }

  std::string name() const override {
    return "subdivide(" + inner_->name() + ")";
  }

  /// Merges the cell flowpipes by per-step box hull. The merged pipe is
  /// valid only if EVERY cell pipe is valid (all cells are computed and the
  /// lowest-index failure is propagated verbatim); step counts are aligned
  /// to the LONGEST cell pipe — a cell truncated earlier by stop-at-goal is
  /// padded with its final time-point set (step sets) / final interval
  /// hull (tube hulls), so the merge stays a sound over-approximation.
  Flowpipe compute(const geom::Box& x0,
                   const nn::Controller& ctrl) const override;

  std::optional<Plant> plant() const override { return inner_->plant(); }

 private:
  VerifierPtr inner_;
  SubdivideOptions opt_;
};

}  // namespace dwv::reach
