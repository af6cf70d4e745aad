#include "reach/subdivide.hpp"

#include <algorithm>

#include "parallel/pool.hpp"
#include "reach/batch.hpp"

namespace dwv::reach {

Flowpipe SubdividingVerifier::compute(const geom::Box& x0,
                                      const nn::Controller& ctrl) const {
  const std::vector<std::size_t> per_dim(x0.dim(), opt_.cells_per_dim);
  const std::vector<geom::Box> cells = x0.grid(per_dim);

  // Each cell's flowpipe is an independent verifier call: fan out across
  // the pool, one index-addressed slot per cell, then merge on this thread
  // in cell order — the merged pipe is bit-identical at any thread count.
  // With opt_.batch != 1 and a groupable inner verifier, the fan-out
  // unit is a BatchVerifier group instead of a single cell (same per-cell
  // arithmetic, so the merged pipe does not change by a bit).
  std::vector<Flowpipe> pipes(cells.size());
  const BatchVerifier bv(inner_.get(), opt_.batch);
  if (bv.batched()) {
    const std::size_t width = bv.batch();
    const std::size_t groups = (cells.size() + width - 1) / width;
    parallel::parallel_for(opt_.threads, groups, [&](std::size_t g) {
      const std::size_t lo = g * width;
      const std::size_t hi = std::min(lo + width, cells.size());
      std::vector<BatchJob> jobs;
      jobs.reserve(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) jobs.push_back({cells[i], &ctrl});
      std::vector<Flowpipe> part = bv.compute(jobs);
      for (std::size_t i = lo; i < hi; ++i)
        pipes[i] = std::move(part[i - lo]);
    });
  } else {
    parallel::parallel_for(opt_.threads, cells.size(), [&](std::size_t i) {
      pipes[i] = inner_->compute(cells[i], ctrl);
    });
  }
  // Propagate the lowest-index failure verbatim (deterministic regardless
  // of which cell happened to finish first).
  for (Flowpipe& fp : pipes) {
    if (!fp.valid) return std::move(fp);
  }

  // Align to the LONGEST pipe. A cell that stopped early (goal containment
  // under stop-at-goal semantics: its run has ended) is padded by repeating
  // its final — goal-contained — set, so the merged pipe still certifies
  // goal containment once every cell has stopped.
  std::size_t steps = 0;
  for (const Flowpipe& fp : pipes) steps = std::max(steps, fp.steps());

  const auto step_set = [](const Flowpipe& fp, std::size_t k) {
    return k < fp.step_sets.size() ? fp.step_sets[k] : fp.step_sets.back();
  };
  // Padded slots are time-INTERVAL sets: repeat the final interval hull
  // (which contains the final time-point set, so the pad stays a sound
  // over-approximation of the stopped cell's tube); a time-point set here
  // would under-represent the tube the safety check walks.
  const auto hull_at = [](const Flowpipe& fp, std::size_t k) {
    if (k < fp.interval_hulls.size()) return fp.interval_hulls[k];
    return fp.interval_hulls.empty() ? fp.step_sets.back()
                                     : fp.interval_hulls.back();
  };

  Flowpipe merged;
  merged.step_sets.reserve(steps + 1);
  merged.interval_hulls.reserve(steps);
  for (std::size_t k = 0; k <= steps; ++k) {
    geom::Box hull = step_set(pipes.front(), k);
    for (std::size_t c = 1; c < pipes.size(); ++c) {
      hull = hull.hull_with(step_set(pipes[c], k));
    }
    merged.step_sets.push_back(hull);
  }
  for (std::size_t k = 0; k < steps; ++k) {
    geom::Box hull = hull_at(pipes.front(), k);
    for (std::size_t c = 1; c < pipes.size(); ++c) {
      hull = hull.hull_with(hull_at(pipes[c], k));
    }
    merged.interval_hulls.push_back(hull);
  }
  return merged;
}

}  // namespace dwv::reach
