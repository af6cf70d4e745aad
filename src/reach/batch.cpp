#include "reach/batch.hpp"

#include <cassert>
#include <chrono>
#include <optional>

#include "interval/lanes.hpp"
#include "parallel/pool.hpp"
#include "reach/cache.hpp"
#include "reach/interval_reach.hpp"
#include "reach/linear_reach.hpp"
#include "reach/tm_flowpipe.hpp"

namespace dwv::reach {

BatchVerifier::BatchVerifier(const Verifier* verifier, std::size_t batch,
                             std::size_t threads)
    : outer_(verifier), threads_(threads) {
  assert(outer_ != nullptr);
  caching_ = dynamic_cast<const CachingVerifier*>(outer_);
  inner_ = caching_ != nullptr ? caching_->inner().get() : outer_;
  lane_ = dynamic_cast<const IntervalVerifier*>(inner_);
  linear_ = dynamic_cast<const LinearVerifier*>(inner_);
  tm_ = dynamic_cast<const TmVerifier*>(inner_) != nullptr;
  batch_ = batch == 0 ? interval::lanes::kWidth : batch;
}

bool BatchVerifier::batched() const {
  return batch_ > 1 &&
         (lane_ != nullptr || linear_ != nullptr || tm_);
}

std::vector<Flowpipe> BatchVerifier::compute_direct(
    const std::vector<BatchJob>& jobs) const {
  std::vector<Flowpipe> out;
  out.reserve(jobs.size());
  if (lane_ != nullptr) {
    std::vector<geom::Box> boxes;
    std::vector<const nn::Controller*> ctrls;
    boxes.reserve(jobs.size());
    ctrls.reserve(jobs.size());
    for (const BatchJob& j : jobs) {
      boxes.push_back(j.x0);
      ctrls.push_back(j.ctrl);
    }
    for (std::size_t g = 0; g < jobs.size(); g += batch_) {
      const std::size_t w = std::min(batch_, jobs.size() - g);
      std::vector<Flowpipe> part =
          lane_->compute_batch(boxes.data() + g, ctrls.data() + g, w);
      for (Flowpipe& fp : part) out.push_back(std::move(fp));
    }
    return out;
  }
  if (linear_ != nullptr) {
    // The per-batch map hoist needs one shared gain; mixed-controller
    // batches (SPSA probe fans) get the plain per-job path.
    bool shared = true;
    for (const BatchJob& j : jobs) shared = shared && j.ctrl == jobs[0].ctrl;
    if (shared && !jobs.empty()) {
      std::vector<geom::Box> boxes;
      boxes.reserve(jobs.size());
      for (const BatchJob& j : jobs) boxes.push_back(j.x0);
      return linear_->compute_batch(boxes.data(), boxes.size(),
                                    *jobs[0].ctrl);
    }
    for (const BatchJob& j : jobs)
      out.push_back(linear_->compute(j.x0, *j.ctrl));
    return out;
  }
  // TM: one cell at a time through the inner verifier, sharded over
  // threads_ into index-addressed slots. Never outer_: on the cache path
  // these jobs already missed, and its lookup would count them twice.
  out.resize(jobs.size());
  parallel::parallel_for(threads_, jobs.size(), [&](std::size_t i) {
    out[i] = inner_->compute(jobs[i].x0, *jobs[i].ctrl);
  });
  return out;
}

std::vector<Flowpipe> BatchVerifier::compute(
    const std::vector<BatchJob>& jobs) const {
  if (!batched()) {
    // Sequential fallback: the cache layer (when present) sees exactly
    // the scalar lookup/compute/insert interleaving.
    std::vector<Flowpipe> out;
    out.reserve(jobs.size());
    for (const BatchJob& j : jobs)
      out.push_back(outer_->compute(j.x0, *j.ctrl));
    return out;
  }
  if (caching_ == nullptr) return compute_direct(jobs);

  // Cache-aware batching, replaying the sequential scalar loop's cache
  // transcript exactly at ANY capacity: lookups and inserts are issued in
  // job-index order. A miss whose value is not yet known (first occurrence
  // of a key, or a duplicate whose earlier insert was already evicted)
  // inserts a PLACEHOLDER at its scalar position — eviction is count-based,
  // so the placeholder drives the shard LRU exactly like the real value
  // would — and the batched results backfill the placeholders afterwards
  // through FlowpipeCache::replace (stat- and LRU-neutral). Hit/miss/
  // insertion/eviction counts therefore match the scalar sequence even
  // when the capacity is smaller than the batch and intra-batch duplicate
  // keys evict each other; only miss_compute_seconds differs (one charge
  // for the batched work instead of per-job charges).
  FlowpipeCache& cache = *caching_->cache();
  std::vector<FlowpipeCache::Key> keys;
  keys.reserve(jobs.size());
  for (const BatchJob& j : jobs)
    keys.push_back(caching_->key_for(j.x0, *j.ctrl));

  std::vector<Flowpipe> out(jobs.size());
  std::vector<std::size_t> todo;      // first occurrence per key to compute
  std::vector<std::size_t> resolved;  // job index with a real value in out
  // Jobs served by the batched computation: (job index, todo slot).
  std::vector<std::pair<std::size_t, std::size_t>> pending;
  const auto todo_slot = [&](std::size_t i) -> std::size_t {
    for (std::size_t r = 0; r < todo.size(); ++r)
      if (keys[todo[r]] == keys[i]) return r;
    todo.push_back(i);
    return todo.size() - 1;
  };
  const auto resolved_for = [&](std::size_t i) -> const Flowpipe* {
    for (std::size_t j : resolved)
      if (keys[j] == keys[i]) return &out[j];
    return nullptr;
  };
  // A hit on a key with a pending todo slot returns the placeholder (a
  // real entry for it cannot exist until the backfill); take the value
  // from the batched computation instead.
  const auto placeholder_slot = [&](std::size_t i) -> std::ptrdiff_t {
    for (std::size_t r = 0; r < todo.size(); ++r)
      if (keys[todo[r]] == keys[i]) return static_cast<std::ptrdiff_t>(r);
    return -1;
  };

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    bool pending_hit = false;
    std::optional<Flowpipe> hit = cache.lookup_walk(keys[i], &pending_hit);
    if (pending_hit) {
      // Usually one of OUR placeholders (an intra-batch duplicate); under
      // concurrency it can be another walk's — compute it ourselves then.
      const std::ptrdiff_t slot = placeholder_slot(i);
      pending.emplace_back(
          i, slot >= 0 ? static_cast<std::size_t>(slot) : todo_slot(i));
      continue;
    }
    if (hit) {
      out[i] = std::move(*hit);
      resolved.push_back(i);
      continue;
    }
    // Miss: the scalar loop computes and inserts here. A duplicate of an
    // earlier HIT already has its value; re-insert it at this position.
    if (const Flowpipe* have = resolved_for(i)) {
      out[i] = *have;
      cache.insert(keys[i], out[i]);
      resolved.push_back(i);
      continue;
    }
    const std::size_t slot = todo_slot(i);
    pending.emplace_back(i, slot);
    cache.insert_pending(keys[i]);
  }

  if (!todo.empty()) {
    std::vector<BatchJob> work;
    work.reserve(todo.size());
    for (std::size_t i : todo) work.push_back(jobs[i]);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<Flowpipe> computed = compute_direct(work);
    const auto t1 = std::chrono::steady_clock::now();
    cache.add_miss_compute_seconds(
        std::chrono::duration<double>(t1 - t0).count());
    for (std::size_t r = 0; r < todo.size(); ++r)
      cache.replace(keys[todo[r]], computed[r]);
    for (const auto& [i, slot] : pending) out[i] = computed[slot];
  }
  return out;
}

std::vector<Flowpipe> BatchVerifier::compute(
    const std::vector<geom::Box>& x0s, const nn::Controller& ctrl) const {
  std::vector<BatchJob> jobs;
  jobs.reserve(x0s.size());
  for (const geom::Box& b : x0s) jobs.push_back({b, &ctrl});
  return compute(jobs);
}

}  // namespace dwv::reach
