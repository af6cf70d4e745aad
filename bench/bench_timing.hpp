// Timing helpers shared by the micro benchmarks: a warmed-up ns/op timer
// and paired alternating timing for same-run speedup ratios, the keys the
// CI regression gate (tools/check_bench_regression.py) compares.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <vector>

namespace dwvbench {

inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Times `reps` invocations of `fn` and returns ns per invocation. A short
// warm-up run fills caches/scratch before the measured pass.
template <typename Fn>
double time_ns(std::size_t reps, Fn&& fn) {
  for (std::size_t i = 0; i < reps / 10 + 1; ++i) fn();
  const double t0 = now_seconds();
  for (std::size_t i = 0; i < reps; ++i) fn();
  return (now_seconds() - t0) * 1e9 / static_cast<double>(reps);
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct PairTiming {
  double base_ns = 0.0;  ///< median ns/op of `base` over the blocks
  double test_ns = 0.0;  ///< median ns/op of `test` over the blocks
  double speedup = 0.0;  ///< median of the per-round base/test ratios
};

// Times `base` against `test` in alternating blocks, about `reps` calls
// each side in all. A drift in machine speed hits both blocks of a round
// alike, so the ratio holds still where two separately timed passes would
// not.
template <typename Base, typename Test>
PairTiming time_pair(Base&& base, Test&& test, std::size_t reps) {
  constexpr int kRounds = 15;
  const std::size_t block = reps / kRounds + 1;
  std::vector<double> tb, tt, ratio;
  for (int r = 0; r < kRounds; ++r) {
    // Alternate which side runs first so neither always follows the other.
    const double first = time_ns(block, [&] { r % 2 ? test() : base(); });
    const double second = time_ns(block, [&] { r % 2 ? base() : test(); });
    tb.push_back(r % 2 ? second : first);
    tt.push_back(r % 2 ? first : second);
    ratio.push_back(tb.back() / tt.back());
  }
  return {median(tb), median(tt), median(ratio)};
}

}  // namespace dwvbench
