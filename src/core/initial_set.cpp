#include "core/initial_set.hpp"

#include <stdexcept>
#include <string>

#include "core/search_shard.hpp"

namespace dwv::core {

void validate_search_depth(std::size_t max_depth) {
  if (max_depth > kMaxSearchDepth) {
    throw std::invalid_argument(
        "InitialSetOptions::max_depth = " + std::to_string(max_depth) +
        " exceeds " + std::to_string(kMaxSearchDepth) +
        ": 64-bit heap sequence numbers (2s / 2s+1 per bisection) would "
        "wrap and alias distinct cells");
  }
}

InitialSetResult search_initial_set(const reach::Verifier& verifier,
                                    const ode::ReachAvoidSpec& spec,
                                    const nn::Controller& ctrl,
                                    const InitialSetOptions& opt) {
  // The one-shard case of the sharded engine: a prefix grain of one stops
  // the prefix expansion at the root, so the whole tree is one unbounded
  // round of the work-stealing frontier (DESIGN.md §11, §16).
  ShardSearchOptions so;
  so.base = opt;
  so.prefix_grain = 1;
  return search_initial_set_sharded(verifier, spec, ctrl, so);
}

void put(reach::ser::Writer& w, const InitialSetResult& v) {
  w.u64(v.certified.size());
  for (const geom::Box& b : v.certified) reach::ser::put(w, b);
  w.u64(v.rejected.size());
  for (const geom::Box& b : v.rejected) reach::ser::put(w, b);
  w.f64(v.coverage);
  w.u64(v.verifier_calls);
}

bool get(reach::ser::Reader& r, InitialSetResult& out) {
  out = InitialSetResult{};
  // A serialized box is at least a u64 dimension count (8 bytes).
  std::uint64_t n = r.count(8);
  if (!r.ok()) return false;
  out.certified.resize(static_cast<std::size_t>(n));
  for (geom::Box& b : out.certified) {
    if (!reach::ser::get(r, b)) return false;
  }
  n = r.count(8);
  if (!r.ok()) return false;
  out.rejected.resize(static_cast<std::size_t>(n));
  for (geom::Box& b : out.rejected) {
    if (!reach::ser::get(r, b)) return false;
  }
  out.coverage = r.f64();
  out.verifier_calls = static_cast<std::size_t>(r.u64());
  return r.ok();
}

}  // namespace dwv::core
