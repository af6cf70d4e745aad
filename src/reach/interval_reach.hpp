// Coarse pure-interval reachability: first-order interval integration with
// an a-priori box enclosure per sub-step. Much cheaper and much looser than
// the Taylor-model flowpipe — the "loose verifier" end of the tightness
// ablation (Section 4, Discussion on Verification Tightness).
#pragma once

#include "ode/spec.hpp"
#include "ode/system.hpp"
#include "reach/control_abstraction.hpp"
#include "reach/verifier.hpp"

namespace dwv::reach {

struct IntervalReachOptions {
  std::size_t substeps = 4;         ///< integration sub-steps per period
  double inflation = 1.1;           ///< a-priori enclosure inflation factor
  std::size_t max_inflations = 30;
  double divergence_bound = 1e4;
};

class IntervalVerifier final : public Verifier {
 public:
  IntervalVerifier(ode::SystemPtr sys, ode::ReachAvoidSpec spec,
                   IntervalReachOptions opt = {});

  std::string name() const override { return "interval-euler"; }

  Flowpipe compute(const geom::Box& x0,
                   const nn::Controller& ctrl) const override;

  std::optional<Plant> plant() const override { return Plant{sys_, &spec_}; }

  /// Lane-batched compute(): the flowpipes of `count` independent
  /// (x0, controller) jobs, stepped in lockstep groups of
  /// interval::lanes::kWidth through the SoA lane kernels (see
  /// DESIGN.md section 11). Each job's flowpipe is bit-identical to what
  /// compute(x0s[j], *ctrls[j]) returns, for any count including ragged
  /// tails — lanes never interact.
  std::vector<Flowpipe> compute_batch(const geom::Box* x0s,
                                      const nn::Controller* const* ctrls,
                                      std::size_t count) const;

 private:
  /// One lockstep lane group: jobs 0..count-1 (count <= kWidth).
  void compute_lane_group(const geom::Box* x0s,
                          const nn::Controller* const* ctrls,
                          std::size_t count, Flowpipe* out) const;

  ode::SystemPtr sys_;
  ode::ReachAvoidSpec spec_;
  IntervalReachOptions opt_;
  std::vector<poly::Poly> f_polys_;
};

}  // namespace dwv::reach
