// Exact reachability for LTI systems under linear state feedback — the
// "Flow*" role for the paper's ACC case study.
//
// With zero-order hold and sampling period delta, the closed-loop discrete
// map is x[k+1] = (Ad + Bd K) x[k]; a zonotope initial set is propagated
// exactly. Between samples, the continuous flow is enclosed by hulling
// sub-sampled sets and bloating with a second-derivative (curvature) bound,
// keeping the tube sound in continuous time.
#pragma once

#include "linalg/expm.hpp"
#include "ode/spec.hpp"
#include "ode/system.hpp"
#include "reach/verifier.hpp"

namespace dwv::reach {

struct LinearReachOptions {
  /// Sub-sampling points per control period for the inter-sample hulls.
  std::size_t subdivisions = 4;
  /// Maximum zonotope generators before order reduction.
  std::size_t max_generators = 64;
};

class LinearVerifier final : public Verifier {
 public:
  /// The system must expose an LtiForm; asserts otherwise.
  LinearVerifier(ode::SystemPtr sys, ode::ReachAvoidSpec spec,
                 LinearReachOptions opt = {});

  std::string name() const override { return "linear-zonotope"; }

  /// Fingerprints the LTI matrices and the spec (the name is constant).
  std::uint64_t cache_salt() const override;

  /// `ctrl` must be a LinearController.
  Flowpipe compute(const geom::Box& x0,
                   const nn::Controller& ctrl) const override;

  std::optional<Plant> plant() const override { return Plant{sys_, &spec_}; }

  /// Batched compute() over one shared controller: the closed-loop
  /// sub-sample maps (Ad_j + Bd_j K, cd_j) depend only on the gain, so
  /// they are assembled once per batch instead of once per cell. Each
  /// result is bit-identical to compute(x0s[i], ctrl).
  std::vector<Flowpipe> compute_batch(const geom::Box* x0s,
                                      std::size_t count,
                                      const nn::Controller& ctrl) const;

 private:
  /// Propagation loop with the closed-loop maps already assembled.
  Flowpipe compute_with_maps(const geom::Box& x0, const linalg::Mat& k,
                             const std::vector<linalg::Mat>& mj,
                             const std::vector<linalg::Vec>& cd) const;

  ode::SystemPtr sys_;
  ode::ReachAvoidSpec spec_;
  LinearReachOptions opt_;
  linalg::Mat a_;
  linalg::Mat b_;
  linalg::Vec c_;
  // ZOH discretizations at delta and at each subdivision point j*delta/L,
  // with the drift c folded in as an extra always-one input column.
  linalg::ZohDiscretization full_;
  std::vector<linalg::ZohDiscretization> partial_;
};

}  // namespace dwv::reach
