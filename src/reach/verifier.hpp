// Verifier interface Psi(f, X0, kappa_theta) -> reachable set (paper Sec. 2):
// the pluggable formal tool the learning loop queries each iteration.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "geom/box.hpp"
#include "nn/controller.hpp"
#include "ode/spec.hpp"
#include "ode/system.hpp"
#include "reach/flowpipe.hpp"

namespace dwv::reach {

/// The closed loop a verifier reasons about: the dynamics it integrates
/// and its own spec, whose delta, steps and stop_at_goal fix the horizon
/// its flowpipes cover. `spec` points into the verifier and lives as long
/// as it does.
struct Plant {
  ode::SystemPtr system;
  const ode::ReachAvoidSpec* spec = nullptr;
};

class Verifier {
 public:
  virtual ~Verifier() = default;

  virtual std::string name() const = 0;

  /// Fingerprint of the configuration that `name()` does not capture —
  /// dynamics coefficients, spec boxes, horizon. Two verifier instances
  /// whose compute() can differ on some (x0, theta) must differ in
  /// name() or cache_salt(); FlowpipeCache folds the salt into its keys so
  /// same-named verifiers over different systems never alias. The default
  /// (0) is for verifiers whose name alone pins the behavior.
  virtual std::uint64_t cache_salt() const { return 0; }

  /// Computes a sound flowpipe of the closed-loop sampled-data system from
  /// the initial box `x0` under controller `ctrl`, over the verifier's
  /// configured horizon.
  virtual Flowpipe compute(const geom::Box& x0,
                           const nn::Controller& ctrl) const = 0;

  /// The plant this verifier integrates, so callers can run concrete
  /// rollouts of the same closed loop (Algorithm 2 falsifies a cell before
  /// verifying it). The default, for verifiers that do not name one, is
  /// nullopt.
  virtual std::optional<Plant> plant() const { return std::nullopt; }
};

using VerifierPtr = std::shared_ptr<const Verifier>;

}  // namespace dwv::reach
