// The verifier kinds by name: one table shared by the CLI (`--verifier`)
// and the benches.
#pragma once

#include <string>

#include "ode/spec.hpp"
#include "ode/system.hpp"
#include "reach/tm_flowpipe.hpp"
#include "reach/verifier.hpp"

namespace dwv::reach {

/// Builds the verifier of `kind` for (system, spec):
///  - "linear": LinearVerifier (zonotopes; LTI systems, linear controllers),
///  - "linctrl", "poly", "polar", "reachnn", "interval": TmVerifier with the
///    linear, polynomial, POLAR-lite, ReachNN-lite or interval controller
///    abstraction, configured by `tm_opt`.
/// Throws std::invalid_argument for any other kind.
VerifierPtr make_verifier(const std::string& kind, ode::SystemPtr system,
                          const ode::ReachAvoidSpec& spec,
                          const TmReachOptions& tm_opt = {});

}  // namespace dwv::reach
