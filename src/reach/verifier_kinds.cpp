#include "reach/verifier_kinds.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "reach/control_abstraction.hpp"
#include "reach/linear_reach.hpp"

namespace dwv::reach {

VerifierPtr make_verifier(const std::string& kind, ode::SystemPtr system,
                          const ode::ReachAvoidSpec& spec,
                          const TmReachOptions& tm_opt) {
  if (kind == "linear") {
    return std::make_shared<LinearVerifier>(std::move(system), spec);
  }
  ControlAbstractionPtr abs;
  if (kind == "linctrl") {
    abs = std::make_shared<LinearAbstraction>();
  } else if (kind == "poly") {
    abs = std::make_shared<PolynomialAbstraction>();
  } else if (kind == "polar") {
    abs = std::make_shared<PolarAbstraction>();
  } else if (kind == "reachnn") {
    abs = std::make_shared<ReachNnAbstraction>();
  } else if (kind == "interval") {
    abs = std::make_shared<IntervalAbstraction>();
  } else {
    throw std::invalid_argument("unknown verifier: " + kind);
  }
  return std::make_shared<TmVerifier>(std::move(system), spec, std::move(abs),
                                      tm_opt);
}

}  // namespace dwv::reach
