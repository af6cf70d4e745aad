// Continuous-time control system interface: x' = f(x, u).
//
// Every system exposes three faces of the same dynamics:
//  * numeric f (simulation), written in place through f_into,
//  * analytic Jacobians df/dx, df/du (model-based baselines, SVG),
//  * polynomial form (symbolic reachability with Taylor models).
#pragma once

#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vec.hpp"
#include "poly/poly.hpp"

namespace dwv::ode {

/// Affine-time-invariant face of a system, when it has one:
/// x' = A x + B u + c (c covers constant drift such as the ACC's v_f).
struct LtiForm {
  linalg::Mat a;
  linalg::Mat b;
  linalg::Vec c;
};

class System {
 public:
  virtual ~System() = default;

  virtual std::string name() const = 0;
  virtual std::size_t state_dim() const = 0;
  virtual std::size_t input_dim() const = 0;

  /// Vector field f(x, u) written to dx: x holds state_dim() entries, u
  /// input_dim(), dx state_dim(). dx must not alias x or u. This is the
  /// one copy of each system's numeric dynamics; it must not allocate, so
  /// the simulator's RK4 loop runs without heap traffic (DESIGN.md §17).
  virtual void f_into(const double* x, const double* u, double* dx) const = 0;

  /// Vector field f(x, u) as a new vector (wraps f_into).
  linalg::Vec f(const linalg::Vec& x, const linalg::Vec& u) const {
    assert(x.size() == state_dim() && u.size() == input_dim());
    linalg::Vec dx(state_dim());
    f_into(x.data(), u.data(), dx.data());
    return dx;
  }

  /// Jacobian of f with respect to the state (n x n).
  virtual linalg::Mat dfdx(const linalg::Vec& x,
                           const linalg::Vec& u) const = 0;
  /// Jacobian of f with respect to the input (n x m).
  virtual linalg::Mat dfdu(const linalg::Vec& x,
                           const linalg::Vec& u) const = 0;

  /// Dynamics as polynomials over (x_0..x_{n-1}, u_0..u_{m-1}); all paper
  /// systems are polynomial, which the TM flowpipe exploits directly.
  virtual std::vector<poly::Poly> poly_dynamics() const = 0;

  /// The (A, B) pair when the system is exactly linear.
  virtual std::optional<LtiForm> lti() const { return std::nullopt; }
};

using SystemPtr = std::shared_ptr<const System>;

}  // namespace dwv::ode
