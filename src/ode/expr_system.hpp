// System built from expression-tree dynamics, plus the pendulum benchmark
// (the classic non-polynomial instance of the NN-verification literature).
#pragma once

#include "ode/benchmarks.hpp"
#include "ode/expr.hpp"
#include "ode/system.hpp"

namespace dwv::ode {

/// Dynamics given as one expression per state derivative, over the
/// combined variable vector (x_0..x_{n-1}, u_0..u_{m-1}). Jacobians come
/// from symbolic differentiation; poly_dynamics() is unavailable (use
/// reach::ExprTmDynamics with the TM verifier instead).
class ExprSystem final : public System {
 public:
  ExprSystem(std::string name, std::size_t state_dim, std::size_t input_dim,
             std::vector<ExprPtr> f);

  std::string name() const override { return name_; }
  std::size_t state_dim() const override { return n_; }
  std::size_t input_dim() const override { return m_; }
  void f_into(const double* x, const double* u, double* dx) const override;
  linalg::Mat dfdx(const linalg::Vec& x,
                   const linalg::Vec& u) const override;
  linalg::Mat dfdu(const linalg::Vec& x,
                   const linalg::Vec& u) const override;
  /// Not polynomial: returns an empty vector; the TM verifier must be
  /// driven through reach::ExprTmDynamics.
  std::vector<poly::Poly> poly_dynamics() const override { return {}; }

  const std::vector<ExprPtr>& exprs() const { return f_; }

 private:
  std::string name_;
  std::size_t n_;
  std::size_t m_;
  std::vector<ExprPtr> f_;
  std::vector<std::vector<ExprPtr>> dfdx_;  // [i][j] = d f_i / d x_j
  std::vector<std::vector<ExprPtr>> dfdu_;  // [i][j] = d f_i / d u_j
};

/// Damped pendulum swing-down: th' = w, w' = -(g/l) sin(th) - c w + u,
/// g/l = 9.81, c = 0.2. Start hanging off-center, reach the small
/// neighborhood of the stable equilibrium while avoiding an overswing box.
/// delta = 0.05, T = 2 s.
Benchmark make_pendulum_benchmark();

}  // namespace dwv::ode
