#include "ode/expr_system.hpp"

#include <cassert>
#include <limits>

namespace dwv::ode {

using interval::Interval;
using linalg::Mat;
using linalg::Vec;

ExprSystem::ExprSystem(std::string name, std::size_t state_dim,
                       std::size_t input_dim, std::vector<ExprPtr> f)
    : name_(std::move(name)), n_(state_dim), m_(input_dim), f_(std::move(f)) {
  assert(f_.size() == n_);
  dfdx_.resize(n_);
  dfdu_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    dfdx_[i].reserve(n_);
    for (std::size_t j = 0; j < n_; ++j) {
      dfdx_[i].push_back(f_[i]->derivative(j));
    }
    dfdu_[i].reserve(m_);
    for (std::size_t j = 0; j < m_; ++j) {
      dfdu_[i].push_back(f_[i]->derivative(n_ + j));
    }
  }
}

void ExprSystem::f_into(const double* x, const double* u, double* dx) const {
  for (std::size_t i = 0; i < n_; ++i) dx[i] = f_[i]->eval(x, n_, u);
}

Mat ExprSystem::dfdx(const Vec& x, const Vec& u) const {
  const Vec xu = linalg::concat(x, u);
  Mat j(n_, n_);
  for (std::size_t i = 0; i < n_; ++i)
    for (std::size_t k = 0; k < n_; ++k) j(i, k) = dfdx_[i][k]->eval(xu);
  return j;
}

Mat ExprSystem::dfdu(const Vec& x, const Vec& u) const {
  const Vec xu = linalg::concat(x, u);
  Mat j(n_, m_);
  for (std::size_t i = 0; i < n_; ++i)
    for (std::size_t k = 0; k < m_; ++k) j(i, k) = dfdu_[i][k]->eval(xu);
  return j;
}

Benchmark make_pendulum_benchmark() {
  // Variables: v0 = theta, v1 = omega, v2 = u.
  const ExprPtr th = var(0);
  const ExprPtr w = var(1);
  const ExprPtr u = var(2);
  std::vector<ExprPtr> f(2);
  f[0] = w;
  f[1] = constant(-9.81) * sin(th) + constant(-0.2) * w + u;

  Benchmark b;
  b.name = "pendulum";
  b.system = std::make_shared<ExprSystem>("pendulum", 2, 1, std::move(f));

  ReachAvoidSpec s;
  s.x0 = geom::Box{Interval(0.55, 0.65), Interval(-0.05, 0.05)};
  s.goal = geom::Box{Interval(-0.08, 0.08), Interval(-0.25, 0.25)};
  s.goal_dims = {0, 1};
  // Forbid a hard overswing through the other side.
  s.unsafe = geom::Box{Interval(-0.6, -0.4), Interval(-3.0, 0.0)};
  s.unsafe_dims = {0, 1};
  s.delta = 0.05;
  s.steps = 40;  // T = 2 s
  s.state_bounds = geom::Box{Interval(-3.2, 3.2), Interval(-8.0, 8.0)};
  b.spec = std::move(s);
  return b;
}

}  // namespace dwv::ode
