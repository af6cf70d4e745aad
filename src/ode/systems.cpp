#include "ode/systems.hpp"

namespace dwv::ode {

using linalg::Mat;
using linalg::Vec;
using poly::Exponents;
using poly::Poly;

namespace {
// Convenience: monomial over (x..., u...) with nvars variables.
Poly mono(std::size_t nvars, std::initializer_list<std::uint32_t> exps,
          double c) {
  Poly p(nvars);
  Exponents e(exps);
  e.resize(nvars, 0);
  p.add_term(e, c);
  return p;
}
}  // namespace

// ---------------------------------------------------------------- ACC ----

void AccSystem::f_into(const double* x, const double* u, double* dx) const {
  dx[0] = v_front_ - x[1];
  dx[1] = k_ * x[1] + u[0];
}

Mat AccSystem::dfdx(const Vec&, const Vec&) const {
  return Mat{{0.0, -1.0}, {0.0, k_}};
}

Mat AccSystem::dfdu(const Vec&, const Vec&) const {
  return Mat{{0.0}, {1.0}};
}

std::vector<Poly> AccSystem::poly_dynamics() const {
  // Variables: (x0=s, x1=v, x2=u).
  const std::size_t nv = 3;
  std::vector<Poly> f(2, Poly(nv));
  f[0] = mono(nv, {0, 0, 0}, v_front_) + mono(nv, {0, 1, 0}, -1.0);
  f[1] = mono(nv, {0, 1, 0}, k_) + mono(nv, {0, 0, 1}, 1.0);
  return f;
}

std::optional<LtiForm> AccSystem::lti() const {
  return LtiForm{Mat{{0.0, -1.0}, {0.0, k_}}, Mat{{0.0}, {1.0}},
                 Vec{v_front_, 0.0}};
}

// ---------------------------------------------------------- oscillator ----

void VanDerPolSystem::f_into(const double* x, const double* u,
                             double* dx) const {
  dx[0] = x[1];
  dx[1] = gamma_ * (1.0 - x[0] * x[0]) * x[1] - x[0] + u[0];
}

Mat VanDerPolSystem::dfdx(const Vec& x, const Vec&) const {
  return Mat{{0.0, 1.0},
             {-2.0 * gamma_ * x[0] * x[1] - 1.0,
              gamma_ * (1.0 - x[0] * x[0])}};
}

Mat VanDerPolSystem::dfdu(const Vec&, const Vec&) const {
  return Mat{{0.0}, {1.0}};
}

std::vector<Poly> VanDerPolSystem::poly_dynamics() const {
  // Variables: (x0, x1, u).
  const std::size_t nv = 3;
  std::vector<Poly> f(2, Poly(nv));
  f[0] = mono(nv, {0, 1, 0}, 1.0);
  f[1] = mono(nv, {0, 1, 0}, gamma_) + mono(nv, {2, 1, 0}, -gamma_) +
         mono(nv, {1, 0, 0}, -1.0) + mono(nv, {0, 0, 1}, 1.0);
  return f;
}

// ------------------------------------------------------------- 3-D sys ----

void Sys3d::f_into(const double* x, const double* u, double* dx) const {
  dx[0] = x[2] * x[2] * x[2] - x[1];
  dx[1] = x[2];
  dx[2] = u[0];
}

Mat Sys3d::dfdx(const Vec& x, const Vec&) const {
  return Mat{{0.0, -1.0, 3.0 * x[2] * x[2]},
             {0.0, 0.0, 1.0},
             {0.0, 0.0, 0.0}};
}

Mat Sys3d::dfdu(const Vec&, const Vec&) const {
  return Mat{{0.0}, {0.0}, {1.0}};
}

std::vector<Poly> Sys3d::poly_dynamics() const {
  // Variables: (x0, x1, x2, u).
  const std::size_t nv = 4;
  std::vector<Poly> f(3, Poly(nv));
  f[0] = mono(nv, {0, 0, 3, 0}, 1.0) + mono(nv, {0, 1, 0, 0}, -1.0);
  f[1] = mono(nv, {0, 0, 1, 0}, 1.0);
  f[2] = mono(nv, {0, 0, 0, 1}, 1.0);
  return f;
}

}  // namespace dwv::ode
