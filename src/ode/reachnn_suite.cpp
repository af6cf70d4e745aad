#include "ode/reachnn_suite.hpp"

#include <limits>

namespace dwv::ode {

using interval::Interval;
using linalg::Mat;
using linalg::Vec;
using poly::Exponents;
using poly::Poly;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

Poly mono(std::size_t nvars, std::initializer_list<std::uint32_t> exps,
          double c) {
  Poly p(nvars);
  Exponents e(exps);
  e.resize(nvars, 0);
  p.add_term(e, c);
  return p;
}
}  // namespace

// ------------------------------------------------------------------ B1 ----

void B1System::f_into(const double* x, const double* u, double* dx) const {
  dx[0] = x[1];
  dx[1] = u[0] * x[1] * x[1] - x[0];
}

Mat B1System::dfdx(const Vec& x, const Vec& u) const {
  return Mat{{0.0, 1.0}, {-1.0, 2.0 * u[0] * x[1]}};
}

Mat B1System::dfdu(const Vec& x, const Vec&) const {
  return Mat{{0.0}, {x[1] * x[1]}};
}

std::vector<Poly> B1System::poly_dynamics() const {
  const std::size_t nv = 3;  // (x1, x2, u)
  std::vector<Poly> f(2, Poly(nv));
  f[0] = mono(nv, {0, 1, 0}, 1.0);
  f[1] = mono(nv, {0, 2, 1}, 1.0) + mono(nv, {1, 0, 0}, -1.0);
  return f;
}

// ------------------------------------------------------------------ B2 ----

void B2System::f_into(const double* x, const double* u, double* dx) const {
  dx[0] = x[1] - x[0] * x[0] * x[0];
  dx[1] = u[0];
}

Mat B2System::dfdx(const Vec& x, const Vec&) const {
  return Mat{{-3.0 * x[0] * x[0], 1.0}, {0.0, 0.0}};
}

Mat B2System::dfdu(const Vec&, const Vec&) const {
  return Mat{{0.0}, {1.0}};
}

std::vector<Poly> B2System::poly_dynamics() const {
  const std::size_t nv = 3;
  std::vector<Poly> f(2, Poly(nv));
  f[0] = mono(nv, {0, 1, 0}, 1.0) + mono(nv, {3, 0, 0}, -1.0);
  f[1] = mono(nv, {0, 0, 1}, 1.0);
  return f;
}

// ------------------------------------------------------------------ B3 ----

void B3System::f_into(const double* x, const double* u, double* dx) const {
  const double q = 0.1 + (x[0] + x[1]) * (x[0] + x[1]);
  dx[0] = -x[0] * q;
  dx[1] = (u[0] + x[0]) * q;
}

Mat B3System::dfdx(const Vec& x, const Vec& u) const {
  const double s = x[0] + x[1];
  const double q = 0.1 + s * s;
  return Mat{{-q - 2.0 * x[0] * s, -2.0 * x[0] * s},
             {q + 2.0 * (u[0] + x[0]) * s, 2.0 * (u[0] + x[0]) * s}};
}

Mat B3System::dfdu(const Vec& x, const Vec&) const {
  const double s = x[0] + x[1];
  return Mat{{0.0}, {0.1 + s * s}};
}

std::vector<Poly> B3System::poly_dynamics() const {
  const std::size_t nv = 3;
  // q = 0.1 + (x1 + x2)^2 as a polynomial.
  Poly s = mono(nv, {1, 0, 0}, 1.0) + mono(nv, {0, 1, 0}, 1.0);
  Poly q = s * s + Poly::constant(nv, 0.1);
  std::vector<Poly> f(2, Poly(nv));
  f[0] = mono(nv, {1, 0, 0}, -1.0) * q;
  f[1] = (mono(nv, {0, 0, 1}, 1.0) + mono(nv, {1, 0, 0}, 1.0)) * q;
  return f;
}

// ------------------------------------------------------------------ B4 ----

void B4System::f_into(const double* x, const double* u, double* dx) const {
  dx[0] = -x[0] + x[1] - x[2];
  dx[1] = -x[0] * (x[2] + 1.0) - x[1];
  dx[2] = -x[0] + u[0];
}

Mat B4System::dfdx(const Vec& x, const Vec&) const {
  return Mat{{-1.0, 1.0, -1.0},
             {-(x[2] + 1.0), -1.0, -x[0]},
             {-1.0, 0.0, 0.0}};
}

Mat B4System::dfdu(const Vec&, const Vec&) const {
  return Mat{{0.0}, {0.0}, {1.0}};
}

std::vector<Poly> B4System::poly_dynamics() const {
  const std::size_t nv = 4;  // (x1, x2, x3, u)
  std::vector<Poly> f(3, Poly(nv));
  f[0] = mono(nv, {1, 0, 0, 0}, -1.0) + mono(nv, {0, 1, 0, 0}, 1.0) +
         mono(nv, {0, 0, 1, 0}, -1.0);
  f[1] = mono(nv, {1, 0, 1, 0}, -1.0) + mono(nv, {1, 0, 0, 0}, -1.0) +
         mono(nv, {0, 1, 0, 0}, -1.0);
  f[2] = mono(nv, {1, 0, 0, 0}, -1.0) + mono(nv, {0, 0, 0, 1}, 1.0);
  return f;
}

// ----------------------------------------------------------- factories ----

Benchmark make_b1_benchmark() {
  Benchmark b;
  b.name = "b1";
  b.system = std::make_shared<B1System>();
  ReachAvoidSpec s;
  s.x0 = geom::Box{Interval(0.8, 0.9), Interval(0.5, 0.6)};
  s.goal = geom::Box{Interval(0.0, 0.2), Interval(0.05, 0.3)};
  s.goal_dims = {0, 1};
  s.unsafe = geom::Box{Interval(0.55, 0.75), Interval(-1.3, -0.95)};
  s.unsafe_dims = {0, 1};
  s.delta = 0.2;
  s.steps = 35;
  s.state_bounds = geom::Box{Interval(-3.0, 3.0), Interval(-3.0, 3.0)};
  b.spec = std::move(s);
  return b;
}

Benchmark make_b2_benchmark() {
  Benchmark b;
  b.name = "b2";
  b.system = std::make_shared<B2System>();
  ReachAvoidSpec s;
  s.x0 = geom::Box{Interval(0.7, 0.9), Interval(0.7, 0.9)};
  s.goal = geom::Box{Interval(-0.3, 0.1), Interval(-0.35, 0.5)};
  s.goal_dims = {0, 1};
  s.unsafe = geom::Box{Interval(0.25, 0.45), Interval(-0.8, -0.55)};
  s.unsafe_dims = {0, 1};
  s.delta = 0.2;
  s.steps = 25;
  s.state_bounds = geom::Box{Interval(-3.0, 3.0), Interval(-3.0, 3.0)};
  b.spec = std::move(s);
  return b;
}

Benchmark make_b3_benchmark() {
  Benchmark b;
  b.name = "b3";
  b.system = std::make_shared<B3System>();
  ReachAvoidSpec s;
  s.x0 = geom::Box{Interval(0.8, 0.9), Interval(0.4, 0.5)};
  s.goal = geom::Box{Interval(0.2, 0.3), Interval(-0.3, -0.05)};
  s.goal_dims = {0, 1};
  s.unsafe = geom::Box{Interval(0.45, 0.6), Interval(0.2, 0.35)};
  s.unsafe_dims = {0, 1};
  s.delta = 0.1;
  s.steps = 40;  // T = 4 s
  s.state_bounds = geom::Box{Interval(-3.0, 3.0), Interval(-3.0, 3.0)};
  b.spec = std::move(s);
  return b;
}

Benchmark make_b4_benchmark() {
  Benchmark b;
  b.name = "b4";
  b.system = std::make_shared<B4System>();
  ReachAvoidSpec s;
  s.x0 = geom::Box{Interval(0.25, 0.27), Interval(0.08, 0.10),
                   Interval(0.25, 0.27)};
  s.goal = geom::Box{Interval(-0.05, 0.05), Interval(-0.05, 0.05),
                     Interval(-kInf, kInf)};
  s.goal_dims = {0, 1};
  s.unsafe = geom::Box{Interval(0.12, 0.17), Interval(-0.2, -0.12),
                       Interval(-kInf, kInf)};
  s.unsafe_dims = {0, 1};
  s.delta = 0.1;
  s.steps = 30;
  s.state_bounds = geom::Box{Interval(-3.0, 3.0), Interval(-3.0, 3.0),
                             Interval(-3.0, 3.0)};
  b.spec = std::move(s);
  return b;
}

std::vector<Benchmark> make_reachnn_suite() {
  std::vector<Benchmark> suite;
  suite.push_back(make_b1_benchmark());
  suite.push_back(make_b2_benchmark());
  suite.push_back(make_b3_benchmark());
  suite.push_back(make_b4_benchmark());
  suite.push_back(make_3d_benchmark());  // B5
  return suite;
}

}  // namespace dwv::ode
