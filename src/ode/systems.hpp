// The paper's three evaluation systems (Section 4).
#pragma once

#include "ode/system.hpp"

namespace dwv::ode {

/// Linear adaptive cruise control [Wang et al., ICCAD'20]:
///   s' = v_f - v,   v' = k v + u,
/// state (s, v) = (relative distance, ego velocity).
class AccSystem final : public System {
 public:
  AccSystem(double v_front = 40.0, double k = -0.2)
      : v_front_(v_front), k_(k) {}

  std::string name() const override { return "acc"; }
  std::size_t state_dim() const override { return 2; }
  std::size_t input_dim() const override { return 1; }
  void f_into(const double* x, const double* u, double* dx) const override;
  linalg::Mat dfdx(const linalg::Vec& x,
                   const linalg::Vec& u) const override;
  linalg::Mat dfdu(const linalg::Vec& x,
                   const linalg::Vec& u) const override;
  std::vector<poly::Poly> poly_dynamics() const override;
  std::optional<LtiForm> lti() const override;

  double v_front() const { return v_front_; }
  double k() const { return k_; }

 private:
  double v_front_;
  double k_;
};

/// Van der Pol oscillator with control [Wang et al., ICCAD'20]:
///   x1' = x2,   x2' = gamma (1 - x1^2) x2 - x1 + u.
class VanDerPolSystem final : public System {
 public:
  explicit VanDerPolSystem(double gamma = 1.0) : gamma_(gamma) {}

  std::string name() const override { return "oscillator"; }
  std::size_t state_dim() const override { return 2; }
  std::size_t input_dim() const override { return 1; }
  void f_into(const double* x, const double* u, double* dx) const override;
  linalg::Mat dfdx(const linalg::Vec& x,
                   const linalg::Vec& u) const override;
  linalg::Mat dfdu(const linalg::Vec& x,
                   const linalg::Vec& u) const override;
  std::vector<poly::Poly> poly_dynamics() const override;

  double gamma() const { return gamma_; }

 private:
  double gamma_;
};

/// 3-D numerical benchmark [Huang et al., ReachNN; Ivanov et al., Verisig]:
///   x1' = x3^3 - x2,   x2' = x3,   x3' = u.
class Sys3d final : public System {
 public:
  std::string name() const override { return "sys3d"; }
  std::size_t state_dim() const override { return 3; }
  std::size_t input_dim() const override { return 1; }
  void f_into(const double* x, const double* u, double* dx) const override;
  linalg::Mat dfdx(const linalg::Vec& x,
                   const linalg::Vec& u) const override;
  linalg::Mat dfdu(const linalg::Vec& x,
                   const linalg::Vec& u) const override;
  std::vector<poly::Poly> poly_dynamics() const override;
};

}  // namespace dwv::ode
