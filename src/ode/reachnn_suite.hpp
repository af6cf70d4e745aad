// The ReachNN benchmark suite (Huang et al., TECS'19), benchmarks B1-B5:
// the standard nonlinear systems used across the NN-controller
// verification literature (ReachNN, ReachNN*, POLAR, Verisig). The paper's
// 3-D example is B5; the rest are provided here so the framework can be
// exercised on the full suite.
//
// ReachNN specifies initial and goal sets; it has no unsafe sets (pure
// reach). The unsafe boxes below are our additions (placed on the nominal
// path's flank) so every instance is a full reach-avoid problem; they are
// marked in each factory's comment.
#pragma once

#include "ode/benchmarks.hpp"

namespace dwv::ode {

/// B1: x1' = x2, x2' = u x2^2 - x1.
class B1System final : public System {
 public:
  std::string name() const override { return "b1"; }
  std::size_t state_dim() const override { return 2; }
  std::size_t input_dim() const override { return 1; }
  void f_into(const double* x, const double* u, double* dx) const override;
  linalg::Mat dfdx(const linalg::Vec& x,
                   const linalg::Vec& u) const override;
  linalg::Mat dfdu(const linalg::Vec& x,
                   const linalg::Vec& u) const override;
  std::vector<poly::Poly> poly_dynamics() const override;
};

/// B2: x1' = x2 - x1^3, x2' = u.
class B2System final : public System {
 public:
  std::string name() const override { return "b2"; }
  std::size_t state_dim() const override { return 2; }
  std::size_t input_dim() const override { return 1; }
  void f_into(const double* x, const double* u, double* dx) const override;
  linalg::Mat dfdx(const linalg::Vec& x,
                   const linalg::Vec& u) const override;
  linalg::Mat dfdu(const linalg::Vec& x,
                   const linalg::Vec& u) const override;
  std::vector<poly::Poly> poly_dynamics() const override;
};

/// B3: x1' = -x1 (0.1 + (x1 + x2)^2), x2' = (u + x1)(0.1 + (x1 + x2)^2).
class B3System final : public System {
 public:
  std::string name() const override { return "b3"; }
  std::size_t state_dim() const override { return 2; }
  std::size_t input_dim() const override { return 1; }
  void f_into(const double* x, const double* u, double* dx) const override;
  linalg::Mat dfdx(const linalg::Vec& x,
                   const linalg::Vec& u) const override;
  linalg::Mat dfdu(const linalg::Vec& x,
                   const linalg::Vec& u) const override;
  std::vector<poly::Poly> poly_dynamics() const override;
};

/// B4: x1' = -x1 + x2 - x3, x2' = -x1 (x3 + 1) - x2, x3' = -x1 + u.
class B4System final : public System {
 public:
  std::string name() const override { return "b4"; }
  std::size_t state_dim() const override { return 3; }
  std::size_t input_dim() const override { return 1; }
  void f_into(const double* x, const double* u, double* dx) const override;
  linalg::Mat dfdx(const linalg::Vec& x,
                   const linalg::Vec& u) const override;
  linalg::Mat dfdu(const linalg::Vec& x,
                   const linalg::Vec& u) const override;
  std::vector<poly::Poly> poly_dynamics() const override;
};

// B5 is the paper's 3-D example; see ode::Sys3d / make_3d_benchmark().

/// B1: X0 = [0.8,0.9]x[0.5,0.6], Xg = [0,0.2]x[0.05,0.3] (ReachNN);
/// Xu = [0.55,0.75]x[-1.3,-0.95] (ours: penalizes over-aggressive
/// dives), delta = 0.2.
Benchmark make_b1_benchmark();

/// B2: X0 = [0.7,0.9]x[0.7,0.9], Xg = [-0.3,0.1]x[-0.35,0.5] (ReachNN);
/// Xu = [0.25,0.45]x[-0.8,-0.55] (ours), delta = 0.2.
Benchmark make_b2_benchmark();

/// B3: X0 = [0.8,0.9]x[0.4,0.5], Xg = [0.2,0.3]x[-0.3,-0.05] (ReachNN);
/// Xu = [0.45,0.6]x[0.2,0.35] (ours), delta = 0.1.
Benchmark make_b3_benchmark();

/// B4: X0 = [0.25,0.27]x[0.08,0.1]x[0.25,0.27],
/// Xg = {x1 in [-0.05,0.05], x2 in [-0.05,0.05]} (ReachNN);
/// Xu = {x1 in [0.12,0.17], x2 in [-0.2,-0.12]} (ours), delta = 0.1.
Benchmark make_b4_benchmark();

/// All five instances (B5 = the paper's 3-D benchmark).
std::vector<Benchmark> make_reachnn_suite();

}  // namespace dwv::ode
