// Polynomial state-feedback controllers u_k = p_k(x): a middle ground
// between linear gains and neural networks. Their Taylor-model abstraction
// is EXACT (polynomials compose symbolically with no activation remainder),
// which makes them the most verification-friendly nonlinear family the
// framework supports.
#pragma once

#include "nn/controller.hpp"
#include "poly/poly.hpp"

namespace dwv::nn {

/// u_k = sum over a fixed monomial basis of theta_{k,j} m_j(x).
/// The basis is every monomial of total degree <= `degree` in the state
/// variables (including the constant), so theta has m * C(n+d, d) entries.
class PolynomialController final : public Controller {
 public:
  /// Zero-initialized controller over all monomials of degree <= `degree`.
  PolynomialController(std::size_t state_dim, std::size_t input_dim,
                       std::uint32_t degree);

  std::string describe() const override;
  std::size_t state_dim() const override { return state_dim_; }
  std::size_t input_dim() const override { return input_dim_; }
  linalg::Vec act(const linalg::Vec& x) const override;
  linalg::Vec params() const override;
  void set_params(const linalg::Vec& theta) override;
  std::unique_ptr<Controller> clone() const override;

  std::uint32_t degree() const { return degree_; }
  /// The monomial basis (exponent vectors), shared by all outputs.
  const std::vector<poly::Exponents>& basis() const { return basis_; }
  /// Output k as a polynomial over the state variables.
  poly::Poly output_poly(std::size_t k) const;
  /// output_poly(k) written into `p`, reusing its term buffer.
  void output_poly_into(std::size_t k, poly::Poly& p) const;

  /// Random initialization with the given coefficient scale.
  void init_random(std::mt19937_64& rng, double scale);

 private:
  std::size_t state_dim_;
  std::size_t input_dim_;
  std::uint32_t degree_;
  std::vector<poly::Exponents> basis_;
  // basis_ flattened row-major (basis index x state variable) so act() scans
  // one contiguous array instead of chasing per-monomial vectors.
  std::vector<std::uint32_t> flat_basis_;
  // coeffs_[k][j]: coefficient of basis_[j] in output k.
  std::vector<std::vector<double>> coeffs_;
};

}  // namespace dwv::nn
