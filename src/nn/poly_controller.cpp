#include "nn/poly_controller.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <sstream>

namespace dwv::nn {

namespace {

// Enumerates all exponent vectors over n variables with total degree <= d,
// in graded lexicographic order (constant first).
std::vector<poly::Exponents> monomial_basis(std::size_t n, std::uint32_t d) {
  std::vector<poly::Exponents> out;
  poly::Exponents e(n, 0);
  // Depth-first enumeration.
  const std::function<void(std::size_t, std::uint32_t)> rec =
      [&](std::size_t i, std::uint32_t remaining) {
        if (i == n) {
          out.push_back(e);
          return;
        }
        for (std::uint32_t k = 0; k <= remaining; ++k) {
          e[i] = k;
          rec(i + 1, remaining - k);
        }
        e[i] = 0;
      };
  rec(0, d);
  // Sort by total degree then lexicographic for a stable layout.
  std::sort(out.begin(), out.end(),
            [](const poly::Exponents& a, const poly::Exponents& b) {
              const auto da = poly::total_degree(a);
              const auto db = poly::total_degree(b);
              if (da != db) return da < db;
              return a < b;
            });
  return out;
}

}  // namespace

PolynomialController::PolynomialController(std::size_t state_dim,
                                           std::size_t input_dim,
                                           std::uint32_t degree)
    : state_dim_(state_dim),
      input_dim_(input_dim),
      degree_(degree),
      basis_(monomial_basis(state_dim, degree)),
      coeffs_(input_dim, std::vector<double>(basis_.size(), 0.0)) {
  flat_basis_.reserve(basis_.size() * state_dim_);
  for (const poly::Exponents& e : basis_) {
    flat_basis_.insert(flat_basis_.end(), e.begin(), e.end());
  }
}

std::string PolynomialController::describe() const {
  std::ostringstream os;
  os << "poly(deg=" << degree_ << ", " << basis_.size() << " monomials x "
     << input_dim_ << " outputs)";
  return os.str();
}

linalg::Vec PolynomialController::act(const linalg::Vec& x) const {
  assert(x.size() == state_dim_);
  linalg::Vec u(input_dim_);
  for (std::size_t k = 0; k < input_dim_; ++k) {
    double s = 0.0;
    const std::uint32_t* exps = flat_basis_.data();
    for (std::size_t j = 0; j < basis_.size(); ++j, exps += state_dim_) {
      double m = coeffs_[k][j];
      if (m == 0.0) continue;
      for (std::size_t i = 0; i < state_dim_; ++i) {
        for (std::uint32_t p = 0; p < exps[i]; ++p) m *= x[i];
      }
      s += m;
    }
    u[k] = s;
  }
  return u;
}

linalg::Vec PolynomialController::params() const {
  linalg::Vec p(input_dim_ * basis_.size());
  std::size_t off = 0;
  for (const auto& row : coeffs_) {
    for (double c : row) p[off++] = c;
  }
  return p;
}

void PolynomialController::set_params(const linalg::Vec& theta) {
  assert(theta.size() == input_dim_ * basis_.size());
  std::size_t off = 0;
  for (auto& row : coeffs_) {
    for (double& c : row) c = theta[off++];
  }
}

std::unique_ptr<Controller> PolynomialController::clone() const {
  auto c = std::make_unique<PolynomialController>(state_dim_, input_dim_,
                                                  degree_);
  c->coeffs_ = coeffs_;
  return c;
}

poly::Poly PolynomialController::output_poly(std::size_t k) const {
  poly::Poly p(state_dim_);
  output_poly_into(k, p);
  return p;
}

void PolynomialController::output_poly_into(std::size_t k,
                                            poly::Poly& p) const {
  assert(k < input_dim_);
  p.reset(state_dim_);
  for (std::size_t j = 0; j < basis_.size(); ++j) {
    p.add_term(basis_[j], coeffs_[k][j]);
  }
}

void PolynomialController::init_random(std::mt19937_64& rng, double scale) {
  std::normal_distribution<double> d(0.0, scale);
  for (auto& row : coeffs_) {
    for (double& c : row) c = d(rng);
  }
}

}  // namespace dwv::nn
