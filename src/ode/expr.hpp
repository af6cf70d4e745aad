// Expression trees for non-polynomial dynamics (sin/cos/tanh/exp nodes),
// with numeric evaluation, interval evaluation, and symbolic
// differentiation. This lifts the framework beyond polynomial vector
// fields: an ExprSystem (e.g. the pendulum) plugs into simulation, the RL
// baselines (via symbolic Jacobians), and — through reach::ExprTmDynamics —
// the Taylor-model flowpipe.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "interval/ivec.hpp"
#include "linalg/vec.hpp"

namespace dwv::ode {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class ExprOp {
  kConst,   // value
  kVar,     // variable index (over the combined (x, u) vector)
  kAdd,     // a + b
  kMul,     // a * b
  kNeg,     // -a
  kPow,     // a^n, n >= 2 integer
  kSin,
  kCos,
  kTanh,
  kExp,
};

/// Immutable expression node. Build with the free functions below.
class Expr {
 public:
  ExprOp op;
  double value = 0.0;       // kConst
  std::size_t var = 0;      // kVar
  unsigned power = 0;       // kPow
  ExprPtr a;                // first operand
  ExprPtr b;                // second operand (kAdd/kMul)

  /// Numeric evaluation over the combined vector (x..., u...).
  double eval(const linalg::Vec& xu) const {
    return eval(xu.data(), xu.size(), nullptr);
  }
  /// Numeric evaluation over the split vector: variable i reads x[i] for
  /// i < n and u[i - n] otherwise, so no combined copy is built.
  double eval(const double* x, std::size_t n, const double* u) const;
  /// Sound interval evaluation.
  interval::Interval eval(const interval::IVec& xu) const;
  /// Symbolic partial derivative with respect to variable i.
  ExprPtr derivative(std::size_t i) const;
  /// Human-readable rendering (for debugging and docs).
  std::string to_string() const;
};

ExprPtr constant(double v);
ExprPtr var(std::size_t index);
ExprPtr operator+(ExprPtr a, ExprPtr b);
ExprPtr operator-(ExprPtr a, ExprPtr b);
ExprPtr operator*(ExprPtr a, ExprPtr b);
ExprPtr operator-(ExprPtr a);
ExprPtr pow(ExprPtr a, unsigned n);
ExprPtr sin(ExprPtr a);
ExprPtr cos(ExprPtr a);
ExprPtr tanh(ExprPtr a);
ExprPtr exp(ExprPtr a);

}  // namespace dwv::ode
