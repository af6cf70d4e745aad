#include "ode/expr.hpp"

#include <cassert>
#include <cmath>
#include <sstream>

namespace dwv::ode {

namespace {

ExprPtr node(ExprOp op, ExprPtr a = nullptr, ExprPtr b = nullptr) {
  auto e = std::make_shared<Expr>();
  e->op = op;
  e->a = std::move(a);
  e->b = std::move(b);
  return e;
}

bool is_const(const ExprPtr& e, double v) {
  return e->op == ExprOp::kConst && e->value == v;
}

}  // namespace

ExprPtr constant(double v) {
  auto e = std::make_shared<Expr>();
  e->op = ExprOp::kConst;
  e->value = v;
  return e;
}

ExprPtr var(std::size_t index) {
  auto e = std::make_shared<Expr>();
  e->op = ExprOp::kVar;
  e->var = index;
  return e;
}

ExprPtr operator+(ExprPtr a, ExprPtr b) {
  if (is_const(a, 0.0)) return b;
  if (is_const(b, 0.0)) return a;
  if (a->op == ExprOp::kConst && b->op == ExprOp::kConst)
    return constant(a->value + b->value);
  return node(ExprOp::kAdd, std::move(a), std::move(b));
}

ExprPtr operator-(ExprPtr a, ExprPtr b) {
  return std::move(a) + (-std::move(b));
}

ExprPtr operator*(ExprPtr a, ExprPtr b) {
  if (is_const(a, 0.0) || is_const(b, 0.0)) return constant(0.0);
  if (is_const(a, 1.0)) return b;
  if (is_const(b, 1.0)) return a;
  if (a->op == ExprOp::kConst && b->op == ExprOp::kConst)
    return constant(a->value * b->value);
  return node(ExprOp::kMul, std::move(a), std::move(b));
}

ExprPtr operator-(ExprPtr a) {
  if (a->op == ExprOp::kConst) return constant(-a->value);
  return node(ExprOp::kNeg, std::move(a));
}

ExprPtr pow(ExprPtr a, unsigned n) {
  assert(n >= 2);
  auto e = node(ExprOp::kPow, std::move(a));
  const_cast<Expr*>(e.get())->power = n;
  return e;
}

ExprPtr sin(ExprPtr a) { return node(ExprOp::kSin, std::move(a)); }
ExprPtr cos(ExprPtr a) { return node(ExprOp::kCos, std::move(a)); }
ExprPtr tanh(ExprPtr a) { return node(ExprOp::kTanh, std::move(a)); }
ExprPtr exp(ExprPtr a) { return node(ExprOp::kExp, std::move(a)); }

double Expr::eval(const double* x, std::size_t n, const double* u) const {
  switch (op) {
    case ExprOp::kConst:
      return value;
    case ExprOp::kVar:
      return var < n ? x[var] : u[var - n];
    case ExprOp::kAdd:
      return a->eval(x, n, u) + b->eval(x, n, u);
    case ExprOp::kMul:
      return a->eval(x, n, u) * b->eval(x, n, u);
    case ExprOp::kNeg:
      return -a->eval(x, n, u);
    case ExprOp::kPow: {
      const double base = a->eval(x, n, u);
      double r = 1.0;
      for (unsigned i = 0; i < power; ++i) r *= base;
      return r;
    }
    case ExprOp::kSin:
      return std::sin(a->eval(x, n, u));
    case ExprOp::kCos:
      return std::cos(a->eval(x, n, u));
    case ExprOp::kTanh:
      return std::tanh(a->eval(x, n, u));
    case ExprOp::kExp:
      return std::exp(a->eval(x, n, u));
  }
  return 0.0;
}

interval::Interval Expr::eval(const interval::IVec& xu) const {
  using interval::Interval;
  switch (op) {
    case ExprOp::kConst:
      return Interval(value);
    case ExprOp::kVar:
      return xu[var];
    case ExprOp::kAdd:
      return a->eval(xu) + b->eval(xu);
    case ExprOp::kMul:
      return a->eval(xu) * b->eval(xu);
    case ExprOp::kNeg:
      return -a->eval(xu);
    case ExprOp::kPow:
      return interval::pow_n(a->eval(xu), power);
    case ExprOp::kSin:
      return interval::sin(a->eval(xu));
    case ExprOp::kCos:
      return interval::cos(a->eval(xu));
    case ExprOp::kTanh:
      return interval::tanh(a->eval(xu));
    case ExprOp::kExp:
      return interval::exp(a->eval(xu));
  }
  return Interval(0.0);
}

ExprPtr Expr::derivative(std::size_t i) const {
  switch (op) {
    case ExprOp::kConst:
      return constant(0.0);
    case ExprOp::kVar:
      return constant(var == i ? 1.0 : 0.0);
    case ExprOp::kAdd:
      return a->derivative(i) + b->derivative(i);
    case ExprOp::kMul:
      return a->derivative(i) * b + a * b->derivative(i);
    case ExprOp::kNeg:
      return -a->derivative(i);
    case ExprOp::kPow: {
      // d(a^n) = n a^(n-1) a'.
      ExprPtr lower =
          power == 2 ? a : ode::pow(a, power - 1);
      return constant(static_cast<double>(power)) * lower * a->derivative(i);
    }
    case ExprOp::kSin:
      return ode::cos(a) * a->derivative(i);
    case ExprOp::kCos:
      return -ode::sin(a) * a->derivative(i);
    case ExprOp::kTanh: {
      // d tanh = 1 - tanh^2.
      return (constant(1.0) + (-(ode::pow(ode::tanh(a), 2)))) *
             a->derivative(i);
    }
    case ExprOp::kExp:
      return ode::exp(a) * a->derivative(i);
  }
  return constant(0.0);
}

std::string Expr::to_string() const {
  std::ostringstream os;
  switch (op) {
    case ExprOp::kConst:
      os << value;
      break;
    case ExprOp::kVar:
      os << 'v' << var;
      break;
    case ExprOp::kAdd:
      os << '(' << a->to_string() << " + " << b->to_string() << ')';
      break;
    case ExprOp::kMul:
      os << '(' << a->to_string() << " * " << b->to_string() << ')';
      break;
    case ExprOp::kNeg:
      os << "(-" << a->to_string() << ')';
      break;
    case ExprOp::kPow:
      os << a->to_string() << '^' << power;
      break;
    case ExprOp::kSin:
      os << "sin(" << a->to_string() << ')';
      break;
    case ExprOp::kCos:
      os << "cos(" << a->to_string() << ')';
      break;
    case ExprOp::kTanh:
      os << "tanh(" << a->to_string() << ')';
      break;
    case ExprOp::kExp:
      os << "exp(" << a->to_string() << ')';
      break;
  }
  return os.str();
}

}  // namespace dwv::ode
