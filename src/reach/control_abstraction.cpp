#include "reach/control_abstraction.hpp"

#include <cassert>
#include <span>

#include "nn/poly_controller.hpp"
#include "poly/bernstein.hpp"

namespace dwv::reach {

using interval::Interval;
using interval::IVec;
using taylor::TaylorModel;
using taylor::TmEnv;
using taylor::TmVec;

TmVec LinearAbstraction::abstract(const TmEnv& env, const TmVec& state,
                                  const nn::Controller& ctrl) const {
  const auto* lin = dynamic_cast<const nn::LinearController*>(&ctrl);
  assert(lin && "LinearAbstraction requires a LinearController");
  const linalg::Mat& k = lin->gain();
  TmVec u(k.rows());
  for (std::size_t i = 0; i < k.rows(); ++i) {
    taylor::tm_affine_into(env, state, {k.data() + i * k.cols(), k.cols()},
                           0.0, u[i]);
  }
  return u;
}

// Layer by layer through the scratch's two layer buffers, reading weight
// rows in place; only the returned models allocate once the scratch is
// warm.
TmVec PolarAbstraction::abstract(const TmEnv& env, const TmVec& state,
                                 const nn::Controller& ctrl) const {
  const auto* mc = dynamic_cast<const nn::MlpController*>(&ctrl);
  assert(mc && "PolarAbstraction requires an MlpController");

  taylor::TmScratch& s = env.scratch();
  std::span<const TaylorModel> h = state;
  std::size_t k = 0;
  for (const auto& layer : mc->mlp().layers()) {
    TmVec& next = s.ctrl_layers[k];
    k ^= 1;
    // Never shrunk: a dropped model would take its storage with it.
    if (next.size() < layer.out_dim()) next.resize(layer.out_dim());
    for (std::size_t i = 0; i < layer.out_dim(); ++i) {
      const std::span<const double> w(layer.w.data() + i * layer.in_dim(),
                                      layer.in_dim());
      TaylorModel& pre =
          layer.act == nn::Activation::kIdentity ? next[i] : s.ctrl_pre;
      taylor::tm_affine_into(env, h, w, layer.b[i], pre);
      switch (layer.act) {
        case nn::Activation::kIdentity:
          break;
        case nn::Activation::kRelu:
          taylor::tm_relu_into(env, pre, next[i]);
          break;
        case nn::Activation::kTanh:
          taylor::tm_tanh_into(env, pre, opt_.act_order, next[i]);
          break;
        case nn::Activation::kSigmoid:
          taylor::tm_sigmoid_into(env, pre, opt_.act_order, next[i]);
          break;
      }
    }
    h = std::span<const TaylorModel>(next.data(), layer.out_dim());
  }
  TmVec u;
  u.reserve(h.size());
  for (const TaylorModel& tm : h) {
    u.push_back(taylor::tm_scale(tm, mc->scale()));
  }
  return u;
}

std::vector<IVec> interval_jacobian(const nn::Mlp& mlp, const IVec& in) {
  // Interval forward pass recording activation-derivative ranges.
  std::vector<IVec> dact;
  dact.reserve(mlp.layers().size());
  IVec h = in;
  for (const auto& layer : mlp.layers()) {
    IVec z(layer.out_dim());
    IVec d(layer.out_dim());
    for (std::size_t i = 0; i < layer.out_dim(); ++i) {
      Interval s(layer.b[i]);
      for (std::size_t j = 0; j < layer.in_dim(); ++j)
        s += Interval(layer.w(i, j)) * h[j];
      switch (layer.act) {
        case nn::Activation::kIdentity:
          z[i] = s;
          d[i] = Interval(1.0);
          break;
        case nn::Activation::kRelu:
          z[i] = interval::relu(s);
          d[i] = s.lo() >= 0.0   ? Interval(1.0)
                 : s.hi() <= 0.0 ? Interval(0.0)
                                 : Interval(0.0, 1.0);
          break;
        case nn::Activation::kTanh: {
          const Interval t = interval::tanh(s);
          z[i] = t;
          d[i] = Interval(1.0) - interval::sqr(t);
          break;
        }
        case nn::Activation::kSigmoid: {
          const Interval g = interval::sigmoid(s);
          z[i] = g;
          d[i] = g * (Interval(1.0) - g);
          break;
        }
      }
    }
    dact.push_back(std::move(d));
    h = std::move(z);
  }

  // Interval Jacobian accumulation: J = D_L W_L ... D_1 W_1.
  const std::size_t nin = mlp.in_dim();
  std::vector<IVec> jac;  // rows: current layer outputs, cols: inputs
  jac.assign(mlp.layers()[0].out_dim(), IVec(nin));
  {
    const auto& l0 = mlp.layers()[0];
    for (std::size_t r = 0; r < l0.out_dim(); ++r)
      for (std::size_t c = 0; c < nin; ++c)
        jac[r][c] = dact[0][r] * Interval(l0.w(r, c));
  }
  for (std::size_t li = 1; li < mlp.layers().size(); ++li) {
    const auto& l = mlp.layers()[li];
    std::vector<IVec> next(l.out_dim(), IVec(nin));
    for (std::size_t r = 0; r < l.out_dim(); ++r) {
      for (std::size_t c = 0; c < nin; ++c) {
        Interval s(0.0);
        for (std::size_t k = 0; k < l.in_dim(); ++k)
          s += Interval(l.w(r, k)) * jac[k][c];
        next[r][c] = dact[li][r] * s;
      }
    }
    jac = std::move(next);
  }

  return jac;
}

linalg::Vec interval_gradient_bound(const nn::Mlp& mlp, const IVec& in) {
  const std::vector<IVec> jac = interval_jacobian(mlp, in);
  const std::size_t nin = mlp.in_dim();
  linalg::Vec bound(nin);
  for (std::size_t c = 0; c < nin; ++c) {
    double m = 0.0;
    for (std::size_t r = 0; r < jac.size(); ++r)
      m = std::max(m, jac[r][c].mag());
    bound[c] = m;
  }
  return bound;
}

TmVec ReachNnAbstraction::abstract(const TmEnv& env, const TmVec& state,
                                   const nn::Controller& ctrl) const {
  const auto* mc = dynamic_cast<const nn::MlpController*>(&ctrl);
  assert(mc && "ReachNnAbstraction requires an MlpController");
  const std::size_t n = state.size();

  // Box range of the current state enclosure: the fit domain.
  const IVec range = taylor::tm_vec_range(env, state);
  geom::Box dom(range);

  // Interval Jacobian of the scaled network over this box: used both for
  // the (coarse) Lipschitz remainder and the (tight) sampled remainder.
  const std::vector<IVec> jac = interval_jacobian(mc->mlp(), range);

  // Centered normalized state TMs c_i = (X_i - mid_i) / w_i in [-1/2,1/2].
  // Evaluating the fit in centered coordinates keeps the power-basis
  // coefficients well-conditioned; the raw Bernstein power basis on [0,1]
  // has large alternating coefficients that would amplify the state TM's
  // interval remainder during composition.
  // The composition uses the MEAN-VALUE FORM: B(t_poly + r) is enclosed by
  // B(t_poly) + dB/dc(range) * r, so the state remainders r enter scaled by
  // the true derivative range instead of being amplified through every
  // monomial of the composition.
  TmVec t;
  t.reserve(n);
  std::vector<Interval> t_rem(n, Interval(0.0));
  for (std::size_t i = 0; i < n; ++i) {
    const double w = range[i].width();
    if (w <= 0.0) {
      t.push_back(TaylorModel::constant(env, 0.0));
    } else {
      TaylorModel ti = taylor::tm_add_const(state[i], -range[i].mid());
      ti = taylor::tm_scale(ti, 1.0 / w);
      t_rem[i] = ti.rem;
      ti.rem = Interval(0.0);
      t.push_back(std::move(ti));
    }
  }

  const std::vector<std::uint32_t> deg(n, opt_.degree);

  TmVec u;
  const std::size_t m = mc->input_dim();
  u.reserve(m);
  for (std::size_t k = 0; k < m; ++k) {
    const auto f = [&](const linalg::Vec& x) {
      return mc->act(x)[k];
    };
    std::vector<double> lip_v(n);
    std::vector<Interval> df(n);
    for (std::size_t i = 0; i < n; ++i) {
      df[i] = jac[k][i] * Interval(mc->scale());
      lip_v[i] = df[i].mag();
    }
    const poly::BernsteinApprox ba =
        poly::bernstein_approximate(f, dom, deg, lip_v);
    // Re-express the unit-domain fit in centered coordinates t = c + 1/2
    // (well-conditioned basis for both the TM composition and the
    // derivative-range bound in the sampled remainder).
    std::vector<poly::Poly> shift;
    shift.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      shift.push_back(poly::Poly::variable(n, i) +
                      poly::Poly::constant(n, 0.5));
    }
    const poly::Poly centered = ba.poly_unit.compose(shift);
    double rem = ba.remainder;
    if (opt_.sampled_remainder) {
      const double sampled = poly::bernstein_sampled_remainder(
          f, dom, centered, df, opt_.remainder_samples);
      rem = std::min(rem, sampled);  // both are sound; take the tighter
    }
    TaylorModel uk = taylor::tm_eval_poly(env, centered, t);
    // Mean-value remainder transport for the stripped state remainders.
    // The scratch's range engine bounds the derivative directly from the
    // packed terms (no derivative polynomial materialized) and reuses the
    // [-1/2, 1/2]^n power table across outputs and dimensions.
    const interval::IVec half(n, Interval(-0.5, 0.5));
    poly::RangeEngine& range = env.scratch().range;
    for (std::size_t i = 0; i < n; ++i) {
      if (t_rem[i].rad() > 0.0) {
        uk.rem += range.derivative_range(centered, i, half) * t_rem[i];
      }
    }
    uk.rem += Interval::symmetric(rem);
    u.push_back(taylor::tm_truncate(env, std::move(uk)));
  }
  return u;
}

TmVec PolynomialAbstraction::abstract(const TmEnv& env, const TmVec& state,
                                      const nn::Controller& ctrl) const {
  const auto* pc = dynamic_cast<const nn::PolynomialController*>(&ctrl);
  assert(pc && "PolynomialAbstraction requires a PolynomialController");
  // Each output polynomial is rebuilt in the abstraction's scratch slot,
  // so a warm call allocates only the returned models.
  poly::Poly& out = env.scratch().ctrl_pre.poly;
  TmVec u;
  u.reserve(pc->input_dim());
  for (std::size_t k = 0; k < pc->input_dim(); ++k) {
    pc->output_poly_into(k, out);
    u.push_back(taylor::tm_eval_poly(env, out, state));
  }
  return u;
}

// Interval forward pass through an MLP.
IVec interval_forward(const nn::Mlp& mlp, const IVec& in) {
  IVec h = in;
  for (const auto& layer : mlp.layers()) {
    IVec z(layer.out_dim());
    for (std::size_t i = 0; i < layer.out_dim(); ++i) {
      Interval s(layer.b[i]);
      for (std::size_t j = 0; j < layer.in_dim(); ++j)
        s += Interval(layer.w(i, j)) * h[j];
      switch (layer.act) {
        case nn::Activation::kIdentity:
          z[i] = s;
          break;
        case nn::Activation::kRelu:
          z[i] = interval::relu(s);
          break;
        case nn::Activation::kTanh:
          z[i] = interval::tanh(s);
          break;
        case nn::Activation::kSigmoid:
          z[i] = interval::sigmoid(s);
          break;
      }
    }
    h = std::move(z);
  }
  return h;
}

TmVec IntervalAbstraction::abstract(const TmEnv& env, const TmVec& state,
                                    const nn::Controller& ctrl) const {
  const IVec range = taylor::tm_vec_range(env, state);
  TmVec u;
  if (const auto* mc = dynamic_cast<const nn::MlpController*>(&ctrl)) {
    IVec out = interval_forward(mc->mlp(), range);
    u.reserve(out.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      u.push_back(TaylorModel::constant(env, out[i] * Interval(mc->scale())));
  } else if (const auto* lin =
                 dynamic_cast<const nn::LinearController*>(&ctrl)) {
    IVec out = interval::mat_ivec(lin->gain(), range);
    u.reserve(out.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      u.push_back(TaylorModel::constant(env, out[i]));
  } else {
    assert(false && "unsupported controller type");
  }
  return u;
}

}  // namespace dwv::reach
