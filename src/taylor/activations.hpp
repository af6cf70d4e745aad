// Sound Taylor-model abstractions of neural-network activation functions
// (the POLAR-style layer propagation primitives):
//  * smooth activations (tanh, sigmoid) via a Taylor expansion around the
//    input range's midpoint with a Lagrange interval remainder,
//  * ReLU via its optimal linear relaxation with a symmetric remainder.
//
// The `*_into` kernels write into `out` through the env's TmScratch buffers
// (no heap allocation once warm); `out` must not alias the input. The
// value-returning functions are one-call wrappers around them.
#pragma once

#include <span>

#include "taylor/taylor_model.hpp"

namespace dwv::taylor {

/// Taylor order used for smooth activations (1 or 2).
enum class ActOrder { kLinear = 1, kQuadratic = 2 };

TaylorModel tm_tanh(const TmEnv& env, const TaylorModel& in,
                    ActOrder order = ActOrder::kQuadratic);
TaylorModel tm_sigmoid(const TmEnv& env, const TaylorModel& in,
                       ActOrder order = ActOrder::kQuadratic);
TaylorModel tm_relu(const TmEnv& env, const TaylorModel& in);
void tm_tanh_into(const TmEnv& env, const TaylorModel& in, ActOrder order,
                  TaylorModel& out);
void tm_sigmoid_into(const TmEnv& env, const TaylorModel& in, ActOrder order,
                     TaylorModel& out);
void tm_relu_into(const TmEnv& env, const TaylorModel& in, TaylorModel& out);

/// Sound TM enclosures of sine/cosine (for expression-tree dynamics):
/// quadratic Taylor expansion with a cubic Lagrange remainder, falling
/// back to the interval-constant enclosure when the input is wide.
TaylorModel tm_sin(const TmEnv& env, const TaylorModel& in);
TaylorModel tm_cos(const TmEnv& env, const TaylorModel& in);

/// Exponential: quadratic Taylor with Lagrange remainder (monotone bound).
TaylorModel tm_exp(const TmEnv& env, const TaylorModel& in);

/// Affine combination sum_j w[j] * in[j] + b (one neuron's pre-activation).
TaylorModel tm_affine(const TmEnv& env, const TmVec& in,
                      const linalg::Vec& w, double b);
/// In-place affine combination; w.size() == in.size(), out must not alias
/// any element of in.
void tm_affine_into(const TmEnv& env, std::span<const TaylorModel> in,
                    std::span<const double> w, double b, TaylorModel& out);

}  // namespace dwv::taylor
