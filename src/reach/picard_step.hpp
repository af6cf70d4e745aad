// The validated Taylor-model step, written once for both coefficient
// channels (internal to src/reach). reach::tm_integrate_step instantiates
// it with ScalarChannel (tm_flowpipe.cpp), reach::dual_integrate_step with
// DualChannel (grad_flowpipe.cpp). Each derives from its kernels' channel
// (taylor::detail::ScalarOps / DualOps, taylor/channel.hpp), which supplies
// the types and every poly and remainder op the step uses, so the dual
// step's value channel runs the scalar step's operations one for one
// (DESIGN.md §12, §13). On top of those a step channel supplies:
//  - `s`, the kernel scratch of the step env (env_time, env_time_init,
//    integ, diff, poly_only, rem_tape), and `w`, the step workspace (x0,
//    u, args, g, phi, picard_out, cand, pnext, validated, rem_j, d_range,
//    diff_poly_range, conv_pred);
//  - eval (the dynamics), integrate_time, subst_last;
//  - tape_record, tape_replay, tape_stop, and replay_safe.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>

#include "reach/tm_flowpipe.hpp"
#include "taylor/channel.hpp"

namespace dwv::reach::detail {

/// Integrates x' = f(x, u) for tau in [0, h] through channel `c`: Picard
/// fixpoint on the polynomials, then remainder validation (find J with
/// P(poly + J) inside poly + J). Every branch is decided on the value
/// channel.
template <class C>
void picard_step(C& c, const typename C::Env& env_set,
                 const typename C::Vec& state,
                 const typename C::Vec& control, double h,
                 const TmReachOptions& opt,
                 StepResult<typename C::Vec, typename C::Box>& res) {
  using Vec = typename C::Vec;
  const std::size_t n = state.size();
  const std::size_t m = control.size();
  const std::size_t nv = env_set.nvars();
  auto& s = c.s;
  auto& w = c.w;
  const typename C::Rem zero = C::zero(env_set);

  // Time-extended environment: env_set's settings with tau in [0, h]
  // appended to the domain. Lives in the scratch so its domain vector (and
  // the buffers of the TM ops it is passed to, which it borrows from
  // env_set) persist across steps.
  typename C::Env& env = s.env_time;
  if (!s.env_time_init) {
    env.borrow_scratch(env_set);
    s.env_time_init = true;
  }
  env = env_set;
  env.dom.resize(nv + 1, interval::Interval(0.0, h));
  const std::size_t tau = nv;

  // Lifts a model over env_set into env (tau absent from every term).
  const auto lift = [&](const typename C::Tm& in, typename C::Tm& out) {
    C::size_dirs(env_set, C::poly(out));
    C::each(
        [&](bool, const poly::Poly& i, poly::Poly& o) {
          i.lift_vars_into(nv + 1, o);
        },
        C::poly(in), C::poly(out));
    out.rem = in.rem;
  };
  w.x0.resize(n);
  for (std::size_t i = 0; i < n; ++i) lift(state[i], w.x0[i]);
  w.u.resize(m);
  for (std::size_t j = 0; j < m; ++j) lift(control[j], w.u[j]);

  // Remainder-replay tape (taylor::RemTape), on for replay-safe dynamics.
  // When a Picard evaluation's polynomial channel is known to repeat
  // bitwise, one recorded pass captures the remainder-formula constants and
  // later passes replay the remainder arithmetic only.
  const bool tape_on = c.replay_safe();
  // In replay mode the kernels leave output polys untouched; when set, the
  // replayed Picard pass materializes out[i]'s poly from its input (valid
  // exactly when the poly fixpoint converged, so output == input bitwise).
  bool replay_poly_from_input = false;

  const auto picard = [&](const Vec& phi, Vec& out) {
    const bool rp = s.rem_tape.replaying();
    w.args.resize(n + m);
    if (rp) {
      // Replay never reads the argument polys (every poly-derived constant
      // comes off the tape), so only the remainders need to move.
      for (std::size_t i = 0; i < n; ++i) w.args[i].rem = phi[i].rem;
      for (std::size_t j = 0; j < m; ++j) w.args[n + j].rem = w.u[j].rem;
    } else {
      for (std::size_t i = 0; i < n; ++i) w.args[i] = phi[i];
      for (std::size_t j = 0; j < m; ++j) w.args[n + j] = w.u[j];
    }
    c.eval(env, w.args, w.g);
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      C::integrate_time(env, w.g[i], tau, s.integ);
      if (rp) {
        if (replay_poly_from_input) C::poly(out[i]) = C::poly(phi[i]);
      } else {
        C::poly_add(C::poly(w.x0[i]), C::poly(s.integ), C::poly(out[i]));
      }
      out[i].rem = C::add(w.x0[i].rem, s.integ.rem);
    }
  };

  // Polynomial fixpoint by iteration (tau-degree grows by one per pass).
  // Remainders are zeroed between passes: this phase only constructs the
  // polynomial part, and letting interval remainders compound across the
  // passes would inflate the validated remainder by (1 + hL)^iters instead
  // of (1 + hL) per step.
  //
  // Because the pass remainders are dead, their arithmetic — and the range
  // queries feeding it — is skipped outright (the scratch's poly_only)
  // whenever the dynamics' polynomial outputs are remainder-independent
  // (replay_safe: polynomial composition; expression trees linearize
  // enclosures around ranges that include remainders, so they keep the
  // full channel). The polynomial bits are unchanged either way.
  //
  // Replay-safe steps also test for convergence: once a pass maps every
  // channel's polynomials to themselves bitwise, every remaining pass maps
  // (phi, 0) back to phi with the remainder re-zeroed — a bitwise no-op —
  // so they are skipped. The value channel alone is not enough for the
  // break: it never reads the tangents, which can still be moving. The
  // validation attempts below need a remainder tape recorded AT the
  // fixpoint; the convergence index is structural (tau-degree saturates at
  // the order), so each step predicts it from the previous step
  // (conv_pred) and records only from there, running the earlier passes
  // poly-only. A misprediction stays correct: converging on a poly-only
  // pass just leaves validation to record its own tape, converging later
  // keeps recording until the compare succeeds. (Skipping no-op passes or
  // range queries only changes what the engine sees; that is bit-invisible
  // by the RangeEngine contract.)
  bool tape_valid = false;  ///< tape's poly channel == (phi, u) composition
  // Adaptive runs track convergence on every path (the break is a bitwise
  // no-op, and conv_index — the value channel's own convergence index —
  // feeds the step controller), and guarantee enough passes for the
  // escalated orders the controller may pick (picard_iters >= order
  // reaches the poly fixpoint).
  const bool track_conv = tape_on || opt.adaptive;
  const std::size_t iters_eff =
      opt.adaptive
          ? std::max(opt.picard_iters,
                     static_cast<std::size_t>(env_set.order) + 1)
          : opt.picard_iters;
  std::size_t conv_index = iters_eff;
  w.phi.resize(n);
  for (std::size_t i = 0; i < n; ++i) w.phi[i] = w.x0[i];
  for (std::size_t it = 0; it < iters_eff; ++it) {
    const bool record = tape_on && it >= w.conv_pred;
    s.poly_only = tape_on && !record;
    if (record) c.tape_record();
    picard(w.phi, w.picard_out);
    s.poly_only = false;
    if (record) c.tape_stop();
    bool converged = track_conv;
    for (std::size_t i = 0; i < n && converged; ++i) {
      converged = C::value(C::poly(w.picard_out[i])).terms() ==
                  C::value(C::poly(w.phi[i])).terms();
    }
    if (converged && conv_index == iters_eff) conv_index = it;
    for (std::size_t i = 0; i < n && converged; ++i) {
      converged = C::tangents_equal(C::poly(w.picard_out[i]),
                                    C::poly(w.phi[i]));
    }
    if (converged && tape_on) {
      w.conv_pred = it;
      tape_valid = record;
    }
    std::swap(w.phi, w.picard_out);
    for (auto& tm : w.phi) tm.rem = zero;
    if (converged) break;
  }
  res.conv_index = conv_index;

  // Remainder validation: find J with P(poly + J) inside poly + J.
  w.rem_j.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    w.rem_j[i] = C::hull(w.x0[i].rem, C::symmetric(env_set, opt.rem_init));
  }

  res.ok = false;
  res.failure.clear();
  res.attempts = 0;
  res.defect_rel = 0.0;
  res.max_poly_terms = 0;
  // Every attempt evaluates the Picard operator at the same polynomials
  // (cand's poly is fixed to phi; only the remainder guess changes), so
  // with the tape on at most one attempt runs in full: either the fixpoint
  // loop converged and left a valid tape (attempt 0 already replays, with
  // the output polys materialized from phi), or attempt 0 records and the
  // retries replay (their output polys persist in pnext from attempt 0).
  w.diff_poly_range.resize(n);
  for (std::size_t attempt = 0; attempt <= opt.max_inflations; ++attempt) {
    w.cand.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      // phi is fixed for the whole loop; the poly copy only needs to happen
      // on the first attempt (identical bits either way).
      if (attempt == 0) C::poly(w.cand[i]) = C::poly(w.phi[i]);
      w.cand[i].rem = w.rem_j[i];
    }
    if (tape_on && tape_valid) {
      replay_poly_from_input = attempt == 0;
      c.tape_replay();
      picard(w.cand, w.pnext);
      c.tape_stop();
    } else if (tape_on) {
      c.tape_record();
      picard(w.cand, w.pnext);
      c.tape_stop();
      tape_valid = true;
    } else {
      picard(w.cand, w.pnext);
    }

    bool contained = true;
    w.d_range.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      // d = P(cand)_i - {cand_i.poly, 0}; the remainder subtraction of zero
      // outward-widens exactly like the legacy tm_sub did. With the tape
      // on, both polys are fixed across attempts (cand's is pinned to phi,
      // the Picard output's is attempt-invariant), so the defect poly — and
      // hence its range — is too: retries reuse the attempt-0 range and
      // redo only the remainder arithmetic. Tape-off outputs may move with
      // the remainder guess, so every attempt bounds its own defect poly.
      if (attempt == 0 || !tape_on) {
        C::poly_sub(C::poly(w.pnext[i]), C::poly(w.cand[i]), C::poly(s.diff));
        w.diff_poly_range[i] = C::poly_range(env, C::poly(s.diff));
      }
      w.d_range[i] = C::add(w.diff_poly_range[i], C::sub(w.pnext[i].rem, zero));
      if (!C::value(w.rem_j[i]).contains(C::value(w.d_range[i]))) {
        contained = false;
      }
    }

    if (contained) {
      // P(cand) encloses the flow and is at least as tight as cand.
      w.validated.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        C::poly(w.validated[i]) = C::poly(w.cand[i]);
        w.validated[i].rem = w.d_range[i];
      }
      res.tube_range.resize(n);
      res.at_end.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        res.tube_range[i] = C::add(
            C::poly_range(env, C::poly(w.validated[i])), w.validated[i].rem);
        C::subst_last(env, w.validated[i], h, res.at_end[i]);
      }
      // Step-controller signals, value channel only: which attempt proved
      // containment, and the defect magnitude relative to the tube.
      res.attempts = attempt;
      for (std::size_t i = 0; i < n; ++i) {
        const double tube_rad = C::value(res.tube_range[i]).rad();
        if (tube_rad > 0.0) {
          const double rel = C::value(w.d_range[i]).rad() / tube_rad;
          if (rel > res.defect_rel) res.defect_rel = rel;
        }
        res.max_poly_terms =
            std::max(res.max_poly_terms,
                     C::value(C::poly(w.validated[i])).term_count());
      }
      res.ok = true;
      return;
    }

    for (std::size_t i = 0; i < n; ++i) {
      w.rem_j[i] = C::widen(C::hull(w.rem_j[i], w.d_range[i]),
                            opt.rem_inflate, opt.rem_init);
    }
  }

  res.attempts = opt.max_inflations + 1;
  res.failure = "remainder validation failed (Picard operator not contracting)";
}

}  // namespace dwv::reach::detail
