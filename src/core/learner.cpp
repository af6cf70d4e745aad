#include "core/learner.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "core/grad_metrics.hpp"
#include "nn/adam.hpp"
#include "parallel/pool.hpp"
#include "reach/batch.hpp"
#include "reach/grad_flowpipe.hpp"
#include "reach/tm_flowpipe.hpp"

namespace dwv::core {

using linalg::Vec;

std::string to_string(MetricKind m) {
  return m == MetricKind::kGeometric ? "geometric" : "wasserstein";
}

LearnerOptions LearnerOptions::validated() const {
  assert(perturbation > 0.0 && "SPSA perturbation must be positive");
  assert(step_size > 0.0 && "ascent step size must be positive");
  LearnerOptions v = *this;
  v.spsa_samples = std::max<std::size_t>(1, v.spsa_samples);
  return v;
}

Learner::Learner(reach::VerifierPtr verifier, ode::ReachAvoidSpec spec,
                 LearnerOptions opt)
    : verifier_(std::move(verifier)),
      spec_(std::move(spec)),
      opt_(opt.validated()) {
  // A caller-supplied CachingVerifier is adopted as-is (its cache may be
  // shared with a subdivider or Algorithm 2); otherwise opt_.cache wraps
  // the verifier here so every probe/iterate evaluation below memoizes.
  if (const auto* cv =
          dynamic_cast<const reach::CachingVerifier*>(verifier_.get())) {
    cache_ = cv->cache();
  } else if (opt_.cache || !opt_.cache_dir.empty()) {
    reach::FlowpipeCache::Config cfg;
    cfg.capacity = opt_.cache_capacity;
    cfg.shards = opt_.cache_shards;
    cfg.dir = opt_.cache_dir;
    auto cached =
        std::make_shared<const reach::CachingVerifier>(verifier_, cfg);
    cache_ = cached->cache();
    verifier_ = std::move(cached);
  }
}

Learner::MetricPair Learner::measure(const reach::Flowpipe& fp) const {
  MetricPair m;
  if (!fp.valid) {
    if (opt_.metric == MetricKind::kGeometric) {
      const GeometricMetrics p = geometric_penalty(spec_, fp);
      m.d_u = p.d_u;
      m.d_g = p.d_g;
    } else {
      const WassersteinMetrics p = wasserstein_penalty(spec_, fp);
      m.d_u = p.w_unsafe;
      m.d_g = -p.w_goal;
    }
    m.feasible = false;
    return m;
  }

  if (opt_.metric == MetricKind::kGeometric) {
    const GeometricMetrics g = geometric_metrics(fp, spec_);
    m.d_u = g.d_u;
    m.d_g = g.d_g;
    m.feasible = g.feasible();
  } else {
    const WassersteinMetrics w = wasserstein_metrics(fp, spec_, opt_.wopt);
    // Larger-is-better orientation: repel from Xu, attract to Xg.
    m.d_u = w.w_unsafe;
    m.d_g = -w.w_goal;
    m.feasible = wasserstein_feasible(fp);
  }
  return m;
}

bool Learner::wasserstein_feasible(const reach::Flowpipe& fp) const {
  const FlowpipeFacts facts = analyze_flowpipe(fp, spec_);
  return facts.touches_goal && facts.safe_certified;
}

IterationRecord Learner::to_record(std::size_t iter,
                                   const MetricPair& m) const {
  IterationRecord rec;
  rec.iter = iter;
  if (opt_.metric == MetricKind::kGeometric) {
    rec.geo = GeometricMetrics{m.d_u, m.d_g};
  } else {
    rec.wass = WassersteinMetrics{-m.d_g, m.d_u};  // {w_goal, w_unsafe}
  }
  rec.feasible = m.feasible;
  return rec;
}

IterationRecord Learner::evaluate(const nn::Controller& ctrl) const {
  const reach::Flowpipe fp = verifier_->compute(spec_.x0, ctrl);
  return to_record(0, measure(fp));
}

const reach::TmVerifier* Learner::grad_target() const {
  const reach::Verifier* v = verifier_.get();
  if (const auto* cv = dynamic_cast<const reach::CachingVerifier*>(v)) {
    v = cv->inner().get();
  }
  return dynamic_cast<const reach::TmVerifier*>(v);
}

LearnResult Learner::learn_grad(nn::Controller& ctrl,
                                const reach::TmVerifier& tv) const {
  std::mt19937_64 rng(opt_.seed);
  std::normal_distribution<double> reinit(0.0, opt_.restart_scale);

  LearnResult res;
  const std::size_t d = ctrl.param_count();
  nn::Adam adam(d, opt_.adam_lr);

  const reach::TmGradient engine(tv);

  // Per-run memo of dual passes: averaged restarts and stalled ascent
  // revisit parameter vectors exactly, and the dual pass is deterministic.
  // The key id is the verifier's cache salt XOR a gradient tag, so dual
  // results can never alias the scalar flowpipe entries sharing the
  // process-wide cache.
  const std::uint64_t grad_id = tv.cache_salt() ^ 0x6477762d67726164ull;
  struct KeyHash {
    std::size_t operator()(const reach::FlowpipeCache::Key& k) const {
      return static_cast<std::size_t>(k.hash);
    }
  };
  std::unordered_map<reach::FlowpipeCache::Key, reach::GradFlowpipe, KeyHash>
      memo;
  const auto* cv =
      dynamic_cast<const reach::CachingVerifier*>(verifier_.get());

  const auto timed_grad =
      [&](const nn::Controller& c) -> const reach::GradFlowpipe& {
    const auto key =
        reach::FlowpipeCache::make_key(grad_id, spec_.x0, c.params());
    auto it = memo.find(key);
    if (it == memo.end()) {
      const auto t0 = std::chrono::steady_clock::now();
      reach::GradFlowpipe g = engine.compute(spec_.x0, c);
      const auto t1 = std::chrono::steady_clock::now();
      res.verifier_seconds +=
          std::chrono::duration<double>(t1 - t0).count();
      // The value channel is bit-identical to tv.compute, so the shared
      // flowpipe cache can serve it to scalar callers.
      if (cache_ && cv != nullptr) {
        cache_->insert(cv->key_for(spec_.x0, c), g.fp);
      }
      it = memo.emplace(key, std::move(g)).first;
    }
    ++res.verifier_calls;  // one dual pass is the iterate's verifier call
    return it->second;
  };

  struct MeasureGrad {
    MetricPair m;
    Vec gu, gg;  ///< d(d_u)/d(theta), d(d_g)/d(theta)
  };
  const auto measure_grad = [&](const reach::GradFlowpipe& g) {
    MeasureGrad r{{}, Vec(d), Vec(d)};
    if (!g.fp.valid) {
      if (opt_.metric == MetricKind::kGeometric) {
        const GeometricMetricsGrad p = geometric_penalty_grad(spec_, g);
        r.m.d_u = p.d_u.value;
        r.m.d_g = p.d_g.value;
        for (std::size_t i = 0; i < d; ++i) {
          r.gu[i] = p.d_u.grad[i];
          r.gg[i] = p.d_g.grad[i];
        }
      } else {
        const WassersteinMetricsGrad p = wasserstein_penalty_grad(spec_, g);
        r.m.d_u = p.w_unsafe.value;
        r.m.d_g = -p.w_goal.value;
        for (std::size_t i = 0; i < d; ++i) {
          r.gu[i] = p.w_unsafe.grad[i];
          r.gg[i] = -p.w_goal.grad[i];
        }
      }
      r.m.feasible = false;
      return r;
    }
    if (opt_.metric == MetricKind::kGeometric) {
      const GeometricMetricsGrad gm = geometric_metrics_grad(g, spec_);
      r.m.d_u = gm.d_u.value;
      r.m.d_g = gm.d_g.value;
      r.m.feasible = r.m.d_u > 0.0 && r.m.d_g > 0.0;
      for (std::size_t i = 0; i < d; ++i) {
        r.gu[i] = gm.d_u.grad[i];
        r.gg[i] = gm.d_g.grad[i];
      }
    } else {
      const WassersteinMetricsGrad wm =
          wasserstein_metrics_grad(g, spec_, opt_.wopt);
      r.m.d_u = wm.w_unsafe.value;
      r.m.d_g = -wm.w_goal.value;
      for (std::size_t i = 0; i < d; ++i) {
        r.gu[i] = wm.w_unsafe.grad[i];
        r.gg[i] = -wm.w_goal.grad[i];
      }
      r.m.feasible = wasserstein_feasible(g.fp);
    }
    return r;
  };

  // Scalar probe for the directional search below: the dual value channel
  // is bit-identical to the scalar verifier, so candidate metrics compare
  // exactly against the dual iterate's without a (more expensive) dual
  // pass. Probes go through verifier_ so they hit the flowpipe cache when
  // one is configured, and they count as verifier calls like SPSA probes.
  const auto timed_probe = [&](const nn::Controller& c) {
    const auto t0 = std::chrono::steady_clock::now();
    reach::Flowpipe fp = verifier_->compute(spec_.x0, c);
    const auto t1 = std::chrono::steady_clock::now();
    res.verifier_seconds += std::chrono::duration<double>(t1 - t0).count();
    ++res.verifier_calls;
    return fp;
  };

  const auto finish = [&]() -> LearnResult& {
    if (cache_) res.cache_stats = cache_->stats();
    return res;
  };

  const std::size_t attempts = std::max<std::size_t>(1, opt_.restarts);
  const std::size_t budget_per_attempt =
      std::max<std::size_t>(1, opt_.max_iters / attempts);

  Vec theta = ctrl.params();
  const auto probe_ctrl = ctrl.clone();
  std::size_t global_iter = 0;
  reach::Flowpipe last_fp;

  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      for (std::size_t i = 0; i < d; ++i) theta[i] = reinit(rng);
      ctrl.set_params(theta);
      adam.reset();
    }
    const std::size_t last_of_attempt =
        (attempt + 1 == attempts) ? opt_.max_iters
                                  : (attempt + 1) * budget_per_attempt;

    for (; global_iter <= last_of_attempt; ++global_iter) {
      const reach::GradFlowpipe& g = timed_grad(ctrl);
      const reach::Flowpipe& fp = g.fp;

      // measure_grad's values equal measure(fp)'s bit for bit, so the
      // record is filled from the dual pass without a scalar re-evaluation.
      const MeasureGrad mg = measure_grad(g);
      IterationRecord rec = to_record(global_iter, mg.m);
      if (mg.m.feasible && opt_.require_containment) {
        rec.feasible = analyze_flowpipe(fp, spec_).goal_certified;
      }
      res.history.push_back(rec);

      if (rec.feasible) {
        res.success = true;
        res.iterations = global_iter;
        res.final_flowpipe = fp;
        return finish();
      }
      if (global_iter == opt_.max_iters) {
        res.iterations = global_iter;
        res.final_flowpipe = fp;
        return finish();
      }
      if (global_iter == last_of_attempt) {
        last_fp = fp;
        break;  // restart
      }

      // Analytic ascent direction on J = alpha d_u + beta d_g (the exact
      // gradient SPSA's difference method estimates).
      Vec grad(d);
      for (std::size_t i = 0; i < d; ++i) {
        grad[i] = opt_.alpha * mg.gu[i] + opt_.beta * mg.gg[i];
      }

      if (opt_.use_adam) {
        theta += adam.step(-1.0 * grad);
      } else {
        // Feasibility-seeking ascent on the two SEPARATE analytic
        // gradients — structure SPSA's scalar difference quotient cannot
        // see. While the pipe violates safety (d_u <= 0), climb d_u; once
        // safe, climb d_g along the direction whose safety-eroding
        // component (negative projection onto grad d_u) is removed, so
        // goal progress does not march back into the unsafe basin. The
        // initial step size predicts the deficient metric's zero crossing
        // first-order (capped at step_size), and an accepted step marches
        // on along the same fixed direction with cheap scalar probes until
        // improvement stops — one dual pass serves several parameter
        // updates. When not even the deepest backtracked step improves,
        // the iterate sits against a basin boundary the gradient points
        // across: take the full step as an escape move.
        const bool unsafe = mg.m.d_u <= 0.0;
        // Late-stage objective for containment-constrained runs: the
        // overlap measure d_g stops being informative once the pipe meets
        // the goal (a fat, partially-overlapping step set scores HIGHER
        // than a contracted, fully-contained one), so once safety AND
        // goal overlap hold, climb the containment margin — distance of
        // the best step set's worst face INTO the goal box — read from
        // the same dual pass. Positive margin IS goal containment. Far
        // from the goal the margin's single binding face zigzags, so the
        // aggregate overlap/distance gradient drives that stage instead.
        Vec margin_dir(d);
        double margin_val = 0.0;
        bool on_margin = false;
        if (!unsafe && mg.m.d_g > 0.0 && opt_.require_containment &&
            g.fp.valid) {
          const MetricGrad cm = goal_containment_margin_grad(g, spec_);
          for (std::size_t i = 0; i < d; ++i) margin_dir[i] = cm.grad[i];
          margin_val = cm.value;
          on_margin = margin_dir.norm_inf() > 0.0;
        }
        Vec dir = unsafe ? mg.gu : (on_margin ? margin_dir : mg.gg);
        if (unsafe && dir.norm_inf() == 0.0) dir = mg.gg;
        // On margin iterations both analytic gradients pin down a proper
        // Newton (SQP) step for the two-constraint local model
        //   gu . delta = 0         (hold the safety level to first order)
        //   gm . delta = deficit   (close the containment gap)
        // solved in span{gu, gm} through the 2x2 Gram system. This walks
        // ALONG the curved safe/contained ridge instead of zigzagging
        // across it — the structural payoff of having separate gradients
        // where SPSA only sees one scalar difference quotient.
        bool sqp = false;
        if (on_margin) {
          double guu = 0.0, gum = 0.0, gmm = 0.0;
          for (std::size_t i = 0; i < d; ++i) {
            guu += mg.gu[i] * mg.gu[i];
            gum += mg.gu[i] * margin_dir[i];
            gmm += margin_dir[i] * margin_dir[i];
          }
          const double det = guu * gmm - gum * gum;
          if (det > 1e-12 * guu * gmm) {
            const double deficit_m = -margin_val + 1e-3;
            const double b = deficit_m * guu / det;
            const double a = -gum * deficit_m / det;
            Vec delta(d);
            for (std::size_t i = 0; i < d; ++i) {
              delta[i] = a * mg.gu[i] + b * margin_dir[i];
            }
            if (delta.norm_inf() > 0.0) {
              dir = delta;
              sqp = true;
            }
          }
        }
        if (!unsafe && !sqp) {
          double uu = 0.0, ug = 0.0;
          for (std::size_t i = 0; i < d; ++i) {
            uu += mg.gu[i] * mg.gu[i];
            ug += mg.gg[i] * mg.gu[i];
          }
          if (uu > 0.0 && ug < 0.0) {
            const double along = ug / uu;
            for (std::size_t i = 0; i < d; ++i) dir[i] -= along * mg.gu[i];
          }
        }
        const double gn = dir.norm_inf();
        if (gn > 0.0) {
          const double step =
              opt_.step_size /
              (1.0 + opt_.step_decay * static_cast<double>(global_iter));
          double s = step;
          if (sqp) {
            // The Newton step's own length, capped against wild
            // extrapolation far outside the local model's validity.
            s = std::min(gn, 4.0 * step);
          } else {
            const Vec& ag = unsafe ? mg.gu : (on_margin ? margin_dir : mg.gg);
            double dd = 0.0;
            for (std::size_t i = 0; i < d; ++i) dd += ag[i] * dir[i];
            dd /= gn;
            const double deficit =
                unsafe ? -mg.m.d_u : (on_margin ? -margin_val : -mg.m.d_g);
            if (dd > 0.0 && deficit > 0.0) {
              s = std::min(step, 2.0 * deficit / dd);
            }
          }
          bool moved = false;
          double cu = mg.m.d_u;
          // The goal-side acceptance value tracks whichever objective the
          // direction climbs: the containment margin on margin iterations,
          // the overlap measure otherwise.
          double cg = on_margin ? margin_val : mg.m.d_g;
          for (int bt = 0; bt < 8; ++bt) {
            const Vec cand = theta + (s / gn) * dir;
            probe_ctrl->set_params(cand);
            const reach::Flowpipe pfp = timed_probe(*probe_ctrl);
            const MetricPair pm = measure(pfp);
            // A probe that already meets the full success predicate ends
            // the march on the spot: the next dual iterate re-verifies it
            // and returns. Without this, containment-constrained runs keep
            // optimizing the metrics long after a certified candidate
            // slipped past mid-march.
            if (pm.feasible && pfp.valid &&
                (!opt_.require_containment ||
                 analyze_flowpipe(pfp, spec_).goal_certified)) {
              theta = cand;
              moved = true;
              break;
            }
            const double pg =
                on_margin ? goal_containment_margin(pfp, spec_) : pm.d_g;
            const bool ok = cu <= 0.0 ? pm.d_u > cu : (pm.d_u > 0.0 && pg > cg);
            if (ok) {
              theta = cand;
              moved = true;
              cu = pm.d_u;
              cg = pg;
              continue;  // march on along the same direction
            }
            if (moved) break;  // first failed continuation ends the march
            s *= 0.5;
          }
          if (!moved) theta += (step / gn) * dir;
        }
      }
      ctrl.set_params(theta);
    }
  }
  res.iterations = std::min(global_iter, opt_.max_iters);
  if (!res.history.empty()) res.final_flowpipe = std::move(last_fp);
  return finish();
}

LearnResult Learner::learn(nn::Controller& ctrl) const {
  if (opt_.grad) {
    const reach::TmVerifier* tv = grad_target();
    const char* why =
        tv == nullptr
            ? "verifier is not a Taylor-model verifier"
            : reach::TmGradient::unsupported_reason(*tv, ctrl);
    if (why == nullptr && opt_.metric == MetricKind::kWasserstein &&
        opt_.wopt.use_sinkhorn) {
      why = "Sinkhorn Wasserstein provides no exact transport plan";
    }
    if (why == nullptr) return learn_grad(ctrl, *tv);
    std::fprintf(stderr,
                 "dwv: analytic gradient unavailable (%s); "
                 "falling back to SPSA\n",
                 why);
  }

  std::mt19937_64 rng(opt_.seed);
  std::bernoulli_distribution coin(0.5);
  std::normal_distribution<double> reinit(0.0, opt_.restart_scale);

  LearnResult res;
  const std::size_t d = ctrl.param_count();
  nn::Adam adam(d, opt_.adam_lr);

  const auto timed_compute = [&](const nn::Controller& c) {
    const auto t0 = std::chrono::steady_clock::now();
    reach::Flowpipe fp = verifier_->compute(spec_.x0, c);
    const auto t1 = std::chrono::steady_clock::now();
    res.verifier_seconds +=
        std::chrono::duration<double>(t1 - t0).count();
    ++res.verifier_calls;
    return fp;
  };

  const auto objective = [&](const MetricPair& m) {
    return opt_.alpha * m.d_u + opt_.beta * m.d_g;
  };

  // Stamps the cache counters onto the result at every return site (the
  // cache is cumulative across learn() calls on a shared verifier; the
  // snapshot reports its state at the end of this run).
  const auto finish = [&]() -> LearnResult& {
    if (cache_) res.cache_stats = cache_->stats();
    return res;
  };

  // Evaluates a batch of probe parameter vectors, concurrently when
  // opt_.threads allows. Each task clones the controller and writes into
  // its own index slot; timing and call counts are folded back here in
  // index order, so serial and parallel runs agree bitwise on everything
  // the gradient consumes. With opt_.batch != 1 and a groupable
  // verifier, probes go through the BatchVerifier in groups of the lane
  // width — same per-probe arithmetic, so the objectives (and hence
  // theta) match the per-probe path bit for bit.
  const reach::BatchVerifier bv(verifier_.get(), opt_.batch);
  const auto measure_probes = [&](const std::vector<Vec>& thetas) {
    std::vector<double> obj(thetas.size());
    std::vector<double> secs(thetas.size());
    if (bv.batched()) {
      const std::size_t width = bv.batch();
      const std::size_t groups = (thetas.size() + width - 1) / width;
      parallel::parallel_for(opt_.threads, groups, [&](std::size_t g) {
        const std::size_t lo = g * width;
        const std::size_t hi = std::min(lo + width, thetas.size());
        std::vector<nn::ControllerPtr> probes;
        std::vector<reach::BatchJob> jobs;
        probes.reserve(hi - lo);
        jobs.reserve(hi - lo);
        for (std::size_t i = lo; i < hi; ++i) {
          probes.push_back(ctrl.clone());
          probes.back()->set_params(thetas[i]);
          jobs.push_back({spec_.x0, probes.back().get()});
        }
        const auto t0 = std::chrono::steady_clock::now();
        const std::vector<reach::Flowpipe> fps = bv.compute(jobs);
        const auto t1 = std::chrono::steady_clock::now();
        // Whole-group wall time charged to the group's first slot.
        secs[lo] = std::chrono::duration<double>(t1 - t0).count();
        for (std::size_t i = lo; i < hi; ++i)
          obj[i] = objective(measure(fps[i - lo]));
      });
    } else {
      parallel::parallel_for(
          opt_.threads, thetas.size(), [&](std::size_t i) {
            auto probe = ctrl.clone();
            probe->set_params(thetas[i]);
            const auto t0 = std::chrono::steady_clock::now();
            const reach::Flowpipe fp = verifier_->compute(spec_.x0, *probe);
            const auto t1 = std::chrono::steady_clock::now();
            secs[i] = std::chrono::duration<double>(t1 - t0).count();
            obj[i] = objective(measure(fp));
          });
    }
    for (double s : secs) res.verifier_seconds += s;
    res.verifier_calls += thetas.size();
    return obj;
  };

  const std::size_t attempts = std::max<std::size_t>(1, opt_.restarts);
  const std::size_t budget_per_attempt =
      std::max<std::size_t>(1, opt_.max_iters / attempts);

  Vec theta = ctrl.params();
  std::size_t global_iter = 0;
  // Last flowpipe of a main (unperturbed) iterate; reported when every
  // restart is exhausted so callers still see the final reachable set.
  reach::Flowpipe last_fp;

  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      // Random re-initialization (Algorithm 1 line 1).
      for (std::size_t i = 0; i < d; ++i) theta[i] = reinit(rng);
      ctrl.set_params(theta);
      adam.reset();
    }
    const std::size_t last_of_attempt =
        (attempt + 1 == attempts) ? opt_.max_iters
                                  : (attempt + 1) * budget_per_attempt;

    for (; global_iter <= last_of_attempt; ++global_iter) {
      const reach::Flowpipe fp = timed_compute(ctrl);

      // One metric evaluation per iterate: the active family drives the
      // update and feasibility, and is the family the history records.
      IterationRecord rec = to_record(global_iter, measure(fp));
      if (rec.feasible && opt_.require_containment) {
        rec.feasible = analyze_flowpipe(fp, spec_).goal_certified;
      }
      res.history.push_back(rec);

      if (rec.feasible) {
        res.success = true;
        res.iterations = global_iter;
        res.final_flowpipe = fp;
        return finish();
      }
      if (global_iter == opt_.max_iters) {
        res.iterations = global_iter;
        res.final_flowpipe = fp;
        return finish();
      }
      if (global_iter == last_of_attempt) {
        last_fp = fp;
        break;  // restart
      }

      // --- Difference-method gradient approximation (Eq. 5) ---
      // With a shared perturbation p, Algorithm 1's line-6 update
      // theta += alpha grad(d_u) + beta grad(d_g) equals SPSA ascent on
      // the combined objective J = alpha d_u + beta d_g.
      //
      // Every probe below is an independent verifier call, so the batch is
      // evaluated through measure_probes (parallel when opt_.threads > 1).
      // All RNG draws happen up front on this thread, in the same order
      // the serial code consumed them, and the gradient is accumulated in
      // sample order — bit-identical results at any thread count.
      const double p = opt_.perturbation;
      Vec grad(d);
      switch (opt_.gradient) {
        case GradientMode::kSpsa:
        case GradientMode::kSpsaAveraged: {
          const std::size_t samples =
              opt_.gradient == GradientMode::kSpsaAveraged ? opt_.spsa_samples
                                                           : 1;
          std::vector<Vec> deltas(samples, Vec(d));
          for (Vec& delta : deltas)
            for (std::size_t i = 0; i < d; ++i)
              delta[i] = coin(rng) ? 1.0 : -1.0;
          std::vector<Vec> thetas;
          thetas.reserve(2 * samples);
          for (const Vec& delta : deltas) {
            Vec tp = theta;
            Vec tm = theta;
            for (std::size_t i = 0; i < d; ++i) {
              tp[i] += p * delta[i];
              tm[i] -= p * delta[i];
            }
            thetas.push_back(std::move(tp));
            thetas.push_back(std::move(tm));
          }
          const std::vector<double> j = measure_probes(thetas);
          for (std::size_t s = 0; s < samples; ++s) {
            const double jp = j[2 * s];
            const double jm = j[2 * s + 1];
            for (std::size_t i = 0; i < d; ++i) {
              grad[i] += (jp - jm) / (2.0 * p * deltas[s][i]);
            }
          }
          if (opt_.gradient == GradientMode::kSpsaAveraged) {
            grad /= static_cast<double>(samples);
          }
          break;
        }
        case GradientMode::kCoordinate: {
          std::vector<Vec> thetas;
          thetas.reserve(2 * d);
          for (std::size_t i = 0; i < d; ++i) {
            Vec tp = theta;
            Vec tm = theta;
            tp[i] += p;
            tm[i] -= p;
            thetas.push_back(std::move(tp));
            thetas.push_back(std::move(tm));
          }
          const std::vector<double> j = measure_probes(thetas);
          for (std::size_t i = 0; i < d; ++i) {
            grad[i] = (j[2 * i] - j[2 * i + 1]) / (2.0 * p);
          }
          break;
        }
      }

      // Ascent step (Algorithm 1 line 6).
      if (opt_.use_adam) {
        theta += adam.step(-1.0 * grad);  // Adam descends; negate.
      } else {
        const double gn = grad.norm_inf();
        if (gn > 0.0) {
          const double step =
              opt_.step_size /
              (1.0 + opt_.step_decay * static_cast<double>(global_iter));
          theta += (step / gn) * grad;
        }
      }
      ctrl.set_params(theta);
    }
  }
  res.iterations = std::min(global_iter, opt_.max_iters);
  // All restarts exhausted: report the last real flowpipe (not a blank
  // default) so export/plot consumers still see the final reachable set.
  if (!res.history.empty()) res.final_flowpipe = std::move(last_fp);
  return finish();
}

}  // namespace dwv::core
