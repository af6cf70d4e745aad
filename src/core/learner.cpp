#include "core/learner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "core/grad_metrics.hpp"
#include "parallel/pool.hpp"
#include "reach/batch.hpp"
#include "reach/grad_flowpipe.hpp"
#include "reach/serialize.hpp"
#include "reach/tm_flowpipe.hpp"

namespace dwv::core {

using linalg::Vec;

namespace {

// Calls f() and adds its wall time to `seconds`: the one timer around every
// verifier call the learner makes.
template <class F>
auto timed(double& seconds, F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  auto r = f();
  const auto t1 = std::chrono::steady_clock::now();
  seconds += std::chrono::duration<double>(t1 - t0).count();
  return r;
}

}  // namespace

std::string to_string(MetricKind m) {
  return m == MetricKind::kGeometric ? "geometric" : "wasserstein";
}

LearnerOptions LearnerOptions::validated() const {
  if (!std::isfinite(perturbation) || perturbation <= 0.0) {
    throw std::invalid_argument(
        "LearnerOptions: perturbation must be finite and positive");
  }
  if (!std::isfinite(step_size) || step_size <= 0.0) {
    throw std::invalid_argument(
        "LearnerOptions: step_size must be finite and positive");
  }
  // std::normal_distribution requires a positive standard deviation.
  if (!std::isfinite(restart_scale) || restart_scale <= 0.0) {
    throw std::invalid_argument(
        "LearnerOptions: restart_scale must be finite and positive");
  }
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

reach::Flowpipe Learner::call(const nn::Controller& c,
                              LearnResult& res) const {
  ++res.verifier_calls;
  return timed(res.verifier_seconds,
               [&] { return verifier_->compute(spec_.x0, c); });
}

// Difference-method direction source (Eq. 5, Fig. 2). With a shared
// perturbation p, Algorithm 1's line-6 update theta += alpha grad(d_u) +
// beta grad(d_g) equals SPSA ascent on the combined objective
// J = alpha d_u + beta d_g, so the source estimates grad J from probe pairs
// and steps theta += step_size * g / |g|_inf.
struct Learner::SpsaSource {
  const Learner& l;
  const nn::Controller& ctrl;  ///< the learned controller, cloned per probe
  const reach::BatchVerifier bv;
  std::bernoulli_distribution coin{0.5};
  reach::Flowpipe fp;  ///< the current iterate's pipe

  SpsaSource(const Learner& learner, const nn::Controller& c)
      : l(learner), ctrl(c), bv(learner.verifier_.get(), learner.opt_.batch) {}

  const reach::Flowpipe& pipe() const { return fp; }

  MetricPair evaluate(const nn::Controller& c, LearnResult& res) {
    fp = l.call(c, res);
    return l.measure(fp);
  }

  // Objectives J of a batch of probe parameter vectors, concurrently when
  // opt_.threads allows. Each task clones the controller and writes into
  // its own index slot; timing and call counts are folded back here in
  // index order, so serial and parallel runs agree bitwise on everything
  // the gradient consumes. With opt_.batch != 1 and a groupable verifier,
  // probes go through the BatchVerifier in groups of the lane width — same
  // per-probe arithmetic, so the objectives (and hence theta) match the
  // per-probe path bit for bit.
  std::vector<double> objectives(const std::vector<Vec>& thetas,
                                 LearnResult& res) const {
    const auto objective = [&](const reach::Flowpipe& p) {
      const MetricPair m = l.measure(p);
      return l.opt_.alpha * m.d_u + l.opt_.beta * m.d_g;
    };
    std::vector<double> obj(thetas.size());
    std::vector<double> secs(thetas.size());
    if (bv.batched()) {
      const std::size_t width = bv.batch();
      const std::size_t groups = (thetas.size() + width - 1) / width;
      parallel::parallel_for(l.opt_.threads, groups, [&](std::size_t g) {
        const std::size_t lo = g * width;
        const std::size_t hi = std::min(lo + width, thetas.size());
        std::vector<nn::ControllerPtr> probes;
        std::vector<reach::BatchJob> jobs;
        probes.reserve(hi - lo);
        jobs.reserve(hi - lo);
        for (std::size_t i = lo; i < hi; ++i) {
          probes.push_back(ctrl.clone());
          probes.back()->set_params(thetas[i]);
          jobs.push_back({l.spec_.x0, probes.back().get()});
        }
        // Whole-group wall time charged to the group's first slot.
        const std::vector<reach::Flowpipe> fps =
            timed(secs[lo], [&] { return bv.compute(jobs); });
        for (std::size_t i = lo; i < hi; ++i) obj[i] = objective(fps[i - lo]);
      });
    } else {
      parallel::parallel_for(
          l.opt_.threads, thetas.size(), [&](std::size_t i) {
            auto probe = ctrl.clone();
            probe->set_params(thetas[i]);
            obj[i] = objective(timed(secs[i], [&] {
              return l.verifier_->compute(l.spec_.x0, *probe);
            }));
          });
    }
    for (double s : secs) res.verifier_seconds += s;
    res.verifier_calls += thetas.size();
    return obj;
  }

  // All RNG draws happen up front on this thread, in the order the serial
  // code consumed them, and the gradient is accumulated in sample order —
  // bit-identical results at any thread count.
  void ascend(Vec& theta, std::mt19937_64& rng, LearnResult& res) {
    const std::size_t d = theta.size();
    const double p = l.opt_.perturbation;
    Vec grad(d);
    switch (l.opt_.gradient) {
      case GradientMode::kSpsa:
      case GradientMode::kSpsaAveraged: {
        const std::size_t samples =
            l.opt_.gradient == GradientMode::kSpsaAveraged
                ? l.opt_.spsa_samples
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
        const std::vector<double> j = objectives(thetas, res);
        for (std::size_t s = 0; s < samples; ++s) {
          const double jp = j[2 * s];
          const double jm = j[2 * s + 1];
          for (std::size_t i = 0; i < d; ++i) {
            grad[i] += (jp - jm) / (2.0 * p * deltas[s][i]);
          }
        }
        if (l.opt_.gradient == GradientMode::kSpsaAveraged) {
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
        const std::vector<double> j = objectives(thetas, res);
        for (std::size_t i = 0; i < d; ++i) {
          grad[i] = (j[2 * i] - j[2 * i + 1]) / (2.0 * p);
        }
        break;
      }
    }
    const double gn = grad.norm_inf();
    if (gn > 0.0) theta += (l.opt_.step_size / gn) * grad;
  }
};

// Analytic direction source (reach::TmGradient): one dual pass per iterate
// yields the pipe and the exact gradients of d_u and d_g, and the ascent
// climbs them separately with scalar probes — structure SPSA's single
// difference quotient cannot see. It draws nothing from the run's RNG.
struct Learner::DualSource {
  struct KeyHash {
    std::size_t operator()(const reach::FlowpipeCache::Key& k) const {
      return static_cast<std::size_t>(k.hash);
    }
  };

  const Learner& l;
  const reach::TmGradient engine;
  /// Key id of the per-run memo below: the verifier's cache salt XOR the
  /// record kind. It leaves out the controller's structure, which is fixed
  /// within a run; persistent records are keyed by key_for instead.
  const std::uint64_t grad_id;
  /// Per-run memo of dual passes: restarts and stalled ascent revisit
  /// parameter vectors exactly, and the dual pass is deterministic.
  std::unordered_map<reach::FlowpipeCache::Key, reach::GradFlowpipe, KeyHash>
      memo;
  const reach::CachingVerifier* cv;
  const nn::ControllerPtr probe;
  const reach::GradFlowpipe* g = nullptr;  ///< the current iterate's pass
  MetricPair m;                            ///< its metrics
  Vec gu, gg;  ///< d(d_u)/d(theta), d(d_g)/d(theta)

  DualSource(const Learner& learner, const nn::Controller& ctrl,
             const reach::TmVerifier& tv)
      : l(learner),
        engine(tv),
        grad_id(tv.cache_salt() ^ reach::kGradRecordKind),
        cv(dynamic_cast<const reach::CachingVerifier*>(
            learner.verifier_.get())),
        probe(ctrl.clone()) {}

  const reach::Flowpipe& pipe() const { return g->fp; }

  // The dual pass of `c`: read from the persistent tier when it holds
  // one, otherwise computed and appended there.
  reach::GradFlowpipe pass(const nn::Controller& c) const {
    if (cv == nullptr) return engine.compute(l.spec_.x0, c);
    reach::FlowpipeCache& cache = *cv->cache();
    reach::GradFlowpipe out;
    if (cache.has_disk_tier()) {
      const auto key = cv->key_for(l.spec_.x0, c, reach::kGradRecordKind);
      const auto parse = [&](reach::ser::Reader& r) {
        return reach::ser::get(r, out, c.param_count());
      };
      if (!cache.lookup_record(key, parse)) {
        double s = 0.0;
        out = timed(s, [&] { return engine.compute(l.spec_.x0, c); });
        cache.add_miss_compute_seconds(s);
        reach::ser::Writer w;
        reach::ser::put(w, out);
        cache.insert_record(key, w.bytes());
      }
    } else {
      out = engine.compute(l.spec_.x0, c);
    }
    // The value channel is bit-identical to tv.compute, so the shared
    // flowpipe cache can serve it to scalar callers.
    cache.insert(cv->key_for(l.spec_.x0, c), out.fp);
    return out;
  }

  // The metric values equal measure(fp)'s bit for bit (negation is exact),
  // so the record is filled from the dual pass without a scalar
  // re-evaluation.
  MetricPair evaluate(const nn::Controller& c, LearnResult& res) {
    const auto key =
        reach::FlowpipeCache::make_key(grad_id, l.spec_.x0, c.params());
    auto it = memo.find(key);
    if (it == memo.end()) {
      reach::GradFlowpipe fresh =
          timed(res.verifier_seconds, [&] { return pass(c); });
      it = memo.emplace(key, std::move(fresh)).first;
    }
    ++res.verifier_calls;  // one dual pass is the iterate's verifier call
    g = &it->second;

    const bool geo = l.opt_.metric == MetricKind::kGeometric;
    MetricGrad up, goal;  // d_u and the goal metric (d_g, or w_goal)
    if (geo) {
      GeometricMetricsGrad gm = g->fp.valid
                                    ? geometric_metrics_grad(*g, l.spec_)
                                    : geometric_penalty_grad(l.spec_, *g);
      up = std::move(gm.d_u);
      goal = std::move(gm.d_g);
    } else {
      WassersteinMetricsGrad wm =
          g->fp.valid ? wasserstein_metrics_grad(*g, l.spec_, l.opt_.wopt)
                      : wasserstein_penalty_grad(l.spec_, *g);
      up = std::move(wm.w_unsafe);
      goal = std::move(wm.w_goal);
    }
    const std::size_t d = c.param_count();
    gu = Vec(d);
    gg = Vec(d);
    m.d_u = up.value;
    m.d_g = geo ? goal.value : -goal.value;
    for (std::size_t i = 0; i < d; ++i) {
      gu[i] = up.grad[i];
      gg[i] = geo ? goal.grad[i] : -goal.grad[i];
    }
    m.feasible = g->fp.valid && (geo ? m.d_u > 0.0 && m.d_g > 0.0
                                     : l.wasserstein_feasible(g->fp));
    return m;
  }

  // Feasibility-seeking ascent on the two SEPARATE analytic gradients.
  // While the pipe violates safety (d_u <= 0), climb d_u; once safe, climb
  // d_g along the direction whose safety-eroding component (negative
  // projection onto grad d_u) is removed, so goal progress does not march
  // back into the unsafe basin. The initial step size predicts the
  // deficient metric's zero crossing first-order (capped at step_size), and
  // an accepted step marches on along the same fixed direction with cheap
  // scalar probes until improvement stops — one dual pass serves several
  // parameter updates. When not even the deepest backtracked step improves,
  // the iterate sits against a basin boundary the gradient points across:
  // take the full step as an escape move.
  void ascend(Vec& theta, std::mt19937_64& /*rng*/, LearnResult& res) {
    const std::size_t d = theta.size();
    const ode::ReachAvoidSpec& spec = l.spec_;
    const bool contain = l.opt_.require_containment;
    const bool unsafe = m.d_u <= 0.0;
    // Late-stage objective for containment-constrained runs: the overlap
    // measure d_g stops being informative once the pipe meets the goal (a
    // fat, partially-overlapping step set scores HIGHER than a contracted,
    // fully-contained one), so once safety AND goal overlap hold, climb the
    // containment margin — distance of the best step set's worst face INTO
    // the goal box — read from the same dual pass. Positive margin IS goal
    // containment. Far from the goal the margin's single binding face
    // zigzags, so the aggregate overlap/distance gradient drives that stage
    // instead.
    Vec margin_dir(d);
    double margin_val = 0.0;
    bool on_margin = false;
    if (!unsafe && m.d_g > 0.0 && contain && g->fp.valid) {
      const MetricGrad cm = goal_containment_margin_grad(*g, spec);
      for (std::size_t i = 0; i < d; ++i) margin_dir[i] = cm.grad[i];
      margin_val = cm.value;
      on_margin = margin_dir.norm_inf() > 0.0;
    }
    Vec dir = unsafe ? gu : (on_margin ? margin_dir : gg);
    if (unsafe && dir.norm_inf() == 0.0) dir = gg;
    // On margin iterations both analytic gradients pin down a proper Newton
    // (SQP) step for the two-constraint local model
    //   gu . delta = 0         (hold the safety level to first order)
    //   gm . delta = deficit   (close the containment gap)
    // solved in span{gu, gm} through the 2x2 Gram system. This walks ALONG
    // the curved safe/contained ridge instead of zigzagging across it.
    bool sqp = false;
    if (on_margin) {
      double guu = 0.0, gum = 0.0, gmm = 0.0;
      for (std::size_t i = 0; i < d; ++i) {
        guu += gu[i] * gu[i];
        gum += gu[i] * margin_dir[i];
        gmm += margin_dir[i] * margin_dir[i];
      }
      const double det = guu * gmm - gum * gum;
      if (det > 1e-12 * guu * gmm) {
        const double deficit_m = -margin_val + 1e-3;
        const double b = deficit_m * guu / det;
        const double a = -gum * deficit_m / det;
        Vec delta(d);
        for (std::size_t i = 0; i < d; ++i) {
          delta[i] = a * gu[i] + b * margin_dir[i];
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
        uu += gu[i] * gu[i];
        ug += gg[i] * gu[i];
      }
      if (uu > 0.0 && ug < 0.0) {
        const double along = ug / uu;
        for (std::size_t i = 0; i < d; ++i) dir[i] -= along * gu[i];
      }
    }
    const double gn = dir.norm_inf();
    if (!(gn > 0.0)) return;
    const double step = l.opt_.step_size;
    double s = step;
    if (sqp) {
      // The Newton step's own length, capped against wild extrapolation
      // far outside the local model's validity.
      s = std::min(gn, 4.0 * step);
    } else {
      const Vec& ag = unsafe ? gu : (on_margin ? margin_dir : gg);
      double dd = 0.0;
      for (std::size_t i = 0; i < d; ++i) dd += ag[i] * dir[i];
      dd /= gn;
      const double deficit =
          unsafe ? -m.d_u : (on_margin ? -margin_val : -m.d_g);
      if (dd > 0.0 && deficit > 0.0) s = std::min(step, 2.0 * deficit / dd);
    }
    bool moved = false;
    double cu = m.d_u;
    // The goal-side acceptance value tracks whichever objective the
    // direction climbs: the containment margin on margin iterations, the
    // overlap measure otherwise.
    double cg = on_margin ? margin_val : m.d_g;
    for (int bt = 0; bt < 8; ++bt) {
      const Vec cand = theta + (s / gn) * dir;
      probe->set_params(cand);
      // Scalar probe: the dual value channel is bit-identical to the scalar
      // verifier, so candidate metrics compare exactly against the dual
      // iterate's. Probes go through verifier_ (and its cache, if any).
      const reach::Flowpipe pfp = l.call(*probe, res);
      const MetricPair pm = l.measure(pfp);
      // A probe that already meets the full success predicate ends the
      // march on the spot: the next dual iterate re-verifies it and
      // returns. Without this, containment-constrained runs keep optimizing
      // the metrics long after a certified candidate slipped past
      // mid-march.
      if (pm.feasible && pfp.valid &&
          (!contain || analyze_flowpipe(pfp, spec).goal_certified)) {
        theta = cand;
        return;
      }
      const double pg = on_margin ? goal_containment_margin(pfp, spec) : pm.d_g;
      if (cu <= 0.0 ? pm.d_u > cu : (pm.d_u > 0.0 && pg > cg)) {
        theta = cand;
        moved = true;
        cu = pm.d_u;
        cg = pg;
        continue;  // march on along the same direction
      }
      if (moved) return;  // first failed continuation ends the march
      s *= 0.5;
    }
    if (!moved) theta += (step / gn) * dir;
  }
};

template <class Source>
LearnResult Learner::run(nn::Controller& ctrl, Source& src) const {
  // The run's one RNG: re-initialization draws interleave with the
  // source's own draws (SPSA's Bernoulli signs) in iteration order.
  std::mt19937_64 rng(opt_.seed);
  std::normal_distribution<double> reinit(0.0, opt_.restart_scale);
  LearnResult res;

  // Stamps the reported pipe and the cache counters at every exit (the
  // cache is cumulative across learn() calls on a shared verifier; the
  // snapshot reports its state at the end of this run).
  const auto finish = [&](reach::Flowpipe fp) {
    res.final_flowpipe = std::move(fp);
    if (cache_) res.cache_stats = cache_->stats();
    return std::move(res);
  };

  const std::size_t attempts = std::max<std::size_t>(1, opt_.restarts);
  const std::size_t budget_per_attempt =
      std::max<std::size_t>(1, opt_.max_iters / attempts);

  Vec theta = ctrl.params();
  std::size_t global_iter = 0;
  // Last pipe of a main (unperturbed) iterate; reported when every restart
  // is exhausted so callers still see the final reachable set.
  reach::Flowpipe last_fp;

  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      // Random re-initialization (Algorithm 1 line 1).
      for (std::size_t i = 0; i < theta.size(); ++i) theta[i] = reinit(rng);
      ctrl.set_params(theta);
    }
    const std::size_t last_of_attempt =
        (attempt + 1 == attempts) ? opt_.max_iters
                                  : (attempt + 1) * budget_per_attempt;

    for (; global_iter <= last_of_attempt; ++global_iter) {
      // One metric evaluation per iterate: the active family drives the
      // update and feasibility, and is the family the history records.
      IterationRecord rec = to_record(global_iter, src.evaluate(ctrl, res));
      const reach::Flowpipe& fp = src.pipe();
      if (rec.feasible && opt_.require_containment) {
        rec.feasible = analyze_flowpipe(fp, spec_).goal_certified;
      }
      res.history.push_back(rec);

      if (rec.feasible || global_iter == opt_.max_iters) {
        res.success = rec.feasible;
        res.iterations = global_iter;
        return finish(fp);
      }
      if (global_iter == last_of_attempt) {
        last_fp = fp;
        break;  // restart
      }
      // Ascent step (Algorithm 1 line 6).
      src.ascend(theta, rng, res);
      ctrl.set_params(theta);
    }
  }
  res.iterations = std::min(global_iter, opt_.max_iters);
  return finish(std::move(last_fp));
}

LearnResult Learner::learn(nn::Controller& ctrl) const {
  // The direction source is picked once per run. The gradient
  // differentiates through the TmVerifier (the inner one under a
  // CachingVerifier); when it cannot, the run is the configured SPSA run
  // bit for bit, and the result says why.
  const char* why = nullptr;
  if (opt_.grad) {
    const reach::Verifier* v = verifier_.get();
    if (const auto* cv = dynamic_cast<const reach::CachingVerifier*>(v)) {
      v = cv->inner().get();
    }
    const auto* tv = dynamic_cast<const reach::TmVerifier*>(v);
    why = tv == nullptr ? "verifier is not a Taylor-model verifier"
                        : reach::TmGradient::unsupported_reason(*tv, ctrl);
    if (why == nullptr && opt_.metric == MetricKind::kWasserstein &&
        opt_.wopt.use_sinkhorn) {
      why = "Sinkhorn Wasserstein provides no exact transport plan";
    }
    if (why == nullptr) {
      DualSource src(*this, ctrl, *tv);
      return run(ctrl, src);
    }
  }
  SpsaSource src(*this, ctrl);
  LearnResult res = run(ctrl, src);
  if (why != nullptr) res.grad_unavailable = why;
  return res;
}

}  // namespace dwv::core
