// Microbenchmarks for the packed-monomial polynomial kernel: raw polynomial
// multiply/compose, the same operations on the retained map-based reference
// implementation (the pre-packing representation), and the Taylor-model
// flowpipe step that dominates verifier runtime. Results are printed as a
// table and written to BENCH_poly_kernel.json.
//
// The tm_mul_o3 rows time the truncating Taylor-model multiply against the
// same product formed in full and swept by degree, and exit nonzero when
// the two differ in any bit.
//
//   $ ./bench_poly_kernel
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "poly/poly.hpp"
#include "poly/poly_ref.hpp"
#include "reach/tm_dynamics.hpp"
#include "reach/tm_flowpipe.hpp"
#include "taylor/taylor_model.hpp"

using namespace dwv;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Results {
  std::vector<std::pair<std::string, double>> rows;  // name -> ns/op

  void add(const std::string& name, double ns) {
    rows.emplace_back(name, ns);
    std::printf("%-28s %12.1f ns/op\n", name.c_str(), ns);
  }

  /// Same-run before/after ratio (e.g. mapref ns over packed ns). Ratios
  /// transfer across machines, so these are the keys the CI regression
  /// gate (tools/check_bench_regression.py) compares.
  void add_ratio(const std::string& name, double r) {
    rows.emplace_back(name, r);
    std::printf("%-28s %12.2f x\n", name.c_str(), r);
  }

  void write_json(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (!f) return;
    std::fprintf(f, "{\n  \"bench\": \"poly_kernel\",\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const bool ratio = rows[i].first.ends_with("_speedup");
      std::fprintf(f, "  \"%s\": %.*f%s\n", rows[i].first.c_str(),
                   ratio ? 2 : 1, rows[i].second,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
  }
};

// Times `reps` invocations of `fn` and returns ns per invocation. A short
// warm-up run fills caches/scratch before the measured pass.
template <typename Fn>
double time_ns(std::size_t reps, Fn&& fn) {
  for (std::size_t i = 0; i < reps / 10 + 1; ++i) fn();
  const double t0 = now_seconds();
  for (std::size_t i = 0; i < reps; ++i) fn();
  return (now_seconds() - t0) * 1e9 / static_cast<double>(reps);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Times `base` against `test` in alternating blocks, reps calls each side
// in all, and records <tag>_<base_name> and <tag>_<test_name> (median
// ns/op per block) and <tag>_speedup, the median of the per-round ratios
// base/test. A drift in machine speed hits both blocks of a round alike,
// so the ratio holds still where two separately timed passes would not.
template <typename Base, typename Test>
void time_pair(Results& out, const std::string& tag,
               const std::string& base_name, Base&& base,
               const std::string& test_name, Test&& test, std::size_t reps) {
  constexpr int kRounds = 15;
  const std::size_t block = reps / kRounds + 1;
  std::vector<double> tb, tt, ratio;
  for (int r = 0; r < kRounds; ++r) {
    // Alternate which side runs first so neither always follows the other.
    const double first = time_ns(block, [&] { r % 2 ? test() : base(); });
    const double second = time_ns(block, [&] { r % 2 ? base() : test(); });
    tb.push_back(r % 2 ? second : first);
    tt.push_back(r % 2 ? first : second);
    ratio.push_back(tb.back() / tt.back());
  }
  out.add(tag + "_" + base_name, median(tb));
  out.add(tag + "_" + test_name, median(tt));
  out.add_ratio(tag + "_speedup", median(ratio));
}

// The hot polynomial shape in the verifiers: 3 variables (2 state + 1
// control or 2 set vars + time), ~8 terms, total degree <= 3.
poly::Poly make_poly(std::uint64_t seed, std::size_t nvars,
                     std::size_t terms, std::uint32_t max_per_var) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coeff(-1.5, 1.5);
  poly::Poly p(nvars);
  for (std::size_t t = 0; t < terms; ++t) {
    poly::Exponents e(nvars);
    for (auto& x : e)
      x = static_cast<std::uint32_t>(rng() % (max_per_var + 1));
    p.add_term(e, coeff(rng));
  }
  return p;
}

// Every monomial of total degree <= order, with random coefficients: a
// Taylor-model polynomial once the Picard passes have filled it.
poly::Poly make_dense_poly(std::uint64_t seed, std::size_t nvars,
                           std::uint32_t order) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coeff(-1.5, 1.5);
  poly::Poly p(nvars);
  poly::Exponents e(nvars, 0);
  while (true) {
    if (poly::total_degree(e) <= order) p.add_term(e, coeff(rng));
    std::size_t i = 0;  // odometer over [0, order]^nvars
    while (i < nvars && e[i] == order) e[i++] = 0;
    if (i == nvars) break;
    ++e[i];
  }
  return p;
}

double g_sink = 0.0;  // defeat dead-code elimination

void bench_poly_ops(Results& out) {
  const poly::Poly a = make_poly(11, 3, 8, 2);
  const poly::Poly b = make_poly(17, 3, 8, 2);
  std::vector<poly::Poly> subs;
  for (std::uint64_t i = 0; i < 3; ++i)
    subs.push_back(make_poly(23 + i, 3, 4, 1));

  // The same workloads on the retained map-based representation — the exact
  // data structure the kernel replaced, kept as the differential oracle.
  const poly::ref::RefPoly ra = poly::ref::to_ref(a);
  const poly::ref::RefPoly rb = poly::ref::to_ref(b);
  std::vector<poly::ref::RefPoly> rsubs;
  for (const auto& s : subs) rsubs.push_back(poly::ref::to_ref(s));

  time_pair(out, "poly_mul", "mapref", [&] {
    const poly::ref::RefPoly c = ra * rb;
    g_sink += c.max_abs_coeff();
  }, "packed", [&] {
    const poly::Poly c = a * b;
    g_sink += c.max_abs_coeff();
  }, 100000);
  time_pair(out, "poly_compose", "mapref", [&] {
    const poly::ref::RefPoly c = ra.compose(rsubs);
    g_sink += c.max_abs_coeff();
  }, "packed", [&] {
    const poly::Poly c = a.compose(subs);
    g_sink += c.max_abs_coeff();
  }, 20000);
}

// One validated Taylor-model integration step of a 2-D polynomial system
// under constant control — the inner loop of every TM verifier call.
struct StepWorkload {
  taylor::TmEnv env;
  taylor::TmVec state;
  taylor::TmVec control;
  reach::PolyTmDynamics dyn;
  reach::TmReachOptions opt;

  StepWorkload()
      : dyn([] {
          poly::Poly f0(3);
          f0.add_term({0, 1, 0}, 1.0);
          poly::Poly f1(3);
          f1.add_term({1, 0, 0}, -1.0);
          f1.add_term({0, 1, 0}, -0.5);
          f1.add_term({1, 1, 0}, 0.1);
          f1.add_term({0, 0, 1}, 1.0);
          return std::vector<poly::Poly>{f0, f1};
        }()) {
    env.dom = interval::IVec(2, interval::Interval(-0.1, 0.1));
    env.order = 3;
    env.cutoff = 1e-12;
    state.push_back(taylor::TaylorModel::variable(env, 0));
    state.push_back(taylor::TaylorModel::variable(env, 1));
    control.push_back(taylor::TaylorModel::constant(env, 0.25));
  }
};

void bench_tm_step(Results& out) {
  StepWorkload w;
  out.add("tm_flowpipe_step", time_ns(2000, [&] {
            const reach::TmStepResult r = reach::tm_integrate_step(
                w.env, w.state, w.control, w.dyn, 0.05, w.opt);
            g_sink += r.tube_range[0].hi();
          }));

  // Steady-state variant: warm out-parameter buffers, zero heap
  // allocations per step.
  reach::TmStepResult res;
  out.add("tm_flowpipe_step_steady", time_ns(2000, [&] {
            reach::tm_integrate_step(w.env, w.state, w.control, w.dyn, 0.05,
                                     w.opt, res);
            g_sink += res.tube_range[0].hi();
          }));
}

bool same_tm(const taylor::TaylorModel& x, const taylor::TaylorModel& y) {
  const auto b = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return x.poly.terms() == y.poly.terms() && b(x.rem.lo()) == b(y.rem.lo()) &&
         b(x.rem.hi()) == b(y.rem.hi());
}

// An order-3 product over 3 variables (2 set variables + time), the shape
// of the Picard passes: tm_mul_into truncates inside the multiply, against
// the same product formed in full and then swept by degree. Both channels:
// full (kept and dropped parts, tail ranges) and poly_only. Returns false
// when the fused result differs from the swept one in any bit.
bool bench_tm_mul(Results& out) {
  taylor::TmEnv env;
  env.dom = interval::IVec(3, interval::Interval(-0.1, 0.1));
  env.order = 3;
  env.cutoff = 1e-12;
  const taylor::TaylorModel a3{make_dense_poly(31, 3, 3),
                               interval::Interval(-1e-6, 1e-6)};
  const taylor::TaylorModel b3{make_dense_poly(37, 3, 3),
                               interval::Interval(-2e-6, 2e-6)};

  taylor::TmScratch& s = env.scratch();
  taylor::TaylorModel fused, swept;
  bool same = true;
  for (const bool poly_only : {false, true}) {
    s.poly_only = poly_only;
    const auto run_fused = [&] { taylor::tm_mul_into(env, a3, b3, fused); };
    const auto run_swept = [&] {
      poly::Poly::mul_into(a3.poly, b3.poly, swept.poly, s.pscratch);
      if (poly_only) {
        swept.rem = interval::Interval(0.0);
        swept.poly.truncate_discard(env.order, env.cutoff);
        return;
      }
      const interval::Interval ra = env.poly_range(a3.poly);
      const interval::Interval rb = env.poly_range(b3.poly);
      swept.rem = ra * b3.rem + rb * a3.rem + a3.rem * b3.rem;
      taylor::tm_truncate_inplace(env, swept);
    };
    run_fused();
    run_swept();
    same = same && same_tm(fused, swept);
    time_pair(out, poly_only ? "tm_mul_o3_poly_only" : "tm_mul_o3", "swept",
              [&] {
                run_swept();
                g_sink += swept.rem.hi();
              },
              "fused",
              [&] {
                run_fused();
                g_sink += fused.rem.hi();
              },
              100000);
  }
  s.poly_only = false;
  return same;
}

}  // namespace

int main() {
  std::printf("packed-monomial kernel microbenchmarks\n");
  std::printf("--------------------------------------\n");
  Results out;
  bench_poly_ops(out);
  const bool tm_mul_same = bench_tm_mul(out);
  bench_tm_step(out);
  out.write_json("BENCH_poly_kernel.json");
  std::printf("\nwrote BENCH_poly_kernel.json (sink %.3g)\n", g_sink);
  if (!tm_mul_same) {
    std::fprintf(stderr,
                 "FAIL: truncating tm_mul_into differs from the swept "
                 "product\n");
    return 1;
  }
  return 0;
}
