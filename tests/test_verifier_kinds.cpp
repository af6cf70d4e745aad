#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "ode/benchmarks.hpp"
#include "reach/verifier_kinds.hpp"

namespace dwv::reach {
namespace {

// --- verifier kinds by name ---

TEST(VerifierKinds, EveryKindBuildsItsVerifier) {
  const ode::Benchmark bm = ode::make_acc_benchmark();
  TmReachOptions opt;
  opt.order = 2;
  opt.substeps = 3;
  const std::pair<const char*, const char*> table[] = {
      {"linear", "linear-zonotope"},
      {"linctrl", "tm-flowpipe(linear, order=2, substeps=3)"},
      {"poly", "tm-flowpipe(polynomial, order=2, substeps=3)"},
      {"polar", "tm-flowpipe(polar-lite, order=2, substeps=3)"},
      {"reachnn", "tm-flowpipe(reachnn-lite, order=2, substeps=3)"},
      {"interval", "tm-flowpipe(interval, order=2, substeps=3)"},
  };
  for (const auto& [kind, name] : table) {
    const VerifierPtr v = make_verifier(kind, bm.system, bm.spec, opt);
    ASSERT_NE(v, nullptr) << kind;
    EXPECT_EQ(v->name(), name) << kind;
  }
}

TEST(VerifierKinds, UnknownKindThrows) {
  const ode::Benchmark bm = ode::make_acc_benchmark();
  EXPECT_THROW(make_verifier("polr", bm.system, bm.spec),
               std::invalid_argument);
  EXPECT_THROW(make_verifier("", bm.system, bm.spec), std::invalid_argument);
}

}  // namespace
}  // namespace dwv::reach
