// A forwarding verifier that names no plant. The X_I search cannot run a
// centre rollout through it, so it sends every cell to the verifier:
// tests use it as the unpruned reference of the falsify-first search, and
// to keep searches over trees where every cell is falsified exercising the
// verify path.
#pragma once

#include <string>

#include "reach/verifier.hpp"

namespace dwv::test {

class PlantlessVerifier final : public reach::Verifier {
 public:
  /// `inner` is borrowed and must outlive this object.
  explicit PlantlessVerifier(const reach::Verifier& inner) : inner_(&inner) {}

  std::string name() const override { return inner_->name(); }
  std::uint64_t cache_salt() const override { return inner_->cache_salt(); }
  reach::Flowpipe compute(const geom::Box& x0,
                          const nn::Controller& ctrl) const override {
    return inner_->compute(x0, ctrl);
  }

 private:
  const reach::Verifier* inner_;
};

}  // namespace dwv::test
