#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "geom/box.hpp"
#include "geom/polygon2d.hpp"
#include "geom/zonotope.hpp"

namespace dwv::geom {
namespace {

using interval::Interval;

Box box2(double x0, double x1, double y0, double y1) {
  return Box{Interval(x0, x1), Interval(y0, y1)};
}

TEST(Box, VolumeAndCenter) {
  const Box b = box2(0.0, 2.0, -1.0, 3.0);
  EXPECT_DOUBLE_EQ(b.volume(), 8.0);
  EXPECT_DOUBLE_EQ(b.center()[0], 1.0);
  EXPECT_DOUBLE_EQ(b.center()[1], 1.0);
  EXPECT_DOUBLE_EQ(b.volume_in({0}), 2.0);
}

TEST(Box, IntersectionAndContainment) {
  const Box a = box2(0, 2, 0, 2);
  const Box b = box2(1, 3, 1, 3);
  ASSERT_TRUE(a.intersects(b));
  const auto i = a.intersection(b);
  ASSERT_TRUE(i.has_value());
  EXPECT_DOUBLE_EQ(i->volume(), 1.0);
  EXPECT_TRUE(a.contains(box2(0.5, 1.5, 0.5, 1.5)));
  EXPECT_FALSE(a.contains(b));
  EXPECT_FALSE(a.intersects(box2(3, 4, 3, 4)));
}

TEST(Box, InfiniteBoundsBehaveLikeHalfSpaces) {
  const double inf = std::numeric_limits<double>::infinity();
  // The ACC unsafe set: s <= 120.
  const Box half{Interval(-inf, 120.0), Interval(-inf, inf)};
  EXPECT_TRUE(half.contains(linalg::Vec{100.0, 50.0}));
  EXPECT_FALSE(half.contains(linalg::Vec{121.0, 50.0}));
  const Box state = box2(122, 124, 48, 52);
  EXPECT_FALSE(state.intersects(half));
  EXPECT_NEAR(state.distance_to_in(half, {0}), 2.0, 1e-12);
}

TEST(Box, Distance) {
  const Box a = box2(0, 1, 0, 1);
  const Box b = box2(2, 3, 0, 1);
  EXPECT_DOUBLE_EQ(a.distance_to(b), 1.0);
  const Box c = box2(2, 3, 2, 3);
  EXPECT_DOUBLE_EQ(a.distance_to(c), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(a.distance_to(box2(0.5, 1.5, 0.5, 1.5)), 0.0);
}

TEST(Box, BisectSplitsWidest) {
  const Box b = box2(0, 4, 0, 1);
  const auto [lo, hi] = b.bisect();
  EXPECT_DOUBLE_EQ(lo[0].hi(), 2.0);
  EXPECT_DOUBLE_EQ(hi[0].lo(), 2.0);
  EXPECT_DOUBLE_EQ(lo[1].hi(), 1.0);
  EXPECT_NEAR(lo.volume() + hi.volume(), b.volume(), 1e-12);
}

TEST(Box, GridPartitionsExactly) {
  const Box b = box2(0, 1, 0, 2);
  const auto cells = b.grid({2, 4});
  EXPECT_EQ(cells.size(), 8u);
  double vol = 0.0;
  for (const auto& c : cells) vol += c.volume();
  EXPECT_NEAR(vol, b.volume(), 1e-12);
}

TEST(Box, SampleStaysInside) {
  std::mt19937_64 rng(5);
  const Box b = box2(-1, 1, 10, 20);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(b.contains(b.sample(rng)));
  }
}

TEST(Polygon2d, RectAreaAndCentroid) {
  const auto p = Polygon2d::rect(0, 4, 0, 2);
  EXPECT_DOUBLE_EQ(p.area(), 8.0);
  EXPECT_DOUBLE_EQ(p.centroid().x, 2.0);
  EXPECT_DOUBLE_EQ(p.centroid().y, 1.0);
}

TEST(Polygon2d, ConvexHullOfPoints) {
  // A square plus an interior point: hull has 4 vertices.
  Polygon2d p({{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}});
  EXPECT_EQ(p.size(), 4u);
  EXPECT_DOUBLE_EQ(p.area(), 1.0);
}

TEST(Polygon2d, ClipOverlap) {
  const auto a = Polygon2d::rect(0, 2, 0, 2);
  const auto b = Polygon2d::rect(1, 3, 1, 3);
  EXPECT_DOUBLE_EQ(a.clip(b).area(), 1.0);
  // Disjoint clip is empty.
  const auto c = Polygon2d::rect(5, 6, 5, 6);
  EXPECT_TRUE(a.clip(c).empty());
  // Full containment.
  const auto d = Polygon2d::rect(0.5, 1.0, 0.5, 1.0);
  EXPECT_NEAR(a.clip(d).area(), 0.25, 1e-12);
}

TEST(Polygon2d, AffineMapPreservesAreaScaling) {
  const auto p = Polygon2d::rect(0, 1, 0, 1);
  const linalg::Mat m{{2.0, 0.0}, {0.0, 3.0}};
  const auto q = p.affine(m, linalg::Vec{1.0, 1.0});
  EXPECT_NEAR(q.area(), 6.0, 1e-12);
  const auto bb = q.bounding_box();
  EXPECT_DOUBLE_EQ(bb[0].lo(), 1.0);
  EXPECT_DOUBLE_EQ(bb[0].hi(), 3.0);
}

TEST(Polygon2d, RotationPreservesArea) {
  const double th = 0.7;
  const linalg::Mat rot{{std::cos(th), -std::sin(th)},
                        {std::sin(th), std::cos(th)}};
  const auto p = Polygon2d::rect(-1, 1, -2, 2);
  const auto q = p.affine(rot, linalg::Vec(2));
  EXPECT_NEAR(q.area(), 8.0, 1e-10);
}

TEST(Polygon2d, DistanceBetweenPolygons) {
  const auto a = Polygon2d::rect(0, 1, 0, 1);
  const auto b = Polygon2d::rect(3, 4, 0, 1);
  EXPECT_NEAR(a.distance_to(b), 2.0, 1e-12);
  const auto c = Polygon2d::rect(0.5, 2, 0.5, 2);
  EXPECT_DOUBLE_EQ(a.distance_to(c), 0.0);
  // Diagonal separation.
  const auto d = Polygon2d::rect(2, 3, 2, 3);
  EXPECT_NEAR(a.distance_to(d), std::sqrt(2.0), 1e-12);
}

TEST(Polygon2d, ContainsPoint) {
  const auto p = Polygon2d::rect(0, 2, 0, 2);
  EXPECT_TRUE(p.contains({1, 1}));
  EXPECT_TRUE(p.contains({0, 0}));
  EXPECT_FALSE(p.contains({2.1, 1}));
}

TEST(Polygon2d, SegmentDistances) {
  EXPECT_DOUBLE_EQ(segment_point_distance({0, 0}, {2, 0}, {1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(segment_point_distance({0, 0}, {2, 0}, {4, 0}), 2.0);
  EXPECT_DOUBLE_EQ(
      segment_segment_distance({0, 0}, {1, 0}, {0, 2}, {1, 2}), 2.0);
  // Crossing segments.
  EXPECT_DOUBLE_EQ(
      segment_segment_distance({0, 0}, {2, 2}, {0, 2}, {2, 0}), 0.0);
}

// Test-local oracle: Polygon2d::distance_to as the minimum of
// segment_segment_distance over all edge pairs, and a Sutherland-Hodgman
// clip that copies its buffers and its hull input. The library's
// single-pass distance and buffer-reusing clip must match them bit for bit.
namespace oracle {

std::vector<P2> convex_hull(std::vector<P2> pts) {
  std::sort(pts.begin(), pts.end(), [](P2 a, P2 b) {
    return a.x < b.x || (a.x == b.x && a.y < b.y);
  });
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  const std::size_t n = pts.size();
  if (n <= 2) return pts;
  std::vector<P2> h(2 * n);
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    while (k >= 2 && cross(h[k - 2], h[k - 1], pts[i]) <= 0.0) --k;
    h[k++] = pts[i];
  }
  const std::size_t lower = k + 1;
  for (std::size_t ii = n - 1; ii-- > 0;) {
    while (k >= lower && cross(h[k - 2], h[k - 1], pts[ii]) <= 0.0) --k;
    h[k++] = pts[ii];
  }
  h.resize(k - 1);
  return h;
}

std::vector<P2> clip(const std::vector<P2>& vs, const std::vector<P2>& cl) {
  if (vs.empty() || cl.empty()) return {};
  std::vector<P2> out = vs;
  for (std::size_t e = 0; e < cl.size() && !out.empty(); ++e) {
    const P2 a = cl[e];
    const P2 b = cl[(e + 1) % cl.size()];
    std::vector<P2> in = std::move(out);
    out.clear();
    for (std::size_t i = 0; i < in.size(); ++i) {
      const P2 p = in[i];
      const P2 q = in[(i + 1) % in.size()];
      const double sp = cross(a, b, p);
      const double sq = cross(a, b, q);
      const bool pin = sp >= 0.0;
      const bool qin = sq >= 0.0;
      if (pin) out.push_back(p);
      if (pin != qin) {
        const double t = sp / (sp - sq);
        out.push_back(p + t * (q - p));
      }
    }
  }
  return convex_hull(std::move(out));
}

bool contains(const std::vector<P2>& vs, P2 p) {
  if (vs.size() < 3) return false;
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (cross(vs[i], vs[(i + 1) % vs.size()], p) < -1e-12) return false;
  }
  return true;
}

double point_segment_gap(P2 a, P2 b, P2 p) {
  const P2 ab = b - a;
  const double len2 = ab.x * ab.x + ab.y * ab.y;
  double t = 0.0;
  if (len2 > 0.0) {
    t = ((p.x - a.x) * ab.x + (p.y - a.y) * ab.y) / len2;
    t = std::clamp(t, 0.0, 1.0);
  }
  const P2 c = a + t * ab;
  return std::hypot(p.x - c.x, p.y - c.y);
}

bool segments_intersect(P2 a, P2 b, P2 c, P2 d) {
  const double d1 = cross(c, d, a);
  const double d2 = cross(c, d, b);
  const double d3 = cross(a, b, c);
  const double d4 = cross(a, b, d);
  return ((d1 > 0) != (d2 > 0)) && ((d3 > 0) != (d4 > 0));
}

double segment_pair_gap(P2 a, P2 b, P2 c, P2 d) {
  if (segments_intersect(a, b, c, d)) return 0.0;
  return std::min({point_segment_gap(a, b, c),
                   point_segment_gap(a, b, d),
                   point_segment_gap(c, d, a),
                   point_segment_gap(c, d, b)});
}

double distance(const std::vector<P2>& p, const std::vector<P2>& q) {
  if (contains(p, q[0]) || contains(q, p[0])) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  const auto edge = [](const std::vector<P2>& vs, std::size_t i) {
    return std::pair<P2, P2>{vs[i], vs[(i + 1) % vs.size()]};
  };
  if (p.size() == 1 && q.size() == 1) {
    return std::hypot(p[0].x - q[0].x, p[0].y - q[0].y);
  }
  for (std::size_t i = 0; i < p.size(); ++i) {
    const auto [a, b] = edge(p, i);
    for (std::size_t j = 0; j < q.size(); ++j) {
      const auto [c, d] = edge(q, j);
      best = std::min(best, segment_pair_gap(a, b, c, d));
      if (best == 0.0) return 0.0;
    }
  }
  return best;
}

}  // namespace oracle

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

bool same_vertices(const std::vector<P2>& a, const std::vector<P2>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (bits(a[i].x) != bits(b[i].x) || bits(a[i].y) != bits(b[i].y)) {
      return false;
    }
  }
  return true;
}

// Seeded random convex polygon with 1 to 8 input points (1- and 2-vertex
// hulls are frequent). On the coarse grid, coordinates are multiples of
// 1/4, so collinear points, shared vertices and exact touching occur.
std::vector<P2> random_points(std::mt19937_64& rng, bool grid) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  const std::size_t k = 1 + rng() % 8;
  const P2 c{3.0 * u(rng), 3.0 * u(rng)};
  const double r = 0.1 + 2.0 * (0.5 + 0.5 * u(rng));
  std::vector<P2> pts(k);
  for (P2& p : pts) {
    p = c + P2{r * u(rng), r * u(rng)};
    if (grid) p = {std::round(4.0 * p.x) / 4.0, std::round(4.0 * p.y) / 4.0};
  }
  return pts;
}

// Second polygon of a pair, placed relative to `a`: independent (crossing
// or disjoint), nested (convex combinations of a's vertices), touching (a
// reflected through one of its vertices, which both then share) or
// disjoint (far translate).
Polygon2d partner(std::mt19937_64& rng, const Polygon2d& a, bool grid) {
  const std::vector<P2>& v = a.vertices();
  switch (rng() % 4) {
    case 0:
      return Polygon2d(random_points(rng, grid));
    case 1: {
      std::uniform_real_distribution<double> w(0.0, 1.0);
      std::vector<P2> pts(1 + rng() % 6);
      for (P2& p : pts) {
        const P2 s = v[rng() % v.size()];
        const P2 t = v[rng() % v.size()];
        p = s + w(rng) * (t - s);
      }
      return Polygon2d(std::move(pts));
    }
    case 2: {
      const P2 pivot = v[rng() % v.size()];
      std::vector<P2> pts;
      for (const P2& p : v) pts.push_back(2.0 * pivot - p);
      return Polygon2d(std::move(pts));
    }
    default: {
      const P2 shift{grid ? 8.0 : 8.37, grid ? -5.5 : -5.61};
      std::vector<P2> pts;
      for (const P2& p : v) pts.push_back(p + shift);
      return Polygon2d(std::move(pts));
    }
  }
}

TEST(Polygon2d, ClipAndDistanceMatchPairwiseOracleBitForBit) {
  constexpr std::uint64_t kBaseSeed = 20240601;
  constexpr int kTrials = 4000;
  std::size_t tiny = 0, crossing = 0, touching = 0, apart = 0, empty = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t seed = kBaseSeed + static_cast<std::uint64_t>(trial);
    std::mt19937_64 rng(seed);
    const bool grid = trial % 2 == 0;
    const std::vector<P2> pts = random_points(rng, grid);
    const Polygon2d a(pts);
    ASSERT_TRUE(same_vertices(a.vertices(), oracle::convex_hull(pts)))
        << "hull, seed " << seed;
    const Polygon2d b = partner(rng, a, grid);
    std::uniform_real_distribution<double> u(-4.0, 4.0);
    double x0 = u(rng), x1 = u(rng), y0 = u(rng), y1 = u(rng);
    if (x0 > x1) std::swap(x0, x1);
    if (y0 > y1) std::swap(y0, y1);
    if (grid) {
      // Snap a rect edge onto a vertex of `a`, so rect and polygon touch.
      x1 = a.vertices()[0].x;
      x0 = std::min(x0, x1);
    }
    const Polygon2d rect = Polygon2d::rect(x0, x1, y0, y1);

    tiny += a.size() <= 2 || b.size() <= 2;
    const Polygon2d* const shapes[] = {&a, &b, &rect};
    for (const Polygon2d* p : shapes) {
      for (const Polygon2d* q : shapes) {
        if (p == q) continue;
        const std::vector<P2> want =
            oracle::clip(p->vertices(), q->vertices());
        ASSERT_TRUE(same_vertices(p->clip(*q).vertices(), want))
            << "clip, seed " << seed;
        empty += want.empty();
        const double d = oracle::distance(p->vertices(), q->vertices());
        ASSERT_EQ(bits(p->distance_to(*q)), bits(d))
            << "distance_to, seed " << seed;
        if (d > 0.0) {
          ++apart;
        } else if (want.size() >= 3) {
          ++crossing;
        } else {
          ++touching;
        }
      }
    }
  }
  // Every configuration class actually occurred.
  EXPECT_GT(tiny, 100u);
  EXPECT_GT(crossing, 100u);
  EXPECT_GT(touching, 100u);
  EXPECT_GT(apart, 100u);
  EXPECT_GT(empty, 100u);
}

TEST(Zonotope, FromBoxRoundTrip) {
  const Box b = box2(1, 3, -2, 0);
  const Zonotope z = Zonotope::from_box(b);
  const Box bb = z.bounding_box();
  EXPECT_DOUBLE_EQ(bb[0].lo(), 1.0);
  EXPECT_DOUBLE_EQ(bb[0].hi(), 3.0);
  EXPECT_DOUBLE_EQ(bb[1].lo(), -2.0);
}

TEST(Zonotope, AffineAndSupport) {
  const Zonotope z = Zonotope::from_box(box2(-1, 1, -1, 1));
  const linalg::Mat rot{{0.0, -1.0}, {1.0, 0.0}};
  const Zonotope zr = z.affine(rot, linalg::Vec{5.0, 0.0});
  EXPECT_NEAR(zr.support(linalg::Vec{1.0, 0.0}), 6.0, 1e-12);
  EXPECT_NEAR(zr.support(linalg::Vec{-1.0, 0.0}), -4.0, 1e-12);
}

TEST(Zonotope, MinkowskiSumAddsGenerators) {
  const Zonotope a = Zonotope::from_box(box2(0, 2, 0, 2));
  const Zonotope b = Zonotope::from_box(box2(-1, 1, -1, 1));
  const Zonotope s = a.minkowski_sum(b);
  EXPECT_EQ(s.order(), 4u);
  const Box bb = s.bounding_box();
  EXPECT_DOUBLE_EQ(bb[0].lo(), -1.0);
  EXPECT_DOUBLE_EQ(bb[0].hi(), 3.0);
}

TEST(Zonotope, ToPolygonMatchesBoxAreaForAxisAligned) {
  const Zonotope z = Zonotope::from_box(box2(0, 2, 0, 4));
  EXPECT_NEAR(z.to_polygon().area(), 8.0, 1e-12);
}

TEST(Zonotope, ToPolygonRotatedMatchesDeterminant) {
  // The zonogon area of {c + G b} with G 2x2 is 4 |det G|.
  const linalg::Mat g{{1.0, 0.5}, {0.25, 1.5}};
  const Zonotope z(linalg::Vec(2), g);
  EXPECT_NEAR(z.to_polygon().area(),
              4.0 * std::abs(g(0, 0) * g(1, 1) - g(0, 1) * g(1, 0)), 1e-10);
}

TEST(Zonotope, ReduceOrderIsSound) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  linalg::Mat g(2, 12);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 12; ++j) g(i, j) = 0.3 * u(rng);
  const Zonotope z(linalg::Vec{1.0, -1.0}, g);
  const Zonotope r = z.reduce_order(6);
  EXPECT_LE(r.order(), 6u);
  // Sound: the reduced zonotope must contain the original (box proxy +
  // support-function probes).
  for (double a = 0.0; a < 6.28; a += 0.3) {
    const linalg::Vec dir{std::cos(a), std::sin(a)};
    EXPECT_GE(r.support(dir), z.support(dir) - 1e-12) << "dir angle " << a;
  }
}

}  // namespace
}  // namespace dwv::geom
