#include "geom/polygon2d.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dwv::geom {

namespace {

// Andrew's monotone chain: sorts and deduplicates `pts` in place and
// writes the CCW hull, without the repeated endpoint, into `h`.
void convex_hull(std::vector<P2>& pts, std::vector<P2>& h) {
  std::sort(pts.begin(), pts.end(), [](P2 a, P2 b) {
    return a.x < b.x || (a.x == b.x && a.y < b.y);
  });
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  const std::size_t n = pts.size();
  if (n <= 2) {
    h.assign(pts.begin(), pts.end());
    return;
  }
  h.resize(2 * n);
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
}

}  // namespace

Polygon2d::Polygon2d(std::vector<P2> points) { convex_hull(points, vs_); }

Polygon2d Polygon2d::from_box(const Box& b) {
  assert(b.dim() == 2);
  return rect(b[0].lo(), b[0].hi(), b[1].lo(), b[1].hi());
}

Polygon2d Polygon2d::rect(double x0, double x1, double y0, double y1) {
  Polygon2d p;
  p.vs_ = {{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}};
  return p;
}

double Polygon2d::area() const {
  if (vs_.size() < 3) return 0.0;
  double a = 0.0;
  for (std::size_t i = 0; i < vs_.size(); ++i) {
    const P2& p = vs_[i];
    const P2& q = vs_[(i + 1) % vs_.size()];
    a += p.x * q.y - q.x * p.y;
  }
  return 0.5 * a;
}

P2 Polygon2d::centroid() const {
  if (vs_.empty()) return {};
  if (vs_.size() < 3) {
    P2 c{};
    for (const P2& v : vs_) c = c + v;
    return (1.0 / static_cast<double>(vs_.size())) * c;
  }
  const double a = area();
  if (a <= 0.0) {
    P2 c{};
    for (const P2& v : vs_) c = c + v;
    return (1.0 / static_cast<double>(vs_.size())) * c;
  }
  P2 c{};
  for (std::size_t i = 0; i < vs_.size(); ++i) {
    const P2& p = vs_[i];
    const P2& q = vs_[(i + 1) % vs_.size()];
    const double w = p.x * q.y - q.x * p.y;
    c.x += (p.x + q.x) * w;
    c.y += (p.y + q.y) * w;
  }
  return (1.0 / (6.0 * a)) * c;
}

Box Polygon2d::bounding_box() const {
  assert(!vs_.empty());
  double x0 = vs_[0].x, x1 = vs_[0].x, y0 = vs_[0].y, y1 = vs_[0].y;
  for (const P2& v : vs_) {
    x0 = std::min(x0, v.x);
    x1 = std::max(x1, v.x);
    y0 = std::min(y0, v.y);
    y1 = std::max(y1, v.y);
  }
  return Box{interval::Interval(x0, x1), interval::Interval(y0, y1)};
}

Polygon2d Polygon2d::affine(const linalg::Mat& m, const linalg::Vec& c) const {
  assert(m.rows() == 2 && m.cols() == 2 && c.size() == 2);
  std::vector<P2> pts;
  pts.reserve(vs_.size());
  for (const P2& v : vs_) {
    pts.push_back({m(0, 0) * v.x + m(0, 1) * v.y + c[0],
                   m(1, 0) * v.x + m(1, 1) * v.y + c[1]});
  }
  return Polygon2d(std::move(pts));
}

Polygon2d Polygon2d::clip(const Polygon2d& clip_region) const {
  if (empty() || clip_region.empty()) return {};
  // Ping-pong buffers, reused across clip edges and calls: once warm, only
  // the result's vertex vector is allocated.
  thread_local std::vector<P2> in;
  thread_local std::vector<P2> out;
  out.assign(vs_.begin(), vs_.end());
  const auto& cl = clip_region.vs_;
  for (std::size_t e = 0; e < cl.size() && !out.empty(); ++e) {
    const P2 a = cl[e];
    const P2 b = cl[(e + 1) % cl.size()];
    in.swap(out);
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
  Polygon2d r;
  convex_hull(out, r.vs_);
  return r;
}

bool Polygon2d::contains(P2 p) const {
  if (vs_.size() < 3) return false;
  for (std::size_t i = 0; i < vs_.size(); ++i) {
    if (cross(vs_[i], vs_[(i + 1) % vs_.size()], p) < -1e-12) return false;
  }
  return true;
}

double segment_point_distance(P2 a, P2 b, P2 p) {
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

namespace {
bool segments_intersect(P2 a, P2 b, P2 c, P2 d) {
  const double d1 = cross(c, d, a);
  const double d2 = cross(c, d, b);
  const double d3 = cross(a, b, c);
  const double d4 = cross(a, b, d);
  if (((d1 > 0) != (d2 > 0)) && ((d3 > 0) != (d4 > 0))) return true;
  return false;
}
}  // namespace

double segment_segment_distance(P2 a, P2 b, P2 c, P2 d) {
  if (segments_intersect(a, b, c, d)) return 0.0;
  return std::min({segment_point_distance(a, b, c),
                   segment_point_distance(a, b, d),
                   segment_point_distance(c, d, a),
                   segment_point_distance(c, d, b)});
}

double Polygon2d::distance_to(const Polygon2d& o) const {
  assert(!empty() && !o.empty());
  // Overlap (including full containment) means distance zero.
  if (contains(o.vs_[0]) || o.contains(vs_[0])) return 0.0;
  if (vs_.size() == 1 && o.vs_.size() == 1) {
    return std::hypot(vs_[0].x - o.vs_[0].x, vs_[0].y - o.vs_[0].y);
  }
  // Edges are (i, (i + 1) % n): a 1-vertex polygon has one degenerate edge,
  // a 2-vertex one its segment in both directions. Crossing edges touch.
  const std::vector<P2>& p = vs_;
  const std::vector<P2>& q = o.vs_;
  const std::size_t n = p.size();
  const std::size_t m = q.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (segments_intersect(p[i], p[(i + 1) % n], q[j], q[(j + 1) % m])) {
        return 0.0;
      }
    }
  }
  // With no crossing, the minimum of segment_segment_distance over all edge
  // pairs is the minimum over every (edge, vertex of the other polygon)
  // pair: the same set of values, each taken once, and min does not depend
  // on the order.
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < m; ++k) {
      best = std::min(best, segment_point_distance(p[i], p[(i + 1) % n], q[k]));
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t k = 0; k < n; ++k) {
      best = std::min(best, segment_point_distance(q[j], q[(j + 1) % m], p[k]));
    }
  }
  return best;
}

double Polygon2d::distance_to_point(P2 p) const {
  assert(!empty());
  if (contains(p)) return 0.0;
  if (vs_.size() == 1) return std::hypot(p.x - vs_[0].x, p.y - vs_[0].y);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < vs_.size(); ++i) {
    best = std::min(best, segment_point_distance(
                              vs_[i], vs_[(i + 1) % vs_.size()], p));
  }
  return best;
}

}  // namespace dwv::geom
