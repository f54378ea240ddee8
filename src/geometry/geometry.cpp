#include "geometry/geometry.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <stdexcept>

namespace rabit::geom {

Vec3 Vec3::normalized() const {
  double n = norm();
  if (n < kEpsilon) return *this;
  return *this / n;
}

bool approx_equal(const Vec3& a, const Vec3& b, double tol) {
  return std::abs(a.x - b.x) <= tol && std::abs(a.y - b.y) <= tol && std::abs(a.z - b.z) <= tol;
}

std::ostream& operator<<(std::ostream& os, const Vec3& v) {
  return os << "(" << v.x << ", " << v.y << ", " << v.z << ")";
}

Vec3 lerp(const Vec3& a, const Vec3& b, double t) { return a + (b - a) * t; }

// ---------------------------------------------------------------------------
// Aabb
// ---------------------------------------------------------------------------

Aabb::Aabb(const Vec3& min_, const Vec3& max_) : min(min_), max(max_) {
  if (min.x > max.x || min.y > max.y || min.z > max.z) {
    throw std::invalid_argument("Aabb: min must not exceed max on any axis");
  }
}

Aabb Aabb::from_center(const Vec3& center, const Vec3& size) {
  if (size.x < 0 || size.y < 0 || size.z < 0) {
    throw std::invalid_argument("Aabb::from_center: negative size");
  }
  Vec3 half = size * 0.5;
  return Aabb(center - half, center + half);
}

double Aabb::volume() const {
  Vec3 s = size();
  return s.x * s.y * s.z;
}

bool Aabb::contains(const Vec3& p) const {
  return p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y && p.z >= min.z &&
         p.z <= max.z;
}

bool Aabb::intersects(const Aabb& o) const {
  return min.x <= o.max.x && max.x >= o.min.x && min.y <= o.max.y && max.y >= o.min.y &&
         min.z <= o.max.z && max.z >= o.min.z;
}

Aabb Aabb::inflated(double margin) const { return inflated(Vec3(margin, margin, margin)); }

Aabb Aabb::inflated(const Vec3& margin) const {
  Vec3 new_min = min - margin;
  Vec3 new_max = max + margin;
  // A negative margin may invert the box; collapse to the center instead.
  Vec3 c = center();
  new_min = Vec3(std::min(new_min.x, c.x), std::min(new_min.y, c.y), std::min(new_min.z, c.z));
  new_max = Vec3(std::max(new_max.x, c.x), std::max(new_max.y, c.y), std::max(new_max.z, c.z));
  return Aabb(new_min, new_max);
}

Aabb Aabb::united(const Aabb& o) const {
  return Aabb(Vec3(std::min(min.x, o.min.x), std::min(min.y, o.min.y), std::min(min.z, o.min.z)),
              Vec3(std::max(max.x, o.max.x), std::max(max.y, o.max.y), std::max(max.z, o.max.z)));
}

Aabb Aabb::translated(const Vec3& offset) const { return Aabb(min + offset, max + offset); }

Vec3 Aabb::clamp(const Vec3& p) const {
  return Vec3(std::clamp(p.x, min.x, max.x), std::clamp(p.y, min.y, max.y),
              std::clamp(p.z, min.z, max.z));
}

double Aabb::distance_to(const Vec3& p) const { return clamp(p).distance_to(p); }

bool approx_equal(const Aabb& a, const Aabb& b, double tol) {
  return approx_equal(a.min, b.min, tol) && approx_equal(a.max, b.max, tol);
}

double signed_distance(const Aabb& box, const Vec3& p) {
  if (!box.contains(p)) return box.distance_to(p);
  double depth = std::min({p.x - box.min.x, box.max.x - p.x, p.y - box.min.y, box.max.y - p.y,
                           p.z - box.min.z, box.max.z - p.z});
  return -depth;
}

double signed_distance(const Aabb& a, const Aabb& b) {
  // Per-axis gap (positive) or overlap (negative).
  double gx = std::max(a.min.x - b.max.x, b.min.x - a.max.x);
  double gy = std::max(a.min.y - b.max.y, b.min.y - a.max.y);
  double gz = std::max(a.min.z - b.max.z, b.min.z - a.max.z);
  if (gx <= 0 && gy <= 0 && gz <= 0) {
    // Overlapping: penetration depth along the easiest separating axis.
    return std::max({gx, gy, gz});
  }
  double dx = std::max(0.0, gx);
  double dy = std::max(0.0, gy);
  double dz = std::max(0.0, gz);
  return std::sqrt(dx * dx + dy * dy + dz * dz);
}

// ---------------------------------------------------------------------------
// Segment queries
// ---------------------------------------------------------------------------

std::optional<double> intersect(const Segment& s, const Aabb& box) {
  // Slab method over the parameterization p(t) = a + t*(b-a), t in [0,1].
  Vec3 d = s.b - s.a;
  double t_min = 0.0;
  double t_max = 1.0;

  const std::array<double, 3> origin = {s.a.x, s.a.y, s.a.z};
  const std::array<double, 3> dir = {d.x, d.y, d.z};
  const std::array<double, 3> lo = {box.min.x, box.min.y, box.min.z};
  const std::array<double, 3> hi = {box.max.x, box.max.y, box.max.z};

  for (int axis = 0; axis < 3; ++axis) {
    if (std::abs(dir[axis]) < kEpsilon) {
      // Parallel to this slab: must already lie within it.
      if (origin[axis] < lo[axis] || origin[axis] > hi[axis]) return std::nullopt;
      continue;
    }
    double inv = 1.0 / dir[axis];
    double t1 = (lo[axis] - origin[axis]) * inv;
    double t2 = (hi[axis] - origin[axis]) * inv;
    if (t1 > t2) std::swap(t1, t2);
    t_min = std::max(t_min, t1);
    t_max = std::min(t_max, t2);
    if (t_min > t_max) return std::nullopt;
  }
  return t_min;
}

bool intersects(const Segment& s, const Aabb& box) { return intersect(s, box).has_value(); }

double distance(const Segment& s, const Vec3& p) {
  Vec3 d = s.b - s.a;
  double len_sq = d.norm_squared();
  if (len_sq < kEpsilon) return s.a.distance_to(p);
  double t = std::clamp((p - s.a).dot(d) / len_sq, 0.0, 1.0);
  return s.point_at(t).distance_to(p);
}

double distance(const Segment& s1, const Segment& s2) {
  // Standard closest-point-between-segments computation (Ericson, RTCD §5.1.9).
  Vec3 d1 = s1.b - s1.a;
  Vec3 d2 = s2.b - s2.a;
  Vec3 r = s1.a - s2.a;
  double a = d1.norm_squared();
  double e = d2.norm_squared();
  double f = d2.dot(r);

  double s = 0.0;
  double t = 0.0;
  if (a < kEpsilon && e < kEpsilon) {
    return s1.a.distance_to(s2.a);
  }
  if (a < kEpsilon) {
    t = std::clamp(f / e, 0.0, 1.0);
  } else {
    double c = d1.dot(r);
    if (e < kEpsilon) {
      s = std::clamp(-c / a, 0.0, 1.0);
    } else {
      double b = d1.dot(d2);
      double denom = a * e - b * b;
      if (denom > kEpsilon) {
        s = std::clamp((b * f - c * e) / denom, 0.0, 1.0);
      }
      t = (b * s + f) / e;
      if (t < 0.0) {
        t = 0.0;
        s = std::clamp(-c / a, 0.0, 1.0);
      } else if (t > 1.0) {
        t = 1.0;
        s = std::clamp((b - c) / a, 0.0, 1.0);
      }
    }
  }
  return s1.point_at(s).distance_to(s2.point_at(t));
}

// ---------------------------------------------------------------------------
// Polyline
// ---------------------------------------------------------------------------

double Polyline::length() const {
  double total = 0.0;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    total += points_[i - 1].distance_to(points_[i]);
  }
  return total;
}

Vec3 Polyline::sample(double t) const {
  if (points_.empty()) throw std::logic_error("Polyline::sample on empty polyline");
  if (points_.size() == 1) return points_.front();
  t = std::clamp(t, 0.0, 1.0);
  double target = t * length();
  double walked = 0.0;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    double seg_len = points_[i - 1].distance_to(points_[i]);
    if (walked + seg_len >= target && seg_len > kEpsilon) {
      double local = (target - walked) / seg_len;
      return lerp(points_[i - 1], points_[i], local);
    }
    walked += seg_len;
  }
  return points_.back();
}

std::vector<Vec3> Polyline::resample(std::size_t count) const {
  if (count < 2) throw std::invalid_argument("Polyline::resample: count must be >= 2");
  std::vector<Vec3> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(sample(static_cast<double>(i) / static_cast<double>(count - 1)));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Transform
// ---------------------------------------------------------------------------

Transform::Transform() : r_{{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}}, t_() {}

Transform Transform::from_euler(double roll, double pitch, double yaw, const Vec3& translation) {
  double cr = std::cos(roll);
  double sr = std::sin(roll);
  double cp = std::cos(pitch);
  double sp = std::sin(pitch);
  double cy = std::cos(yaw);
  double sy = std::sin(yaw);

  Transform out;
  // R = Rz(yaw) * Ry(pitch) * Rx(roll)
  out.r_ = {{{cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr},
             {sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr},
             {-sp, cp * sr, cp * cr}}};
  out.t_ = translation;
  return out;
}

Transform Transform::translation(const Vec3& t) {
  Transform out;
  out.t_ = t;
  return out;
}

Transform Transform::rotation_z(double angle) { return from_euler(0.0, 0.0, angle, Vec3()); }

Transform Transform::from_rows(const std::array<std::array<double, 3>, 3>& rotation,
                               const Vec3& translation) {
  Transform out;
  out.r_ = rotation;
  out.t_ = translation;
  return out;
}

Vec3 Transform::rotate(const Vec3& v) const {
  return Vec3(r_[0][0] * v.x + r_[0][1] * v.y + r_[0][2] * v.z,
              r_[1][0] * v.x + r_[1][1] * v.y + r_[1][2] * v.z,
              r_[2][0] * v.x + r_[2][1] * v.y + r_[2][2] * v.z);
}

Vec3 Transform::apply(const Vec3& p) const { return rotate(p) + t_; }

Transform Transform::operator*(const Transform& o) const {
  Transform out;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      out.r_[i][j] = r_[i][0] * o.r_[0][j] + r_[i][1] * o.r_[1][j] + r_[i][2] * o.r_[2][j];
    }
  }
  out.t_ = apply(o.t_);
  return out;
}

double Transform::yaw() const { return std::atan2(r_[1][0], r_[0][0]); }

Transform Transform::inverse() const {
  Transform out;
  // Rotation matrices invert by transposition.
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) out.r_[i][j] = r_[j][i];
  }
  out.t_ = -out.rotate(t_);
  return out;
}

FrameFit fit_frame(const std::vector<Vec3>& from, const std::vector<Vec3>& to) {
  if (from.size() != to.size() || from.size() < 2) {
    throw std::invalid_argument("fit_frame: need >= 2 matched point pairs");
  }
  auto centroid = [](const std::vector<Vec3>& pts) {
    Vec3 c;
    for (const Vec3& p : pts) c += p;
    return c / static_cast<double>(pts.size());
  };
  Vec3 cf = centroid(from);
  Vec3 ct = centroid(to);

  // Yaw-only Kabsch: maximize sum of planar dot products of centered pairs.
  double sxx = 0.0;
  double sxy = 0.0;
  for (std::size_t i = 0; i < from.size(); ++i) {
    Vec3 a = from[i] - cf;
    Vec3 b = to[i] - ct;
    sxx += a.x * b.x + a.y * b.y;
    sxy += a.x * b.y - a.y * b.x;
  }
  double yaw = std::atan2(sxy, sxx);
  Transform rot = Transform::rotation_z(yaw);
  Vec3 trans = ct - rot.apply(cf);
  Transform fit = Transform::translation(trans) * rot;

  double sum_sq = 0.0;
  for (std::size_t i = 0; i < from.size(); ++i) {
    double err = fit.apply(from[i]).distance_to(to[i]);
    sum_sq += err * err;
  }
  return FrameFit{fit, std::sqrt(sum_sq / static_cast<double>(from.size()))};
}

}  // namespace rabit::geom
