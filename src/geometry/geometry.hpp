// rabit::geom — 3D primitives for the cuboid world model.
//
// The Extended Simulator (paper §III) models every automation device as a 3D
// cuboid and detects collisions by polling the robot arm's trajectory against
// those cuboids. This module supplies the vector algebra, axis-aligned boxes,
// segment/box intersection (slab method), swept-point queries, and rigid
// frame transforms (used when attempting to unify the testbed arms'
// coordinate systems, §IV category 2).
#pragma once

#include <array>
#include <cmath>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace rabit::geom {

inline constexpr double kEpsilon = 1e-9;

struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  constexpr Vec3() = default;
  constexpr Vec3(double x_, double y_, double z_) : x(x_), y(y_), z(z_) {}

  constexpr Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
  constexpr Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  constexpr Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
  constexpr Vec3 operator/(double s) const { return {x / s, y / s, z / s}; }
  constexpr Vec3 operator-() const { return {-x, -y, -z}; }

  Vec3& operator+=(const Vec3& o) {
    x += o.x;
    y += o.y;
    z += o.z;
    return *this;
  }
  Vec3& operator-=(const Vec3& o) {
    x -= o.x;
    y -= o.y;
    z -= o.z;
    return *this;
  }

  [[nodiscard]] constexpr double dot(const Vec3& o) const { return x * o.x + y * o.y + z * o.z; }
  [[nodiscard]] constexpr Vec3 cross(const Vec3& o) const {
    return {y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x};
  }
  [[nodiscard]] double norm() const { return std::sqrt(dot(*this)); }
  [[nodiscard]] constexpr double norm_squared() const { return dot(*this); }

  /// Unit vector; returns the zero vector unchanged if too small to normalize.
  [[nodiscard]] Vec3 normalized() const;

  [[nodiscard]] double distance_to(const Vec3& o) const { return (*this - o).norm(); }
};

constexpr Vec3 operator*(double s, const Vec3& v) { return v * s; }

[[nodiscard]] bool approx_equal(const Vec3& a, const Vec3& b, double tol = 1e-6);

std::ostream& operator<<(std::ostream& os, const Vec3& v);

/// Linear interpolation: t=0 gives a, t=1 gives b.
[[nodiscard]] Vec3 lerp(const Vec3& a, const Vec3& b, double t);

// ---------------------------------------------------------------------------

/// Axis-aligned box: the paper's device cuboid.
struct Aabb {
  Vec3 min;
  Vec3 max;

  Aabb() = default;
  Aabb(const Vec3& min_, const Vec3& max_);

  /// Box centered at `center` with full extents `size`.
  [[nodiscard]] static Aabb from_center(const Vec3& center, const Vec3& size);

  [[nodiscard]] Vec3 center() const { return (min + max) * 0.5; }
  [[nodiscard]] Vec3 size() const { return max - min; }
  [[nodiscard]] double volume() const;

  [[nodiscard]] bool contains(const Vec3& p) const;
  [[nodiscard]] bool intersects(const Aabb& o) const;

  /// Box grown by `margin` on every face. Used for held-object dimension
  /// inflation (paper §IV category 4: "a robot arm's dimensions may change if
  /// it is holding an object") and for safety margins.
  [[nodiscard]] Aabb inflated(double margin) const;
  [[nodiscard]] Aabb inflated(const Vec3& margin) const;

  /// Smallest box containing both.
  [[nodiscard]] Aabb united(const Aabb& o) const;

  /// Box translated by `offset`.
  [[nodiscard]] Aabb translated(const Vec3& offset) const;

  /// Closest point inside the box to `p` (p itself if contained).
  [[nodiscard]] Vec3 clamp(const Vec3& p) const;

  /// Euclidean distance from `p` to the box surface (0 if inside).
  [[nodiscard]] double distance_to(const Vec3& p) const;
};

[[nodiscard]] bool approx_equal(const Aabb& a, const Aabb& b, double tol = 1e-6);

/// Signed distance from `p` to the box surface: positive outside (Euclidean
/// clearance), negative inside (depth to the nearest face). The runtime
/// assurance barrier h(s) is built from this.
[[nodiscard]] double signed_distance(const Aabb& box, const Vec3& p);

/// Signed separation of two boxes: positive = smallest Euclidean gap between
/// them, negative = smallest per-axis penetration depth when they overlap.
[[nodiscard]] double signed_distance(const Aabb& a, const Aabb& b);

// ---------------------------------------------------------------------------

struct Segment {
  Vec3 a;
  Vec3 b;

  [[nodiscard]] double length() const { return a.distance_to(b); }
  [[nodiscard]] Vec3 point_at(double t) const { return lerp(a, b, t); }
};

/// Slab-method segment/box intersection. Returns the parameter t in [0,1] of
/// first contact, or nullopt when the segment misses the box entirely.
[[nodiscard]] std::optional<double> intersect(const Segment& s, const Aabb& box);

/// True when any point of the segment lies inside or on the box.
[[nodiscard]] bool intersects(const Segment& s, const Aabb& box);

/// Shortest distance between a segment and a point.
[[nodiscard]] double distance(const Segment& s, const Vec3& p);

/// Shortest distance between two segments (arm links of two robots).
[[nodiscard]] double distance(const Segment& s1, const Segment& s2);

// ---------------------------------------------------------------------------

/// Piecewise-linear path through 3D space, e.g. a sampled arm trajectory.
class Polyline {
 public:
  Polyline() = default;
  explicit Polyline(std::vector<Vec3> points) : points_(std::move(points)) {}

  void push_back(const Vec3& p) { points_.push_back(p); }
  [[nodiscard]] const std::vector<Vec3>& points() const { return points_; }
  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] bool empty() const { return points_.empty(); }
  [[nodiscard]] double length() const;

  /// Point at arc-length fraction t in [0,1].
  [[nodiscard]] Vec3 sample(double t) const;

  /// Resamples into `count` evenly spaced points (count >= 2). This is the
  /// "continuous polling" of the Extended Simulator: finer sampling catches
  /// collisions that coarse target-only checks miss.
  [[nodiscard]] std::vector<Vec3> resample(std::size_t count) const;

 private:
  std::vector<Vec3> points_;
};

// ---------------------------------------------------------------------------

/// Rigid transform (rotation + translation). Rotations are stored as a
/// row-major 3x3 matrix built from Z-Y-X Euler angles.
class Transform {
 public:
  /// Identity.
  Transform();

  /// From Euler angles (radians) applied in Z (yaw), Y (pitch), X (roll)
  /// order, followed by `translation`.
  static Transform from_euler(double roll, double pitch, double yaw, const Vec3& translation);

  static Transform translation(const Vec3& t);
  static Transform rotation_z(double angle);
  /// From a row-major rotation matrix, taken as given (not re-orthonormalized),
  /// followed by `translation`.
  static Transform from_rows(const std::array<std::array<double, 3>, 3>& rotation,
                             const Vec3& translation);

  [[nodiscard]] Vec3 apply(const Vec3& p) const;
  [[nodiscard]] Vec3 rotate(const Vec3& v) const;  // rotation only, no translation

  /// Composition: (a * b).apply(p) == a.apply(b.apply(p)).
  [[nodiscard]] Transform operator*(const Transform& o) const;

  [[nodiscard]] Transform inverse() const;

  [[nodiscard]] const Vec3& translation_part() const { return t_; }

  /// Heading about +Z. Exact for yaw-only transforms (tabletop arm mounts);
  /// for general rotations this is the Z-Y-X Euler yaw component.
  [[nodiscard]] double yaw() const;

 private:
  std::array<std::array<double, 3>, 3> r_;
  Vec3 t_;
};

/// Least-squares estimate of the rigid transform mapping `from[i]` onto
/// `to[i]` given noisy correspondences (the paper's attempted global-frame
/// unification, which yielded ~3 cm error on the testbed). Uses a simplified
/// Kabsch-style fit around centroids with a yaw-only rotation model, which
/// matches tabletop arm mounts (vertical axes aligned).
struct FrameFit {
  Transform transform;
  double rms_error = 0.0;  ///< root-mean-square residual over the inputs
};
[[nodiscard]] FrameFit fit_frame(const std::vector<Vec3>& from, const std::vector<Vec3>& to);

}  // namespace rabit::geom
