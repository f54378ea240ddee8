#include "kinematics/kinematics.hpp"

#include <algorithm>
#include <cmath>

namespace rabit::kin {

using geom::Transform;
using geom::Vec3;

std::string_view to_string(IkError e) {
  switch (e) {
    case IkError::OutOfReach: return "target out of reach";
    case IkError::NoConvergence: return "solver did not converge";
    case IkError::JointLimit: return "solution violates joint limits";
  }
  return "unknown";
}

ArmModel::ArmModel(std::string name, std::array<DhParam, kNumJoints> dh,
                   std::array<JointLimit, kNumJoints> limits, Transform base, double link_radius_m)
    : name_(std::move(name)), dh_(dh), limits_(limits), base_(base), link_radius_(link_radius_m) {
  if (link_radius_ <= 0) throw std::invalid_argument("ArmModel: link radius must be positive");
  for (const JointLimit& l : limits_) {
    if (l.min_rad > l.max_rad) throw std::invalid_argument("ArmModel: inverted joint limit");
  }
  for (std::size_t i = 0; i < kNumJoints; ++i) {
    const DhParam& p = dh_[i];
    if (!std::isfinite(p.a) || !std::isfinite(p.alpha) || !std::isfinite(p.d) ||
        !std::isfinite(p.theta_offset)) {
      throw std::invalid_argument("ArmModel: DH parameters must be finite");
    }
    cos_alpha_[i] = std::cos(p.alpha);
    sin_alpha_[i] = std::sin(p.alpha);
  }
}

/// Standard DH link transform Rz(theta) Tz(d) Tx(a) Rx(alpha), in closed
/// form (row-major):
///   [ c  -s*ca   s*sa   a*c ]
///   [ s   c*ca  -c*sa   a*s ]
///   [ 0   sa     ca     d   ]
/// c and s are the cosine and sine of theta + theta_offset; ca and sa those
/// of alpha, computed at construction. Every entry equals the four-factor
/// product's up to the sign of a zero, and no zero sign reaches a position
/// (DESIGN.md, "Exact kinematics and the kept ground truth").
Transform ArmModel::link(std::size_t i, double theta) const {
  const DhParam& p = dh_[i];
  const double c = std::cos(theta + p.theta_offset);
  const double s = std::sin(theta + p.theta_offset);
  const double ca = cos_alpha_[i];
  const double sa = sin_alpha_[i];
  return Transform::from_rows({{{c, -s * ca, s * sa}, {s, c * ca, -c * sa}, {0.0, sa, ca}}},
                              Vec3(p.a * c, p.a * s, p.d));
}

double ArmModel::max_reach() const {
  double reach = 0.0;
  for (const DhParam& p : dh_) reach += std::abs(p.a) + std::abs(p.d);
  return reach;
}

Vec3 ArmModel::forward(const JointVector& joints) const {
  Transform t = base_;
  for (std::size_t i = 0; i < kNumJoints; ++i) t = t * link(i, joints[i]);
  return t.apply(Vec3());
}

std::vector<Vec3> ArmModel::link_points(const JointVector& joints) const {
  std::vector<Vec3> points;
  points.reserve(kNumJoints + 1);
  Transform t = base_;
  points.push_back(t.apply(Vec3()));
  for (std::size_t i = 0; i < kNumJoints; ++i) {
    t = t * link(i, joints[i]);
    points.push_back(t.apply(Vec3()));
  }
  return points;
}

std::vector<geom::Segment> ArmModel::link_segments(const JointVector& joints) const {
  std::vector<Vec3> pts = link_points(joints);
  std::vector<geom::Segment> segs;
  segs.reserve(pts.size() - 1);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    segs.push_back(geom::Segment{pts[i - 1], pts[i]});
  }
  return segs;
}

bool ArmModel::within_limits(const JointVector& joints) const {
  for (std::size_t i = 0; i < kNumJoints; ++i) {
    if (joints[i] < limits_[i].min_rad || joints[i] > limits_[i].max_rad) return false;
  }
  return true;
}

bool ArmModel::reachable(const geom::Vec3& target) const {
  // Workspace envelope: a sphere of radius max_reach around the shoulder.
  Vec3 shoulder = base_.apply(Vec3(0, 0, dh_[0].d));
  return shoulder.distance_to(target) <= max_reach();
}

IkResult ArmModel::inverse(const Vec3& target, const JointVector& seed) const {
  IkResult result;
  if (!reachable(target)) {
    result.error = IkError::OutOfReach;
    return result;
  }

  // Damped least squares can stall in a local minimum for targets far from
  // the seed (e.g. a half-turn of the base). Retry from a few deterministic
  // seeds: the caller's, a base-swung variant pointing at the target, and
  // the canonical poses.
  Vec3 local = base_.inverse().apply(target);
  double toward = std::atan2(local.y, local.x);
  const JointVector seeds[] = {
      seed,
      {toward, -1.0, 0.8, 0.0, 0.5, 0.0},
      {toward, -1.57, 0.0, -1.57, 0.0, 0.0},
      home_configuration(),
      sleep_configuration(),
  };
  for (const JointVector& s : seeds) {
    IkResult attempt = solve_from(target, s);
    if (attempt.joints) return attempt;
    result = attempt;  // keep the last failure's diagnostics
  }
  return result;
}

IkResult ArmModel::solve_from(const Vec3& target, const JointVector& seed) const {
  IkResult result;

  constexpr int kMaxIterations = 200;
  constexpr double kTolerance = 1e-4;  // 0.1 mm
  constexpr double kLambda = 0.05;     // damping factor
  constexpr double kFiniteDiff = 1e-6;

  JointVector q = seed;
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    // The chain at q, multiplied left to right as forward() does:
    // prefix[k] = base * L0 * ... * L(k-1), so prefix[6] is forward(q)'s.
    std::array<Transform, kNumJoints> links;
    std::array<Transform, kNumJoints + 1> prefix;
    prefix[0] = base_;
    for (std::size_t k = 0; k < kNumJoints; ++k) {
      links[k] = link(k, q[k]);
      prefix[k + 1] = prefix[k] * links[k];
    }
    Vec3 current = prefix[kNumJoints].apply(Vec3());
    Vec3 err = target - current;
    result.iterations = iter;
    result.residual = err.norm();
    if (result.residual < kTolerance) {
      // Clamp into limits; reject if clamping moves the end effector away.
      JointVector clamped = q;
      for (std::size_t i = 0; i < kNumJoints; ++i) {
        clamped[i] = std::clamp(clamped[i], limits_[i].min_rad, limits_[i].max_rad);
      }
      if (forward(clamped).distance_to(target) > kTolerance * 50) {
        result.error = IkError::JointLimit;
        return result;
      }
      result.joints = clamped;
      return result;
    }

    // Numeric position Jacobian, 3 x 6. Column j is forward() at q with
    // q[j] + h: prefix[j] * L_j(q[j] + h) * L_(j+1) * ... * L5, the same
    // products in the same order, so bit for bit the same point.
    std::array<std::array<double, kNumJoints>, 3> jac{};
    for (std::size_t j = 0; j < kNumJoints; ++j) {
      Transform t = prefix[j] * link(j, q[j] + kFiniteDiff);
      for (std::size_t k = j + 1; k < kNumJoints; ++k) t = t * links[k];
      Vec3 moved = t.apply(Vec3());
      jac[0][j] = (moved.x - current.x) / kFiniteDiff;
      jac[1][j] = (moved.y - current.y) / kFiniteDiff;
      jac[2][j] = (moved.z - current.z) / kFiniteDiff;
    }

    // Damped least squares: dq = J^T (J J^T + lambda^2 I)^-1 err.
    // A = J J^T + lambda^2 I is 3x3 symmetric positive definite.
    std::array<std::array<double, 3>, 3> a{};
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 3; ++c) {
        double sum = 0.0;
        for (std::size_t j = 0; j < kNumJoints; ++j) sum += jac[r][j] * jac[c][j];
        a[r][c] = sum + (r == c ? kLambda * kLambda : 0.0);
      }
    }
    // Solve a * y = err via Cramer's rule (3x3).
    auto det3 = [](const std::array<std::array<double, 3>, 3>& m) {
      return m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1]) -
             m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0]) +
             m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
    };
    double det = det3(a);
    if (std::abs(det) < 1e-14) break;
    std::array<double, 3> rhs = {err.x, err.y, err.z};
    std::array<double, 3> y{};
    for (int col = 0; col < 3; ++col) {
      auto m = a;
      for (int r = 0; r < 3; ++r) m[r][col] = rhs[r];
      y[col] = det3(m) / det;
    }
    for (std::size_t j = 0; j < kNumJoints; ++j) {
      double dq = jac[0][j] * y[0] + jac[1][j] * y[1] + jac[2][j] * y[2];
      // Step clamp keeps the linearization valid.
      q[j] += std::clamp(dq, -0.3, 0.3);
    }
  }

  result.error = IkError::NoConvergence;
  return result;
}

// ---------------------------------------------------------------------------
// JointTrajectory
// ---------------------------------------------------------------------------

JointTrajectory::JointTrajectory(JointVector start, JointVector goal, std::size_t samples)
    : start_(start), goal_(goal), samples_(samples) {
  if (samples_ < 2) throw std::invalid_argument("JointTrajectory: need at least 2 samples");
}

JointVector JointTrajectory::at(std::size_t index) const {
  if (index >= samples_) throw std::out_of_range("JointTrajectory::at");
  double t = static_cast<double>(index) / static_cast<double>(samples_ - 1);
  JointVector q{};
  for (std::size_t i = 0; i < kNumJoints; ++i) {
    q[i] = start_[i] + (goal_[i] - start_[i]) * t;
  }
  return q;
}

geom::Polyline JointTrajectory::end_effector_path(const ArmModel& arm) const {
  geom::Polyline path;
  for (std::size_t i = 0; i < samples_; ++i) path.push_back(arm.forward(at(i)));
  return path;
}

// ---------------------------------------------------------------------------
// Presets
// ---------------------------------------------------------------------------

namespace {

constexpr double kPi = 3.14159265358979323846;

std::array<JointLimit, kNumJoints> symmetric_limits(double rad) {
  std::array<JointLimit, kNumJoints> out{};
  out.fill(JointLimit{-rad, rad});
  return out;
}

}  // namespace

ArmModel make_ur3e(const Transform& base) {
  // UR3e: 500 mm reach class. DH lengths approximate the published geometry.
  std::array<DhParam, kNumJoints> dh = {{
      {0.0, kPi / 2, 0.152, 0.0},    // shoulder pan
      {-0.244, 0.0, 0.0, 0.0},       // upper arm
      {-0.213, 0.0, 0.0, 0.0},       // forearm
      {0.0, kPi / 2, 0.131, 0.0},    // wrist 1
      {0.0, -kPi / 2, 0.0854, 0.0},  // wrist 2
      {0.0, 0.0, 0.0921, 0.0},       // wrist 3
  }};
  return ArmModel("UR3e", dh, symmetric_limits(2.0 * kPi), base, 0.045);
}

ArmModel make_ur5e(const Transform& base) {
  // UR5e: 850 mm reach class.
  std::array<DhParam, kNumJoints> dh = {{
      {0.0, kPi / 2, 0.1625, 0.0},
      {-0.425, 0.0, 0.0, 0.0},
      {-0.3922, 0.0, 0.0, 0.0},
      {0.0, kPi / 2, 0.1333, 0.0},
      {0.0, -kPi / 2, 0.0997, 0.0},
      {0.0, 0.0, 0.0996, 0.0},
  }};
  return ArmModel("UR5e", dh, symmetric_limits(2.0 * kPi), base, 0.06);
}

ArmModel make_viperx300(const Transform& base) {
  // ViperX 300: 750 mm horizontal reach, hobby-grade servos.
  std::array<DhParam, kNumJoints> dh = {{
      {0.0, kPi / 2, 0.127, 0.0},
      {-0.3, 0.0, 0.0, -kPi / 2},
      {-0.3, 0.0, 0.0, kPi / 2},
      {0.0, kPi / 2, 0.075, 0.0},
      {0.0, -kPi / 2, 0.065, 0.0},
      {0.0, 0.0, 0.066, 0.0},
  }};
  return ArmModel("ViperX-300", dh, symmetric_limits(kPi), base, 0.04);
}

ArmModel make_ned2(const Transform& base) {
  // Niryo Ned2: ~440 mm reach, educational arm.
  std::array<DhParam, kNumJoints> dh = {{
      {0.0, kPi / 2, 0.17, 0.0},
      {-0.21, 0.0, 0.0, -kPi / 2},
      {-0.0305, kPi / 2, 0.0, kPi / 2},
      {0.0, -kPi / 2, 0.2205, 0.0},
      {0.0, kPi / 2, 0.0, 0.0},
      {0.0, 0.0, 0.0735, 0.0},
  }};
  return ArmModel("Ned2", dh, symmetric_limits(kPi), base, 0.035);
}

JointVector sleep_configuration() { return {0.0, -1.85, 1.55, 0.0, 0.55, 0.0}; }

JointVector home_configuration() { return {0.0, -1.57, 0.0, -1.57, 0.0, 0.0}; }

}  // namespace rabit::kin
