// rabit::kin — six-axis robot arm kinematics.
//
// The labs in the paper use six-axis arms (UR3e in production, ViperX and
// Ned2 on the testbed). This module provides Denavit-Hartenberg chains,
// forward kinematics, a damped-least-squares numeric inverse-kinematics
// solver, joint-space trajectory interpolation, and approximate arm presets.
// Link positions from FK feed the Extended Simulator's collision polling.
#pragma once

#include <array>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "geometry/geometry.hpp"

namespace rabit::kin {

inline constexpr std::size_t kNumJoints = 6;

using JointVector = std::array<double, kNumJoints>;

/// One Denavit-Hartenberg row (standard convention): the transform from
/// link i-1 to link i is Rz(theta) Tz(d) Tx(a) Rx(alpha), with theta the
/// joint variable offset by `theta_offset`. ArmModel builds it in closed
/// form: two trig calls per link, alpha's cosine and sine kept per arm.
struct DhParam {
  double a = 0.0;             ///< link length (m)
  double alpha = 0.0;         ///< link twist (rad)
  double d = 0.0;             ///< link offset (m)
  double theta_offset = 0.0;  ///< fixed offset added to the joint angle (rad)
};

struct JointLimit {
  double min_rad;
  double max_rad;
};

/// Why an inverse-kinematics query failed. Mirrors the two real behaviours
/// observed in the paper's §IV category 4: targets outside the reachable
/// workspace, and solver non-convergence.
enum class IkError { OutOfReach, NoConvergence, JointLimit };

[[nodiscard]] std::string_view to_string(IkError e);

struct IkResult {
  std::optional<JointVector> joints;  ///< present on success
  IkError error = IkError::OutOfReach;
  int iterations = 0;
  double residual = 0.0;  ///< final position error (m)
};

/// A six-axis serial arm described by DH parameters, joint limits, and a
/// mounting pose in the lab frame.
class ArmModel {
 public:
  /// Throws std::invalid_argument on a non-positive link radius, an
  /// inverted joint limit or a non-finite DH parameter.
  ArmModel(std::string name, std::array<DhParam, kNumJoints> dh,
           std::array<JointLimit, kNumJoints> limits, geom::Transform base,
           double link_radius_m);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::array<DhParam, kNumJoints>& dh() const { return dh_; }
  [[nodiscard]] const geom::Transform& base() const { return base_; }
  [[nodiscard]] double link_radius() const { return link_radius_; }
  [[nodiscard]] const std::array<JointLimit, kNumJoints>& joint_limits() const { return limits_; }

  /// Maximum distance from the base the wrist can reach (sum of DH lengths).
  [[nodiscard]] double max_reach() const;

  /// Forward kinematics: end-effector position in the lab frame.
  [[nodiscard]] geom::Vec3 forward(const JointVector& joints) const;

  /// Positions of the base and every joint origin (7 points) in the lab
  /// frame; consecutive pairs are the arm's links for collision checks.
  [[nodiscard]] std::vector<geom::Vec3> link_points(const JointVector& joints) const;

  /// Arm links as segments, in the lab frame.
  [[nodiscard]] std::vector<geom::Segment> link_segments(const JointVector& joints) const;

  [[nodiscard]] bool within_limits(const JointVector& joints) const;

  /// Damped-least-squares IK for the end-effector position (orientation
  /// free). `seed` is the preferred starting configuration; a few canonical
  /// restarts are tried when it stalls. Each iteration builds the chain at
  /// the current joints once; the finite-difference Jacobian's columns
  /// reuse its prefixes and are bit for bit forward() at the nudged joints.
  [[nodiscard]] IkResult inverse(const geom::Vec3& target, const JointVector& seed) const;

  /// Quick reachability test against the workspace envelope.
  [[nodiscard]] bool reachable(const geom::Vec3& target) const;

 private:
  [[nodiscard]] IkResult solve_from(const geom::Vec3& target, const JointVector& seed) const;
  /// Link i's DH transform at joint angle `theta`.
  [[nodiscard]] geom::Transform link(std::size_t i, double theta) const;

  std::string name_;
  std::array<DhParam, kNumJoints> dh_;
  std::array<double, kNumJoints> cos_alpha_{};  ///< cos(dh_[i].alpha)
  std::array<double, kNumJoints> sin_alpha_{};  ///< sin(dh_[i].alpha)
  std::array<JointLimit, kNumJoints> limits_;
  geom::Transform base_;
  double link_radius_;
};

/// Linear joint-space trajectory between two configurations, sampled at
/// `samples` points (inclusive of endpoints). The Extended Simulator polls
/// the Cartesian path these samples trace.
class JointTrajectory {
 public:
  JointTrajectory(JointVector start, JointVector goal, std::size_t samples);

  [[nodiscard]] std::size_t samples() const { return samples_; }
  [[nodiscard]] JointVector at(std::size_t index) const;
  [[nodiscard]] const JointVector& start() const { return start_; }
  [[nodiscard]] const JointVector& goal() const { return goal_; }

  /// Cartesian end-effector path under `arm`.
  [[nodiscard]] geom::Polyline end_effector_path(const ArmModel& arm) const;

 private:
  JointVector start_;
  JointVector goal_;
  std::size_t samples_;
};

/// Approximate presets for the arms named in the paper. Dimensions follow the
/// vendors' published reach figures; exact DH tables are proprietary detail
/// the rule engine never depends on.
[[nodiscard]] ArmModel make_ur3e(const geom::Transform& base);
[[nodiscard]] ArmModel make_ur5e(const geom::Transform& base);
[[nodiscard]] ArmModel make_viperx300(const geom::Transform& base);
[[nodiscard]] ArmModel make_ned2(const geom::Transform& base);

/// A canonical tucked-in sleep configuration (used when a testbed arm parks
/// so the other may move — time multiplexing, §IV category 2).
[[nodiscard]] JointVector sleep_configuration();

/// A canonical upright home configuration.
[[nodiscard]] JointVector home_configuration();

}  // namespace rabit::kin
