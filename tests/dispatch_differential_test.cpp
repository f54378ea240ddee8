// The simulated lab's dispatch path against its references. ArmModel builds
// each DH link in closed form and reuses the chain's prefixes for the IK
// Jacobian; LabBackend keeps its ground-truth world and broad phase between
// arm moves. Neither may change a single bit: forward kinematics, link
// points and every IkResult field must equal a chain composed factor by
// factor (Rz Tz Tx Rx) whose Jacobian calls forward() once per column, and
// at every motion the kept world must equal a fresh build, with the grid's
// path verdicts equal to a full scan of that fresh build. The references
// below are those composed, per-call paths, written against public APIs.
// The dispatch work of a fixed workflow is held to an exact budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "assurance/assurance.hpp"
#include "bugs/bugs.hpp"
#include "core/lab.hpp"
#include "devices/fault.hpp"
#include "geometry/solid.hpp"
#include "kinematics/kinematics.hpp"
#include "rad/rad.hpp"
#include "script/workflows.hpp"
#include "sim/deck.hpp"
#include "sim/world.hpp"
#include "trace/trace.hpp"

namespace rabit {
namespace {

using geom::Transform;
using geom::Vec3;
using kin::ArmModel;
using kin::IkResult;
using kin::JointVector;
using kin::kNumJoints;

constexpr double kPi = 3.14159265358979323846;

// --- the composed references ----------------------------------------------------

/// A DH link as the product of its four factors, Rz(theta) Tz(d) Tx(a) Rx(alpha).
Transform composed_link(const kin::DhParam& p, double theta) {
  Transform rz = Transform::rotation_z(theta + p.theta_offset);
  Transform tz = Transform::translation(Vec3(0, 0, p.d));
  Transform tx = Transform::translation(Vec3(p.a, 0, 0));
  Transform rx = Transform::from_euler(p.alpha, 0, 0, Vec3());
  return rz * tz * tx * rx;
}

Vec3 composed_forward(const ArmModel& arm, const JointVector& joints) {
  Transform t = arm.base();
  for (std::size_t i = 0; i < kNumJoints; ++i) t = t * composed_link(arm.dh()[i], joints[i]);
  return t.apply(Vec3());
}

std::vector<Vec3> composed_link_points(const ArmModel& arm, const JointVector& joints) {
  std::vector<Vec3> points;
  Transform t = arm.base();
  points.push_back(t.apply(Vec3()));
  for (std::size_t i = 0; i < kNumJoints; ++i) {
    t = t * composed_link(arm.dh()[i], joints[i]);
    points.push_back(t.apply(Vec3()));
  }
  return points;
}

std::vector<geom::Segment> composed_link_segments(const ArmModel& arm, const JointVector& joints) {
  std::vector<Vec3> pts = composed_link_points(arm, joints);
  std::vector<geom::Segment> segs;
  for (std::size_t i = 1; i < pts.size(); ++i) segs.push_back(geom::Segment{pts[i - 1], pts[i]});
  return segs;
}

/// Damped least squares with one composed forward() per Jacobian column:
/// seven chains per iteration.
IkResult composed_solve_from(const ArmModel& arm, const Vec3& target, const JointVector& seed) {
  IkResult result;
  constexpr int kMaxIterations = 200;
  constexpr double kTolerance = 1e-4;
  constexpr double kLambda = 0.05;
  constexpr double kFiniteDiff = 1e-6;
  const auto& limits = arm.joint_limits();

  JointVector q = seed;
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    Vec3 current = composed_forward(arm, q);
    Vec3 err = target - current;
    result.iterations = iter;
    result.residual = err.norm();
    if (result.residual < kTolerance) {
      JointVector clamped = q;
      for (std::size_t i = 0; i < kNumJoints; ++i) {
        clamped[i] = std::clamp(clamped[i], limits[i].min_rad, limits[i].max_rad);
      }
      if (composed_forward(arm, clamped).distance_to(target) > kTolerance * 50) {
        result.error = kin::IkError::JointLimit;
        return result;
      }
      result.joints = clamped;
      return result;
    }
    std::array<std::array<double, kNumJoints>, 3> jac{};
    for (std::size_t j = 0; j < kNumJoints; ++j) {
      JointVector dq = q;
      dq[j] += kFiniteDiff;
      Vec3 moved = composed_forward(arm, dq);
      jac[0][j] = (moved.x - current.x) / kFiniteDiff;
      jac[1][j] = (moved.y - current.y) / kFiniteDiff;
      jac[2][j] = (moved.z - current.z) / kFiniteDiff;
    }
    std::array<std::array<double, 3>, 3> a{};
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 3; ++c) {
        double sum = 0.0;
        for (std::size_t j = 0; j < kNumJoints; ++j) sum += jac[r][j] * jac[c][j];
        a[r][c] = sum + (r == c ? kLambda * kLambda : 0.0);
      }
    }
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
      q[j] += std::clamp(dq, -0.3, 0.3);
    }
  }
  result.error = kin::IkError::NoConvergence;
  return result;
}

IkResult composed_inverse(const ArmModel& arm, const Vec3& target, const JointVector& seed) {
  IkResult result;
  Vec3 shoulder = arm.base().apply(Vec3(0, 0, arm.dh()[0].d));
  if (!(shoulder.distance_to(target) <= arm.max_reach() - arm.dh()[0].d * 0.0)) {
    result.error = kin::IkError::OutOfReach;
    return result;
  }
  Vec3 local = arm.base().inverse().apply(target);
  double toward = std::atan2(local.y, local.x);
  const JointVector seeds[] = {
      seed,
      {toward, -1.0, 0.8, 0.0, 0.5, 0.0},
      {toward, -1.57, 0.0, -1.57, 0.0, 0.0},
      kin::home_configuration(),
      kin::sleep_configuration(),
  };
  for (const JointVector& s : seeds) {
    IkResult attempt = composed_solve_from(arm, target, s);
    if (attempt.joints) return attempt;
    result = attempt;
  }
  return result;
}

/// The ground truth as built for every arm move: static obstacles, every
/// footprint (refined shapes as solids) but the moving arm's, and the other
/// arms' composed link segments.
sim::WorldModel fresh_ground_truth(const sim::LabBackend& backend, std::string_view moving_arm) {
  sim::WorldModel world;
  world.boxes = backend.static_obstacles();
  const dev::DeviceRegistry& registry = backend.registry();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const dev::Device* d = &registry.device(i);
    if (d->id() == moving_arm) continue;
    if (auto fp = d->footprint()) {
      sim::ObstacleKind kind = dynamic_cast<const dev::VialGrid*>(d) != nullptr
                                   ? sim::ObstacleKind::Grid
                                   : sim::ObstacleKind::Equipment;
      if (auto solid = d->shape()) {
        world.add_solid(d->id(), std::move(*solid), kind);
      } else {
        world.add_box(d->id(), *fp, kind);
      }
    }
    if (const auto* other = dynamic_cast<const dev::RobotArmDevice*>(d)) {
      for (const geom::Segment& seg : composed_link_segments(other->model(), other->joints())) {
        world.arm_segments.push_back(
            sim::ArmSegmentObstacle{other->id(), seg, other->model().link_radius()});
      }
    }
  }
  return world;
}

// --- bitwise comparison ------------------------------------------------------------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const Vec3& a, const Vec3& b) { return std::memcmp(&a, &b, sizeof(Vec3)) == 0; }

bool same_bits(const geom::Aabb& a, const geom::Aabb& b) {
  return same_bits(a.min, b.min) && same_bits(a.max, b.max);
}

bool same_bits(const geom::Segment& a, const geom::Segment& b) {
  return same_bits(a.a, b.a) && same_bits(a.b, b.b);
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

bool same_solid(const geom::Solid& a, const geom::Solid& b) {
  if (a.kind() != b.kind() || !same_bits(a.bounding_box(), b.bounding_box())) return false;
  switch (a.kind()) {
    case geom::Solid::Kind::Box: return same_bits(a.as_box(), b.as_box());
    case geom::Solid::Kind::Cylinder:
      return same_bits(a.as_cylinder().base_center, b.as_cylinder().base_center) &&
             same_bits(a.as_cylinder().radius, b.as_cylinder().radius) &&
             same_bits(a.as_cylinder().height, b.as_cylinder().height);
    case geom::Solid::Kind::Hemisphere:
      return same_bits(a.as_hemisphere().dome_base_center, b.as_hemisphere().dome_base_center) &&
             same_bits(a.as_hemisphere().radius, b.as_hemisphere().radius);
    case geom::Solid::Kind::Compound: {
      const auto& pa = a.as_compound();
      const auto& pb = b.as_compound();
      if (pa.size() != pb.size()) return false;
      for (std::size_t i = 0; i < pa.size(); ++i) {
        if (!same_solid(pa[i], pb[i])) return false;
      }
      return true;
    }
  }
  return false;
}

bool same_result(const IkResult& a, const IkResult& b) {
  if (a.joints.has_value() != b.joints.has_value()) return false;
  if (a.joints && std::memcmp(a.joints->data(), b.joints->data(), sizeof(JointVector)) != 0) {
    return false;
  }
  return a.error == b.error && a.iterations == b.iterations && same_bits(a.residual, b.residual);
}

bool same_report(const std::optional<sim::CollisionReport>& a,
                 const std::optional<sim::CollisionReport>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  return a->obstacle == b->obstacle && a->kind == b->kind && same_bits(a->position, b->position) &&
         a->via_held_object == b->via_held_object && a->arm_vs_arm == b->arm_vs_arm &&
         a->too_long_to_poll == b->too_long_to_poll;
}

std::string describe(const JointVector& q) {
  std::string out = "[";
  for (std::size_t i = 0; i < kNumJoints; ++i) {
    out += (i ? ", " : "") + std::to_string(q[i]) + (std::signbit(q[i]) && q[i] == 0 ? "(-0)" : "");
  }
  return out + "]";
}

// --- kinematics -------------------------------------------------------------------

std::vector<ArmModel> arms_on_four_bases() {
  const Transform bases[] = {
      Transform(),
      Transform::translation(Vec3(0.0, 0.0, 0.02)),
      // The testbed's Ned2 mount: across the deck, turned to face the ViperX.
      Transform::translation(Vec3(0.60, 0.10, 0.02)) * Transform::rotation_z(kPi),
      Transform::from_euler(0.3, -0.2, 1.1, Vec3(-0.4, 0.25, 0.5)),
  };
  std::vector<ArmModel> arms;
  for (const Transform& base : bases) {
    arms.push_back(kin::make_ur3e(base));
    arms.push_back(kin::make_ur5e(base));
    arms.push_back(kin::make_viperx300(base));
    arms.push_back(kin::make_ned2(base));
  }
  return arms;
}

/// Joint vectors at every special angle per joint (0, -0, +-pi/2, +-pi, the
/// angle that cancels the joint's offset, the joint limits), the named
/// poses, and random angles with special values mixed in.
std::vector<JointVector> joint_inputs(const ArmModel& arm, std::mt19937_64& rng,
                                      std::size_t random_count) {
  std::vector<JointVector> out = {kin::home_configuration(), kin::sleep_configuration(),
                                  JointVector{}};
  std::vector<double> specials_base = {0.0, -0.0, kPi / 2, -kPi / 2, kPi, -kPi};
  for (std::size_t j = 0; j < kNumJoints; ++j) {
    std::vector<double> specials = specials_base;
    specials.push_back(-arm.dh()[j].theta_offset);
    specials.push_back(arm.joint_limits()[j].min_rad);
    specials.push_back(arm.joint_limits()[j].max_rad);
    for (double v : specials) {
      for (const JointVector& pose :
           {kin::home_configuration(), kin::sleep_configuration(), JointVector{}}) {
        JointVector q = pose;
        q[j] = v;
        out.push_back(q);
      }
    }
  }
  for (double v : specials_base) {
    JointVector q;
    q.fill(v);
    out.push_back(q);
  }
  std::uniform_real_distribution<double> angle(-2 * kPi, 2 * kPi);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::size_t n = 0; n < random_count; ++n) {
    JointVector q;
    for (std::size_t j = 0; j < kNumJoints; ++j) {
      double roll = unit(rng);
      if (roll < 0.1) {
        q[j] = specials_base[rng() % specials_base.size()];
      } else if (roll < 0.15) {
        q[j] = -arm.dh()[j].theta_offset;
      } else {
        q[j] = angle(rng);
      }
    }
    out.push_back(q);
  }
  return out;
}

TEST(ExactKinematics, ForwardAndLinksMatchTheComposedChain) {
  std::mt19937_64 rng(20261019);
  std::size_t compared = 0;
  std::size_t differing = 0;
  for (const ArmModel& arm : arms_on_four_bases()) {
    for (const JointVector& q : joint_inputs(arm, rng, 2000)) {
      ++compared;
      std::vector<Vec3> ref_points = composed_link_points(arm, q);
      bool same = same_bits(arm.forward(q), composed_forward(arm, q)) &&
                  same_bits(arm.link_points(q), ref_points) &&
                  same_bits(arm.link_segments(q), composed_link_segments(arm, q));
      if (!same && ++differing <= 5) {
        ADD_FAILURE() << arm.name() << " at " << describe(q) << ": forward " << arm.forward(q)
                      << ", composed " << composed_forward(arm, q);
      }
    }
  }
  EXPECT_EQ(differing, 0u);
  EXPECT_GT(compared, 30000u);
}

TEST(ExactKinematics, NonFiniteJointsGiveNaNInTheSameComponents) {
  for (const ArmModel& arm : arms_on_four_bases()) {
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
      for (std::size_t j = 0; j < kNumJoints; ++j) {
        JointVector q = kin::home_configuration();
        q[j] = bad;
        std::vector<Vec3> points = arm.link_points(q);
        std::vector<Vec3> ref = composed_link_points(arm, q);
        ASSERT_EQ(points.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
          const bool finite_before = i <= j;
          EXPECT_EQ(std::isnan(points[i].x), std::isnan(ref[i].x)) << arm.name() << " " << i;
          EXPECT_EQ(std::isnan(points[i].y), std::isnan(ref[i].y)) << arm.name() << " " << i;
          EXPECT_EQ(std::isnan(points[i].z), std::isnan(ref[i].z)) << arm.name() << " " << i;
          if (finite_before) {
            EXPECT_TRUE(same_bits(points[i], ref[i])) << arm.name() << " " << i;
          }
        }
      }
    }
  }
}

struct IkTally {
  std::size_t queries = 0;
  std::size_t solved = 0;
  std::size_t differing = 0;
};

void compare_ik(const ArmModel& arm, const Vec3& target, const JointVector& seed, IkTally& t,
                const std::string& what) {
  IkResult got = arm.inverse(target, seed);
  IkResult ref = composed_inverse(arm, target, seed);
  ++t.queries;
  t.solved += ref.joints.has_value();
  if (!same_result(got, ref) && ++t.differing <= 5) {
    ADD_FAILURE() << arm.name() << " " << what << " target " << target << " seed "
                  << describe(seed) << ": " << kin::to_string(got.error) << " after "
                  << got.iterations << " (residual " << got.residual << "), composed "
                  << kin::to_string(ref.error) << " after " << ref.iterations << " (residual "
                  << ref.residual << ")";
  }
}

TEST(ExactKinematics, InverseMatchesTheSevenChainSolver) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> angle(-kPi, kPi);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  auto random_joints = [&] {
    JointVector q;
    for (double& v : q) v = angle(rng);
    return q;
  };
  IkTally t;
  std::vector<ArmModel> arms = arms_on_four_bases();
  for (const ArmModel& arm : arms) {
    const Vec3 shoulder = arm.base().apply(Vec3(0, 0, arm.dh()[0].d));
    for (int n = 0; n < 40; ++n) {
      // A reachable target (some joint vector's tip), from home and from a
      // random seed; a random point inside the reach sphere; and one time
      // in four a point near its rim, which seldom converges: a failed
      // query runs all five restarts to the iteration cap.
      const Vec3 reachable = arm.forward(random_joints());
      compare_ik(arm, reachable, kin::home_configuration(), t, "reachable");
      compare_ik(arm, reachable, random_joints(), t, "reachable");
      const Vec3 inside = shoulder + Vec3(unit(rng), unit(rng), unit(rng)) * (0.55 * arm.max_reach());
      compare_ik(arm, inside, random_joints(), t, "inside");
      if (n % 4 == 0) {
        const Vec3 direction = Vec3(unit(rng), unit(rng), unit(rng)).normalized();
        const double radius = (0.925 + 0.075 * unit(rng)) * arm.max_reach();
        compare_ik(arm, shoulder + direction * radius, random_joints(), t, "near the rim");
      }
    }
    // Out of reach, and non-finite or overflowing targets.
    const double inf = std::numeric_limits<double>::infinity();
    for (const Vec3& target :
         {shoulder + Vec3(2.0 * arm.max_reach(), 0, 0), shoulder + Vec3(0, 0, -1.01 * arm.max_reach()),
          Vec3(std::numeric_limits<double>::quiet_NaN(), 0, 0), Vec3(0, inf, 0), Vec3(0, 0, -inf),
          Vec3(1e308, 1e308, 1e308), Vec3(-1e308, 0, 0)}) {
      compare_ik(arm, target, kin::home_configuration(), t, "out of reach");
    }
  }

  // Every site of both decks, from each arm's deck pose and from home, at
  // the site and at the composite moves' safe lift above it.
  for (auto build : {sim::build_hein_production_deck, sim::build_hein_testbed_deck}) {
    sim::LabBackend backend(sim::testbed_profile());
    build(backend);
    for (std::size_t i = 0; i < backend.registry().size(); ++i) {
      const auto* arm = dynamic_cast<const dev::RobotArmDevice*>(&backend.registry().device(i));
      if (arm == nullptr) continue;
      for (const sim::SiteBinding& site : backend.sites()) {
        for (const Vec3& target : {site.lab_position, site.lab_position + Vec3(0, 0, 0.22)}) {
          compare_ik(arm->model(), target, arm->joints(), t, "site " + site.name);
          compare_ik(arm->model(), target, kin::home_configuration(), t, "site " + site.name);
        }
      }
    }
  }
  EXPECT_EQ(t.differing, 0u);
  EXPECT_GT(t.queries, 2000u);
  EXPECT_GT(t.solved, 1000u);
  EXPECT_GT(t.queries - t.solved, 300u);  // failures are compared too
}

// --- the kept ground truth --------------------------------------------------------

struct WorldTally {
  std::size_t motions = 0;
  std::size_t boxes = 0;
  std::size_t segments = 0;
  std::size_t paths = 0;
  std::size_t path_hits = 0;
  std::size_t differing = 0;
};

/// Compares the world `backend` kept for its last move (by `arm`, from
/// `start`) with a fresh build, box by box and segment by segment, and the
/// kept grid's path verdicts with a full scan of the fresh build, with no
/// station ignored and with each one ignored, empty-handed and holding.
void compare_kept(const sim::LabBackend& backend, const dev::RobotArmDevice& arm,
                  const Vec3& start, WorldTally& t, const std::string& what) {
  const sim::WorldModel& kept = backend.kept_ground_truth();
  const sim::WorldModel fresh = fresh_ground_truth(backend, arm.id());
  ++t.motions;
  auto fail = [&](const std::string& detail) {
    if (++t.differing <= 5) ADD_FAILURE() << what << ": " << detail;
  };

  if (kept.boxes.size() != fresh.boxes.size()) {
    fail(std::to_string(kept.boxes.size()) + " boxes, fresh build " +
         std::to_string(fresh.boxes.size()));
    return;
  }
  for (std::size_t i = 0; i < fresh.boxes.size(); ++i) {
    const sim::NamedBox& k = kept.boxes[i];
    const sim::NamedBox& f = fresh.boxes[i];
    ++t.boxes;
    bool same = k.name == f.name && same_bits(k.box, f.box) && k.kind == f.kind &&
                k.solid.has_value() == f.solid.has_value() &&
                (!k.solid || same_solid(*k.solid, *f.solid));
    if (!same) fail("box " + std::to_string(i) + " '" + k.name + "' differs from '" + f.name + "'");
  }
  if (kept.arm_segments.size() != fresh.arm_segments.size()) {
    fail(std::to_string(kept.arm_segments.size()) + " arm segments, fresh build " +
         std::to_string(fresh.arm_segments.size()));
    return;
  }
  for (std::size_t i = 0; i < fresh.arm_segments.size(); ++i) {
    const sim::ArmSegmentObstacle& k = kept.arm_segments[i];
    const sim::ArmSegmentObstacle& f = fresh.arm_segments[i];
    ++t.segments;
    if (k.arm_id != f.arm_id || !same_bits(k.segment, f.segment) || !same_bits(k.radius, f.radius)) {
      fail("arm segment " + std::to_string(i) + " of '" + k.arm_id + "' differs");
    }
  }

  const sim::BroadPhaseGrid& grid = backend.kept_ground_truth_grid();
  if (grid.box_count() != kept.boxes.size()) {
    fail("the grid indexes " + std::to_string(grid.box_count()) + " boxes");
  }
  sim::PathCheckOptions options;
  options.include_soft_walls = false;
  options.moving_arm_radius = arm.model().link_radius();
  std::vector<std::vector<std::string>> ignores = {{}};
  for (const sim::NamedBox& b : fresh.boxes) {
    if (backend.registry().find(b.name) != nullptr) ignores.push_back({b.name});
  }
  const Vec3 goal = arm.position_lab();
  for (double held : {arm.held_clearance(), arm.held_drop()}) {
    for (const std::vector<std::string>& ignore : ignores) {
      options.ignore = ignore;
      auto with_grid = sim::check_path(kept, start, goal, held, options, &grid);
      auto full_scan = sim::check_path(fresh, start, goal, held, options);
      ++t.paths;
      t.path_hits += full_scan.has_value();
      if (!same_report(with_grid, full_scan)) {
        fail("path " + std::to_string(start.x) + "," + std::to_string(start.y) + "," +
             std::to_string(start.z) + " -> goal, held " + std::to_string(held) +
             (ignore.empty() ? "" : ", ignoring " + ignore.front()) + ": grid " +
             (with_grid ? with_grid->describe() : "clear") + ", full scan " +
             (full_scan ? full_scan->describe() : "clear"));
      }
    }
  }
}

/// Steps `workflow` through `lab` without halting on alerts and compares
/// the kept world after every step that moved an arm, and every arm's kept
/// tip with forward kinematics of its joints after every step. Every motion
/// of a step is made by the commanded arm (no recovery policy, so no
/// safe-state sequence; an assurance demotion moves the commanded arm).
void run_compared(core::Lab& lab, const std::vector<dev::Command>& workflow,
                  std::optional<assurance::AssuranceConfig> assurance, WorldTally& t,
                  const std::string& what) {
  trace::Supervisor::Options options;
  options.halt_on_alert = false;
  options.assurance = assurance;
  trace::Supervisor supervisor(&lab.engine, &lab.backend, options);
  supervisor.start();
  dev::DeviceRegistry& registry = lab.backend.registry();
  for (std::size_t i = 0; i < workflow.size(); ++i) {
    const dev::Command& cmd = workflow[i];
    auto* arm = dynamic_cast<dev::RobotArmDevice*>(registry.find(cmd.device));
    const Vec3 start = arm != nullptr ? arm->position_lab() : Vec3();
    std::vector<JointVector> joints_before;
    for (std::size_t d = 0; d < registry.size(); ++d) {
      if (auto* a = dynamic_cast<dev::RobotArmDevice*>(&registry.device(d))) {
        joints_before.push_back(a->joints());
      }
    }
    const std::size_t motions = lab.backend.position_error_samples().size();
    const bool halted = supervisor.step(cmd).halted;
    const std::string step = what + " command " + std::to_string(i) + " " + cmd.describe();
    if (lab.backend.position_error_samples().size() != motions) {
      if (arm == nullptr) {
        ADD_FAILURE() << step << ": an arm moved on a command to a non-arm device";
      } else {
        std::size_t a_index = 0;
        for (std::size_t d = 0; d < registry.size(); ++d) {
          auto* a = dynamic_cast<dev::RobotArmDevice*>(&registry.device(d));
          if (a == nullptr) continue;
          if (a != arm && a->joints() != joints_before[a_index]) {
            ADD_FAILURE() << step << ": '" << a->id() << "' moved too";
          }
          ++a_index;
        }
        compare_kept(lab.backend, *arm, start, t, step);
      }
    }
    for (std::size_t d = 0; d < registry.size(); ++d) {
      const auto* a = dynamic_cast<const dev::RobotArmDevice*>(&registry.device(d));
      if (a == nullptr) continue;
      const Vec3 tip = a->model().forward(a->joints());
      if (!same_bits(a->position_lab(), tip) ||
          !same_bits(a->position_local(), a->to_local(tip))) {
        if (++t.differing <= 5) {
          ADD_FAILURE() << step << ": '" << a->id() << "' keeps its tip at " << a->position_lab()
                        << ", forward kinematics " << tip;
        }
      }
    }
    if (halted) break;
  }
}

std::vector<std::pair<std::string, std::string>> distinct_pairs(
    const std::vector<dev::Command>& workflow) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const dev::Command& c : workflow) {
    std::pair<std::string, std::string> p{c.device, c.action};
    if (std::find(pairs.begin(), pairs.end(), p) == pairs.end()) pairs.push_back(p);
  }
  return pairs;
}

std::vector<dev::Command> rad_session(unsigned seed) {
  sim::LabBackend staging(sim::testbed_profile());
  sim::build_hein_testbed_deck(staging);
  std::mt19937_64 rng(seed);
  return rad::synth_session(staging, rng);
}

TEST(KeptGroundTruth, CatalogueBugsUnderEveryVariant) {
  WorldTally t;
  for (core::Variant variant :
       {core::Variant::Initial, core::Variant::Modified, core::Variant::ModifiedWithSim}) {
    for (const bugs::BugSpec& bug : bugs::bug_catalogue()) {
      sim::LabBackend staging(sim::testbed_profile());
      sim::build_hein_testbed_deck(staging);
      core::Lab lab(variant);
      run_compared(lab, bug.build(staging), std::nullopt, t,
                   "bug " + bug.id + " at " + std::string(core::to_string(variant)));
      EXPECT_LE(lab.backend.ground_truth_builds(), 1u) << bug.id;
    }
  }
  EXPECT_EQ(t.differing, 0u);
  EXPECT_GT(t.motions, 200u);
  EXPECT_GT(t.path_hits, 0u);
}

TEST(KeptGroundTruth, TestbedWorkflowUnderChaos) {
  WorldTally t;
  for (unsigned seed = 1; seed <= 40; ++seed) {
    std::vector<dev::Command> workflow;
    core::Lab lab(core::Variant::ModifiedWithSim, 42, [&](sim::LabBackend& backend) {
      sim::build_hein_testbed_deck(backend);
      workflow = script::record_workflow(backend, script::testbed_workflow_source());
      dev::FaultSchedule::ChaosOptions chaos;
      chaos.horizon_s = 30.0;
      chaos.transient_count = 8;
      backend.set_fault_schedule(dev::FaultSchedule::chaos(seed, distinct_pairs(workflow), chaos));
    });
    run_compared(lab, workflow, std::nullopt, t, "chaos seed " + std::to_string(seed));
  }
  EXPECT_EQ(t.differing, 0u);
  EXPECT_GT(t.motions, 400u);
}

TEST(KeptGroundTruth, RadSessionsWithAssurance) {
  WorldTally t;
  for (unsigned seed = 1; seed <= 6; ++seed) {
    core::Lab lab(core::Variant::ModifiedWithSim);
    run_compared(lab, rad_session(seed), assurance::AssuranceConfig{}, t,
                 "rad seed " + std::to_string(seed));
  }
  EXPECT_EQ(t.differing, 0u);
  EXPECT_GT(t.motions, 50u);
}

dev::Command arm_command(const std::string& arm, const std::string& action) {
  dev::Command cmd;
  cmd.device = arm;
  cmd.action = action;
  return cmd;
}

/// Executes one arm command directly on the backend and compares the world
/// its motion was checked against.
void move_and_compare(sim::LabBackend& backend, const std::string& arm_id,
                      const std::string& action, WorldTally& t, const std::string& what) {
  dev::RobotArmDevice& arm = backend.arm(arm_id);
  const Vec3 start = arm.position_lab();
  const std::size_t motions = backend.position_error_samples().size();
  (void)backend.execute(arm_command(arm_id, action));
  ASSERT_EQ(backend.position_error_samples().size(), motions + 1) << what;
  compare_kept(backend, arm, start, t, what);
}

// Joints and the deck can change outside a backend move: a deck builder
// commits poses directly, and the registry and the static obstacles accept
// additions at any time. The kept world must follow each.
TEST(KeptGroundTruth, FollowsChangesMadeBetweenMoves) {
  using namespace sim::deck_ids;
  WorldTally t;
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  EXPECT_EQ(backend.ground_truth_builds(), 0u);
  move_and_compare(backend, kViperX, "go_home", t, "first move");
  EXPECT_EQ(backend.ground_truth_builds(), 1u);

  // The other arm moves outside the backend; the same arm moves next.
  dev::RobotArmDevice& ned2 = backend.arm(kNed2);
  ned2.commit_move(ned2.plan_pose("home"), "home");
  move_and_compare(backend, kViperX, "go_sleep", t, "after ned2 moved outside the backend");
  EXPECT_EQ(backend.ground_truth_builds(), 1u);

  // A station joins the registry.
  backend.registry().add(std::make_unique<dev::GenericActionDevice>(
      "late_station", std::vector<dev::GenericActionDevice::ValueActionSpec>{}, false,
      geom::Aabb(Vec3(0.2, 0.3, 0.02), Vec3(0.3, 0.4, 0.2))));
  move_and_compare(backend, kViperX, "go_home", t, "after a station joined");
  EXPECT_EQ(backend.ground_truth_builds(), 2u);

  // The moving arm alternates with no joint changed in between: each move
  // needs the other arm's links as they stand.
  move_and_compare(backend, kNed2, "go_home", t, "ned2 after viperx");
  move_and_compare(backend, kViperX, "go_sleep", t, "viperx after ned2");
  move_and_compare(backend, kNed2, "go_home", t, "ned2 again, nothing moved");

  // The other arm moves through the backend between two moves of the same
  // arm; then the same arm moves again with nothing in between.
  move_and_compare(backend, kViperX, "go_home", t, "viperx before ned2 moves");
  move_and_compare(backend, kNed2, "go_sleep", t, "ned2 moves through execute");
  move_and_compare(backend, kViperX, "go_sleep", t, "viperx after ned2 moved through execute");
  move_and_compare(backend, kViperX, "go_home", t, "viperx again");
  EXPECT_EQ(backend.ground_truth_builds(), 2u);

  // A static obstacle is added.
  backend.add_static_obstacle("late_wall", geom::Aabb(Vec3(-1, 0.9, 0), Vec3(1, 1.0, 1)),
                              sim::ObstacleKind::Wall);
  move_and_compare(backend, kNed2, "go_sleep", t, "after a wall was added");
  EXPECT_EQ(backend.ground_truth_builds(), 3u);

  // A third arm joins: its links are obstacles to both others from now on.
  backend.registry().add(std::make_unique<dev::RobotArmDevice>(
      "late_arm", kin::make_ur3e(Transform::translation(Vec3(0.3, -0.5, 0.02))),
      dev::MotionPolicy::SilentSkipOnUnreachable));
  move_and_compare(backend, kViperX, "go_sleep", t, "after a third arm joined");
  move_and_compare(backend, "late_arm", "go_sleep", t, "the third arm moves");
  move_and_compare(backend, kNed2, "go_home", t, "ned2 after the third arm moved");
  EXPECT_EQ(backend.ground_truth_builds(), 4u);
  EXPECT_EQ(backend.kept_ground_truth().arm_segments.size(), 2 * kNumJoints);

  EXPECT_EQ(t.differing, 0u);
  EXPECT_EQ(t.motions, 14u);
}

// --- work budget -------------------------------------------------------------------

// Exact totals; a budget may only tighten. Building the ground truth for
// every arm move made one build per motion: 23 on the testbed workflow.

struct DispatchWork {
  std::size_t arm_motions;
  std::size_t ground_truth_builds;
  friend bool operator==(const DispatchWork&, const DispatchWork&) = default;
};

void PrintTo(const DispatchWork& w, std::ostream* os) {
  *os << "{arm_motions " << w.arm_motions << ", ground_truth_builds " << w.ground_truth_builds
      << "}";
}

TEST(DispatchWorkBudget, TestbedWorkflowAtV3) {
  core::Lab lab(core::Variant::ModifiedWithSim);
  std::vector<dev::Command> workflow =
      script::record_workflow(lab.backend, script::testbed_workflow_source());
  trace::Supervisor supervisor(&lab.engine, &lab.backend);
  trace::RunReport report = supervisor.run(workflow);
  ASSERT_FALSE(report.halted);
  // One positioning-error sample per motion (LabBackend::position_error_samples).
  DispatchWork work{lab.backend.position_error_samples().size(), lab.backend.ground_truth_builds()};
  EXPECT_EQ(work, (DispatchWork{23, 1}));
}

}  // namespace
}  // namespace rabit
