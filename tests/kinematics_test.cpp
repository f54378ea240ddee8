#include "kinematics/kinematics.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <random>

namespace rabit::kin {
namespace {

using geom::Transform;
using geom::Vec3;

ArmModel test_arm() { return make_ur3e(Transform::translation(Vec3(0, 0, 0.02))); }

TEST(ArmModel, ConstructionValidation) {
  std::array<DhParam, kNumJoints> dh{};
  std::array<JointLimit, kNumJoints> limits{};
  limits.fill(JointLimit{-1, 1});
  EXPECT_THROW(ArmModel("bad", dh, limits, Transform(), 0.0), std::invalid_argument);
  limits[2] = JointLimit{1, -1};
  EXPECT_THROW(ArmModel("bad", dh, limits, Transform(), 0.05), std::invalid_argument);
  limits[2] = JointLimit{-1, 1};
  EXPECT_NO_THROW(ArmModel("ok", dh, limits, Transform(), 0.05));
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    for (double DhParam::*field : {&DhParam::a, &DhParam::alpha, &DhParam::d,
                                   &DhParam::theta_offset}) {
      std::array<DhParam, kNumJoints> broken = dh;
      broken[3].*field = bad;
      EXPECT_THROW(ArmModel("bad", broken, limits, Transform(), 0.05), std::invalid_argument);
    }
  }
}

TEST(ArmModel, ForwardAtZeroIsDeterministic) {
  ArmModel arm = test_arm();
  JointVector zeros{};
  Vec3 p1 = arm.forward(zeros);
  Vec3 p2 = arm.forward(zeros);
  EXPECT_TRUE(geom::approx_equal(p1, p2));
}

TEST(ArmModel, BaseTransformShiftsWorkspace) {
  ArmModel at_origin = make_ur3e(Transform());
  ArmModel shifted = make_ur3e(Transform::translation(Vec3(1, 2, 3)));
  JointVector q = home_configuration();
  EXPECT_TRUE(
      geom::approx_equal(shifted.forward(q), at_origin.forward(q) + Vec3(1, 2, 3), 1e-9));
}

TEST(ArmModel, LinkPointsChainIsConnected) {
  ArmModel arm = test_arm();
  JointVector q = home_configuration();
  auto pts = arm.link_points(q);
  ASSERT_EQ(pts.size(), kNumJoints + 1);
  // First point is the base, last is the end effector.
  EXPECT_TRUE(geom::approx_equal(pts.front(), Vec3(0, 0, 0.02)));
  EXPECT_TRUE(geom::approx_equal(pts.back(), arm.forward(q)));
  auto segs = arm.link_segments(q);
  ASSERT_EQ(segs.size(), kNumJoints);
  for (std::size_t i = 0; i < segs.size(); ++i) {
    EXPECT_TRUE(geom::approx_equal(segs[i].a, pts[i]));
    EXPECT_TRUE(geom::approx_equal(segs[i].b, pts[i + 1]));
  }
}

TEST(ArmModel, WithinLimits) {
  ArmModel arm = test_arm();
  EXPECT_TRUE(arm.within_limits(home_configuration()));
  JointVector q{};
  q[0] = 100.0;
  EXPECT_FALSE(arm.within_limits(q));
}

TEST(ArmModel, ReachabilityEnvelope) {
  ArmModel arm = test_arm();
  EXPECT_TRUE(arm.reachable(Vec3(0.3, 0.1, 0.2)));
  EXPECT_FALSE(arm.reachable(Vec3(0.35, 0.3, 2.0)));  // the paper's "very high" target
  EXPECT_FALSE(arm.reachable(Vec3(5, 0, 0)));
}

TEST(ArmModel, InverseOutOfReachReportsError) {
  ArmModel arm = test_arm();
  IkResult r = arm.inverse(Vec3(0, 0, 5), home_configuration());
  EXPECT_FALSE(r.joints.has_value());
  EXPECT_EQ(r.error, IkError::OutOfReach);
  EXPECT_EQ(to_string(r.error), "target out of reach");
}

struct IkCase {
  const char* arm;
  Vec3 target;
};

// Prints the arm name, not its address: CTest names parameterized cases after
// this text, and an address would rename the case on every build.
void PrintTo(const IkCase& c, std::ostream* os) { *os << c.arm << " " << c.target; }

class IkRoundTrip : public ::testing::TestWithParam<IkCase> {};

TEST_P(IkRoundTrip, SolvesAndForwardMatches) {
  const IkCase& c = GetParam();
  Transform base = Transform::translation(Vec3(0, 0, 0.02));
  ArmModel arm = std::string(c.arm) == "ur3e"     ? make_ur3e(base)
                 : std::string(c.arm) == "ur5e"   ? make_ur5e(base)
                 : std::string(c.arm) == "viperx" ? make_viperx300(base)
                                                  : make_ned2(base);
  IkResult r = arm.inverse(c.target, home_configuration());
  ASSERT_TRUE(r.joints.has_value())
      << arm.name() << " failed: " << to_string(r.error) << " residual " << r.residual;
  EXPECT_LT(arm.forward(*r.joints).distance_to(c.target), 5e-3);
  EXPECT_TRUE(arm.within_limits(*r.joints));
}

INSTANTIATE_TEST_SUITE_P(
    DeckTargets, IkRoundTrip,
    ::testing::Values(IkCase{"ur3e", Vec3(0.30, 0.30, 0.11)},   // grid
                      IkCase{"ur3e", Vec3(0.0, 0.45, 0.10)},    // dosing device
                      IkCase{"ur3e", Vec3(-0.35, 0.25, 0.16)},  // hotplate
                      IkCase{"ur3e", Vec3(-0.45, 0.0, 0.10)},   // centrifuge
                      IkCase{"ur3e", Vec3(0.35, -0.25, 0.14)},  // thermoshaker
                      IkCase{"viperx", Vec3(0.30, 0.30, 0.11)},
                      IkCase{"viperx", Vec3(0.0, 0.45, 0.10)},
                      IkCase{"viperx", Vec3(-0.35, 0.25, 0.30)},
                      IkCase{"viperx", Vec3(0.0, 0.45, 0.32)},
                      IkCase{"ned2", Vec3(0.25, 0.15, 0.15)},
                      IkCase{"ned2", Vec3(0.30, -0.10, 0.20)},
                      IkCase{"ur5e", Vec3(0.5, 0.3, 0.3)}));

/// Property: random reachable targets solve, and forward kinematics lands on
/// them within tolerance.
class IkProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(IkProperty, RandomReachableTargets) {
  std::mt19937 rng(GetParam());
  ArmModel arm = make_viperx300(Transform::translation(Vec3(0, 0, 0.02)));
  std::uniform_real_distribution<double> radius(0.20, 0.45);
  std::uniform_real_distribution<double> angle(-2.0, 2.0);
  std::uniform_real_distribution<double> height(0.08, 0.40);

  int solved = 0;
  constexpr int kTrials = 25;
  for (int i = 0; i < kTrials; ++i) {
    double r = radius(rng);
    double a = angle(rng);
    Vec3 target(r * std::cos(a), r * std::sin(a), height(rng));
    IkResult result = arm.inverse(target, home_configuration());
    if (result.joints) {
      ++solved;
      EXPECT_LT(arm.forward(*result.joints).distance_to(target), 5e-3);
    }
  }
  // The solver must handle virtually all sane tabletop targets.
  EXPECT_GE(solved, kTrials - 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IkProperty, ::testing::Values(3u, 17u, 99u));

TEST(JointTrajectory, InterpolatesLinearly) {
  JointVector start{};
  JointVector goal{};
  goal.fill(1.0);
  JointTrajectory traj(start, goal, 5);
  EXPECT_EQ(traj.samples(), 5u);
  EXPECT_DOUBLE_EQ(traj.at(0)[0], 0.0);
  EXPECT_DOUBLE_EQ(traj.at(2)[3], 0.5);
  EXPECT_DOUBLE_EQ(traj.at(4)[5], 1.0);
  EXPECT_THROW(static_cast<void>(traj.at(5)), std::out_of_range);
  EXPECT_THROW(JointTrajectory(start, goal, 1), std::invalid_argument);
}

TEST(JointTrajectory, EndEffectorPathEndsAtGoals) {
  ArmModel arm = test_arm();
  JointVector start = home_configuration();
  JointVector goal = sleep_configuration();
  JointTrajectory traj(start, goal, 16);
  geom::Polyline path = traj.end_effector_path(arm);
  ASSERT_EQ(path.size(), 16u);
  EXPECT_TRUE(geom::approx_equal(path.points().front(), arm.forward(start), 1e-9));
  EXPECT_TRUE(geom::approx_equal(path.points().back(), arm.forward(goal), 1e-9));
}

TEST(Presets, ReachOrdering) {
  // UR5e reaches farther than UR3e; Ned2 is the smallest of the testbed pair.
  Transform base;
  EXPECT_GT(make_ur5e(base).max_reach(), make_ur3e(base).max_reach());
  EXPECT_GT(make_viperx300(base).max_reach(), make_ned2(base).max_reach());
}

TEST(Presets, DistinctNames) {
  Transform base;
  EXPECT_EQ(make_ur3e(base).name(), "UR3e");
  EXPECT_EQ(make_ur5e(base).name(), "UR5e");
  EXPECT_EQ(make_viperx300(base).name(), "ViperX-300");
  EXPECT_EQ(make_ned2(base).name(), "Ned2");
}

}  // namespace
}  // namespace rabit::kin
