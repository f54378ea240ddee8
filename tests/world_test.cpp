#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "sim/world.hpp"

namespace rabit::sim {
namespace {

using geom::Aabb;
using geom::Segment;
using geom::Vec3;

WorldModel one_box_world() {
  WorldModel w;
  w.add_box("station", Aabb(Vec3(-0.1, -0.1, 0.0), Vec3(0.1, 0.1, 0.2)),
            ObstacleKind::Equipment);
  return w;
}

TEST(WorldModel, FindAndContainQueries) {
  WorldModel w = one_box_world();
  EXPECT_NE(w.find_box("station"), nullptr);
  EXPECT_EQ(w.find_box("ghost"), nullptr);
  EXPECT_NE(w.box_containing(Vec3(0, 0, 0.1)), nullptr);
  EXPECT_EQ(w.box_containing(Vec3(0.5, 0, 0.1)), nullptr);
}

TEST(CheckPath, StraightLineHit) {
  WorldModel w = one_box_world();
  auto hit = check_path(w, Vec3(-0.5, 0, 0.1), Vec3(0.5, 0, 0.1), 0.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->obstacle, "station");
  EXPECT_EQ(hit->kind, ObstacleKind::Equipment);
  EXPECT_FALSE(hit->via_held_object);
  EXPECT_FALSE(hit->arm_vs_arm);
}

TEST(CheckPath, ClearPath) {
  WorldModel w = one_box_world();
  EXPECT_FALSE(check_path(w, Vec3(-0.5, 0, 0.5), Vec3(0.5, 0, 0.5), 0.0).has_value());
  EXPECT_FALSE(check_path(w, Vec3(-0.5, 0.5, 0.1), Vec3(0.5, 0.5, 0.1), 0.0).has_value());
}

TEST(CheckPath, DepartureFromBoundaryAllowed) {
  WorldModel w = one_box_world();
  // Start exactly on the box's top surface and lift straight out.
  auto hit = check_path(w, Vec3(0, 0, 0.2), Vec3(0, 0, 0.5), 0.0);
  EXPECT_FALSE(hit.has_value());
}

TEST(CheckPath, HeldObjectExtendsDownward) {
  WorldModel w = one_box_world();
  // The tip passes 5 cm above the box: clear when empty-handed...
  EXPECT_FALSE(check_path(w, Vec3(-0.5, 0, 0.25), Vec3(0.5, 0, 0.25), 0.0).has_value());
  // ...but a 7 cm vial hanging below clips it.
  auto hit = check_path(w, Vec3(-0.5, 0, 0.25), Vec3(0.5, 0, 0.25), 0.07);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->via_held_object);
}

TEST(CheckPath, IgnoreListSkipsDeliberateEntries) {
  WorldModel w = one_box_world();
  PathCheckOptions opts;
  opts.ignore.push_back("station");
  EXPECT_FALSE(check_path(w, Vec3(-0.5, 0, 0.1), Vec3(0.5, 0, 0.1), 0.0, opts).has_value());
}

TEST(CheckPath, SoftWallToggle) {
  WorldModel w;
  w.add_box("wall", Aabb(Vec3(0, -1, 0), Vec3(0.01, 1, 1)), ObstacleKind::SoftWall);
  PathCheckOptions with_walls;
  auto hit = check_path(w, Vec3(-0.5, 0, 0.5), Vec3(0.5, 0, 0.5), 0.0, with_walls);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->kind, ObstacleKind::SoftWall);
  PathCheckOptions without_walls;
  without_walls.include_soft_walls = false;
  EXPECT_FALSE(check_path(w, Vec3(-0.5, 0, 0.5), Vec3(0.5, 0, 0.5), 0.0, without_walls).has_value());
}

TEST(CheckPath, ArmSegmentProximity) {
  WorldModel w;
  w.arm_segments.push_back(
      ArmSegmentObstacle{"other_arm", Segment{Vec3(0, 0, 0), Vec3(0, 0, 0.5)}, 0.04});
  PathCheckOptions opts;
  opts.moving_arm_radius = 0.04;
  // Passing 5 cm away: within the 8 cm combined radius.
  auto hit = check_path(w, Vec3(-0.5, 0.05, 0.25), Vec3(0.5, 0.05, 0.25), 0.0, opts);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->arm_vs_arm);
  EXPECT_EQ(hit->obstacle, "other_arm");
  // Passing 20 cm away: clear.
  EXPECT_FALSE(check_path(w, Vec3(-0.5, 0.2, 0.25), Vec3(0.5, 0.2, 0.25), 0.0, opts)
                   .has_value());
}

TEST(CheckPath, HeldObjectCanHitArm) {
  WorldModel w;
  w.arm_segments.push_back(
      ArmSegmentObstacle{"other_arm", Segment{Vec3(0, 0, 0), Vec3(0.3, 0, 0)}, 0.04});
  PathCheckOptions opts;
  opts.moving_arm_radius = 0.04;
  // Tip passes 15 cm above the other arm (clear), but the held vial's bottom
  // comes within range.
  EXPECT_FALSE(check_path(w, Vec3(-0.5, 0, 0.15), Vec3(0.5, 0, 0.15), 0.0, opts).has_value());
  auto hit = check_path(w, Vec3(-0.5, 0, 0.15), Vec3(0.5, 0, 0.15), 0.10, opts);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->via_held_object);
  EXPECT_TRUE(hit->arm_vs_arm);
}

TEST(CheckPath, StepValidation) {
  WorldModel w = one_box_world();
  PathCheckOptions opts;
  opts.step = 0.0;
  EXPECT_THROW(
      static_cast<void>(check_path(w, Vec3(-1, 0, 0.1), Vec3(1, 0, 0.1), 0.0, opts)),
      std::invalid_argument);
}

TEST(CheckPath, CoarseStepCanMissThinObstacle) {
  // The premise of ablation A2: polling resolution bounds what the Extended
  // Simulator can catch.
  WorldModel w;
  w.add_box("thin", Aabb(Vec3(0, -1, 0), Vec3(0.005, 1, 1)), ObstacleKind::Wall);
  PathCheckOptions fine;
  fine.step = 0.002;
  EXPECT_TRUE(check_path(w, Vec3(-0.5, 0, 0.5), Vec3(0.5, 0, 0.5), 0.0, fine).has_value());
  PathCheckOptions coarse;
  coarse.step = 0.3;
  EXPECT_FALSE(
      check_path(w, Vec3(-0.51, 0, 0.5), Vec3(0.49, 0, 0.5), 0.0, coarse).has_value());
}

TEST(CheckPath, LegTooLongToPollIsAHitWithNoClearance) {
  // Past kMaxLegSamples a leg is never polled, so it never passes — not even
  // through empty space, and not where its sample count would overflow.
  WorldModel w = one_box_world();
  PathCheckOptions opts;
  const double past_cap = 2.0 * opts.step * static_cast<double>(kMaxLegSamples);
  for (double x : {past_cap, 1e18, 1e300, std::numeric_limits<double>::infinity()}) {
    auto hit = check_path(w, Vec3(0, 5, 0.1), Vec3(x, 5, 0.1), 0.0, opts);
    ASSERT_TRUE(hit.has_value()) << x;
    EXPECT_TRUE(hit->too_long_to_poll) << x;
    EXPECT_NE(hit->describe().find(std::to_string(kMaxLegSamples)), std::string::npos)
        << hit->describe();
  }

  // The barrier profile gives such a leg zero clearance from its start.
  MarginProfile profile =
      margin_profile(w, {Vec3(0, 5, 0.1), Vec3(0, 5.5, 0.1), Vec3(1e18, 5.5, 0.1)}, 0.0, opts);
  ASSERT_FALSE(profile.samples.empty());
  EXPECT_EQ(profile.min_margin_m, 0.0);
  EXPECT_EQ(profile.samples.back().h, 0.0);
  EXPECT_DOUBLE_EQ(profile.samples.back().s, 0.5);
  EXPECT_DOUBLE_EQ(profile.min_s_m, 0.5);
}

TEST(CheckPoint, TargetOnlySemantics) {
  WorldModel w = one_box_world();
  EXPECT_TRUE(check_point(w, Vec3(0, 0, 0.1), 0.0).has_value());
  EXPECT_FALSE(check_point(w, Vec3(0.5, 0, 0.1), 0.0).has_value());
  // The fallback of §II-B: an en-route collision is invisible to the
  // target-only check.
  EXPECT_FALSE(check_point(w, Vec3(0.5, 0, 0.1), 0.0).has_value());
  EXPECT_TRUE(check_path(w, Vec3(-0.5, 0, 0.1), Vec3(0.5, 0, 0.1), 0.0).has_value());
}

TEST(CollisionReport, Describe) {
  CollisionReport r{"grid", ObstacleKind::Grid, Vec3(1, 2, 3), true, false};
  std::string d = r.describe();
  EXPECT_NE(d.find("grid"), std::string::npos);
  EXPECT_NE(d.find("held object"), std::string::npos);
  CollisionReport arm{"ned2", ObstacleKind::Equipment, Vec3(), false, true};
  EXPECT_NE(arm.describe().find("robot arm"), std::string::npos);
}

TEST(ObstacleKind, Names) {
  EXPECT_EQ(to_string(ObstacleKind::Ground), "ground");
  EXPECT_EQ(to_string(ObstacleKind::SoftWall), "soft_wall");
  EXPECT_EQ(to_string(ObstacleKind::ParkedArm), "parked_arm");
}

}  // namespace
}  // namespace rabit::sim
