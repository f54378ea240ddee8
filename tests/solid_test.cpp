// Non-cuboid solids (the §V-C shapes extension).
#include <gtest/gtest.h>

#include <random>

#include "core/config.hpp"
#include "core/rules.hpp"
#include "devices/stations.hpp"
#include "geometry/solid.hpp"
#include "sim/deck.hpp"
#include "sim/world.hpp"

namespace rabit::geom {
namespace {

TEST(Solid, BoxBehavesLikeAabb) {
  Aabb b(Vec3(0, 0, 0), Vec3(1, 1, 1));
  Solid s = Solid::box(b);
  EXPECT_EQ(s.kind(), Solid::Kind::Box);
  EXPECT_TRUE(s.contains(Vec3(0.5, 0.5, 0.5)));
  EXPECT_FALSE(s.contains(Vec3(1.5, 0.5, 0.5)));
  EXPECT_TRUE(s.intersects_box(Aabb(Vec3(0.5, 0.5, 0.5), Vec3(2, 2, 2))));
  EXPECT_FALSE(s.intersects_box(Aabb(Vec3(2, 2, 2), Vec3(3, 3, 3))));
  EXPECT_TRUE(approx_equal(s.bounding_box(), b));
}

TEST(Solid, CylinderContainment) {
  Solid c = Solid::vertical_cylinder(Vec3(0, 0, 0), 1.0, 2.0);
  EXPECT_EQ(c.kind(), Solid::Kind::Cylinder);
  EXPECT_TRUE(c.contains(Vec3(0, 0, 1)));
  EXPECT_TRUE(c.contains(Vec3(0.99, 0, 1)));
  EXPECT_FALSE(c.contains(Vec3(0.9, 0.9, 1)));  // corner of the bounding box
  EXPECT_FALSE(c.contains(Vec3(0, 0, 2.1)));
  EXPECT_FALSE(c.contains(Vec3(0, 0, -0.1)));
  EXPECT_TRUE(approx_equal(c.bounding_box(), Aabb(Vec3(-1, -1, 0), Vec3(1, 1, 2))));
  EXPECT_THROW(Solid::vertical_cylinder(Vec3(), 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Solid::vertical_cylinder(Vec3(), 1.0, -1.0), std::invalid_argument);
}

TEST(Solid, CylinderBoxIntersection) {
  Solid c = Solid::vertical_cylinder(Vec3(0, 0, 0), 1.0, 2.0);
  // A box at the bounding-box corner misses the round body.
  EXPECT_FALSE(c.intersects_box(Aabb(Vec3(0.8, 0.8, 0.5), Vec3(1.2, 1.2, 1.0))));
  // A box touching the side hits it.
  EXPECT_TRUE(c.intersects_box(Aabb(Vec3(0.9, -0.1, 0.5), Vec3(1.5, 0.1, 1.0))));
  // Above and below miss.
  EXPECT_FALSE(c.intersects_box(Aabb(Vec3(-0.2, -0.2, 2.1), Vec3(0.2, 0.2, 3.0))));
  EXPECT_FALSE(c.intersects_box(Aabb(Vec3(-0.2, -0.2, -1.0), Vec3(0.2, 0.2, -0.1))));
}

TEST(Solid, HemisphereContainment) {
  Solid h = Solid::hemisphere(Vec3(0, 0, 1), 1.0);
  EXPECT_EQ(h.kind(), Solid::Kind::Hemisphere);
  EXPECT_TRUE(h.contains(Vec3(0, 0, 1.5)));
  EXPECT_TRUE(h.contains(Vec3(0, 0, 2.0)));    // apex
  EXPECT_FALSE(h.contains(Vec3(0, 0, 0.5)));   // below the base plane
  EXPECT_FALSE(h.contains(Vec3(0.9, 0.9, 1.2)));  // bounding-box corner
  EXPECT_TRUE(approx_equal(h.bounding_box(), Aabb(Vec3(-1, -1, 1), Vec3(1, 1, 2))));
}

TEST(Solid, HemisphereBoxIntersection) {
  Solid h = Solid::hemisphere(Vec3(0, 0, 0), 1.0);
  // A box over the dome's top corner region misses the curved surface...
  EXPECT_FALSE(h.intersects_box(Aabb(Vec3(0.75, 0.75, 0.75), Vec3(1.2, 1.2, 1.2))));
  // ...but one through the dome center hits.
  EXPECT_TRUE(h.intersects_box(Aabb(Vec3(-0.1, -0.1, 0.5), Vec3(0.1, 0.1, 1.5))));
  // Entirely below the base plane: no intersection even within the sphere.
  EXPECT_FALSE(h.intersects_box(Aabb(Vec3(-0.1, -0.1, -0.5), Vec3(0.1, 0.1, -0.05))));
}

TEST(Solid, CompoundUnion) {
  Solid body = Solid::box(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 0.5)));
  Solid bump = Solid::box(Aabb(Vec3(0.4, 0.4, 0.5), Vec3(0.6, 0.6, 0.8)));
  Solid shape = Solid::compound({body, bump});
  EXPECT_EQ(shape.kind(), Solid::Kind::Compound);
  EXPECT_TRUE(shape.contains(Vec3(0.1, 0.1, 0.2)));  // body
  EXPECT_TRUE(shape.contains(Vec3(0.5, 0.5, 0.7)));  // bump
  EXPECT_FALSE(shape.contains(Vec3(0.1, 0.1, 0.7)));  // beside the bump
  EXPECT_TRUE(approx_equal(shape.bounding_box(), Aabb(Vec3(0, 0, 0), Vec3(1, 1, 0.8))));
  EXPECT_THROW(Solid::compound({}), std::invalid_argument);
}

TEST(Solid, AccessorsTypeChecked) {
  Solid b = Solid::box(Aabb(Vec3(), Vec3(1, 1, 1)));
  EXPECT_NO_THROW(static_cast<void>(b.as_box()));
  EXPECT_THROW(static_cast<void>(b.as_cylinder()), std::logic_error);
  EXPECT_THROW(static_cast<void>(b.as_hemisphere()), std::logic_error);
  EXPECT_THROW(static_cast<void>(b.as_compound()), std::logic_error);
}

/// Property: a solid is always contained within its bounding box, and
/// intersects_box is consistent with dense containment sampling.
class SolidProperty : public ::testing::TestWithParam<int> {};

TEST_P(SolidProperty, ContainmentWithinBounds) {
  Solid solids[] = {
      Solid::box(Aabb(Vec3(-0.5, -0.3, 0), Vec3(0.5, 0.3, 0.4))),
      Solid::vertical_cylinder(Vec3(0.1, -0.1, 0.05), 0.4, 0.5),
      Solid::hemisphere(Vec3(0, 0, 0.2), 0.45),
      Solid::compound({Solid::box(Aabb(Vec3(-0.4, -0.4, 0), Vec3(0.4, 0.4, 0.2))),
                       Solid::hemisphere(Vec3(0, 0, 0.2), 0.3)}),
  };
  const Solid& s = solids[GetParam()];
  std::mt19937 rng(static_cast<unsigned>(GetParam()) + 1);
  std::uniform_real_distribution<double> coord(-1.0, 1.0);
  for (int i = 0; i < 2000; ++i) {
    Vec3 p(coord(rng), coord(rng), coord(rng));
    if (s.contains(p)) {
      EXPECT_TRUE(s.bounding_box().contains(p));
      // A tiny box around a contained point must intersect.
      EXPECT_TRUE(s.intersects_box(Aabb::from_center(p, Vec3(0.01, 0.01, 0.01))));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SolidProperty, ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace rabit::geom

namespace rabit {
namespace {

using geom::Aabb;
using geom::Solid;
using geom::Vec3;

TEST(DeviceShapes, CentrifugeIsDomed) {
  Aabb fp = Aabb::from_center(Vec3(-0.45, 0.0, 0.10), Vec3(0.18, 0.18, 0.16));
  dev::CentrifugeModel cf("cf", fp);
  auto shape = cf.shape();
  ASSERT_TRUE(shape.has_value());
  // The shape stays inside the cuboid footprint...
  EXPECT_TRUE(geom::approx_equal(shape->bounding_box(), fp, 1e-9));
  // ...and the cuboid's top corners are NOT part of the real device.
  Vec3 corner(fp.max.x - 0.005, fp.max.y - 0.005, fp.max.z - 0.005);
  EXPECT_TRUE(fp.contains(corner));
  EXPECT_FALSE(shape->contains(corner));
  // The dome apex is.
  EXPECT_TRUE(shape->contains(Vec3(-0.45, 0.0, fp.max.z - 0.001)));
}

TEST(DeviceShapes, ThermoshakerHasBump) {
  Aabb fp = Aabb::from_center(Vec3(0.35, -0.25, 0.07), Vec3(0.14, 0.14, 0.10));
  dev::ThermoshakerModel ts("ts", 110.0, fp);
  auto shape = ts.shape();
  ASSERT_TRUE(shape.has_value());
  EXPECT_TRUE(geom::approx_equal(shape->bounding_box(), fp, 1e-9));
  // Above the body but beside the bump: free in reality, blocked by cuboid.
  Vec3 beside_bump(fp.max.x - 0.005, fp.max.y - 0.005, fp.max.z - 0.005);
  EXPECT_FALSE(shape->contains(beside_bump));
  // On the bump itself: occupied.
  EXPECT_TRUE(shape->contains(Vec3(0.35, -0.25, fp.max.z - 0.005)));
}

TEST(DeviceShapes, GroundTruthUsesRefinedShapes) {
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  sim::WorldModel world = backend.ground_truth_world("");
  const sim::NamedBox* cf = world.find_box(sim::deck_ids::kCentrifuge);
  ASSERT_NE(cf, nullptr);
  EXPECT_TRUE(cf->solid.has_value());
  // The cuboid's top corner is free space in ground truth.
  Vec3 corner(cf->box.max.x - 0.005, cf->box.max.y - 0.005, cf->box.max.z - 0.005);
  EXPECT_FALSE(cf->contains(corner));
  EXPECT_TRUE(cf->box.contains(corner));
}

TEST(DeviceShapes, RuleWorldUsesCuboidsByDefault) {
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  core::EngineConfig cfg = core::config_from_backend(backend, core::Variant::Modified);
  core::StateTracker tracker(&cfg);
  tracker.initialize(backend.registry().fetch_observed_state());
  // Open the centrifuge so G1 lets a target inside it through to G3.
  tracker.set_var(sim::deck_ids::kCentrifuge, "doorStatus", "open");
  // A target in the top corner of the centrifuge's cuboid, which is free
  // space in its refined shape.
  const Aabb fp = *backend.registry().at(sim::deck_ids::kCentrifuge).footprint();
  Vec3 corner(fp.max.x - 0.01, fp.max.y - 0.01, fp.max.z - 0.01);
  Vec3 local = cfg.find_device(sim::deck_ids::kViperX)->base.inverse().apply(corner);
  json::Object args;
  args["position"] = json::Array{local.x, local.y, local.z};
  dev::Command move;
  move.device = sim::deck_ids::kViperX;
  move.action = "move_to";
  move.args = json::Value(std::move(args));

  // The paper's deployed RABIT: cuboids only, so the corner is occupied.
  std::optional<core::RuleHit> cuboid = core::check_preconditions(cfg, tracker, move);
  ASSERT_TRUE(cuboid.has_value());
  EXPECT_EQ(cuboid->rule, "G3");
  EXPECT_NE(cuboid->message.find("equipment 'centrifuge'"), std::string::npos)
      << cuboid->message;
  // With the §V-C extension enabled, refined shapes flow through.
  cfg.use_refined_shapes = true;
  std::optional<core::RuleHit> refined = core::check_preconditions(cfg, tracker, move);
  EXPECT_FALSE(refined.has_value()) << refined->message;
}

TEST(DeviceShapes, ConfigJsonRoundTripsSolids) {
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  core::EngineConfig cfg = core::config_from_backend(backend, core::Variant::Modified);
  cfg.use_refined_shapes = true;
  core::EngineConfig round = core::config_from_json(core::config_to_json(cfg));
  EXPECT_TRUE(round.use_refined_shapes);
  const core::DeviceMeta* cf = round.find_device(sim::deck_ids::kCentrifuge);
  ASSERT_NE(cf, nullptr);
  ASSERT_TRUE(cf->refined_shape.has_value());
  EXPECT_EQ(cf->refined_shape->kind(), Solid::Kind::Compound);
  const core::DeviceMeta* orig = cfg.find_device(sim::deck_ids::kCentrifuge);
  EXPECT_TRUE(geom::approx_equal(cf->refined_shape->bounding_box(),
                                 orig->refined_shape->bounding_box(), 1e-9));
  // Containment agrees on sample points.
  for (double z : {0.05, 0.10, 0.15, 0.175}) {
    Vec3 p(-0.45 + 0.07, 0.0 + 0.07, z);
    EXPECT_EQ(cf->refined_shape->contains(p), orig->refined_shape->contains(p)) << z;
  }
}

TEST(DeviceShapes, CuboidModelOverApproximates) {
  // The crux of the §V-C complaint: a path grazing the centrifuge cuboid's
  // top corner is a false alarm under the cuboid model, clear under the
  // refined model, and physically clear in ground truth.
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  const geom::Aabb fp = *backend.registry().at(sim::deck_ids::kCentrifuge).footprint();
  Vec3 graze(fp.max.x - 0.01, fp.max.y - 0.01, fp.max.z - 0.01);

  sim::WorldModel cuboid = sim::deck_world_model(backend);
  sim::WorldModel refined = sim::deck_world_model(backend, /*refined_shapes=*/true);
  EXPECT_TRUE(sim::check_point(cuboid, graze, 0.0).has_value());
  EXPECT_FALSE(sim::check_point(refined, graze, 0.0).has_value());
  // The dome interior is flagged by both.
  Vec3 apex(fp.center().x, fp.center().y, fp.max.z - 0.01);
  EXPECT_TRUE(sim::check_point(cuboid, apex, 0.0).has_value());
  EXPECT_TRUE(sim::check_point(refined, apex, 0.0).has_value());
}

}  // namespace
}  // namespace rabit
