// Standard-deck invariants: geometry regressions here would silently skew
// every experiment, so pin them down.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/config.hpp"
#include "devices/robot_arm.hpp"
#include "sim/deck.hpp"

namespace rabit::sim {
namespace {

using geom::Vec3;
namespace ids = deck_ids;

class DeckInvariants : public ::testing::TestWithParam<const char*> {
 protected:
  DeckInvariants()
      : backend(std::string(GetParam()) == "production" ? production_profile()
                                                        : testbed_profile()) {
    if (std::string(GetParam()) == "production") {
      build_hein_production_deck(backend);
    } else {
      build_hein_testbed_deck(backend);
    }
  }

  std::vector<const dev::RobotArmDevice*> arms() const {
    std::vector<const dev::RobotArmDevice*> out;
    for (const dev::Device* d : backend.registry().all()) {
      if (const auto* arm = dynamic_cast<const dev::RobotArmDevice*>(d)) out.push_back(arm);
    }
    return out;
  }

  LabBackend backend;
};

TEST_P(DeckInvariants, DeviceFootprintsAreDisjoint) {
  std::vector<std::pair<std::string, geom::Aabb>> footprints;
  for (const dev::Device* d : backend.registry().all()) {
    if (auto fp = d->footprint()) footprints.emplace_back(d->id(), *fp);
  }
  for (std::size_t i = 0; i < footprints.size(); ++i) {
    for (std::size_t j = i + 1; j < footprints.size(); ++j) {
      EXPECT_FALSE(footprints[i].second.intersects(footprints[j].second))
          << footprints[i].first << " overlaps " << footprints[j].first;
    }
  }
}

TEST_P(DeckInvariants, FootprintsSitOnThePlatform) {
  for (const dev::Device* d : backend.registry().all()) {
    if (auto fp = d->footprint()) {
      EXPECT_NEAR(fp->min.z, 0.02, 1e-9) << d->id() << " floats or sinks";
      EXPECT_LE(fp->max.x, 0.9) << d->id() << " pokes into a wall";
      EXPECT_GE(fp->min.x, -0.9) << d->id();
      EXPECT_LE(fp->max.y, 0.9) << d->id();
      EXPECT_GE(fp->min.y, -0.9) << d->id();
    }
  }
}

TEST_P(DeckInvariants, EverySiteIsReachableBySomeArm) {
  for (const SiteBinding& site : backend.sites()) {
    bool reachable = false;
    for (const dev::RobotArmDevice* arm : arms()) {
      reachable |= arm->model().reachable(site.lab_position);
    }
    EXPECT_TRUE(reachable) << "no arm reaches site " << site.name;
  }
}

TEST_P(DeckInvariants, SiteBindingsResolve) {
  for (const SiteBinding& site : backend.sites()) {
    if (site.is_grid_slot()) {
      EXPECT_NE(backend.registry().find(site.grid_device), nullptr) << site.name;
    }
    if (site.is_receptacle()) {
      EXPECT_NE(backend.registry().find(site.receptacle_device), nullptr) << site.name;
    }
    // Sites sit above the platform, never inside it.
    EXPECT_GT(site.lab_position.z, 0.02) << site.name;
  }
}

TEST_P(DeckInvariants, SitesAreMutuallyDistinguishable) {
  // Grab tolerance is 3.5 cm; sites closer than twice that would be
  // ambiguous for the gripper heuristics.
  const auto& sites = backend.sites();
  for (std::size_t i = 0; i < sites.size(); ++i) {
    for (std::size_t j = i + 1; j < sites.size(); ++j) {
      EXPECT_GT(sites[i].lab_position.distance_to(sites[j].lab_position), 0.07)
          << sites[i].name << " vs " << sites[j].name;
    }
  }
}

TEST_P(DeckInvariants, NamedPosesAreCollisionFree) {
  for (const dev::RobotArmDevice* arm : arms()) {
    WorldModel world = backend.ground_truth_world(arm->id());
    for (const char* pose : {"home", "sleep"}) {
      Vec3 tip = arm->model().forward(arm->named_pose(pose));
      EXPECT_GT(tip.z, 0.02) << arm->id() << " " << pose << " below the platform";
      auto hit = check_point(world, tip, 0.0);
      EXPECT_FALSE(hit.has_value())
          << arm->id() << " " << pose << " collides: " << (hit ? hit->describe() : "");
    }
  }
}

TEST_P(DeckInvariants, ParkedArmsDoNotTouchEachOther) {
  auto all_arms = arms();
  for (std::size_t i = 0; i < all_arms.size(); ++i) {
    for (std::size_t j = i + 1; j < all_arms.size(); ++j) {
      auto segs_a = all_arms[i]->model().link_segments(all_arms[i]->joints());
      auto segs_b = all_arms[j]->model().link_segments(all_arms[j]->joints());
      double min_dist = 1e9;
      for (const geom::Segment& a : segs_a) {
        for (const geom::Segment& b : segs_b) {
          min_dist = std::min(min_dist, geom::distance(a, b));
        }
      }
      EXPECT_GT(min_dist,
                all_arms[i]->model().link_radius() + all_arms[j]->model().link_radius())
          << all_arms[i]->id() << " parked against " << all_arms[j]->id();
    }
  }
}

TEST_P(DeckInvariants, GeneratedConfigPassesItsOwnSchema) {
  core::EngineConfig cfg = core::config_from_backend(backend, core::Variant::Modified);
  auto issues = core::config_schema().validate(core::config_to_json(cfg));
  EXPECT_TRUE(issues.empty()) << issues.front().path << ": " << issues.front().message;
}

INSTANTIATE_TEST_SUITE_P(Decks, DeckInvariants, ::testing::Values("testbed", "production"));

bool bit_identical(const kin::JointVector& a, const kin::JointVector& b) {
  return std::memcmp(a.data(), b.data(), sizeof(a)) == 0;
}

// Deck poses are solved once per process. Once that table is warm, every
// named pose a new deck sets is bit-identical to a fresh IK solve from the
// arm's initial joints to the deck's target tip (arm frame).
TEST(DeckPoses, WarmPoseTableMatchesAFreshSolve) {
  struct Target {
    const char* arm;
    const char* pose;
    Vec3 tip;
  };
  const Target targets[] = {
      {ids::kUr3e, "home", Vec3(0.20, 0.0, 0.40)},
      {ids::kUr3e, "sleep", Vec3(0.15, 0.0, 0.15)},
      {ids::kViperX, "home", Vec3(0.25, 0.0, 0.30)},
      {ids::kViperX, "sleep", Vec3(0.12, -0.10, 0.12)},
      {ids::kNed2, "home", Vec3(0.20, 0.0, 0.25)},
      {ids::kNed2, "sleep", Vec3(0.15, 0.0, 0.12)},
  };
  // The first build of each deck fills the table; the second reads it.
  LabBackend production_warm(production_profile());
  LabBackend production(production_profile());
  LabBackend testbed_warm(testbed_profile());
  LabBackend testbed(testbed_profile());
  for (LabBackend* b : {&production_warm, &production}) build_hein_production_deck(*b);
  for (LabBackend* b : {&testbed_warm, &testbed}) build_hein_testbed_deck(*b);
  for (const Target& t : targets) {
    SCOPED_TRACE(std::string(t.arm) + " " + t.pose);
    const LabBackend& backend = std::string(t.arm) == ids::kUr3e ? production : testbed;
    const auto& arm = dynamic_cast<const dev::RobotArmDevice&>(backend.registry().at(t.arm));
    dev::RobotArmDevice fresh(arm.id(), arm.model(), arm.policy());
    kin::IkResult ik = fresh.model().inverse(fresh.to_lab(t.tip), fresh.joints());
    ASSERT_TRUE(ik.joints.has_value());
    EXPECT_TRUE(bit_identical(arm.named_pose(t.pose), *ik.joints));
  }
}

}  // namespace
}  // namespace rabit::sim
