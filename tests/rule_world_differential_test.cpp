// The rule-world walk against the world G3 used to assemble.
//
// G3 once assembled a sim::WorldModel per motion (assemble_rule_world, kept
// below as the reference) and queried it with sim::check_point. It now walks
// the configured world in place (core::for_each_rule_box). At every command
// of every run here, on the lab's config and on a copy with refined shapes
// switched on:
//   - for every arm, the walk visits exactly the reference world's boxes, in
//     order: the same name, box bits, kind and solid presence;
//   - core::check_target_location reports what sim::check_point reports over
//     the reference world: the same presence, rule (G3, or M2 for a soft
//     wall) and message; and whenever check_preconditions returns G3's
//     geometric form, it returns exactly that verdict.
// Inputs: the 16 catalogue bugs (buggy and safe) at V1-V3, the testbed
// workflow under chaos seeds 1-40 at V2/V3, rad sessions on the testbed and
// on session_motion's shelf lab, the solubility workflow on the production
// deck, and constructed cases the stock decks lack.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "assurance/assurance.hpp"
#include "bugs/bugs.hpp"
#include "core/lab.hpp"
#include "core/rules.hpp"
#include "devices/fault.hpp"
#include "devices/stations.hpp"
#include "rad/rad.hpp"
#include "script/workflows.hpp"
#include "sim/deck.hpp"
#include "trace/trace.hpp"

namespace rabit {
namespace {

using geom::Aabb;
using geom::Vec3;
namespace ids = sim::deck_ids;

/// The rule world as G3 assembled it before the walk replaced it.
sim::WorldModel reference_rule_world(const core::EngineConfig& config,
                                     const core::StateTracker& tracker,
                                     std::string_view moving_arm) {
  sim::WorldModel world;
  for (const core::DeviceMeta& d : config.devices) {
    if (d.id == moving_arm || !d.box) continue;
    bool is_grid = d.category == dev::DeviceCategory::Container;
    sim::ObstacleKind kind = is_grid ? sim::ObstacleKind::Grid : sim::ObstacleKind::Equipment;
    if (config.use_refined_shapes && d.refined_shape) {
      world.add_solid(d.id, *d.refined_shape, kind);
    } else {
      world.add_box(d.id, *d.box, kind);
    }
  }
  if (config.variant == core::Variant::Initial) return world;

  // V2 additions: the platform/walls, arms believed parked, soft walls.
  for (const sim::NamedBox& b : config.static_obstacles) world.boxes.push_back(b);
  for (const core::DeviceMeta& d : config.devices) {
    if (!d.is_arm || d.id == moving_arm || !d.sleep_box) continue;
    if (tracker.arm_pose(d.id) == "sleep") {
      world.add_box(d.id, *d.sleep_box, sim::ObstacleKind::ParkedArm);
    }
  }
  for (const core::SoftWallSpec& w : config.soft_walls) {
    if (w.arm_id == moving_arm) {
      world.add_box("soft_wall:" + w.arm_id, w.forbidden, sim::ObstacleKind::SoftWall);
    }
  }
  return world;
}

bool same_bits(const Aabb& a, const Aabb& b) {
  const double lhs[] = {a.min.x, a.min.y, a.min.z, a.max.x, a.max.y, a.max.z};
  const double rhs[] = {b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z};
  return std::equal(std::begin(lhs), std::end(lhs), std::begin(rhs), [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  });
}

/// What the comparisons met: each case class a test is meant to exercise
/// must be non-zero at its end.
struct Coverage {
  std::size_t worlds = 0;         ///< walks compared box by box
  std::size_t motions = 0;        ///< target verdicts compared
  std::size_t clear = 0;          ///< ... with no box hit
  std::size_t g3_hits = 0;
  std::size_t m2_hits = 0;        ///< soft-wall hits (rule M2)
  std::size_t held_hits = 0;      ///< hits by the held vial, not the tip
  std::size_t geometric_alerts = 0;  ///< check_preconditions returned G3's geometric form
  std::size_t refined_solids = 0;    ///< device boxes visited as refined solids
  std::size_t static_solids = 0;     ///< static obstacles visited with a solid
  std::size_t soft_walls = 0;        ///< soft walls visited
  std::size_t parked_arms = 0;       ///< other arms visited parked
  std::size_t awake_arms = 0;        ///< other arms left out because they are awake
  std::size_t multi_door_entries = 0;  ///< motions entering a multi-door station
};

void expect_same_world(const core::EngineConfig& config, const core::StateTracker& tracker,
                       const std::string& arm, Coverage& cov) {
  const sim::WorldModel reference = reference_rule_world(config, tracker, arm);
  ++cov.worlds;
  std::size_t i = 0;
  core::for_each_rule_box(config, tracker, arm, [&](const core::RuleBox& b) {
    const std::string name = b.name();
    if (i == reference.boxes.size()) {
      ADD_FAILURE() << arm << ": the walk visits '" << name << "' past the reference world";
      return true;
    }
    const sim::NamedBox& want = reference.boxes[i++];
    EXPECT_EQ(name, want.name) << arm << " box " << i - 1;
    EXPECT_TRUE(same_bits(b.box, want.box)) << arm << " " << want.name;
    EXPECT_EQ(b.kind, want.kind) << arm << " " << want.name;
    EXPECT_EQ(b.solid != nullptr, want.solid.has_value()) << arm << " " << want.name;
    EXPECT_TRUE(b.named_in({want.name})) << want.name;
    EXPECT_FALSE(b.named_in({want.name + "_", "soft_wall:", arm + want.name})) << want.name;
    const bool device = config.find_device(want.name) != nullptr;
    cov.refined_solids += device && b.kind != sim::ObstacleKind::ParkedArm && b.solid != nullptr;
    cov.static_solids += !device && b.solid != nullptr;
    cov.soft_walls += b.kind == sim::ObstacleKind::SoftWall;
    cov.parked_arms += b.kind == sim::ObstacleKind::ParkedArm;
    return false;
  });
  EXPECT_EQ(i, reference.boxes.size()) << arm << ": the walk stops short";
  if (config.variant == core::Variant::Initial) return;
  for (const core::DeviceMeta& d : config.devices) {
    cov.awake_arms +=
        d.is_arm && d.id != arm && d.sleep_box && tracker.arm_pose(d.id) != "sleep";
  }
}

void expect_same_verdict(const core::EngineConfig& config, const core::StateTracker& tracker,
                         const dev::Command& cmd, Coverage& cov) {
  std::optional<core::MotionAnalysis> motion = core::analyze_motion(config, tracker, cmd);
  if (!motion) return;
  ++cov.motions;
  for (const std::string& ignored : motion->ignores) {
    const core::DeviceMeta* d = config.find_device(ignored);
    cov.multi_door_entries += d != nullptr && !d->multi_doors.empty();
  }

  sim::PathCheckOptions options;
  options.ignore = motion->ignores;
  const std::optional<sim::CollisionReport> want = sim::check_point(
      reference_rule_world(config, tracker, motion->arm_id), motion->target_lab,
      motion->held_clearance, options);
  const std::optional<core::RuleHit> got =
      core::check_target_location(config, tracker, *motion);
  ASSERT_EQ(got.has_value(), want.has_value()) << (got ? got->message : want->describe());
  const std::string occupied = motion->arm_id + " target location is occupied: ";
  if (want) {
    const bool soft_wall = want->kind == sim::ObstacleKind::SoftWall;
    EXPECT_EQ(got->rule, soft_wall ? "M2" : "G3");
    EXPECT_EQ(got->message, occupied + want->describe());
    cov.m2_hits += soft_wall;
    cov.g3_hits += !soft_wall;
    cov.held_hits += want->via_held_object;
  } else {
    ++cov.clear;
  }

  // check_preconditions runs the geometric form last among the motion rules.
  const std::optional<core::RuleHit> full = core::check_preconditions(config, tracker, cmd);
  if (full && full->message.starts_with(occupied)) {
    ++cov.geometric_alerts;
    ASSERT_TRUE(got.has_value()) << full->message;
    EXPECT_EQ(full->rule, got->rule);
    EXPECT_EQ(full->message, got->message);
  } else if (!full) {
    EXPECT_FALSE(got.has_value()) << got->message;
  }
}

/// Compares before every step of `commands` through `supervisor` (which must
/// not halt), on the engine's config and on a refined-shape copy of it.
void run_compared(const core::RabitEngine& engine, trace::Supervisor& supervisor,
                  const std::vector<dev::Command>& commands, Coverage& cov) {
  core::EngineConfig refined = engine.config();
  refined.use_refined_shapes = true;
  const core::EngineConfig* const configs[] = {&engine.config(), &refined};
  supervisor.start();
  for (const dev::Command& raw : commands) {
    SCOPED_TRACE(raw.describe());
    for (const core::EngineConfig* config : configs) {
      dev::Command cmd = raw;
      if (const core::DeviceMeta* meta = config->find_device(cmd.device)) {
        cmd.action = std::string(meta->canonical_action(cmd.action));
      }
      for (const core::DeviceMeta& d : config->devices) {
        if (d.is_arm) expect_same_world(*config, engine.tracker(), d.id, cov);
      }
      expect_same_verdict(*config, engine.tracker(), cmd, cov);
    }
    (void)supervisor.step(raw);
  }
}

void run_compared(core::Lab& lab, const std::vector<dev::Command>& commands, Coverage& cov,
                  trace::Supervisor::Options options = {}) {
  options.halt_on_alert = false;
  trace::Supervisor supervisor(&lab.engine, &lab.backend, options);
  run_compared(lab.engine, supervisor, commands, cov);
}

constexpr core::Variant kVariants[] = {core::Variant::Initial, core::Variant::Modified,
                                       core::Variant::ModifiedWithSim};

TEST(RuleWorldDifferential, CatalogueBugsEveryVariant) {
  sim::LabBackend staging(sim::testbed_profile());
  sim::build_hein_testbed_deck(staging);
  Coverage cov;
  for (const bugs::BugSpec& bug : bugs::bug_catalogue()) {
    for (const std::vector<dev::Command>& commands :
         {bug.build(staging), bug.build_safe(staging)}) {
      for (core::Variant variant : kVariants) {
        SCOPED_TRACE(bug.id + " variant " + std::string(core::to_string(variant)));
        core::Lab lab(variant);
        run_compared(lab, commands, cov);
      }
    }
  }
  EXPECT_GT(cov.worlds, 1000u);
  EXPECT_GT(cov.motions, 300u);
  EXPECT_GT(cov.clear, 0u);
  EXPECT_GT(cov.g3_hits, 0u);
  EXPECT_GT(cov.held_hits, 0u);
  EXPECT_GT(cov.geometric_alerts, 0u);
  EXPECT_GT(cov.refined_solids, 0u);
  EXPECT_GT(cov.parked_arms, 0u);
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

TEST(RuleWorldDifferential, TestbedWorkflowUnderChaos) {
  Coverage cov;
  trace::Supervisor::Options options;
  options.recovery = recovery::RecoveryPolicy{};
  for (unsigned seed = 1; seed <= 40; ++seed) {
    for (core::Variant variant : {core::Variant::Modified, core::Variant::ModifiedWithSim}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " variant " +
                   std::string(core::to_string(variant)));
      std::vector<dev::Command> workflow;
      core::Lab lab(variant, 42, [&](sim::LabBackend& backend) {
        sim::build_hein_testbed_deck(backend);
        workflow = script::record_workflow(backend, script::testbed_workflow_source());
        dev::FaultSchedule::ChaosOptions chaos;
        chaos.horizon_s = 30.0;
        chaos.transient_count = 8;
        backend.set_fault_schedule(
            dev::FaultSchedule::chaos(seed, distinct_pairs(workflow), chaos));
      });
      run_compared(lab, workflow, cov, options);
    }
  }
  EXPECT_GT(cov.motions, 1000u);
  EXPECT_GT(cov.clear, 0u);
  EXPECT_GT(cov.refined_solids, 0u);
  EXPECT_GT(cov.parked_arms, 0u);
}

TEST(RuleWorldDifferential, RadSessionsOnTheTestbedAndShelfLabs) {
  sim::LabBackend staging(sim::testbed_profile());
  sim::build_hein_testbed_deck(staging);
  Coverage testbed;
  Coverage shelf;
  for (unsigned seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("rad seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const std::vector<dev::Command> session = rad::synth_session(staging, rng);
    for (core::Variant variant : {core::Variant::Modified, core::Variant::ModifiedWithSim}) {
      core::Lab lab(variant);
      run_compared(lab, session, testbed);
    }
    // session_motion's lab: 400 shelf boxes in the simulator's world (the
    // rule world does not see them) and runtime assurance on.
    core::Lab lab(core::Variant::ModifiedWithSim);
    sim::add_shelf_rack(lab.simulator->world(), 400);
    trace::Supervisor::Options options;
    options.assurance = assurance::AssuranceConfig{};
    run_compared(lab, session, shelf, options);
  }
  for (const Coverage& cov : {testbed, shelf}) {
    EXPECT_GT(cov.motions, 50u);
    EXPECT_GT(cov.clear, 0u);
    EXPECT_GT(cov.refined_solids, 0u);
    EXPECT_GT(cov.parked_arms, 0u);
  }
}

TEST(RuleWorldDifferential, SolubilityWorkflowOnTheProductionDeck) {
  Coverage cov;
  for (core::Variant variant : kVariants) {
    SCOPED_TRACE(std::string(core::to_string(variant)));
    core::Lab lab(variant, 42, sim::build_hein_production_deck, sim::production_profile());
    run_compared(lab, script::record_workflow(lab.backend, script::solubility_workflow_source()),
                 cov);
  }
  EXPECT_GT(cov.motions, 20u);
  EXPECT_GT(cov.clear, 0u);
  EXPECT_GT(cov.refined_solids, 0u);
}

// --- constructed cases the stock decks lack ----------------------------------
// The testbed deck plus a two-door mixing station between the arms (ViperX
// comes from the west, Ned2 from the east) with a receptacle site, and a
// config that adds a soft wall south of ViperX and a cylindrical pillar as
// a static obstacle with a solid.

constexpr const char* kMixer = "mixing_station";
const Vec3 kMixerSite(0.30, -0.42, 0.10);

void testbed_with_mixer(sim::LabBackend& backend) {
  sim::build_hein_testbed_deck(backend);
  backend.registry().add(std::make_unique<dev::MultiDoorStation>(
      kMixer,
      std::vector<dev::MultiDoorStation::DoorSpec>{{"west", Vec3(-1, 0, 0)},
                                                    {"east", Vec3(1, 0, 0)}},
      Aabb::from_center(kMixerSite, Vec3(0.12, 0.12, 0.16))));
  backend.add_site({kMixer, kMixerSite, "", "", kMixer});
}

dev::Command command(std::string device, std::string action, json::Object args = {}) {
  dev::Command c;
  c.device = std::move(device);
  c.action = std::move(action);
  c.args = json::Value(std::move(args));
  return c;
}

dev::Command move_to(const core::EngineConfig& config, const char* arm, const Vec3& lab) {
  Vec3 local = config.find_device(arm)->base.inverse().apply(lab);
  json::Object args;
  args["position"] = json::Array{local.x, local.y, local.z};
  return command(arm, "move_to", std::move(args));
}

dev::Command door(const char* device, const char* name, const char* state) {
  json::Object args;
  if (name != nullptr) args["door"] = std::string(name);
  args["state"] = std::string(state);
  return command(device, "set_door", std::move(args));
}

dev::Command at_site(const char* arm, const char* action, const char* site) {
  json::Object args;
  args["site"] = std::string(site);
  return command(arm, action, std::move(args));
}

TEST(RuleWorldDifferential, ConstructedCases) {
  sim::LabBackend backend(sim::testbed_profile());
  testbed_with_mixer(backend);
  core::EngineConfig config = core::config_from_backend(backend, core::Variant::Modified);
  const Aabb wall(Vec3(-0.15, -0.75, 0.02), Vec3(0.15, -0.60, 0.60));
  config.soft_walls.push_back(core::SoftWallSpec{ids::kViperX, wall});
  geom::Solid pillar = geom::Solid::vertical_cylinder(Vec3(-0.45, -0.50, 0.02), 0.05, 0.30);
  config.static_obstacles.push_back(
      sim::NamedBox{"pillar", pillar.bounding_box(), sim::ObstacleKind::Equipment, pillar});
  const Aabb centrifuge = *config.find_device(ids::kCentrifuge)->box;

  const std::vector<dev::Command> commands = {
      // ViperX enters the mixer through its open west door.
      door(kMixer, "west", "open"),
      move_to(config, ids::kViperX, kMixerSite),
      command(ids::kViperX, "go_home"),
      // The corner of the centrifuge's cuboid: occupied for cuboids, free
      // space in its refined shape.
      door(ids::kCentrifuge, nullptr, "open"),
      move_to(config, ids::kViperX, centrifuge.max - Vec3(0.01, 0.01, 0.01)),
      // Holding vial_1: the held vial meets the syringe pump below the tip.
      at_site(ids::kViperX, "pick_object", "grid.NW"),
      move_to(config, ids::kViperX, Vec3(-0.20, -0.35, 0.22)),
      // Inside the soft wall (rule M2 before G3), then beside it with the
      // held vial across it (M2 through G3's geometric form).
      move_to(config, ids::kViperX, wall.center()),
      move_to(config, ids::kViperX, Vec3(0.0, -0.595, 0.30)),
      // The pillar: its bounding box's corner is free, its axis is not.
      move_to(config, ids::kViperX, Vec3(-0.495, -0.545, 0.20)),
      move_to(config, ids::kViperX, Vec3(-0.45, -0.50, 0.20)),
      at_site(ids::kViperX, "place_object", "grid.NW"),
      command(ids::kViperX, "go_sleep"),
      // Ned2 wakes (ViperX's world loses its parked box), enters the mixer
      // through the east door, and parks again.
      command(ids::kNed2, "go_home"),
      door(kMixer, "east", "open"),
      move_to(config, ids::kNed2, kMixerSite),
      move_to(config, ids::kViperX, Vec3(0.25, 0.0, 0.30)),
      command(ids::kNed2, "go_home"),
      command(ids::kNed2, "go_sleep"),
      command(ids::kViperX, "go_home"),
  };
  core::RabitEngine engine(std::move(config));
  trace::Supervisor::Options options;
  options.halt_on_alert = false;
  trace::Supervisor supervisor(&engine, &backend, options);
  Coverage cov;
  run_compared(engine, supervisor, commands, cov);

  EXPECT_GT(cov.clear, 0u);
  EXPECT_GT(cov.g3_hits, 0u);
  EXPECT_GT(cov.m2_hits, 0u);
  EXPECT_GT(cov.held_hits, 0u);
  EXPECT_GT(cov.geometric_alerts, 0u);
  EXPECT_GT(cov.refined_solids, 0u);
  EXPECT_GT(cov.static_solids, 0u);
  EXPECT_GT(cov.soft_walls, 0u);
  EXPECT_GT(cov.parked_arms, 0u);
  EXPECT_GT(cov.awake_arms, 0u);
  EXPECT_GT(cov.multi_door_entries, 0u);
}

}  // namespace
}  // namespace rabit
