// Hot-path equivalence and invalidation: the broad-phase grid and the
// collision-verdict cache are pure accelerations — every test here pins the
// invariant that they can change the cost of an answer but never the
// answer, and that every mutation of the underlying world invalidates what
// it must. The config lookups and the rule-world walk they sit beside are
// first-match scans over a freely editable config.
#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <vector>

#include "bugs/bugs.hpp"
#include "core/engine.hpp"
#include "core/lab.hpp"
#include "core/rules.hpp"
#include "sim/deck.hpp"
#include "sim/extended_sim.hpp"
#include "trace/trace.hpp"

namespace rabit::core {
namespace {

using dev::Command;
using geom::Aabb;
using geom::Vec3;
namespace ids = sim::deck_ids;

Command make_cmd(std::string device, std::string action, json::Object args = {}) {
  Command c;
  c.device = std::move(device);
  c.action = std::move(action);
  c.args = json::Value(std::move(args));
  return c;
}

// ---------------------------------------------------------------------------
// Config lookups
// ---------------------------------------------------------------------------

class ConfigIndexTest : public ::testing::Test {
 protected:
  ConfigIndexTest() : backend(sim::testbed_profile()) {
    sim::build_hein_testbed_deck(backend);
    config = config_from_backend(backend, Variant::Modified);
  }

  sim::LabBackend backend;
  EngineConfig config;
};

TEST_F(ConfigIndexTest, IndexedAndLinearLookupsAgree) {
  // Every lookup is a first-match scan. Shadow each testbed device and site
  // with a later entry of the same id/name but a different payload, and give
  // every device a duplicated alias, threshold and active action: each
  // lookup must answer with the first entry.
  EngineConfig dup = config;
  for (const DeviceMeta& d : config.devices) {
    DeviceMeta shadow = d;
    shadow.is_arm = !d.is_arm;
    dup.devices.push_back(std::move(shadow));
  }
  for (const SiteMeta& s : config.sites) {
    SiteMeta shadow = s;
    shadow.lab_position = s.lab_position + Vec3(1, 1, 1);
    dup.sites.push_back(std::move(shadow));
  }
  for (DeviceMeta& d : dup.devices) {
    d.action_aliases.emplace_back("nudge", "first");
    d.action_aliases.emplace_back("nudge", "second");
    std::vector<ThresholdSpec> shadowed = d.thresholds;
    for (ThresholdSpec& t : shadowed) t.max += 1.0;
    d.thresholds.insert(d.thresholds.end(), shadowed.begin(), shadowed.end());
    d.active_actions.insert(d.active_actions.end(), 2, "whirl");
  }

  for (std::size_t i = 0; i < config.devices.size(); ++i) {
    const DeviceMeta& original = config.devices[i];
    const DeviceMeta* found = dup.find_device(original.id);
    ASSERT_EQ(found, &dup.devices[i]) << original.id;
    EXPECT_EQ(found->is_arm, original.is_arm) << original.id;
    EXPECT_EQ(found->canonical_action("nudge"), "first") << original.id;
    for (const auto& [alias, canonical] : original.action_aliases) {
      EXPECT_EQ(found->canonical_action(alias), canonical) << original.id;
    }
    for (std::size_t k = 0; k < original.thresholds.size(); ++k) {
      const ThresholdSpec* t = found->threshold_for(original.thresholds[k].action);
      ASSERT_EQ(t, &found->thresholds[k]) << original.id;
      EXPECT_EQ(t->max, original.thresholds[k].max);
    }
    EXPECT_TRUE(found->is_active_action("whirl")) << original.id;
    for (const std::string& action : original.active_actions) {
      EXPECT_TRUE(found->is_active_action(action)) << original.id;
    }
    // Unknown names: nullptr, or the action unchanged.
    EXPECT_EQ(found->canonical_action("no_such_action"), "no_such_action");
    EXPECT_EQ(found->threshold_for("no_such_action"), nullptr);
    EXPECT_FALSE(found->is_active_action("no_such_action"));
  }
  for (std::size_t i = 0; i < config.sites.size(); ++i) {
    EXPECT_EQ(dup.find_site(config.sites[i].name), &dup.sites[i]) << config.sites[i].name;
  }
  EXPECT_EQ(dup.find_device("no_such_device"), nullptr);
  EXPECT_EQ(dup.find_site("no_such_site"), nullptr);
}

TEST_F(ConfigIndexTest, IndexSurvivesVectorGrowth) {
  ASSERT_NE(config.find_device(ids::kViperX), nullptr);

  DeviceMeta late;
  late.id = "late_device";
  config.devices.push_back(late);  // likely reallocates the backing vector
  const DeviceMeta* found = config.find_device("late_device");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found, &config.devices.back());
  // The pre-existing entries still resolve after the reallocation.
  EXPECT_NE(config.find_device(ids::kViperX), nullptr);

  SiteMeta site;
  site.name = "late_site";
  config.sites.push_back(site);
  EXPECT_EQ(config.find_site("late_site"), &config.sites.back());
}

TEST_F(ConfigIndexTest, IndexSurvivesInPlaceRename) {
  std::string old_id = config.devices.front().id;
  ASSERT_NE(config.find_device(old_id), nullptr);

  // In-place id edit: vector data pointer and size are unchanged, and the
  // next lookup must still see the new id.
  config.devices.front().id = "renamed_device";
  EXPECT_EQ(config.find_device("renamed_device"), &config.devices.front());
  EXPECT_EQ(config.find_device(old_id), nullptr);
}

// ---------------------------------------------------------------------------
// Broad phase
// ---------------------------------------------------------------------------

/// A deterministic pseudo-random world: 120 clustered boxes plus a ground
/// plane big enough to land on the grid's oversize list. Draws positions
/// from `rng`, which the caller keeps using for its queries.
sim::WorldModel seeded_world(std::mt19937& rng) {
  sim::WorldModel world;
  std::uniform_real_distribution<double> pos(-1.0, 2.0);
  std::uniform_real_distribution<double> size(0.02, 0.30);
  for (int i = 0; i < 120; ++i) {
    Vec3 center(pos(rng), pos(rng), pos(rng));
    Vec3 extent(size(rng), size(rng), size(rng));
    world.add_box("box_" + std::to_string(i), Aabb::from_center(center, extent),
                  sim::ObstacleKind::Equipment);
  }
  world.add_box("ground", Aabb(Vec3(-5, -5, -1), Vec3(5, 5, -0.5)), sim::ObstacleKind::Ground);
  return world;
}

/// Byte-identical verdicts: same first-hit obstacle at exactly the same sample.
void expect_same_hit(const std::optional<sim::CollisionReport>& got,
                     const std::optional<sim::CollisionReport>& want, int path) {
  ASSERT_EQ(got.has_value(), want.has_value()) << "path " << path;
  if (!want) return;
  EXPECT_EQ(got->obstacle, want->obstacle) << "path " << path;
  EXPECT_EQ(got->position.x, want->position.x);
  EXPECT_EQ(got->position.y, want->position.y);
  EXPECT_EQ(got->position.z, want->position.z);
  EXPECT_EQ(got->via_held_object, want->via_held_object);
  EXPECT_EQ(got->arm_vs_arm, want->arm_vs_arm);
}

TEST(BroadPhase, PathAndPointVerdictsMatchFullScan) {
  std::mt19937 rng(20240806);
  sim::WorldModel world = seeded_world(rng);
  std::uniform_real_distribution<double> pos(-1.0, 2.0);
  sim::BroadPhaseGrid grid(world);
  ASSERT_EQ(grid.box_count(), world.boxes.size());

  sim::PathCheckOptions opts;
  int collisions = 0;
  for (int i = 0; i < 200; ++i) {
    Vec3 start(pos(rng), pos(rng), pos(rng));
    Vec3 goal(pos(rng), pos(rng), pos(rng));
    if (i % 5 == 0) {
      opts.ignore = {"box_" + std::to_string(i % 120)};
    } else {
      opts.ignore.clear();
    }
    auto full = sim::check_path(world, start, goal, 0.05, opts, nullptr);
    expect_same_hit(sim::check_path(world, start, goal, 0.05, opts, &grid), full, i);
    if (full) ++collisions;
  }
  // The world is dense enough that the equivalence was actually exercised.
  EXPECT_GT(collisions, 10);
}

TEST(BroadPhase, SweepMatchesLegByLegCheckPath) {
  std::mt19937 rng(20240806);
  sim::WorldModel world = seeded_world(rng);
  world.set_arm_segment("other_arm", geom::Segment{Vec3(0.5, -1, 0.5), Vec3(0.5, 2, 0.5)}, 0.05);
  std::uniform_real_distribution<double> pos(-1.0, 2.0);
  // Short hops around a random anchor, so some legs graze an obstacle
  // within the inflation margin without touching it.
  std::uniform_real_distribution<double> hop(-0.15, 0.15);

  int hits = 0;
  int trips = 0;
  sim::ExtendedSimulator simulator(world);
  std::mt19937 path_rng(7);
  for (int i = 0; i < 300; ++i) {
    Vec3 anchor(pos(path_rng), pos(path_rng), pos(path_rng));
    std::vector<Vec3> waypoints{anchor};
    for (int k = 0; k < 1 + i % 4; ++k) {
      waypoints.push_back(waypoints.back() + Vec3(hop(path_rng), hop(path_rng), hop(path_rng)));
    }
    std::vector<std::string> ignore;
    if (i % 3 == 0) ignore = {"box_" + std::to_string(i % 120), "other_arm"};
    double held = i % 2 == 0 ? 0.05 : 0.0;
    for (double inflate : {0.0, 0.03}) {
      // Reference: check_path leg by leg, full scan, no cache.
      sim::PathCheckOptions exact_opts;
      exact_opts.ignore = ignore;
      sim::PathCheckOptions inflated_opts = exact_opts;
      inflated_opts.inflate = inflate;
      std::optional<sim::CollisionReport> exact;
      std::size_t charged_legs = 0;
      bool inflated_hit = false;
      for (std::size_t leg = 1; leg < waypoints.size(); ++leg) {
        if (!exact) exact = sim::check_path(world, waypoints[leg - 1], waypoints[leg], held,
                                            exact_opts);
        if (inflated_hit) continue;
        ++charged_legs;
        inflated_hit = sim::check_path(world, waypoints[leg - 1], waypoints[leg], held,
                                       inflated_opts)
                           .has_value();
      }

      // Twice: the second sweep is served from the verdict cache.
      for (int pass = 0; pass < 2; ++pass) {
        std::size_t charged_before = simulator.checks_performed();
        sim::ExtendedSimulator::SweepResult swept =
            simulator.sweep(waypoints, held, ignore, inflate);
        EXPECT_EQ(simulator.checks_performed() - charged_before, charged_legs) << "path " << i;
        expect_same_hit(swept.hit, exact, i);
        EXPECT_EQ(swept.tripped, inflated_hit && !exact) << "path " << i;
        if (pass == 0) {
          hits += exact ? 1 : 0;
          trips += swept.tripped ? 1 : 0;
        }
      }
    }
  }
  // Both verdict kinds were actually exercised.
  EXPECT_GT(hits, 20);
  EXPECT_GT(trips, 5);
}

TEST(BroadPhase, NonFiniteQueryBoxReturnsFullScanCandidates) {
  std::mt19937 rng(20240806);
  sim::WorldModel world = seeded_world(rng);
  sim::BroadPhaseGrid grid(world);
  std::vector<std::size_t> every_box(world.boxes.size());
  for (std::size_t i = 0; i < every_box.size(); ++i) every_box[i] = i;

  // A NaN or infinite coordinate spans every cell: the full scan, never a
  // silent miss (and never a NaN cast to a cell index).
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> out;
  for (const Aabb& query : {Aabb(Vec3(kNaN, 0, 0), Vec3(kNaN, 0, 0)),
                            Aabb(Vec3(0, kNaN, 0), Vec3(1, 1, kNaN)),
                            Aabb(Vec3(kInf, 0, 0), Vec3(kInf, 0, 0))}) {
    grid.candidates(query, out);
    EXPECT_EQ(out, every_box);
  }
}

TEST(BroadPhase, StaleGridFallsBackToFullScan) {
  sim::WorldModel world;
  world.add_box("a", Aabb(Vec3(0.4, -0.1, -0.1), Vec3(0.6, 0.1, 0.1)),
                sim::ObstacleKind::Equipment);
  sim::BroadPhaseGrid grid(world);
  // Grow the world without rebuilding: the grid's box count no longer
  // matches, so check_path must ignore it and still see the new box.
  world.add_box("b", Aabb(Vec3(-0.6, -0.1, -0.1), Vec3(-0.4, 0.1, 0.1)),
                sim::ObstacleKind::Equipment);
  auto hit = sim::check_path(world, Vec3(0, 0, 0), Vec3(-1, 0, 0), 0.0, {}, &grid);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->obstacle, "b");
}

// ---------------------------------------------------------------------------
// Collision-verdict cache
// ---------------------------------------------------------------------------

class VerdictCacheTest : public ::testing::Test {
 protected:
  VerdictCacheTest() {
    sim::WorldModel world;
    world.add_box("block", Aabb(Vec3(0.45, -0.05, 0.0), Vec3(0.55, 0.05, 0.2)),
                  sim::ObstacleKind::Equipment);
    sim::ExtendedSimulator::Options options;
    options.gui_enabled = false;
    simulator = std::make_unique<sim::ExtendedSimulator>(std::move(world), options);
  }

  /// One straight leg through the simulator's sweep.
  std::optional<sim::CollisionReport> leg(const Vec3& from, const Vec3& to,
                                          const std::vector<std::string>& ignore = {}) {
    return simulator->sweep({from, to}, 0.0, ignore).hit;
  }

  std::unique_ptr<sim::ExtendedSimulator> simulator;
  const Vec3 start{0.0, 0.0, 0.1};
  const Vec3 goal{1.0, 0.0, 0.1};
};

TEST_F(VerdictCacheTest, RepeatQueryHitsCache) {
  auto first = leg(start, goal);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->obstacle, "block");
  EXPECT_EQ(simulator->narrow_phase_runs(), 1u);
  EXPECT_EQ(simulator->verdict_cache_hits(), 0u);

  auto second = leg(start, goal);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->obstacle, first->obstacle);
  EXPECT_EQ(simulator->narrow_phase_runs(), 1u);
  EXPECT_EQ(simulator->verdict_cache_hits(), 1u);
}

TEST_F(VerdictCacheTest, AddBoxInvalidates) {
  Vec3 high_goal(1.0, 0.0, 0.5);
  ASSERT_FALSE(leg(start, high_goal).has_value());
  ASSERT_EQ(simulator->narrow_phase_runs(), 1u);

  // add_box bumps the world epoch, so the cached clear verdict must not be
  // served: the re-run sees the new obstacle.
  simulator->world().add_box("late", Aabb(Vec3(0.45, -0.05, 0.2), Vec3(0.55, 0.05, 0.6)),
                             sim::ObstacleKind::Equipment);
  auto hit = leg(start, high_goal);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->obstacle, "late");
  EXPECT_EQ(simulator->narrow_phase_runs(), 2u);
}

TEST_F(VerdictCacheTest, ArmSegmentInvalidates) {
  Vec3 high_goal(1.0, 0.0, 0.5);
  ASSERT_FALSE(leg(start, high_goal).has_value());

  simulator->world().set_arm_segment(
      "other_arm", geom::Segment{Vec3(0.5, -0.5, 0.4), Vec3(0.5, 0.5, 0.4)}, 0.05);
  auto hit = leg(start, high_goal);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->arm_vs_arm);
  EXPECT_EQ(simulator->narrow_phase_runs(), 2u);
}

TEST_F(VerdictCacheTest, DirectEditNeedsEpochBumpAndIsSeen) {
  ASSERT_TRUE(leg(start, goal).has_value());
  // Move the blocking box out of the way by editing the vector directly,
  // then bump the epoch as the WorldModel contract requires.
  simulator->world().boxes[0].box = Aabb(Vec3(5, 5, 5), Vec3(6, 6, 6));
  simulator->world().bump_epoch();
  EXPECT_FALSE(leg(start, goal).has_value());
  EXPECT_EQ(simulator->narrow_phase_runs(), 2u);
}

TEST_F(VerdictCacheTest, IgnoreSetsAreDistinctCacheEntries) {
  // The deliberate-entry ignore set is part of the cache key — the door
  // opening (which admits the device into the ignore set) must never be
  // served a verdict cached for the closed-door query, or vice versa.
  std::vector<std::string> ignore_block{"block"};
  ASSERT_TRUE(leg(start, goal).has_value());
  EXPECT_FALSE(leg(start, goal, ignore_block).has_value());
  auto again = leg(start, goal);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->obstacle, "block");
  EXPECT_FALSE(leg(start, goal, ignore_block).has_value());
  // Two distinct entries, each hit once on its second query.
  EXPECT_EQ(simulator->narrow_phase_runs(), 2u);
  EXPECT_EQ(simulator->verdict_cache_hits(), 2u);
}

// ---------------------------------------------------------------------------
// Engine-level: the world survives a trajectory alert untouched
// ---------------------------------------------------------------------------

TEST(EngineWorldPreservation, TrajectoryAlertLeavesWorldIntact) {
  Lab lab(Variant::ModifiedWithSim);
  sim::LabBackend& backend = lab.backend;
  RabitEngine& engine = lab.engine;
  const sim::ExtendedSimulator& simulator = *lab.simulator;
  engine.initialize(backend.registry().fetch_observed_state());

  auto snapshot_names = [&] {
    std::vector<std::string> names;
    for (const sim::NamedBox& b : simulator.world().boxes) names.push_back(b.name);
    return names;
  };
  std::vector<std::string> before = snapshot_names();

  auto move = [&](const Vec3& local) {
    json::Object args;
    args["position"] = json::Array{local.x, local.y, local.z};
    return make_cmd(ids::kViperX, "move_to", std::move(args));
  };
  // Wake the arm west of the grid, then sweep across it: the straight path
  // collides with the grid box and the trajectory check alerts.
  Command to_west = move(Vec3(0.18, 0.30, 0.03));
  ASSERT_FALSE(engine.check_command(to_west).has_value());
  engine.apply_expected(to_west);
  backend.execute(to_west);
  auto alert = engine.check_command(move(Vec3(0.48, 0.30, 0.03)));
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(alert->kind, AlertKind::InvalidTrajectory);

  // The seed engine erased and re-inserted deliberate-entry boxes around the
  // trajectory query; the read-only ignore filter must leave the world
  // byte-identical after an alert.
  EXPECT_EQ(snapshot_names(), before);
}

// ---------------------------------------------------------------------------
// kVolumeEpsilon boundary
// ---------------------------------------------------------------------------

TEST(VolumeEpsilon, SharedConstantGovernsPumpBoundaries) {
  EXPECT_DOUBLE_EQ(kVolumeEpsilon, 1e-9);

  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  EngineConfig config = config_from_backend(backend, Variant::Modified);
  StateTracker tracker(&config);
  tracker.initialize(backend.registry().fetch_observed_state());
  tracker.set_var(ids::kVial1, "solidMg", 5.0);  // C1: solid before liquid
  tracker.set_var(ids::kVial1, "liquidMl", 0.0);
  tracker.set_var(ids::kSyringePump, "heldMl", 10.0);

  auto dose = [&](double volume) {
    json::Object args;
    args["volume"] = volume;
    args["target"] = std::string(ids::kVial1);
    return check_preconditions(config, tracker, make_cmd(ids::kSyringePump, "dose_solvent",
                                                         std::move(args)));
  };

  // A float-noise overdraw within the epsilon passes; a real overdraw trips
  // G8 — the pump check now shares kVolumeEpsilon instead of its own 1e-9.
  EXPECT_FALSE(dose(10.0).has_value());
  EXPECT_FALSE(dose(10.0 + kVolumeEpsilon / 2).has_value());
  auto overdraw = dose(10.001);
  ASSERT_TRUE(overdraw.has_value());
  EXPECT_EQ(overdraw->rule, "G8");

  // Receiving-capacity boundary (vial capacity 15 mL): exactly full is
  // allowed, epsilon-significant overflow is not.
  tracker.set_var(ids::kSyringePump, "heldMl", 20.0);
  EXPECT_FALSE(dose(15.0).has_value());
  auto overflow = dose(15.0 + 1e-6);
  ASSERT_TRUE(overflow.has_value());
  EXPECT_EQ(overflow->rule, "G8");
}

// ---------------------------------------------------------------------------
// Catalogue verdict parity: the engine vs the stateless rulebase
// ---------------------------------------------------------------------------

TEST(HotPathParity, CatalogueVerdictsUnchangedAtV3) {
  // Every catalogue bug's buggy and safe stream, stepped through a V3 lab
  // without halting. At each command, the engine's precondition verdict
  // must equal the stateless check_preconditions oracle on the same tracked
  // state and canonical command: the same rule and message, or no hit on
  // either side.
  trace::Supervisor::Options options;
  options.halt_on_alert = false;
  std::size_t checked = 0;
  std::size_t hits = 0;
  for (const bugs::BugSpec& bug : bugs::bug_catalogue()) {
    sim::LabBackend staging(sim::testbed_profile());
    sim::build_hein_testbed_deck(staging);
    for (const std::vector<Command>& commands : {bug.build(staging), bug.build_safe(staging)}) {
      Lab lab(Variant::ModifiedWithSim);
      trace::Supervisor supervisor(&lab.engine, &lab.backend, options);
      supervisor.start();
      const EngineConfig& config = lab.engine.config();
      for (std::size_t i = 0; i < commands.size(); ++i) {
        Command canonical = commands[i];
        if (const DeviceMeta* meta = config.find_device(canonical.device)) {
          canonical.action = std::string(meta->canonical_action(canonical.action));
        }
        std::optional<RuleHit> oracle =
            check_preconditions(config, lab.engine.tracker(), canonical);
        trace::SupervisedStep step = supervisor.step(commands[i]);
        bool blocked = step.alert && step.alert->kind == AlertKind::InvalidCommand;
        ASSERT_EQ(blocked, oracle.has_value()) << bug.id << " command " << i;
        ++checked;
        if (!oracle) continue;
        ++hits;
        EXPECT_EQ(step.alert->rule, oracle->rule) << bug.id << " command " << i;
        EXPECT_EQ(step.alert->message, oracle->message) << bug.id << " command " << i;
      }
    }
  }
  // Both verdict kinds were actually exercised.
  EXPECT_GT(checked, 500u);
  EXPECT_GT(hits, 10u);
}

}  // namespace
}  // namespace rabit::core
