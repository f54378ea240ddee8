// Runtime-assurance decision module tests: the pure switching-point math
// (barrier floor, stopping distance, clamping and monotonicity), the
// signed-margin profile against world geometry, and the end-to-end demotion
// path on a miscalibrated world — the §IV category-2 hazard the reactive
// ladder cannot catch — including the "demoted" trace round-trip and the
// zero-false-demotion guarantee on accurate geometry.
#include <gtest/gtest.h>

#include <memory>

#include "assurance/assurance.hpp"
#include "core/engine.hpp"
#include "core/lab.hpp"
#include "recovery/recovery.hpp"
#include "script/workflows.hpp"
#include "sim/deck.hpp"
#include "sim/extended_sim.hpp"
#include "trace/trace.hpp"

namespace rabit::assurance {
namespace {

namespace ids = sim::deck_ids;

sim::MarginProfile profile_from(std::initializer_list<std::pair<double, double>> sh) {
  sim::MarginProfile p;
  bool first = true;
  for (const auto& [s, h] : sh) {
    sim::MarginSample sample;
    sample.s = s;
    sample.h = h;
    sample.obstacle = "box";
    p.samples.push_back(sample);
    p.length_m = s;
    if (first || h < p.min_margin_m) {
      p.min_margin_m = h;
      p.min_s_m = s;
      p.min_obstacle = "box";
      first = false;
    }
  }
  return p;
}

// --- decide(): switching-point math ------------------------------------------

TEST(Decide, ClearProfileDoesNotDemote) {
  AssuranceConfig cfg;
  sim::MarginProfile p = profile_from({{0.0, 0.5}, {0.2, 0.2}, {0.4, 0.031}});
  Decision d = decide(p, cfg);
  EXPECT_FALSE(d.demote);
  EXPECT_DOUBLE_EQ(d.h_min_m, 0.031);
}

TEST(Decide, ViolationYieldsLastSafeSwitchingPoint) {
  AssuranceConfig cfg;  // v=0.25, a=1.5 -> d_stop = 0.0625/3 ~ 0.020833
  sim::MarginProfile p = profile_from({{0.0, 0.5}, {0.3, 0.01}, {0.5, -0.02}});
  Decision d = decide(p, cfg);
  ASSERT_TRUE(d.demote);
  EXPECT_DOUBLE_EQ(d.s_viol_m, 0.3);
  EXPECT_NEAR(d.stop_distance_m, 0.25 * 0.25 / (2.0 * 1.5), 1e-12);
  EXPECT_NEAR(d.s_star_m, 0.3 - d.stop_distance_m, 1e-12);
  EXPECT_EQ(d.obstacle, "box");
}

TEST(Decide, SwitchingPointClampsAtZero) {
  AssuranceConfig cfg;
  // Violation closer to the start than one stopping distance: the safe
  // controller has no runway — it must act in place.
  sim::MarginProfile p = profile_from({{0.0, 0.5}, {0.01, 0.005}});
  Decision d = decide(p, cfg);
  ASSERT_TRUE(d.demote);
  EXPECT_DOUBLE_EQ(d.s_star_m, 0.0);
  EXPECT_GE(d.s_viol_m, 0.0);
}

TEST(Decide, RaisingTheFloorNeverDelaysTheSwitch) {
  // h(s) strictly decreasing: a higher floor is crossed earlier, so s*
  // must be non-increasing in margin_min_m.
  sim::MarginProfile p =
      profile_from({{0.0, 0.10}, {0.1, 0.08}, {0.2, 0.05}, {0.3, 0.025}, {0.4, 0.01}});
  double last_s_star = 1e300;
  for (double floor : {0.02, 0.03, 0.06, 0.09}) {
    AssuranceConfig cfg;
    cfg.margin_min_m = floor;
    Decision d = decide(p, cfg);
    ASSERT_TRUE(d.demote) << "floor " << floor;
    EXPECT_LE(d.s_star_m, last_s_star) << "floor " << floor;
    last_s_star = d.s_star_m;
  }
}

TEST(Decide, LongerStoppingDistanceSwitchesEarlier) {
  sim::MarginProfile p = profile_from({{0.0, 0.5}, {0.3, 0.01}});
  AssuranceConfig slow;  // defaults
  AssuranceConfig fast;
  fast.nominal_speed_mps = 0.5;  // 4x the stopping distance
  Decision ds = decide(p, slow);
  Decision df = decide(p, fast);
  ASSERT_TRUE(ds.demote);
  ASSERT_TRUE(df.demote);
  EXPECT_GT(df.stop_distance_m, ds.stop_distance_m);
  EXPECT_LT(df.s_star_m, ds.s_star_m);
}

TEST(Decide, InvariantsHoldAcrossProfiles) {
  AssuranceConfig cfg;
  const sim::MarginProfile profiles[] = {
      profile_from({{0.0, -0.01}}),                      // violated at the start
      profile_from({{0.0, 0.5}, {1.0, 0.029}}),          // barely violated late
      profile_from({{0.0, 0.5}, {0.02, -0.5}}),          // deep violation, no runway
      profile_from({{0.0, 0.5}, {0.9, 0.4}, {1.8, 0.0}}),
  };
  for (const sim::MarginProfile& p : profiles) {
    Decision d = decide(p, cfg);
    ASSERT_TRUE(d.demote);
    EXPECT_GE(d.s_star_m, 0.0);
    EXPECT_GE(d.s_viol_m, 0.0);
    EXPECT_LE(d.s_star_m, d.s_viol_m);
    EXPECT_LE(d.s_viol_m, p.length_m + 1e-12);
    EXPECT_LT(d.h_min_m, cfg.margin_min_m);
  }
}

TEST(PointAtArcLength, InterpolatesAndClamps) {
  std::vector<geom::Vec3> path{geom::Vec3(0, 0, 0), geom::Vec3(1, 0, 0), geom::Vec3(1, 2, 0)};
  geom::Vec3 mid = point_at_arc_length(path, 0.5);
  EXPECT_NEAR(mid.x, 0.5, 1e-12);
  geom::Vec3 second_leg = point_at_arc_length(path, 1.5);
  EXPECT_NEAR(second_leg.x, 1.0, 1e-12);
  EXPECT_NEAR(second_leg.y, 0.5, 1e-12);
  geom::Vec3 past_end = point_at_arc_length(path, 99.0);
  EXPECT_NEAR(past_end.y, 2.0, 1e-12);
  geom::Vec3 before_start = point_at_arc_length(path, -1.0);
  EXPECT_NEAR(before_start.x, 0.0, 1e-12);
}

// --- margin_profile(): barrier vs world geometry -----------------------------

TEST(MarginProfile, PathThroughBoxGoesNegative) {
  sim::WorldModel world;
  world.add_box("block", geom::Aabb(geom::Vec3(0.4, -0.1, -0.1), geom::Vec3(0.6, 0.1, 0.1)),
                sim::ObstacleKind::Equipment);
  std::vector<geom::Vec3> path{geom::Vec3(0, 0, 0), geom::Vec3(1, 0, 0)};
  sim::MarginProfile p = sim::margin_profile(world, path, 0.0, sim::PathCheckOptions{});
  EXPECT_LT(p.min_margin_m, 0.0);
  EXPECT_EQ(p.min_obstacle, "block");
  EXPECT_NEAR(p.length_m, 1.0, 1e-9);
}

TEST(MarginProfile, ClearPathReportsTrueClearance) {
  sim::WorldModel world;
  world.add_box("block", geom::Aabb(geom::Vec3(0.4, 0.2, -0.1), geom::Vec3(0.6, 0.4, 0.1)),
                sim::ObstacleKind::Equipment);
  std::vector<geom::Vec3> path{geom::Vec3(0, 0, 0), geom::Vec3(1, 0, 0)};
  sim::MarginProfile p = sim::margin_profile(world, path, 0.0, sim::PathCheckOptions{});
  // Closest approach: y gap of 0.2 m at the box's x-range.
  EXPECT_NEAR(p.min_margin_m, 0.2, 0.02);
  EXPECT_GT(p.min_margin_m, 0.0);
}

TEST(MarginProfile, IgnoredBoxesDoNotBindTheBarrier) {
  sim::WorldModel world;
  world.add_box("target_vial", geom::Aabb(geom::Vec3(0.45, -0.05, -0.1), geom::Vec3(0.55, 0.05, 0.1)),
                sim::ObstacleKind::Vial);
  std::vector<geom::Vec3> path{geom::Vec3(0, 0, 0), geom::Vec3(1, 0, 0)};
  sim::PathCheckOptions opts;
  opts.ignore = {"target_vial"};
  sim::MarginProfile p = sim::margin_profile(world, path, 0.0, opts);
  EXPECT_TRUE(p.min_obstacle.empty());
}

// --- end to end: the miscalibrated-shelf hazard ------------------------------

// The bench_fault_recovery hazard leg in fixture form: configured world says
// the overhead shelf clears the ascent corridor by 1.5 cm; ground truth says
// the corridor runs through it. Boolean V3 checking passes; only the barrier
// floor (3 cm > the 2 cm miscalibration) can intervene in time.
class MiscalibratedShelf : public ::testing::Test {
 protected:
  MiscalibratedShelf() {
    simulator->set_gui_enabled(false);
    simulator->world().add_box(
        "overhead_shelf",
        geom::Aabb(geom::Vec3(0.07, -0.085, 0.40), geom::Vec3(0.17, 0.015, 0.50)),
        sim::ObstacleKind::Equipment);
    backend.add_static_obstacle(
        "overhead_shelf",
        geom::Aabb(geom::Vec3(0.07, -0.105, 0.40), geom::Vec3(0.17, -0.005, 0.50)),
        sim::ObstacleKind::Equipment);
  }

  dev::Command ascent() const {
    dev::Command c;
    c.device = ids::kViperX;
    c.action = "move_to";
    json::Object args;
    args["position"] = json::Array{0.12, -0.10, 0.48};  // arm frame; lab z 0.50
    c.args = json::Value(std::move(args));
    return c;
  }

  core::Lab lab{core::Variant::ModifiedWithSim};
  sim::LabBackend& backend = lab.backend;
  sim::ExtendedSimulator* simulator = &*lab.simulator;
  core::RabitEngine* engine = &lab.engine;
};

TEST_F(MiscalibratedShelf, ReactiveLadderCannotPreventTheDamage) {
  trace::Supervisor::Options opts;
  opts.recovery = recovery::RecoveryPolicy{};
  trace::Supervisor sup(engine, &backend, opts);
  trace::RunReport report = sup.run({ascent()});
  EXPECT_EQ(report.alerts, 0u);  // the boolean check passes and the goal is reached
  EXPECT_EQ(report.damage.size(), 1u);
  ASSERT_TRUE(report.recovery.has_value());
  EXPECT_EQ(report.recovery->demotions, 0u);
}

TEST_F(MiscalibratedShelf, AssuranceDemotesBeforeContact) {
  trace::Supervisor::Options opts;
  opts.assurance = AssuranceConfig{};
  trace::Supervisor sup(engine, &backend, opts);
  trace::RunReport report = sup.run({ascent()});

  EXPECT_TRUE(report.damage.empty());
  EXPECT_TRUE(report.halted);
  EXPECT_EQ(report.alerts, 1u);
  ASSERT_EQ(report.steps.size(), 1u);
  const trace::SupervisedStep& step = report.steps[0];
  EXPECT_TRUE(step.demoted);
  ASSERT_TRUE(step.alert.has_value());
  EXPECT_EQ(step.alert->rule, "RTA");

  ASSERT_TRUE(report.recovery.has_value());
  ASSERT_EQ(report.recovery->demotions, 1u);
  ASSERT_EQ(report.recovery->assurance.size(), 1u);
  const AssuranceEvent& e = report.recovery->assurance[0];
  EXPECT_EQ(e.device, ids::kViperX);
  EXPECT_EQ(e.action, "move_to");
  // The configured shelf leaves 1.5 cm — under the 3 cm floor, above contact.
  EXPECT_GT(e.barrier_m, 0.0);
  EXPECT_LT(e.barrier_m, 0.03);
  EXPECT_EQ(e.obstacle, "overhead_shelf");
  EXPECT_GT(e.violation_s_m, 0.0);
  EXPECT_NEAR(e.switch_s_m, e.violation_s_m - e.stop_distance_m, 1e-9);
  EXPECT_GT(e.trajectory_m, e.violation_s_m);
  EXPECT_EQ(e.controller, "verified_safe");
}

TEST_F(MiscalibratedShelf, SafeControllerParksTheArm) {
  trace::Supervisor::Options opts;
  opts.assurance = AssuranceConfig{};
  trace::Supervisor sup(engine, &backend, opts);
  (void)sup.run({ascent()});

  // Verified-safe fallback: truncated advance, then park. The arm must end
  // at its sleep pose, and the safe-state rungs must be in the trace.
  const auto& arm =
      dynamic_cast<const dev::RobotArmDevice&>(*backend.registry().find(ids::kViperX));
  geom::Vec3 pos = arm.position_lab();  // modulo the backend's placement noise
  EXPECT_NEAR(pos.x, 0.12, 1e-3);
  EXPECT_NEAR(pos.y, -0.10, 1e-3);
  EXPECT_NEAR(pos.z, 0.14, 1e-3);

  bool saw_demoted = false, saw_safe_state = false;
  for (const trace::TraceRecord& r : sup.log().records()) {
    if (r.outcome == trace::Outcome::Demoted) saw_demoted = true;
    if (r.outcome == trace::Outcome::SafeState) saw_safe_state = true;
  }
  EXPECT_TRUE(saw_demoted);
  EXPECT_TRUE(saw_safe_state);
}

TEST_F(MiscalibratedShelf, DemotedRecordRoundTripsThroughJsonl) {
  trace::Supervisor::Options opts;
  opts.assurance = AssuranceConfig{};
  trace::Supervisor sup(engine, &backend, opts);
  (void)sup.run({ascent()});

  std::string jsonl = sup.log().to_jsonl();
  trace::TraceLog parsed = trace::TraceLog::from_jsonl(jsonl);
  ASSERT_EQ(parsed.size(), sup.log().size());
  bool saw_demoted = false;
  for (const trace::TraceRecord& r : parsed.records()) {
    if (r.outcome == trace::Outcome::Demoted) {
      saw_demoted = true;
      EXPECT_EQ(r.alert_rule, "RTA");
      EXPECT_EQ(r.command.device, ids::kViperX);
    }
  }
  EXPECT_TRUE(saw_demoted);
  EXPECT_EQ(parsed.to_jsonl(), jsonl);
}

TEST_F(MiscalibratedShelf, DemotionEscalatesThroughTheLadderWhenRecoveryIsOn) {
  trace::Supervisor::Options opts;
  opts.recovery = recovery::RecoveryPolicy{};
  opts.assurance = AssuranceConfig{};
  trace::Supervisor sup(engine, &backend, opts);
  trace::RunReport report = sup.run({ascent()});

  EXPECT_TRUE(report.damage.empty());
  ASSERT_TRUE(report.recovery.has_value());
  EXPECT_EQ(report.recovery->demotions, 1u);
  // A demotion is not a transient: the ladder must not have burned retries
  // re-trying the demoted motion.
  EXPECT_EQ(report.recovery->retries, 0u);
  // The device lands in quarantine via the escalation path.
  EXPECT_FALSE(sup.quarantined().empty());
}

// --- accurate world: assurance must stay silent ------------------------------

TEST(AssuranceAccurateWorld, NoDemotionsAndIdenticalVerdictsOnTestbedWorkflow) {
  auto run_workflow = [](bool with_assurance) {
    std::vector<dev::Command> workflow;
    core::Lab lab(core::Variant::ModifiedWithSim, 42, [&workflow](sim::LabBackend& backend) {
      sim::build_hein_testbed_deck(backend);
      workflow = script::record_workflow(backend, script::testbed_workflow_source());
    });
    lab.simulator->set_gui_enabled(false);
    trace::Supervisor::Options opts;
    if (with_assurance) opts.assurance = AssuranceConfig{};
    trace::Supervisor sup(&lab.engine, &lab.backend, opts);
    return sup.run(workflow);
  };

  trace::RunReport off = run_workflow(false);
  trace::RunReport on = run_workflow(true);
  ASSERT_TRUE(on.recovery.has_value());
  EXPECT_EQ(on.recovery->demotions, 0u);
  EXPECT_EQ(on.alerts, off.alerts);
  EXPECT_EQ(on.steps.size(), off.steps.size());
  EXPECT_EQ(on.halted, off.halted);
  EXPECT_EQ(on.damage.size(), off.damage.size());
}

TEST(AssuranceOptions, DisabledConfigIsANoOp) {
  // Options::assurance unset is the off switch. A Supervisor built without
  // it resets the margin an earlier, assured Supervisor folded into the
  // same engine.
  core::Lab lab(core::Variant::ModifiedWithSim);
  trace::Supervisor::Options opts;
  opts.assurance = AssuranceConfig{};
  trace::Supervisor assured(&lab.engine, &lab.backend, opts);
  ASSERT_DOUBLE_EQ(lab.engine.assurance_margin(), AssuranceConfig{}.margin_min_m);

  trace::Supervisor plain(&lab.engine, &lab.backend);
  EXPECT_DOUBLE_EQ(lab.engine.assurance_margin(), 0.0);
}

}  // namespace
}  // namespace rabit::assurance
