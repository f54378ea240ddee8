// RabitEngine tests: the three alert paths of the Fig. 2 algorithm.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/lab.hpp"
#include "devices/robot_arm.hpp"
#include "sim/deck.hpp"

namespace rabit::core {
namespace {

using dev::Command;
using geom::Vec3;
namespace ids = sim::deck_ids;

Command make_cmd(std::string device, std::string action, json::Object args = {}) {
  Command c;
  c.device = std::move(device);
  c.action = std::move(action);
  c.args = json::Value(std::move(args));
  return c;
}

class EngineTest : public ::testing::Test {
 protected:
  explicit EngineTest(Variant variant = Variant::Modified)
      : lab(variant), backend(lab.backend), engine(&lab.engine) {
    engine->initialize(backend.registry().fetch_observed_state());
  }

  Command move(const char* arm, const Vec3& local) {
    json::Object args;
    args["position"] = json::Array{local.x, local.y, local.z};
    return make_cmd(arm, "move_to", std::move(args));
  }

  Vec3 site_local(const char* arm, const char* site) {
    return backend.arm(arm).to_local(backend.find_site(site)->lab_position);
  }

  Lab lab;
  sim::LabBackend& backend;
  RabitEngine* engine;
};

TEST_F(EngineTest, SafeCommandPassesAndCountsOverhead) {
  double before = engine->modeled_overhead_s();
  EXPECT_FALSE(engine->check_command(make_cmd(ids::kViperX, "go_home")).has_value());
  EXPECT_DOUBLE_EQ(engine->modeled_overhead_s() - before, RabitEngine::kBaseCheckCost_s);
  EXPECT_EQ(engine->stats().commands_checked, 1u);
  EXPECT_EQ(engine->stats().precondition_alerts, 0u);
}

TEST_F(EngineTest, PreconditionAlertPath) {
  auto alert = engine->check_command(move(ids::kViperX, site_local(ids::kViperX, "dosing_device")));
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(alert->kind, AlertKind::InvalidCommand);
  EXPECT_EQ(alert->rule, "G1");
  EXPECT_EQ(engine->stats().precondition_alerts, 1u);
  // The Fig. 2 banner text.
  EXPECT_NE(alert->describe().find("Invalid Command!"), std::string::npos);
}

TEST_F(EngineTest, MalfunctionAlertOnInjectedFault) {
  // A dead door actuator: the command "succeeds" but nothing moves.
  dev::FaultPlan fault;
  fault.dead_actions.push_back("set_door");
  backend.registry().at(ids::kDosingDevice).set_fault_plan(fault);

  Command open = make_cmd(ids::kDosingDevice, "set_door", [] {
    json::Object o;
    o["state"] = std::string("open");
    return o;
  }());
  ASSERT_FALSE(engine->check_command(open).has_value());
  engine->apply_expected(open);
  backend.execute(open);
  auto alert = engine->verify_postconditions(open, backend.registry().fetch_observed_state());
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(alert->kind, AlertKind::DeviceMalfunction);
  EXPECT_NE(alert->message.find("doorStatus"), std::string::npos);
  EXPECT_EQ(engine->stats().malfunction_alerts, 1u);

  // Line 16 resynced to the actual state, so a repeat check is clean.
  EXPECT_TRUE(engine->tracker()
                  .mismatches(backend.registry().fetch_observed_state())
                  .empty());
}

TEST_F(EngineTest, LyingStatusCommandDetected) {
  // The device claims the door opened while it physically did not.
  dev::FaultPlan fault;
  fault.reported_overrides["doorStatus"] = std::string("broken");
  backend.registry().at(ids::kDosingDevice).set_fault_plan(fault);
  Command noop = make_cmd(ids::kDosingDevice, "stop_action");
  engine->apply_expected(noop);
  backend.execute(noop);
  auto alert = engine->verify_postconditions(noop, backend.registry().fetch_observed_state());
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(alert->kind, AlertKind::DeviceMalfunction);
}

TEST_F(EngineTest, CleanExecutionRaisesNothing) {
  Command open = make_cmd(ids::kDosingDevice, "set_door", [] {
    json::Object o;
    o["state"] = std::string("open");
    return o;
  }());
  ASSERT_FALSE(engine->check_command(open).has_value());
  engine->apply_expected(open);
  backend.execute(open);
  EXPECT_FALSE(engine->verify_postconditions(open, backend.registry().fetch_observed_state())
                   .has_value());
}

class SimEngineTest : public EngineTest {
 protected:
  SimEngineTest() : EngineTest(Variant::ModifiedWithSim), simulator(&*lab.simulator) {}

  sim::ExtendedSimulator* simulator;
};

TEST_F(SimEngineTest, TrajectoryAlertOnEnRouteCollision) {
  // Wake the arm at a point west of the grid, low to the deck.
  Command to_west = move(ids::kViperX, Vec3(0.18, 0.30, 0.03));
  ASSERT_FALSE(engine->check_command(to_west).has_value());
  engine->apply_expected(to_west);
  backend.execute(to_west);

  // Target east of the grid is free, but the straight path sweeps through
  // the grid box: only the trajectory replay can see that.
  Command across = move(ids::kViperX, Vec3(0.48, 0.30, 0.03));
  auto alert = engine->check_command(across);
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(alert->kind, AlertKind::InvalidTrajectory);
  EXPECT_EQ(alert->rule, "SIM");
  EXPECT_GT(engine->stats().trajectory_alerts, 0u);
  EXPECT_GT(simulator->checks_performed(), 0u);
}

TEST_F(SimEngineTest, MoveTooLongToPollRaisesSim) {
  // Past the per-leg sample cap a leg is never polled, so it is a SIM hit
  // naming the leg and the cap; at x = 1e18 and 1e300 the sample count would
  // not even fit a std::size_t.
  for (double x : {1e17, 1e18, 1e300}) {
    auto alert = engine->check_command(move(ids::kViperX, Vec3(x, 0.0, 0.2)));
    ASSERT_TRUE(alert.has_value()) << x;
    EXPECT_EQ(alert->kind, AlertKind::InvalidTrajectory) << x;
    EXPECT_EQ(alert->rule, "SIM") << x;
    EXPECT_NE(alert->message.find("leg to"), std::string::npos) << alert->message;
    EXPECT_NE(alert->message.find(std::to_string(sim::kMaxLegSamples)), std::string::npos)
        << alert->message;
  }
}

TEST_F(SimEngineTest, SimulatorLatencyCharged) {
  double before = engine->modeled_overhead_s();
  ASSERT_FALSE(engine->check_command(make_cmd(ids::kViperX, "go_home")).has_value());
  // One motion command = one (or more) GUI invocations at ~2 s each.
  EXPECT_GE(engine->modeled_overhead_s() - before,
            sim::ExtendedSimulator::kGuiLatency_s);
}

TEST_F(SimEngineTest, HeadlessModeIsCheap) {
  simulator->set_gui_enabled(false);
  double before = engine->modeled_overhead_s();
  ASSERT_FALSE(engine->check_command(make_cmd(ids::kViperX, "go_home")).has_value());
  double delta = engine->modeled_overhead_s() - before;
  EXPECT_LT(delta, 0.2);  // bypassing the GUI removes the 2 s round trip
}

TEST_F(SimEngineTest, PolledPositionOverridesTrackedStart) {
  // Silently skip a move so RABIT's belief diverges from reality.
  Command to_west = move(ids::kViperX, Vec3(0.18, 0.30, 0.03));
  engine->apply_expected(to_west);
  backend.execute(to_west);

  Command infeasible = move(ids::kViperX, Vec3(0.35, 0.30, 2.0));
  ASSERT_FALSE(engine->check_command(infeasible).has_value());
  engine->apply_expected(infeasible);  // RABIT now believes the arm is at z=2
  sim::ExecResult r = backend.execute(infeasible);
  EXPECT_TRUE(r.silently_skipped);  // physically the arm never moved

  // From RABIT's believed position the next path is clear; from the *real*
  // position it sweeps through the grid. The simulator polls reality.
  Command across = move(ids::kViperX, Vec3(0.48, 0.30, 0.03));
  auto alert = engine->check_command(across);
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(alert->kind, AlertKind::InvalidTrajectory);
}

TEST(ExtendedSimulator, WorldFromJsonRoundTrip) {
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  json::Value doc = sim::deck_world_json(backend);
  sim::WorldModel world = sim::ExtendedSimulator::world_from_json(doc);
  EXPECT_EQ(world.boxes.size(), sim::deck_world_model(backend).boxes.size());
  EXPECT_NE(world.find_box(ids::kDosingDevice), nullptr);
  EXPECT_NE(world.find_box("platform"), nullptr);
}

TEST(ExtendedSimulator, WorldFromJsonRejectsGarbage) {
  EXPECT_THROW(sim::ExtendedSimulator::world_from_json(json::parse("{}")), std::runtime_error);
  EXPECT_THROW(sim::ExtendedSimulator::world_from_json(
                   json::parse(R"({"objects":[{"name":"x"}]})")),
               std::runtime_error);
  EXPECT_THROW(sim::ExtendedSimulator::world_from_json(json::parse(
                   R"({"objects":[{"name":"x","kind":"blob","center":[0,0,0],"size":[1,1,1]}]})")),
               std::runtime_error);
  // A negative size is the document's error, named after its object, not
  // an Aabb precondition (std::invalid_argument) escaping.
  try {
    (void)sim::ExtendedSimulator::world_from_json(json::parse(
        R"({"objects":[{"name":"shelf","center":[0,0,0],"size":[-0.1,0.1,0.1]}]})"));
    ADD_FAILURE() << "a negative size was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'shelf'"), std::string::npos) << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "not a std::runtime_error: " << e.what();
  }
}

TEST(ExtendedSimulator, ValidateTargetVsTrajectory) {
  sim::WorldModel world;
  world.add_box("box", geom::Aabb(Vec3(-0.1, -0.1, 0), Vec3(0.1, 0.1, 0.2)),
                sim::ObstacleKind::Equipment);
  sim::ExtendedSimulator simulator(world);
  // Target beyond the box: the target-only check RABIT falls back to without
  // a simulator passes, the simulator's trajectory sweep alerts.
  EXPECT_FALSE(sim::check_point(simulator.world(), Vec3(0.5, 0, 0.1), 0.0).has_value());
  EXPECT_TRUE(simulator.sweep({Vec3(-0.5, 0, 0.1), Vec3(0.5, 0, 0.1)}, 0.0, {}).hit.has_value());
  EXPECT_EQ(simulator.checks_performed(), 1u);
  EXPECT_GT(simulator.modeled_latency_s(), 0.0);
}

TEST(AlertKindNames, MatchFigure2Banners) {
  EXPECT_EQ(to_string(AlertKind::InvalidCommand), "Invalid Command!");
  EXPECT_EQ(to_string(AlertKind::InvalidTrajectory), "Invalid trajectory!");
  EXPECT_EQ(to_string(AlertKind::DeviceMalfunction), "Device malfunction!");
}

}  // namespace
}  // namespace rabit::core
