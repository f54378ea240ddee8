// Edge cases of the rule engine: malformed motion targets, unknown sites,
// generic-device door interplay, alert formatting, and engine statistics.
#include <gtest/gtest.h>

#include <limits>

#include "core/engine.hpp"
#include "core/lab.hpp"
#include "devices/robot_arm.hpp"
#include "devices/stations.hpp"
#include "sim/deck.hpp"
#include "trace/trace.hpp"

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

class EdgeTest : public ::testing::Test {
 protected:
  EdgeTest() { engine->initialize(backend.registry().fetch_observed_state()); }

  Lab lab{Variant::Modified};
  sim::LabBackend& backend = lab.backend;
  RabitEngine* engine = &lab.engine;
};

TEST_F(EdgeTest, MoveWithoutPositionIsInvalid) {
  auto alert = engine->check_command(make_cmd(ids::kViperX, "move_to"));
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(alert->kind, AlertKind::InvalidCommand);
  EXPECT_NE(alert->message.find("unresolvable"), std::string::npos);
}

TEST_F(EdgeTest, MoveWithMalformedPositionIsInvalid) {
  // Two coordinates, three values that are not all numbers, or a coordinate
  // that is not finite: the target is unresolvable (G3) at every variant,
  // never an exception or a crash.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const json::Array malformed[] = {
      json::Array{1.0, 2.0},
      json::Array{"a", 0, 0.2},
      json::Array{0.3, nullptr, 0.2},
      json::Array{kInf, 0, 0.2},
      json::Array{-kInf, 0, 0.2},
      json::Array{std::numeric_limits<double>::quiet_NaN(), 0, 0.2},
  };
  for (Variant variant : {Variant::Initial, Variant::Modified, Variant::ModifiedWithSim}) {
    Lab variant_lab(variant);
    variant_lab.engine.initialize(variant_lab.backend.registry().fetch_observed_state());
    for (const json::Array& position : malformed) {
      json::Object args;
      args["position"] = position;
      Command move = make_cmd(ids::kViperX, "move_to", std::move(args));
      auto alert = variant_lab.engine.check_command(move);
      ASSERT_TRUE(alert.has_value()) << to_string(variant) << " " << move.describe();
      EXPECT_EQ(alert->kind, AlertKind::InvalidCommand);
      EXPECT_EQ(alert->rule, "G3");
      // The backend refuses the same move (a BadArgument firmware error).
      sim::ExecResult result = variant_lab.backend.execute(move);
      EXPECT_FALSE(result.executed);
      EXPECT_FALSE(result.firmware_error.empty());
    }
  }
}

TEST_F(EdgeTest, PickAtUnknownSiteIsInvalid) {
  json::Object args;
  args["site"] = std::string("the_moon");
  auto alert = engine->check_command(make_cmd(ids::kViperX, "pick_object", std::move(args)));
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(alert->kind, AlertKind::InvalidCommand);
}

TEST_F(EdgeTest, UnknownDeviceIsInvalid) {
  auto alert = engine->check_command(make_cmd("poltergeist", "do_things"));
  ASSERT_TRUE(alert.has_value());
  EXPECT_NE(alert->message.find("unknown device"), std::string::npos);
}

TEST_F(EdgeTest, NonRuleActionsPassThrough) {
  // Actions with no preconditions are simply allowed.
  EXPECT_FALSE(engine->check_command(make_cmd(ids::kVial1, "decap")).has_value());
  EXPECT_FALSE(engine->check_command(make_cmd(ids::kDosingDevice, "stop_action")).has_value());
  EXPECT_FALSE(engine->check_command(make_cmd(ids::kCentrifuge, "stop_spin")).has_value());
}

TEST_F(EdgeTest, AlertDescribeCarriesEverything) {
  json::Object args;
  args["celsius"] = 999.0;
  auto alert = engine->check_command(make_cmd(ids::kHotplate, "set_temperature", std::move(args)));
  ASSERT_TRUE(alert.has_value());
  std::string text = alert->describe();
  EXPECT_NE(text.find("Invalid Command!"), std::string::npos);
  EXPECT_NE(text.find("G11"), std::string::npos);
  EXPECT_NE(text.find("hotplate"), std::string::npos);
}

TEST_F(EdgeTest, StatsAccumulateAcrossChecks) {
  static_cast<void>(engine->check_command(make_cmd(ids::kVial1, "decap")));
  json::Object args;
  args["celsius"] = 999.0;
  static_cast<void>(
      engine->check_command(make_cmd(ids::kHotplate, "set_temperature", std::move(args))));
  EXPECT_EQ(engine->stats().commands_checked, 2u);
  EXPECT_EQ(engine->stats().precondition_alerts, 1u);
  // Re-initialize resets the counters.
  engine->initialize(backend.registry().fetch_observed_state());
  EXPECT_EQ(engine->stats().commands_checked, 0u);
}

TEST_F(EdgeTest, GenericDeviceDoorInterlocks) {
  // A doored generic device participates in G9/G10 via its `active` flag.
  auto& coater = dynamic_cast<dev::GenericActionDevice&>(backend.registry().add(
      std::make_unique<dev::GenericActionDevice>(
          "coater", std::vector<dev::GenericActionDevice::ValueActionSpec>{},
          /*has_door=*/true,
          geom::Aabb::from_center(Vec3(0.0, -0.45, 0.08), Vec3(0.10, 0.10, 0.12)))));
  (void)coater;
  RabitEngine fresh(config_from_backend(backend, Variant::Modified));
  fresh.initialize(backend.registry().fetch_observed_state());

  // G10: opening the door while the device is active.
  fresh.apply_expected(make_cmd("coater", "start"));
  json::Object open_args;
  open_args["state"] = std::string("open");
  auto alert = fresh.check_command(make_cmd("coater", "set_door", std::move(open_args)));
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(alert->rule, "G10");

  // After stopping, the door may open.
  fresh.apply_expected(make_cmd("coater", "stop"));
  json::Object reopen;
  reopen["state"] = std::string("open");
  EXPECT_FALSE(fresh.check_command(make_cmd("coater", "set_door", std::move(reopen)))
                   .has_value());
}

TEST_F(EdgeTest, SoftWallNamedInGeometricCheckToo) {
  // A target inside a soft wall is M2 even through the generic G3 machinery.
  EngineConfig cfg = config_from_backend(backend, Variant::Modified);
  cfg.soft_walls.push_back(SoftWallSpec{
      ids::kViperX, geom::Aabb(Vec3(0.5, -1.0, 0.0), Vec3(0.89, 1.0, 1.0))});
  RabitEngine fenced(std::move(cfg));
  fenced.initialize(backend.registry().fetch_observed_state());
  json::Object args;
  args["position"] = json::Array{0.6, 0.0, 0.28};
  auto alert = fenced.check_command(make_cmd(ids::kViperX, "move_to", std::move(args)));
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(alert->rule, "M2");
}

TEST_F(EdgeTest, VerifyWithoutExpectationsIsClean) {
  // Verifying immediately after initialize finds no divergence.
  Command noop = make_cmd(ids::kDosingDevice, "stop_action");
  EXPECT_FALSE(engine->verify_postconditions(noop, backend.registry().fetch_observed_state())
                   .has_value());
}

TEST_F(EdgeTest, HaltedSupervisorRejectsEverything) {
  trace::Supervisor supervisor(engine, &backend);
  supervisor.start();
  json::Object args;
  args["celsius"] = 999.0;
  static_cast<void>(
      supervisor.step(make_cmd(ids::kHotplate, "set_temperature", std::move(args))));
  ASSERT_TRUE(supervisor.halted());
  trace::SupervisedStep next = supervisor.step(make_cmd(ids::kVial1, "decap"));
  EXPECT_TRUE(next.halted);
  EXPECT_FALSE(next.exec.has_value());
  // start() clears the halt.
  supervisor.start();
  EXPECT_FALSE(supervisor.halted());
  EXPECT_TRUE(supervisor.step(make_cmd(ids::kVial1, "decap")).exec.has_value());
}

}  // namespace
}  // namespace rabit::core
