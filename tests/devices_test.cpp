#include <gtest/gtest.h>

#include "devices/containers.hpp"
#include "devices/device.hpp"
#include "devices/robot_arm.hpp"
#include "devices/stations.hpp"

namespace rabit::dev {
namespace {

using geom::Aabb;
using geom::Transform;
using geom::Vec3;

Command make_cmd(std::string device, std::string action, json::Object args = {}) {
  Command c;
  c.device = std::move(device);
  c.action = std::move(action);
  c.args = json::Value(std::move(args));
  return c;
}

Aabb unit_box() { return Aabb(Vec3(0, 0, 0), Vec3(0.1, 0.1, 0.1)); }

// --- base class -------------------------------------------------------------

TEST(Device, CategoryNames) {
  EXPECT_EQ(to_string(DeviceCategory::Container), "container");
  EXPECT_EQ(to_string(DeviceCategory::RobotArm), "robot_arm");
  EXPECT_EQ(parse_device_category("dosing_system"), DeviceCategory::DosingSystem);
  EXPECT_EQ(parse_device_category("action_device"), DeviceCategory::ActionDevice);
  EXPECT_FALSE(parse_device_category("toaster").has_value());
}

TEST(Device, UnknownActionThrows) {
  Vial v("v", 10, 15, "bench");
  EXPECT_THROW(v.execute(make_cmd("v", "explode")), DeviceError);
  try {
    v.execute(make_cmd("v", "explode"));
  } catch (const DeviceError& e) {
    EXPECT_EQ(e.code(), DeviceError::Code::UnknownAction);
  }
}

TEST(Device, EmptyIdRejected) {
  EXPECT_THROW(Vial("", 10, 15, "bench"), std::invalid_argument);
}

TEST(Device, CommandDescribe) {
  Command c = make_cmd("hotplate", "set_temperature", [] {
    json::Object o;
    o["celsius"] = 120.0;
    return o;
  }());
  c.source_line = 42;
  std::string d = c.describe();
  EXPECT_NE(d.find("hotplate.set_temperature"), std::string::npos);
  EXPECT_NE(d.find("celsius=120"), std::string::npos);
  EXPECT_NE(d.find("@line 42"), std::string::npos);
}

TEST(Device, CommandEqualityComparesEveryField) {
  auto celsius = [](double v) {
    json::Object o;
    o["celsius"] = v;
    return o;
  };
  Command a = make_cmd("hotplate", "set_temperature", celsius(120.0));
  a.source_line = 7;
  Command b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::vector<Command>{a}, std::vector<Command>{b});

  b.source_line = 8;  // the same call from another script line
  EXPECT_NE(a, b);
  b = a;
  b.args = json::Value(celsius(121.0));
  EXPECT_NE(a, b);
  b = a;
  b.action = "stir";
  EXPECT_NE(a, b);
  b = a;
  b.device = "thermoshaker";
  EXPECT_NE(a, b);
}

TEST(Device, FaultPlanOverridesObservedState) {
  DosingDeviceModel d("dd", unit_box());
  FaultPlan fault;
  fault.reported_overrides["doorStatus"] = std::string("open");
  d.set_fault_plan(fault);
  EXPECT_EQ(d.state().at("doorStatus").as_string(), "closed");       // truth
  EXPECT_EQ(d.observed_state().at("doorStatus").as_string(), "open");  // lie
  d.clear_fault_plan();
  EXPECT_EQ(d.observed_state().at("doorStatus").as_string(), "closed");
}

TEST(Device, DeadActionSilentlyIgnored) {
  DosingDeviceModel d("dd", unit_box());
  FaultPlan fault;
  fault.dead_actions.push_back("set_door");
  d.set_fault_plan(fault);
  d.execute(make_cmd("dd", "set_door", [] {
    json::Object o;
    o["state"] = std::string("open");
    return o;
  }()));
  EXPECT_EQ(d.door_status(), "closed");  // nothing happened
}

TEST(Device, HazardsDrainOnce) {
  Vial v("v", 10, 15, "bench");
  v.shatter("test");
  auto first = v.take_hazards();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].severity, Severity::MediumLow);
  EXPECT_TRUE(v.take_hazards().empty());
}

TEST(StateDiff, FindsChangedAndMissing) {
  LabStateSnapshot a;
  a["d"]["x"] = 1;
  a["d"]["y"] = 2;
  LabStateSnapshot b;
  b["d"]["x"] = 1;
  b["d"]["y"] = 3;
  b["e"]["z"] = 4;
  auto d = diff(a, b);
  EXPECT_EQ(d, (std::vector<std::string>{"d.y", "e.*"}));
}

// --- registry ----------------------------------------------------------------

TEST(DeviceRegistry, AddFindAt) {
  DeviceRegistry reg;
  reg.add(std::make_unique<Vial>("v1", 10, 15, "bench"));
  EXPECT_NE(reg.find("v1"), nullptr);
  EXPECT_EQ(reg.find("v2"), nullptr);
  EXPECT_NO_THROW(static_cast<void>(reg.at("v1")));
  EXPECT_THROW(static_cast<void>(reg.at("v2")), std::out_of_range);
  EXPECT_THROW(reg.add(std::make_unique<Vial>("v1", 10, 15, "bench")), std::invalid_argument);
  EXPECT_THROW(reg.add(nullptr), std::invalid_argument);
}

TEST(DeviceRegistry, SnapshotsSeparateTruthFromObservation) {
  DeviceRegistry reg;
  reg.add(std::make_unique<Vial>("v1", 10, 15, "bench"));
  reg.add(std::make_unique<DosingDeviceModel>("dd", unit_box()));
  auto observed = reg.fetch_observed_state();
  auto truth = reg.fetch_true_state();
  // Vials have no status command: observed empty, truth populated.
  EXPECT_TRUE(observed.at("v1").empty());
  EXPECT_FALSE(truth.at("v1").empty());
  // The dosing device reports its door but not its (unsensed) chamber.
  EXPECT_TRUE(observed.at("dd").contains("doorStatus"));
  EXPECT_FALSE(observed.at("dd").contains("containerInside"));
  EXPECT_TRUE(truth.at("dd").contains("containerInside"));
}

// --- vial -------------------------------------------------------------------

TEST(Vial, AddSolidRespectsCapacity) {
  Vial v("v", 10, 15, "bench");
  v.add_solid(4);
  EXPECT_DOUBLE_EQ(v.solid_mg(), 4);
  v.add_solid(10);  // 6 accepted, 4 spilled
  EXPECT_DOUBLE_EQ(v.solid_mg(), 10);
  EXPECT_DOUBLE_EQ(v.state().at("spilledMg").as_double(), 4);
  auto hazards = v.take_hazards();
  ASSERT_EQ(hazards.size(), 1u);
  EXPECT_EQ(hazards[0].severity, Severity::Low);
}

TEST(Vial, StopperBlocksTransfers) {
  Vial v("v", 10, 15, "bench");
  v.set_stopper(true);
  v.add_liquid(5);
  EXPECT_DOUBLE_EQ(v.liquid_ml(), 0);
  EXPECT_DOUBLE_EQ(v.state().at("spilledMl").as_double(), 5);
  EXPECT_DOUBLE_EQ(v.draw_liquid(1), 0);
  v.set_stopper(false);
  v.add_liquid(5);
  EXPECT_DOUBLE_EQ(v.liquid_ml(), 5);
}

TEST(Vial, DrawReturnsAvailableAmount) {
  Vial v("v", 10, 15, "bench");
  v.add_liquid(3);
  EXPECT_DOUBLE_EQ(v.draw_liquid(5), 3);
  EXPECT_DOUBLE_EQ(v.liquid_ml(), 0);
  v.add_solid(2);
  EXPECT_DOUBLE_EQ(v.draw_solid(1), 1);
  EXPECT_DOUBLE_EQ(v.solid_mg(), 1);
}

TEST(Vial, ShatterLosesContents) {
  Vial v("v", 10, 15, "bench");
  v.add_solid(5);
  v.add_liquid(5);
  v.shatter("dropped");
  EXPECT_TRUE(v.is_broken());
  EXPECT_TRUE(v.is_empty());
  EXPECT_DOUBLE_EQ(v.state().at("spilledMg").as_double(), 5);
  // Double shatter is idempotent.
  v.shatter("again");
  EXPECT_EQ(v.take_hazards().size(), 1u);
}

TEST(Vial, SpillContents) {
  Vial v("v", 10, 15, "bench");
  v.add_liquid(5);
  v.spill_contents("centrifuged open");
  EXPECT_TRUE(v.is_empty());
  EXPECT_FALSE(v.is_broken());
  // Spilling an empty vial raises no hazard.
  auto h = v.take_hazards();
  v.spill_contents("noop");
  EXPECT_TRUE(v.take_hazards().empty());
}

TEST(Vial, ActionsViaExecute) {
  Vial v("v", 10, 15, "bench");
  v.execute(make_cmd("v", "recap"));
  EXPECT_TRUE(v.has_stopper());
  v.execute(make_cmd("v", "decap"));
  EXPECT_FALSE(v.has_stopper());
  EXPECT_THROW(v.execute(make_cmd("v", "add_solid")), DeviceError);  // missing amount
}

TEST(Vial, InvalidConstruction) {
  EXPECT_THROW(Vial("v", 0, 15, "bench"), std::invalid_argument);
  EXPECT_THROW(Vial("v", 10, -1, "bench"), std::invalid_argument);
}

// --- grid -------------------------------------------------------------------

TEST(VialGrid, PlaceAndRemove) {
  VialGrid g("grid", {"A", "B"}, unit_box());
  EXPECT_EQ(g.occupant("A"), "");
  g.place("A", "v1");
  EXPECT_EQ(g.occupant("A"), "v1");
  g.remove("A");
  EXPECT_EQ(g.occupant("A"), "");
  EXPECT_THROW(static_cast<void>(g.occupant("Z")), DeviceError);
  EXPECT_EQ(g.slots(), (std::vector<std::string>{"A", "B"}));
}

TEST(VialGrid, DoublePlaceBreaksGlass) {
  VialGrid g("grid", {"A"}, unit_box());
  g.place("A", "v1");
  g.place("A", "v2");
  auto hazards = g.take_hazards();
  ASSERT_EQ(hazards.size(), 1u);
  EXPECT_EQ(hazards[0].severity, Severity::MediumLow);
}

// --- robot arm ----------------------------------------------------------------

TEST(RobotArm, FrameConversionsRoundTrip) {
  RobotArmDevice arm("a", kin::make_viperx300(Transform::translation(Vec3(0.6, 0.1, 0.02)) *
                                              Transform::rotation_z(1.0)),
                     MotionPolicy::ThrowOnUnreachable);
  Vec3 local(0.2, 0.1, 0.3);
  EXPECT_TRUE(geom::approx_equal(arm.to_local(arm.to_lab(local)), local, 1e-9));
}

TEST(RobotArm, MoveUpdatesPositionAndPose) {
  RobotArmDevice arm("a", kin::make_viperx300(Transform::translation(Vec3(0, 0, 0.02))),
                     MotionPolicy::ThrowOnUnreachable);
  Vec3 target(0.3, 0.1, 0.2);
  MotionPlan plan = arm.plan_move(target);
  ASSERT_TRUE(plan.trajectory.has_value());
  arm.commit_move(plan);
  EXPECT_LT(arm.position_local().distance_to(target), 5e-3);
  EXPECT_EQ(arm.state().at("pose").as_string(), "custom");
}

TEST(RobotArm, SilentSkipPolicy) {
  RobotArmDevice skipper("a", kin::make_viperx300(Transform()),
                         MotionPolicy::SilentSkipOnUnreachable);
  MotionPlan plan = skipper.plan_move(Vec3(0, 0, 5));
  EXPECT_TRUE(plan.skipped);
  Vec3 before = skipper.position_local();
  skipper.commit_move(plan);
  EXPECT_TRUE(geom::approx_equal(skipper.position_local(), before));
}

TEST(RobotArm, ThrowPolicy) {
  RobotArmDevice strict("a", kin::make_ned2(Transform()), MotionPolicy::ThrowOnUnreachable);
  EXPECT_THROW(static_cast<void>(strict.plan_move(Vec3(0, 0, 5))), DeviceError);
}

TEST(RobotArm, NamedPoses) {
  RobotArmDevice arm("a", kin::make_viperx300(Transform::translation(Vec3(0, 0, 0.02))),
                     MotionPolicy::ThrowOnUnreachable);
  kin::JointVector custom{0.5, -1.0, 0.8, 0.0, 0.5, 0.0};
  arm.set_named_pose("sleep", custom);
  EXPECT_EQ(arm.named_pose("sleep"), custom);
  arm.commit_move(arm.plan_pose("sleep"), "sleep");
  EXPECT_EQ(arm.state().at("pose").as_string(), "sleep");
  EXPECT_THROW(arm.set_named_pose("banana", custom), DeviceError);
  EXPECT_THROW(static_cast<void>(arm.named_pose("banana")), DeviceError);
}

TEST(RobotArm, HoldingNotObservable) {
  RobotArmDevice arm("a", kin::make_viperx300(Transform()), MotionPolicy::ThrowOnUnreachable);
  arm.set_holding("vial_1");
  arm.set_inside_device("dosing");
  EXPECT_EQ(arm.holding(), "vial_1");
  StateMap observed = arm.observed_state();
  EXPECT_FALSE(observed.contains("holding"));
  EXPECT_FALSE(observed.contains("inside"));
  EXPECT_TRUE(observed.contains("gripper"));
  EXPECT_TRUE(observed.contains("pose"));
}

TEST(RobotArm, HeldClearanceOnlyWhenHolding) {
  RobotArmDevice arm("a", kin::make_viperx300(Transform()), MotionPolicy::ThrowOnUnreachable);
  EXPECT_DOUBLE_EQ(arm.held_clearance(), 0.0);
  arm.set_holding("vial_1");
  EXPECT_DOUBLE_EQ(arm.held_clearance(), 0.07);
  arm.set_held_drop(0.1);
  EXPECT_DOUBLE_EQ(arm.held_clearance(), 0.1);
}

TEST(RobotArm, GripperActions) {
  RobotArmDevice arm("a", kin::make_viperx300(Transform()), MotionPolicy::ThrowOnUnreachable);
  EXPECT_TRUE(arm.gripper_open());
  arm.execute(make_cmd("a", "close_gripper"));
  EXPECT_FALSE(arm.gripper_open());
  arm.execute(make_cmd("a", "open_gripper"));
  EXPECT_TRUE(arm.gripper_open());
}

// --- stations ---------------------------------------------------------------

TEST(DosingDevice, DoorAndDose) {
  DosingDeviceModel d("dd", unit_box());
  EXPECT_EQ(d.door_status(), "closed");
  d.execute(make_cmd("dd", "set_door", [] {
    json::Object o;
    o["state"] = std::string("open");
    return o;
  }()));
  EXPECT_EQ(d.door_status(), "open");
  d.execute(make_cmd("dd", "run_action", [] {
    json::Object o;
    o["quantity"] = 5.0;
    return o;
  }()));
  EXPECT_TRUE(d.running());
  EXPECT_DOUBLE_EQ(d.take_pending_dose_mg(), 5.0);
  EXPECT_DOUBLE_EQ(d.take_pending_dose_mg(), 0.0);  // consumed
  d.execute(make_cmd("dd", "stop_action"));
  EXPECT_FALSE(d.running());
}

TEST(DosingDevice, BrokenDoorRefusesActuation) {
  DosingDeviceModel d("dd", unit_box());
  d.break_door();
  EXPECT_EQ(d.door_status(), "broken");
  auto hazards = d.take_hazards();
  ASSERT_EQ(hazards.size(), 1u);
  EXPECT_EQ(hazards[0].severity, Severity::High);
  EXPECT_THROW(d.execute(make_cmd("dd", "set_door", [] {
                 json::Object o;
                 o["state"] = std::string("open");
                 return o;
               }())),
               DeviceError);
}

TEST(DosingDevice, RejectsBadDoorState) {
  DosingDeviceModel d("dd", unit_box());
  EXPECT_THROW(d.execute(make_cmd("dd", "set_door", [] {
                 json::Object o;
                 o["state"] = std::string("ajar");
                 return o;
               }())),
               DeviceError);
  EXPECT_THROW(d.execute(make_cmd("dd", "run_action", [] {
                 json::Object o;
                 o["quantity"] = -1.0;
                 return o;
               }())),
               DeviceError);
}

TEST(SyringePump, DrawTracksReservoir) {
  SyringePumpModel p("pump", 10.0, unit_box());
  p.execute(make_cmd("pump", "draw_solvent", [] {
    json::Object o;
    o["volume"] = 4.0;
    return o;
  }()));
  EXPECT_DOUBLE_EQ(p.reservoir_ml(), 6.0);
  EXPECT_DOUBLE_EQ(p.held_ml(), 4.0);
  // Drawing more than the reservoir has raises a hazard.
  p.execute(make_cmd("pump", "draw_solvent", [] {
    json::Object o;
    o["volume"] = 10.0;
    return o;
  }()));
  EXPECT_DOUBLE_EQ(p.reservoir_ml(), 0.0);
  EXPECT_EQ(p.take_hazards().size(), 1u);
}

TEST(SyringePump, PendingDispenseConsumedOnce) {
  SyringePumpModel p("pump", 10.0, unit_box());
  p.execute(make_cmd("pump", "dose_solvent", [] {
    json::Object o;
    o["volume"] = 2.0;
    o["target"] = std::string("vial_1");
    return o;
  }()));
  auto pending = p.take_pending_dispense();
  EXPECT_DOUBLE_EQ(pending.volume_ml, 2.0);
  EXPECT_EQ(pending.target, "vial_1");
  EXPECT_DOUBLE_EQ(p.take_pending_dispense().volume_ml, 0.0);
}

TEST(Hotplate, FirmwareLimitEnforced) {
  HotplateModel h("hp", 340.0, 150.0, unit_box());
  h.execute(make_cmd("hp", "set_temperature", [] {
    json::Object o;
    o["celsius"] = 120.0;
    return o;
  }()));
  EXPECT_DOUBLE_EQ(h.target_c(), 120.0);
  EXPECT_TRUE(h.active());
  EXPECT_TRUE(h.take_hazards().empty());  // below the hazard threshold
  // Past the hazard threshold but under the firmware limit: accepted, but
  // the solution overheats (ground truth).
  h.execute(make_cmd("hp", "set_temperature", [] {
    json::Object o;
    o["celsius"] = 200.0;
    return o;
  }()));
  auto hazards = h.take_hazards();
  ASSERT_EQ(hazards.size(), 1u);
  EXPECT_EQ(hazards[0].severity, Severity::High);
  // Past the firmware limit: rejected outright.
  EXPECT_THROW(h.execute(make_cmd("hp", "set_temperature", [] {
                 json::Object o;
                 o["celsius"] = 400.0;
                 return o;
               }())),
               DeviceError);
  EXPECT_DOUBLE_EQ(h.target_c(), 200.0);  // unchanged by the rejected command
  h.execute(make_cmd("hp", "stop"));
  EXPECT_FALSE(h.active());
  EXPECT_DOUBLE_EQ(h.target_c(), 25.0);
}

TEST(Centrifuge, RotateAndSpin) {
  CentrifugeModel c("cf", unit_box());
  EXPECT_EQ(c.red_dot(), "N");
  c.execute(make_cmd("cf", "rotate_platter", [] {
    json::Object o;
    o["orientation"] = std::string("E");
    return o;
  }()));
  EXPECT_EQ(c.red_dot(), "E");
  EXPECT_THROW(c.execute(make_cmd("cf", "rotate_platter", [] {
                 json::Object o;
                 o["orientation"] = std::string("NE");
                 return o;
               }())),
               DeviceError);
  // Spinning empty with the door closed: imbalance-wear hazard only.
  c.set_container_inside("");
  c.execute(make_cmd("cf", "start_spin", [] {
    json::Object o;
    o["rpm"] = 3000.0;
    return o;
  }()));
  EXPECT_TRUE(c.spinning());
  EXPECT_EQ(c.take_hazards().size(), 1u);
  c.execute(make_cmd("cf", "stop_spin"));
  EXPECT_FALSE(c.spinning());
}

TEST(Centrifuge, SpinWithOpenDoorEjectsContents) {
  CentrifugeModel c("cf", unit_box());
  c.set_container_inside("v1");
  c.execute(make_cmd("cf", "set_door", [] {
    json::Object o;
    o["state"] = std::string("open");
    return o;
  }()));
  c.execute(make_cmd("cf", "start_spin", [] {
    json::Object o;
    o["rpm"] = 1000.0;
    return o;
  }()));
  auto hazards = c.take_hazards();
  ASSERT_EQ(hazards.size(), 1u);
  EXPECT_NE(hazards[0].description.find("ejected"), std::string::npos);
}

TEST(Thermoshaker, ShakeAndStop) {
  ThermoshakerModel t("ts", 110.0, unit_box());
  t.execute(make_cmd("ts", "shake", [] {
    json::Object o;
    o["rpm"] = 800.0;
    return o;
  }()));
  EXPECT_TRUE(t.active());
  EXPECT_DOUBLE_EQ(t.shake_rpm(), 800.0);
  EXPECT_THROW(t.execute(make_cmd("ts", "set_temperature", [] {
                 json::Object o;
                 o["celsius"] = 150.0;
                 return o;
               }())),
               DeviceError);  // firmware limit 110
  t.execute(make_cmd("ts", "stop"));
  EXPECT_FALSE(t.active());
}

TEST(GenericActionDevice, ConfigDrivenActions) {
  GenericActionDevice spin(
      "spin_coater",
      {{"set_spin_speed", "spinRpm", "rpm", 6000.0}},
      /*has_door=*/false, unit_box());
  spin.execute(make_cmd("spin_coater", "start"));
  EXPECT_TRUE(spin.active());
  spin.execute(make_cmd("spin_coater", "set_spin_speed", [] {
    json::Object o;
    o["rpm"] = 3000.0;
    return o;
  }()));
  EXPECT_DOUBLE_EQ(spin.state().at("spinRpm").as_double(), 3000.0);
  EXPECT_THROW(spin.execute(make_cmd("spin_coater", "set_spin_speed", [] {
                 json::Object o;
                 o["rpm"] = 9000.0;
                 return o;
               }())),
               DeviceError);
  spin.execute(make_cmd("spin_coater", "stop"));
  EXPECT_FALSE(spin.active());
  EXPECT_EQ(spin.door_status(), "none");  // doorless device
}

TEST(GenericActionDevice, OptionalDoor) {
  GenericActionDevice decapper("decapper", {}, /*has_door=*/true, std::nullopt);
  EXPECT_EQ(decapper.door_status(), "closed");
  decapper.execute(make_cmd("decapper", "set_door", [] {
    json::Object o;
    o["state"] = std::string("open");
    return o;
  }()));
  EXPECT_EQ(decapper.door_status(), "open");
  decapper.break_door();
  EXPECT_EQ(decapper.door_status(), "broken");
}

}  // namespace
}  // namespace rabit::dev
