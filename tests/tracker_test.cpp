#include <gtest/gtest.h>

#include "core/lab.hpp"
#include "core/tracker.hpp"
#include "devices/robot_arm.hpp"
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

class TrackerTest : public ::testing::Test {
 protected:
  TrackerTest() : backend(sim::testbed_profile()) {
    sim::build_hein_testbed_deck(backend);
    config = config_from_backend(backend, Variant::Modified);
    tracker = std::make_unique<StateTracker>(&config);
    tracker->initialize(backend.registry().fetch_observed_state());
  }

  Vec3 site_local(const char* arm, const char* site) {
    return backend.arm(arm).to_local(backend.find_site(site)->lab_position);
  }

  Command move(const char* arm, const Vec3& local) {
    json::Object args;
    args["position"] = json::Array{local.x, local.y, local.z};
    return make_cmd(arm, "move_to", std::move(args));
  }

  sim::LabBackend backend;
  EngineConfig config;
  std::unique_ptr<StateTracker> tracker;
};

TEST_F(TrackerTest, InitializeSeedsSymbolicAndObserved) {
  // Observable station state came from the status commands...
  EXPECT_EQ(tracker->var(ids::kDosingDevice, "doorStatus").as_string(), "closed");
  // ...and unobservable vial state from the configuration.
  EXPECT_DOUBLE_EQ(tracker->var(ids::kVial1, "solidMg").as_double(), 0.0);
  EXPECT_EQ(tracker->var(ids::kVial1, "location").as_string(), "grid.NW");
  // Site occupancy derives from initial vial locations.
  EXPECT_EQ(tracker->site_occupant("grid.NW"), ids::kVial1);
  EXPECT_EQ(tracker->site_occupant("grid.SE"), ids::kVial2);
  EXPECT_EQ(tracker->site_occupant("grid.SW"), "");
  // Arms start asleep on the testbed.
  EXPECT_EQ(tracker->arm_pose(ids::kViperX), "sleep");
}

TEST_F(TrackerTest, VarLookups) {
  EXPECT_EQ(tracker->find_var("ghost", "x"), nullptr);
  EXPECT_EQ(tracker->find_var(ids::kVial1, "ghost"), nullptr);
  EXPECT_THROW(static_cast<void>(tracker->var("ghost", "x")), std::out_of_range);
  EXPECT_THROW(static_cast<void>(tracker->arm_position_lab("ghost")), std::out_of_range);
}

TEST_F(TrackerTest, MovePostconditionsTrackPositionPoseInside) {
  Vec3 target = site_local(ids::kViperX, "dosing_device");
  // First believe the door open so "inside" can be tracked cleanly.
  tracker->apply_postconditions(make_cmd(ids::kDosingDevice, "set_door", [] {
    json::Object o;
    o["state"] = std::string("open");
    return o;
  }()));
  tracker->apply_postconditions(move(ids::kViperX, target));
  EXPECT_EQ(tracker->arm_pose(ids::kViperX), "custom");
  EXPECT_LT(tracker->arm_position_lab(ids::kViperX)
                .distance_to(backend.find_site("dosing_device")->lab_position),
            1e-9);
  EXPECT_EQ(tracker->arm_inside(ids::kViperX), ids::kDosingDevice);
  // Moving away clears the inside flag.
  tracker->apply_postconditions(move(ids::kViperX, Vec3(0.2, 0.0, 0.3)));
  EXPECT_EQ(tracker->arm_inside(ids::kViperX), "");
}

TEST_F(TrackerTest, GoHomeAndSleepSetPose) {
  tracker->apply_postconditions(make_cmd(ids::kViperX, "go_home"));
  EXPECT_EQ(tracker->arm_pose(ids::kViperX), "home");
  const DeviceMeta* meta = config.find_device(ids::kViperX);
  EXPECT_LT(tracker->arm_position_lab(ids::kViperX).distance_to(meta->home_position_lab), 1e-9);
  tracker->apply_postconditions(make_cmd(ids::kViperX, "go_sleep"));
  EXPECT_EQ(tracker->arm_pose(ids::kViperX), "sleep");
}

TEST_F(TrackerTest, GripperGrabAndReleaseInference) {
  // Move to the NW slot and close: RABIT infers the arm now holds vial_1.
  tracker->apply_postconditions(move(ids::kViperX, site_local(ids::kViperX, "grid.NW")));
  tracker->apply_postconditions(make_cmd(ids::kViperX, "close_gripper"));
  EXPECT_EQ(tracker->arm_holding(ids::kViperX), ids::kVial1);
  EXPECT_EQ(tracker->site_occupant("grid.NW"), "");
  EXPECT_EQ(tracker->var(ids::kVial1, "location").as_string(),
            std::string("arm:") + ids::kViperX);

  // Move to the free SW slot and open: the vial seats there.
  tracker->apply_postconditions(move(ids::kViperX, site_local(ids::kViperX, "grid.SW")));
  tracker->apply_postconditions(make_cmd(ids::kViperX, "open_gripper"));
  EXPECT_EQ(tracker->arm_holding(ids::kViperX), "");
  EXPECT_EQ(tracker->site_occupant("grid.SW"), ids::kVial1);
  EXPECT_EQ(tracker->var(ids::kVial1, "location").as_string(), "grid.SW");
}

TEST_F(TrackerTest, GrabbingAwayFromSitesInfersNothing) {
  tracker->apply_postconditions(move(ids::kViperX, Vec3(0.2, -0.2, 0.35)));
  tracker->apply_postconditions(make_cmd(ids::kViperX, "close_gripper"));
  EXPECT_EQ(tracker->arm_holding(ids::kViperX), "");
  // Releasing empty-handed changes nothing either.
  tracker->apply_postconditions(make_cmd(ids::kViperX, "open_gripper"));
  EXPECT_EQ(tracker->arm_holding(ids::kViperX), "");
}

TEST_F(TrackerTest, ReleasingAwayFromSitesLosesTrack) {
  tracker->apply_postconditions(move(ids::kViperX, site_local(ids::kViperX, "grid.NW")));
  tracker->apply_postconditions(make_cmd(ids::kViperX, "close_gripper"));
  tracker->apply_postconditions(move(ids::kViperX, Vec3(0.2, -0.2, 0.35)));
  tracker->apply_postconditions(make_cmd(ids::kViperX, "open_gripper"));
  EXPECT_EQ(tracker->var(ids::kVial1, "location").as_string(), "unknown");
}

TEST_F(TrackerTest, CompositePickPlacePostconditions) {
  tracker->apply_postconditions(make_cmd(ids::kViperX, "pick_object", [] {
    json::Object o;
    o["site"] = std::string("grid.NW");
    return o;
  }()));
  EXPECT_EQ(tracker->arm_holding(ids::kViperX), ids::kVial1);
  tracker->apply_postconditions(make_cmd(ids::kViperX, "place_object", [] {
    json::Object o;
    o["site"] = std::string("grid.SW");
    return o;
  }()));
  EXPECT_EQ(tracker->arm_holding(ids::kViperX), "");
  EXPECT_EQ(tracker->site_occupant("grid.SW"), ids::kVial1);
}

TEST_F(TrackerTest, DosePostconditionsUpdateExpectedContents) {
  // Seat vial_1 in the dosing device symbolically.
  tracker->apply_postconditions(make_cmd(ids::kViperX, "pick_object", [] {
    json::Object o;
    o["site"] = std::string("grid.NW");
    return o;
  }()));
  tracker->apply_postconditions(make_cmd(ids::kViperX, "place_object", [] {
    json::Object o;
    o["site"] = std::string("dosing_device");
    return o;
  }()));
  tracker->apply_postconditions(make_cmd(ids::kDosingDevice, "run_action", [] {
    json::Object o;
    o["quantity"] = 5.0;
    return o;
  }()));
  EXPECT_DOUBLE_EQ(tracker->var(ids::kDosingDevice, "running").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(tracker->var(ids::kVial1, "solidMg").as_double(), 5.0);
}

TEST_F(TrackerTest, PumpPostconditions) {
  tracker->apply_postconditions(make_cmd(ids::kSyringePump, "draw_solvent", [] {
    json::Object o;
    o["volume"] = 3.0;
    return o;
  }()));
  EXPECT_DOUBLE_EQ(tracker->var(ids::kSyringePump, "heldMl").as_double(), 3.0);
  tracker->apply_postconditions(make_cmd(ids::kSyringePump, "dose_solvent", [] {
    json::Object o;
    o["volume"] = 2.0;
    o["target"] = std::string(ids::kVial1);
    return o;
  }()));
  EXPECT_DOUBLE_EQ(tracker->var(ids::kSyringePump, "heldMl").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(tracker->var(ids::kVial1, "liquidMl").as_double(), 2.0);
}

TEST_F(TrackerTest, StationPostconditions) {
  tracker->apply_postconditions(make_cmd(ids::kHotplate, "set_temperature", [] {
    json::Object o;
    o["celsius"] = 120.0;
    return o;
  }()));
  EXPECT_DOUBLE_EQ(tracker->var(ids::kHotplate, "targetC").as_double(), 120.0);
  EXPECT_DOUBLE_EQ(tracker->var(ids::kHotplate, "active").as_double(), 1.0);
  tracker->apply_postconditions(make_cmd(ids::kHotplate, "stop"));
  EXPECT_DOUBLE_EQ(tracker->var(ids::kHotplate, "active").as_double(), 0.0);

  tracker->apply_postconditions(make_cmd(ids::kCentrifuge, "rotate_platter", [] {
    json::Object o;
    o["orientation"] = std::string("W");
    return o;
  }()));
  EXPECT_EQ(tracker->var(ids::kCentrifuge, "redDot").as_string(), "W");

  tracker->apply_postconditions(make_cmd(ids::kVial1, "recap"));
  EXPECT_DOUBLE_EQ(tracker->var(ids::kVial1, "hasStopper").as_double(), 1.0);
}

TEST_F(TrackerTest, MismatchesIgnoreUncheckedVars) {
  // Execute a real move so the device's observed position changes while the
  // tracker stays naive — position is an unchecked variable, so no mismatch.
  backend.execute(make_cmd(ids::kViperX, "go_home"));
  tracker->apply_postconditions(make_cmd(ids::kViperX, "go_home"));
  auto diffs = tracker->mismatches(backend.registry().fetch_observed_state());
  EXPECT_TRUE(diffs.empty()) << diffs.front();
}

TEST_F(TrackerTest, MismatchesCatchDivergentDiscreteState) {
  // The door actuator fails silently: RABIT expected "open", status says
  // "closed" — the Fig. 2 lines 13-15 malfunction path.
  tracker->apply_postconditions(make_cmd(ids::kDosingDevice, "set_door", [] {
    json::Object o;
    o["state"] = std::string("open");
    return o;
  }()));
  auto diffs = tracker->mismatches(backend.registry().fetch_observed_state());
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0], std::string(ids::kDosingDevice) + ".doorStatus");
  // Line 16: resync clears the divergence.
  tracker->resync(backend.registry().fetch_observed_state());
  EXPECT_TRUE(tracker->mismatches(backend.registry().fetch_observed_state()).empty());
}

TEST_F(TrackerTest, UnknownDeviceCommandsAreIgnored) {
  EXPECT_NO_THROW(tracker->apply_postconditions(make_cmd("ghost", "move_to")));
}

// --- pump actions sent to a station without the pump's volumes ---------------
// No rule blocks hotplate.draw_solvent or (without the Hein custom rules)
// hotplate.dose_solvent, so line 11 runs before the firmware rejects them:
// the expectation must skip the volumes the hotplate lacks, and the step
// must report the firmware's unknown-action rejection.

void expect_firmware_rejection(trace::Supervisor& supervisor, const Command& cmd) {
  SCOPED_TRACE(cmd.describe());
  trace::SupervisedStep step = supervisor.step(cmd);
  EXPECT_FALSE(step.alert.has_value()) << step.alert->describe();
  ASSERT_TRUE(step.exec.has_value());
  EXPECT_FALSE(step.exec->executed);
  EXPECT_EQ(step.exec->firmware_error, "hotplate: unknown action '" + cmd.action + "'");
  EXPECT_EQ(supervisor.log().records().back().outcome, trace::Outcome::FirmwareError);
}

TEST(UnmodeledStationAction, SolventActionsOnAHotplateAreFirmwareRejections) {
  json::Object draw;
  draw["volume"] = 1.0;
  json::Object dose;
  dose["volume"] = 0.0;
  dose["target"] = std::string(ids::kVial1);
  for (Variant variant : {Variant::Initial, Variant::Modified, Variant::ModifiedWithSim}) {
    SCOPED_TRACE(std::string(to_string(variant)));
    Lab lab(variant);
    trace::Supervisor supervisor(&lab.engine, &lab.backend);
    supervisor.start();
    expect_firmware_rejection(supervisor, make_cmd(ids::kHotplate, "draw_solvent", draw));
    EXPECT_EQ(lab.engine.tracker().find_var(ids::kHotplate, "heldMl"), nullptr);

    // C1 would block the dose (vial_1 holds no solid), so the custom rules
    // are off for it.
    sim::LabBackend backend(sim::testbed_profile());
    sim::build_hein_testbed_deck(backend);
    EngineConfig config = config_from_backend(backend, variant);
    config.hein_custom_rules = false;
    RabitEngine engine(std::move(config));
    trace::Supervisor plain(&engine, &backend);
    plain.start();
    expect_firmware_rejection(plain, make_cmd(ids::kHotplate, "dose_solvent", dose));
    EXPECT_DOUBLE_EQ(engine.tracker().var(ids::kVial1, "liquidMl").as_double(), 0.0);
  }
}

TEST(TrackerStandalone, NullConfigRejected) {
  EXPECT_THROW(StateTracker(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace rabit::core
