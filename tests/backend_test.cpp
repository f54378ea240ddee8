#include <gtest/gtest.h>

#include "core/lab.hpp"
#include "devices/robot_arm.hpp"
#include "sim/backend.hpp"
#include "sim/deck.hpp"
#include "trace/trace.hpp"

namespace rabit::sim {
namespace {

using dev::Command;
using dev::Severity;
using geom::Vec3;
namespace ids = deck_ids;

Command make_cmd(std::string device, std::string action, json::Object args = {}) {
  Command c;
  c.device = std::move(device);
  c.action = std::move(action);
  c.args = json::Value(std::move(args));
  return c;
}

Command move_to(const char* arm, const Vec3& local) {
  json::Object args;
  args["position"] = json::Array{local.x, local.y, local.z};
  return make_cmd(arm, "move_to", std::move(args));
}

json::Object door(const char* state) {
  json::Object o;
  o["state"] = std::string(state);
  return o;
}

class TestbedBackend : public ::testing::Test {
 protected:
  TestbedBackend() : backend(testbed_profile()) { build_hein_testbed_deck(backend); }

  Vec3 site_local(const char* arm, const char* site) {
    return backend.arm(arm).to_local(backend.find_site(site)->lab_position);
  }

  LabBackend backend;
};

TEST_F(TestbedBackend, DeckPopulated) {
  EXPECT_NE(backend.registry().find(ids::kViperX), nullptr);
  EXPECT_NE(backend.registry().find(ids::kNed2), nullptr);
  EXPECT_NE(backend.registry().find(ids::kDosingDevice), nullptr);
  EXPECT_EQ(backend.sites().size(), 8u);  // 4 grid slots + 4 receptacles
  EXPECT_EQ(backend.vial(ids::kVial1).location(), "grid.NW");
  EXPECT_EQ(backend.arm(ids::kViperX).state().at("pose").as_string(), "sleep");
}

TEST_F(TestbedBackend, SiteLookups) {
  const SiteBinding* nw = backend.find_site("grid.NW");
  ASSERT_NE(nw, nullptr);
  EXPECT_TRUE(nw->is_grid_slot());
  EXPECT_FALSE(nw->is_receptacle());
  EXPECT_EQ(backend.find_site("mars"), nullptr);
  EXPECT_EQ(backend.site_near(nw->lab_position + Vec3(0.01, 0, 0), 0.035), nw);
  EXPECT_EQ(backend.site_near(nw->lab_position + Vec3(0.2, 0, 0), 0.035), nullptr);
  EXPECT_THROW(backend.add_site(*nw), std::invalid_argument);
}

TEST_F(TestbedBackend, UnknownDeviceThrows) {
  EXPECT_THROW(backend.execute(make_cmd("ghost", "do")), std::out_of_range);
  EXPECT_THROW(static_cast<void>(backend.arm("vial_1")), std::out_of_range);
  EXPECT_THROW(static_cast<void>(backend.vial(ids::kViperX)), std::out_of_range);
}

TEST_F(TestbedBackend, FirmwareRejectionLandsInResult) {
  ExecResult r = backend.execute(make_cmd(ids::kDosingDevice, "set_door", [] {
    json::Object o;
    o["state"] = std::string("sideways");
    return o;
  }()));
  EXPECT_FALSE(r.executed);
  EXPECT_NE(r.firmware_error.find("set_door"), std::string::npos);
}

TEST_F(TestbedBackend, PickAndPlaceViaPrimitives) {
  Vec3 grab = site_local(ids::kViperX, "grid.NW");
  Vec3 safe = grab + Vec3(0, 0, 0.22);
  EXPECT_TRUE(backend.execute(move_to(ids::kViperX, safe)).executed);
  EXPECT_TRUE(backend.execute(make_cmd(ids::kViperX, "open_gripper")).executed);
  EXPECT_TRUE(backend.execute(move_to(ids::kViperX, grab)).executed);
  EXPECT_TRUE(backend.execute(make_cmd(ids::kViperX, "close_gripper")).executed);

  EXPECT_EQ(backend.arm(ids::kViperX).holding(), ids::kVial1);
  EXPECT_EQ(backend.vial(ids::kVial1).location(), std::string("arm:") + ids::kViperX);

  // Lift out and seat it at the free SW slot.
  EXPECT_TRUE(backend.execute(move_to(ids::kViperX, safe)).executed);
  Vec3 sw = site_local(ids::kViperX, "grid.SW");
  EXPECT_TRUE(backend.execute(move_to(ids::kViperX, sw + Vec3(0, 0, 0.22))).executed);
  EXPECT_TRUE(backend.execute(move_to(ids::kViperX, sw)).executed);
  EXPECT_TRUE(backend.execute(make_cmd(ids::kViperX, "open_gripper")).executed);
  EXPECT_EQ(backend.arm(ids::kViperX).holding(), "");
  EXPECT_EQ(backend.vial(ids::kVial1).location(), "grid.SW");
  EXPECT_TRUE(backend.damage_log().empty());
}

TEST_F(TestbedBackend, GrabbingAirIsHarmless) {
  // Closing the gripper away from any site grabs nothing.
  Vec3 nowhere = site_local(ids::kViperX, "grid.NW") + Vec3(0, 0, 0.22);
  backend.execute(move_to(ids::kViperX, nowhere));
  backend.execute(make_cmd(ids::kViperX, "close_gripper"));
  EXPECT_EQ(backend.arm(ids::kViperX).holding(), "");
}

TEST_F(TestbedBackend, DroppingVialFromHeightShattersIt) {
  Vec3 grab = site_local(ids::kViperX, "grid.NW");
  backend.execute(move_to(ids::kViperX, grab));
  backend.execute(make_cmd(ids::kViperX, "close_gripper"));
  ASSERT_EQ(backend.arm(ids::kViperX).holding(), ids::kVial1);
  // Open mid-air away from any site.
  backend.execute(move_to(ids::kViperX, Vec3(0.2, -0.2, 0.35)));
  ExecResult r = backend.execute(make_cmd(ids::kViperX, "open_gripper"));
  EXPECT_TRUE(backend.vial(ids::kVial1).is_broken());
  ASSERT_FALSE(r.damage.empty());
  EXPECT_EQ(r.damage[0].severity, Severity::MediumLow);
}

TEST_F(TestbedBackend, EnteringClosedDoorBreaksIt) {
  auto& dosing = dynamic_cast<dev::DosingDeviceModel&>(backend.registry().at(ids::kDosingDevice));
  ASSERT_EQ(dosing.door_status(), "closed");
  ExecResult r = backend.execute(move_to(ids::kViperX, site_local(ids::kViperX, "dosing_device")));
  ASSERT_FALSE(r.damage.empty());
  EXPECT_EQ(r.damage[0].severity, Severity::High);
  EXPECT_EQ(dosing.door_status(), "broken");
}

TEST_F(TestbedBackend, OpenDoorAllowsEntry) {
  backend.execute(make_cmd(ids::kDosingDevice, "set_door", door("open")));
  ExecResult r = backend.execute(move_to(ids::kViperX, site_local(ids::kViperX, "dosing_device")));
  EXPECT_TRUE(r.damage.empty());
  EXPECT_EQ(backend.arm(ids::kViperX).inside_device(), ids::kDosingDevice);
  // Leaving clears the inside flag.
  backend.execute(move_to(ids::kViperX, site_local(ids::kViperX, "dosing_device") +
                                            Vec3(0, 0, 0.22)));
  EXPECT_EQ(backend.arm(ids::kViperX).inside_device(), "");
}

TEST_F(TestbedBackend, ClosingDoorOnArmBreaksDoor) {
  backend.execute(make_cmd(ids::kDosingDevice, "set_door", door("open")));
  backend.execute(move_to(ids::kViperX, site_local(ids::kViperX, "dosing_device")));
  ExecResult r = backend.execute(make_cmd(ids::kDosingDevice, "set_door", door("closed")));
  ASSERT_FALSE(r.damage.empty());
  EXPECT_EQ(r.damage[0].severity, Severity::High);
  auto& dosing = dynamic_cast<dev::DosingDeviceModel&>(backend.registry().at(ids::kDosingDevice));
  EXPECT_EQ(dosing.door_status(), "broken");
}

TEST_F(TestbedBackend, DosingTransfersIntoSeatedVial) {
  auto& dosing = dynamic_cast<dev::DosingDeviceModel&>(backend.registry().at(ids::kDosingDevice));
  dosing.set_container_inside(ids::kVial1);
  backend.vial(ids::kVial1).set_location("dosing_device");
  ExecResult r = backend.execute(make_cmd(ids::kDosingDevice, "run_action", [] {
    json::Object o;
    o["quantity"] = 5.0;
    return o;
  }()));
  EXPECT_TRUE(r.executed);
  EXPECT_DOUBLE_EQ(backend.vial(ids::kVial1).solid_mg(), 5.0);
}

TEST_F(TestbedBackend, DosingIntoEmptyChamberWastesMaterial) {
  ExecResult r = backend.execute(make_cmd(ids::kDosingDevice, "run_action", [] {
    json::Object o;
    o["quantity"] = 5.0;
    return o;
  }()));
  ASSERT_FALSE(r.damage.empty());
  EXPECT_EQ(r.damage.back().severity, Severity::Low);
  EXPECT_DOUBLE_EQ(backend.vial(ids::kVial1).solid_mg(), 0.0);
}

TEST_F(TestbedBackend, PumpDosesIntoTargetVial) {
  backend.execute(make_cmd(ids::kSyringePump, "draw_solvent", [] {
    json::Object o;
    o["volume"] = 3.0;
    return o;
  }()));
  ExecResult r = backend.execute(make_cmd(ids::kSyringePump, "dose_solvent", [] {
    json::Object o;
    o["volume"] = 2.0;
    o["target"] = std::string(ids::kVial1);
    return o;
  }()));
  EXPECT_TRUE(r.executed);
  EXPECT_DOUBLE_EQ(backend.vial(ids::kVial1).liquid_ml(), 2.0);
}

TEST_F(TestbedBackend, CentrifugeSpillsUnstopperedVial) {
  auto& cf = dynamic_cast<dev::CentrifugeModel&>(backend.registry().at(ids::kCentrifuge));
  cf.set_container_inside(ids::kVial1);
  backend.vial(ids::kVial1).add_liquid(2.0);
  ExecResult r = backend.execute(make_cmd(ids::kCentrifuge, "start_spin", [] {
    json::Object o;
    o["rpm"] = 2000.0;
    return o;
  }()));
  EXPECT_TRUE(backend.vial(ids::kVial1).is_empty());
  ASSERT_FALSE(r.damage.empty());
  // A stoppered vial survives.
  backend.vial(ids::kVial1).add_liquid(2.0);
  backend.vial(ids::kVial1).set_stopper(true);
  backend.execute(make_cmd(ids::kCentrifuge, "start_spin", [] {
    json::Object o;
    o["rpm"] = 2000.0;
    return o;
  }()));
  EXPECT_DOUBLE_EQ(backend.vial(ids::kVial1).liquid_ml(), 2.0);
}

TEST_F(TestbedBackend, CompositePickAndPlace) {
  ExecResult pick = backend.execute(make_cmd(ids::kViperX, "pick_object", [] {
    json::Object o;
    o["site"] = std::string("grid.NW");
    return o;
  }()));
  EXPECT_TRUE(pick.executed);
  EXPECT_TRUE(pick.damage.empty());
  EXPECT_EQ(backend.arm(ids::kViperX).holding(), ids::kVial1);

  ExecResult place = backend.execute(make_cmd(ids::kViperX, "place_object", [] {
    json::Object o;
    o["site"] = std::string("grid.SW");
    return o;
  }()));
  EXPECT_TRUE(place.executed);
  EXPECT_TRUE(place.damage.empty());
  EXPECT_EQ(backend.vial(ids::kVial1).location(), "grid.SW");
}

TEST_F(TestbedBackend, CompositePlaceOntoOccupiedSlotBreaksGlass) {
  backend.execute(make_cmd(ids::kViperX, "pick_object", [] {
    json::Object o;
    o["site"] = std::string("grid.NW");
    return o;
  }()));
  ExecResult r = backend.execute(make_cmd(ids::kViperX, "place_object", [] {
    json::Object o;
    o["site"] = std::string("grid.SE");  // vial_2 lives here
    return o;
  }()));
  EXPECT_FALSE(r.damage.empty());
  EXPECT_TRUE(backend.vial(ids::kVial1).is_broken());
}

TEST_F(TestbedBackend, CompositeRequiresKnownSite) {
  ExecResult r = backend.execute(make_cmd(ids::kViperX, "pick_object", [] {
    json::Object o;
    o["site"] = std::string("mars");
    return o;
  }()));
  EXPECT_FALSE(r.executed);
  EXPECT_NE(r.firmware_error.find("unknown site"), std::string::npos);
}

TEST_F(TestbedBackend, ArmArmCollisionRecorded) {
  // Wake ViperX and park it hovering over the grid.
  backend.execute(move_to(ids::kViperX,
                          site_local(ids::kViperX, "grid.NW") + Vec3(0, 0, 0.22)));
  // Send Ned2 right at it.
  ExecResult r = backend.execute(move_to(ids::kNed2, backend.arm(ids::kNed2).to_local(
                                                          Vec3(0.30, 0.32, 0.28))));
  ASSERT_FALSE(r.damage.empty());
  EXPECT_EQ(r.damage[0].severity, Severity::MediumHigh);
  EXPECT_NE(r.damage[0].description.find("robot arm"), std::string::npos);
}

TEST_F(TestbedBackend, MeasurementReflectsSolubility) {
  dev::Vial& v = backend.vial(ids::kVial1);
  v.add_solid(5.0);
  v.add_liquid(5.0);  // 5 mL dissolves up to 100 mg: fully dissolved
  ExecResult r = backend.execute(make_cmd(ids::kCamera, "measure_solubility", [] {
    json::Object o;
    o["target"] = std::string(ids::kVial1);
    return o;
  }()));
  ASSERT_TRUE(r.measurement.has_value());
  EXPECT_GT(*r.measurement, 0.8);
  EXPECT_DOUBLE_EQ(LabBackend::true_solubility(v), 1.0);

  dev::Vial& v2 = backend.vial(ids::kVial2);
  v2.add_solid(10.0);  // no liquid at all
  EXPECT_DOUBLE_EQ(LabBackend::true_solubility(v2), 0.0);
}

TEST_F(TestbedBackend, ModeledClockAdvances) {
  double before = backend.modeled_clock_s();
  backend.execute(make_cmd(ids::kDosingDevice, "stop_action"));
  EXPECT_DOUBLE_EQ(backend.modeled_clock_s() - before, testbed_profile().command_latency_s);
}

TEST_F(TestbedBackend, DamageCostScalesWithSeverity) {
  EXPECT_DOUBLE_EQ(backend.total_damage_cost(), 0.0);
  backend.execute(move_to(ids::kViperX, site_local(ids::kViperX, "dosing_device")));  // crash
  double cost = backend.total_damage_cost();
  EXPECT_GT(cost, 0.0);
  // Testbed damage is an order of magnitude cheaper than production damage.
  EXPECT_DOUBLE_EQ(testbed_profile().damage_cost_factor, 0.1);
}

TEST(StageProfiles, CapabilityOrdering) {
  StageProfile s = simulator_profile();
  StageProfile t = testbed_profile();
  StageProfile p = production_profile();
  // Table I: speed of exploration high -> low.
  EXPECT_LT(s.command_latency_s, t.command_latency_s);
  EXPECT_LT(t.command_latency_s, p.command_latency_s);
  // Precision low -> high (noise high -> low); the simulator positions a
  // virtual arm exactly.
  EXPECT_GT(t.position_noise_sigma_m, p.position_noise_sigma_m);
  // Accuracy of results low -> high.
  EXPECT_GT(s.measurement_noise_sigma, t.measurement_noise_sigma);
  EXPECT_GT(t.measurement_noise_sigma, p.measurement_noise_sigma);
  // Risk of damage low -> high.
  EXPECT_LT(s.damage_cost_factor, t.damage_cost_factor);
  EXPECT_LT(t.damage_cost_factor, p.damage_cost_factor);
}

TEST(ProductionDeck, BuildsAndRunsComposites) {
  LabBackend backend(production_profile());
  build_hein_production_deck(backend);
  EXPECT_NE(backend.registry().find(ids::kUr3e), nullptr);
  backend.execute(make_cmd(ids::kDosingDevice, "set_door", door("open")));
  ExecResult r = backend.execute(make_cmd(ids::kUr3e, "pick_object", [] {
    json::Object o;
    o["site"] = std::string("grid.NW");
    return o;
  }()));
  EXPECT_TRUE(r.executed);
  EXPECT_TRUE(r.damage.empty());
  EXPECT_EQ(backend.arm(ids::kUr3e).holding(), ids::kVial1);
}

TEST(CollisionSeverityMap, MatchesTableV) {
  CollisionReport equipment{"dosing", ObstacleKind::Equipment, Vec3(), false, false};
  CollisionReport ground{"platform", ObstacleKind::Ground, Vec3(), false, false};
  CollisionReport wall{"wall", ObstacleKind::Wall, Vec3(), false, false};
  CollisionReport grid{"grid", ObstacleKind::Grid, Vec3(), false, false};
  CollisionReport vial{"vial", ObstacleKind::Vial, Vec3(), true, false};
  CollisionReport arms{"ned2", ObstacleKind::Equipment, Vec3(), false, true};
  EXPECT_EQ(collision_severity(equipment), Severity::High);
  EXPECT_EQ(collision_severity(ground), Severity::MediumHigh);
  EXPECT_EQ(collision_severity(wall), Severity::MediumHigh);
  EXPECT_EQ(collision_severity(grid), Severity::MediumHigh);
  EXPECT_EQ(collision_severity(vial), Severity::MediumLow);
  EXPECT_EQ(collision_severity(arms), Severity::MediumHigh);
}

// --- a generic station with a receptacle, doorless and doored ----------------
// The testbed deck plus a config-style generic station (paper §V-B) on a free
// spot of the deck, with a receptacle site inside its footprint. Whether it
// has a door is data, so the doorless station and its doored twin differ in
// nothing else.

constexpr const char* kCoater = "coater";

void testbed_with_coater(LabBackend& backend, bool has_door) {
  build_hein_testbed_deck(backend);
  backend.registry().add(std::make_unique<dev::GenericActionDevice>(
      kCoater, std::vector<dev::GenericActionDevice::ValueActionSpec>{}, has_door,
      geom::Aabb::from_center(Vec3(0.0, -0.45, 0.08), Vec3(0.12, 0.12, 0.12))));
  backend.add_site({kCoater, Vec3(0.0, -0.45, 0.10), "", "", kCoater});
}

Command site_cmd(const char* action, const char* site) {
  json::Object o;
  o["site"] = std::string(site);
  return make_cmd(ids::kViperX, action, std::move(o));
}

/// Supervises vial_1 from grid.NW into the coater; returns the two steps.
std::vector<trace::SupervisedStep> seat_in_coater(trace::Supervisor& supervisor) {
  supervisor.start();
  std::vector<trace::SupervisedStep> steps;
  steps.push_back(supervisor.step(site_cmd("pick_object", "grid.NW")));
  steps.push_back(supervisor.step(site_cmd("place_object", kCoater)));
  return steps;
}

TEST(DoorlessReceptacle, PlaceSeatsTheVialWithoutDamageOrAlert) {
  for (core::Variant variant : {core::Variant::Modified, core::Variant::ModifiedWithSim}) {
    SCOPED_TRACE(std::string(core::to_string(variant)));
    core::Lab lab(variant, 42, [](LabBackend& b) { testbed_with_coater(b, /*has_door=*/false); });
    trace::Supervisor supervisor(&lab.engine, &lab.backend);
    for (const trace::SupervisedStep& step : seat_in_coater(supervisor)) {
      EXPECT_FALSE(step.alert.has_value()) << step.alert->describe();
      ASSERT_TRUE(step.exec.has_value());
      EXPECT_TRUE(step.exec->executed);
      EXPECT_TRUE(step.exec->damage.empty());
    }
    EXPECT_TRUE(lab.backend.damage_log().empty());
    EXPECT_FALSE(lab.backend.vial(ids::kVial1).is_broken());
    EXPECT_EQ(lab.backend.vial(ids::kVial1).location(), kCoater);
    EXPECT_EQ(lab.backend.registry().at(kCoater).container_inside(), ids::kVial1);
  }
}

TEST(DoorlessReceptacle, SetDoorWithTheArmInsideIsAFirmwareError) {
  for (core::Variant variant : {core::Variant::Modified, core::Variant::ModifiedWithSim}) {
    SCOPED_TRACE(std::string(core::to_string(variant)));
    core::Lab lab(variant, 42, [](LabBackend& b) { testbed_with_coater(b, /*has_door=*/false); });
    trace::Supervisor::Options options;
    options.halt_on_alert = false;
    trace::Supervisor supervisor(&lab.engine, &lab.backend, options);
    seat_in_coater(supervisor);
    ASSERT_TRUE(lab.backend.registry()
                    .at(kCoater)
                    .footprint()
                    ->contains(lab.backend.arm(ids::kViperX).position_lab()));
    trace::SupervisedStep step = supervisor.step(make_cmd(kCoater, "set_door", door("closed")));
    EXPECT_FALSE(step.alert.has_value());
    ASSERT_TRUE(step.exec.has_value());
    EXPECT_FALSE(step.exec->executed);
    EXPECT_EQ(step.exec->firmware_error, "coater: unknown action 'set_door'");
    EXPECT_TRUE(step.exec->damage.empty());
    EXPECT_EQ(supervisor.log().records().back().outcome, trace::Outcome::FirmwareError);
    EXPECT_TRUE(lab.backend.damage_log().empty());
  }
}

TEST(DoorlessReceptacle, DooredTwinStillSmashesItsClosedDoor) {
  LabBackend backend(testbed_profile());
  testbed_with_coater(backend, /*has_door=*/true);
  // Empty-handed, so the arm itself (not a held vial) meets the door.
  ExecResult r = backend.execute(site_cmd("pick_object", kCoater));
  ASSERT_FALSE(r.damage.empty());
  EXPECT_EQ(r.damage.front().severity, Severity::High);
  EXPECT_EQ(backend.registry().at(kCoater).door_status(), "broken");
}

}  // namespace
}  // namespace rabit::sim
