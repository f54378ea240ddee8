// End-to-end integration: script -> interpreter -> RATracer-style supervisor
// -> RABIT -> backend, across all three deployment stages, plus the
// Berlinguette Lab generalization (§V-B) built from generic devices.
#include <gtest/gtest.h>

#include "bugs/bugs.hpp"
#include "core/engine.hpp"
#include "core/lab.hpp"
#include "devices/robot_arm.hpp"
#include "script/interp.hpp"
#include "script/workflows.hpp"
#include "sim/deck.hpp"
#include "trace/trace.hpp"

namespace rabit {
namespace {

using dev::Command;
using geom::Vec3;
namespace ids = sim::deck_ids;

/// The full supervised pipeline on a stage profile.
struct Pipeline {
  explicit Pipeline(sim::StageProfile profile, core::Variant variant = core::Variant::Modified,
                    bool production = false)
      : lab(variant, 42, production ? sim::build_hein_production_deck : core::Lab::Deck{},
            std::move(profile)) {
    supervisor = std::make_unique<trace::Supervisor>(engine, &backend);
  }

  void run_script(const std::string& source) {
    supervisor->start();
    script::SupervisorSink sink(supervisor.get());
    script::Interpreter interp(&sink);
    interp.register_devices(backend.registry());
    interp.set_global("locations", script::locations_table(backend));
    interp.run(source);
  }

  core::Lab lab;
  sim::LabBackend& backend = lab.backend;
  core::RabitEngine* engine = &lab.engine;
  std::unique_ptr<trace::Supervisor> supervisor;
};

class StageParam : public ::testing::TestWithParam<const char*> {
 protected:
  static sim::StageProfile profile_for(const std::string& name) {
    if (name == "simulator") return sim::simulator_profile();
    if (name == "testbed") return sim::testbed_profile();
    return sim::production_profile();
  }
};

TEST_P(StageParam, SafeTestbedWorkflowRunsCleanOnEveryStage) {
  Pipeline p(profile_for(GetParam()));
  EXPECT_NO_THROW(p.run_script(script::testbed_workflow_source()));
  EXPECT_TRUE(p.backend.damage_log().empty());
  EXPECT_EQ(p.engine->stats().precondition_alerts, 0u);
  EXPECT_EQ(p.engine->stats().malfunction_alerts, 0u);
  // Physical outcome: vial_1 dosed with 5 mg and relocated to grid.SW.
  EXPECT_DOUBLE_EQ(p.backend.vial(ids::kVial1).solid_mg(), 5.0);
  EXPECT_EQ(p.backend.vial(ids::kVial1).location(), "grid.SW");
  EXPECT_EQ(p.backend.arm(ids::kNed2).state().at("pose").as_string(), "sleep");
}

INSTANTIATE_TEST_SUITE_P(Stages, StageParam,
                         ::testing::Values("simulator", "testbed", "production"));

TEST(ProductionPipeline, SolubilityExperimentEndToEnd) {
  Pipeline p(sim::production_profile(), core::Variant::Modified, /*production=*/true);
  EXPECT_NO_THROW(p.run_script(script::solubility_workflow_source()));
  EXPECT_TRUE(p.backend.damage_log().empty());
  dev::Vial& vial = p.backend.vial(ids::kVial1);
  EXPECT_DOUBLE_EQ(vial.solid_mg(), 5.0);
  EXPECT_GE(vial.liquid_ml(), 2.0);                 // initial solvent + loop rounds
  EXPECT_EQ(vial.location(), "grid.NW");            // returned to the grid
  EXPECT_DOUBLE_EQ(sim::LabBackend::true_solubility(vial), 1.0);  // dissolved
  // The camera measurements flowed back into the script's while loop.
  EXPECT_GT(p.supervisor->log().size(), 20u);
}

TEST(Pipeline, UnsafeScriptHaltsMidway) {
  Pipeline p(sim::testbed_profile());
  // Fig. 5 Bug A as a script: the second door-open is commented out.
  std::string source = script::testbed_workflow_source();
  std::size_t second_open = source.find("dosing_device.set_door(state=\"open\")",
                                        source.find("run_action"));
  ASSERT_NE(second_open, std::string::npos);
  source.insert(second_open, "# BUG A: ");
  EXPECT_THROW(p.run_script(source), script::ExperimentHalted);
  EXPECT_TRUE(p.backend.damage_log().empty());  // stopped before the crash
  EXPECT_TRUE(p.supervisor->halted());
  EXPECT_EQ(p.supervisor->log().records().back().alert_rule, "G1");
}

TEST(Pipeline, TraceLogRoundTripsThroughJsonl) {
  Pipeline p(sim::testbed_profile());
  p.run_script(script::testbed_workflow_source());
  std::string jsonl = p.supervisor->log().to_jsonl();
  trace::TraceLog round = trace::TraceLog::from_jsonl(jsonl);
  EXPECT_EQ(round.size(), p.supervisor->log().size());
}

TEST(Pipeline, ReplayedTraceReproducesOutcome) {
  // Record the workflow, then replay the raw command stream on a fresh deck:
  // identical end state.
  sim::LabBackend staging(sim::testbed_profile());
  sim::build_hein_testbed_deck(staging);
  auto commands = script::record_workflow(staging, script::testbed_workflow_source());

  Pipeline p(sim::testbed_profile());
  trace::RunReport report = p.supervisor->run(commands);
  EXPECT_FALSE(report.halted);
  EXPECT_EQ(report.alerts, 0u);
  EXPECT_DOUBLE_EQ(p.backend.vial(ids::kVial1).solid_mg(), 5.0);
}

TEST(Pipeline, MalfunctioningDoorCaughtMidWorkflow) {
  Pipeline p(sim::testbed_profile());
  dev::FaultPlan fault;
  fault.dead_actions.push_back("set_door");
  p.backend.registry().at(ids::kDosingDevice).set_fault_plan(fault);
  EXPECT_THROW(p.run_script(script::testbed_workflow_source()), script::ExperimentHalted);
  auto& last = p.supervisor->log().records().back();
  EXPECT_EQ(last.outcome, trace::Outcome::MalfunctionFlagged);
  EXPECT_EQ(last.alert_rule, "POST");
}

TEST(Pipeline, DamageCostRisesAcrossStages) {
  // The same crash costs more on more expensive stages (Table I's risk row).
  double costs[3];
  const char* stages[] = {"simulator", "testbed", "production"};
  for (int i = 0; i < 3; ++i) {
    sim::StageProfile profile = std::string(stages[i]) == "simulator"
                                    ? sim::simulator_profile()
                                    : std::string(stages[i]) == "testbed"
                                          ? sim::testbed_profile()
                                          : sim::production_profile();
    sim::LabBackend backend(profile);
    sim::build_hein_testbed_deck(backend);
    Vec3 local =
        backend.arm(ids::kViperX).to_local(backend.find_site("dosing_device")->lab_position);
    json::Object args;
    args["position"] = json::Array{local.x, local.y, local.z};
    Command crash;
    crash.device = ids::kViperX;
    crash.action = "move_to";
    crash.args = json::Value(std::move(args));
    backend.execute(crash);
    costs[i] = backend.total_damage_cost();
  }
  EXPECT_LT(costs[0], costs[1]);
  EXPECT_LT(costs[1], costs[2]);
}

// --- Berlinguette Lab generalization (§V-B) -----------------------------------

TEST(BerlinguetteLab, GenericDevicesCoverTheirStations) {
  // The R&D platform: UR3e-class arm, a dosing device with a door, and a
  // decapper — all expressible in the four device types.
  sim::LabBackend backend(sim::production_profile());
  backend.add_static_obstacle("platform",
                              geom::Aabb(Vec3(-1, -1, -0.5), Vec3(1, 1, 0.02)),
                              sim::ObstacleKind::Ground);
  auto& reg = backend.registry();
  reg.add(std::make_unique<dev::RobotArmDevice>(
      "ur5e", kin::make_ur5e(geom::Transform::translation(Vec3(0, 0, 0.02))),
      dev::MotionPolicy::ThrowOnUnreachable));
  reg.add(std::make_unique<dev::DosingDeviceModel>(
      "dosing_device", geom::Aabb::from_center(Vec3(0.0, 0.5, 0.12), Vec3(0.16, 0.16, 0.2))));
  reg.add(std::make_unique<dev::GenericActionDevice>(
      "decapper", std::vector<dev::GenericActionDevice::ValueActionSpec>{},
      /*has_door=*/false,
      geom::Aabb::from_center(Vec3(0.4, 0.0, 0.08), Vec3(0.1, 0.1, 0.12))));
  reg.add(std::make_unique<dev::GenericActionDevice>(
      "spin_coater",
      std::vector<dev::GenericActionDevice::ValueActionSpec>{
          {"set_spin_speed", "spinRpm", "rpm", 6000.0}},
      /*has_door=*/true,
      geom::Aabb::from_center(Vec3(-0.4, 0.0, 0.08), Vec3(0.14, 0.14, 0.12))));
  reg.add(std::make_unique<dev::Vial>("vial_1", 10, 15, "staging"));
  backend.add_site({"staging", Vec3(0.3, 0.3, 0.11), "", "", ""});
  backend.add_site({"spin_coater", Vec3(-0.4, 0.0, 0.10), "", "", "spin_coater"});

  core::EngineConfig cfg = core::config_from_backend(backend, core::Variant::Modified);
  // The generic spin coater was classified as an action device with a door.
  const core::DeviceMeta* coater = cfg.find_device("spin_coater");
  ASSERT_NE(coater, nullptr);
  EXPECT_EQ(coater->category, dev::DeviceCategory::ActionDevice);
  EXPECT_TRUE(coater->has_door);

  core::RabitEngine engine(std::move(cfg));
  trace::Supervisor sup(&engine, &backend);
  sup.start();

  // The general rules carry over unchanged: entering the spin coater with a
  // closed door violates G1; starting it with the door open violates G9.
  Vec3 local = backend.arm("ur5e").to_local(Vec3(-0.4, 0.0, 0.10));
  json::Object args;
  args["position"] = json::Array{local.x, local.y, local.z};
  Command enter;
  enter.device = "ur5e";
  enter.action = "move_to";
  enter.args = json::Value(std::move(args));
  trace::SupervisedStep step = sup.step(enter);
  ASSERT_TRUE(step.alert.has_value());
  EXPECT_EQ(step.alert->rule, "G1");
}

TEST(BerlinguetteLab, GenericDeviceThresholdRule) {
  sim::LabBackend backend(sim::production_profile());
  auto& reg = backend.registry();
  auto& nozzle = dynamic_cast<dev::GenericActionDevice&>(
      reg.add(std::make_unique<dev::GenericActionDevice>(
          "ultrasonic_nozzle",
          std::vector<dev::GenericActionDevice::ValueActionSpec>{
              {"set_flow", "flowRate", "ml_per_min", 50.0}},
          /*has_door=*/false, std::nullopt)));
  (void)nozzle;
  core::EngineConfig cfg = core::config_from_backend(backend, core::Variant::Modified);
  // Researchers add RABIT-level thresholds on top of the firmware's.
  for (core::DeviceMeta& m : cfg.devices) {
    if (m.id == "ultrasonic_nozzle") {
      m.thresholds.push_back({"set_flow", "ml_per_min", 30.0});
    }
  }
  core::RabitEngine engine(std::move(cfg));
  engine.initialize(backend.registry().fetch_observed_state());
  Command cmd;
  cmd.device = "ultrasonic_nozzle";
  cmd.action = "set_flow";
  json::Object args;
  args["ml_per_min"] = 40.0;  // below firmware (50) but above RABIT (30)
  cmd.args = json::Value(std::move(args));
  auto alert = engine.check_command(cmd);
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(alert->rule, "G11");
}

}  // namespace
}  // namespace rabit
