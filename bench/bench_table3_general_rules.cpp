// Table III reproduction: controlled violation of each of the 11 general
// rules. The paper: "We deliberately executed unsafe scenarios designed to
// trigger each rule in the rulebase... RABIT successfully detected unsafe
// behavior in all these scenarios."
#include <benchmark/benchmark.h>

#include <functional>

#include "bench_common.hpp"

namespace {

using namespace rabit;
using namespace rabit::bench;
namespace ids = sim::deck_ids;

struct Scenario {
  const char* rule;
  const char* description;
  /// Commands to run; the last one is the violation.
  std::function<std::vector<dev::Command>(sim::LabBackend&)> build;
};

std::vector<Scenario> general_rule_scenarios() {
  return {
      {"G1", "move ViperX into the dosing device while its door is closed",
       [](sim::LabBackend& b) {
         return std::vector<dev::Command>{
             move_cmd(ids::kViperX, site_local(b, ids::kViperX, "dosing_device"))};
       }},
      {"G2", "close the dosing device door while ViperX is inside",
       [](sim::LabBackend& b) {
         return std::vector<dev::Command>{
             make_cmd(ids::kDosingDevice, "set_door", door_arg("open")),
             move_cmd(ids::kViperX, site_local(b, ids::kViperX, "dosing_device")),
             make_cmd(ids::kDosingDevice, "set_door", door_arg("closed"))};
       }},
      {"G3", "move ViperX into the space occupied by the hotplate",
       [](sim::LabBackend& b) {
         return std::vector<dev::Command>{
             move_cmd(ids::kViperX, b.arm(ids::kViperX).to_local(geom::Vec3(-0.35, 0.25, 0.06)))};
       }},
      {"G4", "pick up a second vial while already holding one",
       [](sim::LabBackend&) {
         json::Object nw;
         nw["site"] = std::string("grid.NW");
         json::Object se;
         se["site"] = std::string("grid.SE");
         return std::vector<dev::Command>{make_cmd(ids::kViperX, "pick_object", std::move(nw)),
                                          make_cmd(ids::kViperX, "pick_object", std::move(se))};
       }},
      {"G5", "shake the thermoshaker with no container inside",
       [](sim::LabBackend&) {
         json::Object o;
         o["rpm"] = 500.0;
         return std::vector<dev::Command>{make_cmd(ids::kThermoshaker, "shake", std::move(o))};
       }},
      {"G6", "shake an empty vial on the thermoshaker",
       [](sim::LabBackend&) {
         json::Object nw;
         nw["site"] = std::string("grid.NW");
         json::Object ts;
         ts["site"] = std::string("thermoshaker");
         json::Object o;
         o["rpm"] = 500.0;
         return std::vector<dev::Command>{
             make_cmd(ids::kViperX, "pick_object", std::move(nw)),
             make_cmd(ids::kViperX, "place_object", std::move(ts)),
             make_cmd(ids::kViperX, "go_sleep"),
             make_cmd(ids::kThermoshaker, "shake", std::move(o))};
       }},
      {"G7", "dose solid through the vial's stopper",
       [](sim::LabBackend&) {
         json::Object open = door_arg("open");
         json::Object nw;
         nw["site"] = std::string("grid.NW");
         json::Object dd;
         dd["site"] = std::string("dosing_device");
         json::Object closed = door_arg("closed");
         json::Object q;
         q["quantity"] = 5.0;
         // The vial keeps its stopper (no decap).
         return std::vector<dev::Command>{
             make_cmd(ids::kVial1, "recap"),
             make_cmd(ids::kDosingDevice, "set_door", std::move(open)),
             make_cmd(ids::kViperX, "pick_object", std::move(nw)),
             make_cmd(ids::kViperX, "place_object", std::move(dd)),
             make_cmd(ids::kViperX, "go_sleep"),
             make_cmd(ids::kDosingDevice, "set_door", std::move(closed)),
             make_cmd(ids::kDosingDevice, "run_action", std::move(q))};
       }},
      {"G8", "dose 50 mg into a 10 mg vial",
       [](sim::LabBackend&) {
         json::Object open = door_arg("open");
         json::Object nw;
         nw["site"] = std::string("grid.NW");
         json::Object dd;
         dd["site"] = std::string("dosing_device");
         json::Object closed = door_arg("closed");
         json::Object q;
         q["quantity"] = 50.0;
         return std::vector<dev::Command>{
             make_cmd(ids::kVial1, "decap"),
             make_cmd(ids::kDosingDevice, "set_door", std::move(open)),
             make_cmd(ids::kViperX, "pick_object", std::move(nw)),
             make_cmd(ids::kViperX, "place_object", std::move(dd)),
             make_cmd(ids::kViperX, "go_sleep"),
             make_cmd(ids::kDosingDevice, "set_door", std::move(closed)),
             make_cmd(ids::kDosingDevice, "run_action", std::move(q))};
       }},
      {"G9", "start dosing while the door is open",
       [](sim::LabBackend&) {
         json::Object open = door_arg("open");
         json::Object nw;
         nw["site"] = std::string("grid.NW");
         json::Object dd;
         dd["site"] = std::string("dosing_device");
         json::Object q;
         q["quantity"] = 5.0;
         return std::vector<dev::Command>{
             make_cmd(ids::kVial1, "decap"),
             make_cmd(ids::kDosingDevice, "set_door", std::move(open)),
             make_cmd(ids::kViperX, "pick_object", std::move(nw)),
             make_cmd(ids::kViperX, "place_object", std::move(dd)),
             make_cmd(ids::kViperX, "go_sleep"),
             make_cmd(ids::kDosingDevice, "run_action", std::move(q))};
       }},
      {"G10", "open the dosing device door while it is running",
       [](sim::LabBackend&) {
         json::Object open = door_arg("open");
         json::Object nw;
         nw["site"] = std::string("grid.NW");
         json::Object dd;
         dd["site"] = std::string("dosing_device");
         json::Object closed = door_arg("closed");
         json::Object q;
         q["quantity"] = 5.0;
         json::Object reopen = door_arg("open");
         return std::vector<dev::Command>{
             make_cmd(ids::kVial1, "decap"),
             make_cmd(ids::kDosingDevice, "set_door", std::move(open)),
             make_cmd(ids::kViperX, "pick_object", std::move(nw)),
             make_cmd(ids::kViperX, "place_object", std::move(dd)),
             make_cmd(ids::kViperX, "go_sleep"),
             make_cmd(ids::kDosingDevice, "set_door", std::move(closed)),
             make_cmd(ids::kDosingDevice, "run_action", std::move(q)),
             make_cmd(ids::kDosingDevice, "set_door", std::move(reopen))};
       }},
      {"G11", "set the hotplate to 200 C (threshold 150 C, firmware 340 C)",
       [](sim::LabBackend&) {
         json::Object o;
         o["celsius"] = 200.0;
         return std::vector<dev::Command>{
             make_cmd(ids::kHotplate, "set_temperature", std::move(o))};
       }},
  };
}

struct ScenarioResult {
  bool detected = false;
  std::string fired_rule;
  bool damage = false;
};

ScenarioResult run_scenario(const Scenario& scenario) {
  core::Lab lab(core::Variant::Modified);
  trace::Supervisor supervisor(&lab.engine, &lab.backend);
  trace::RunReport report = supervisor.run(scenario.build(lab.backend));

  ScenarioResult result;
  result.detected = report.alert_preceded_damage();
  result.damage = !report.damage.empty();
  for (const trace::SupervisedStep& s : report.steps) {
    if (s.alert) {
      result.fired_rule = s.alert->rule;
      break;
    }
  }
  return result;
}

void print_table3() {
  print_header("Table III — the 11 general rules, one controlled violation each",
               "RABIT (DSN'24), Table III + Section IV controlled experiments");
  std::printf("%-5s %-55s %-9s %s\n", "Rule", "Unsafe scenario", "Detected", "Fired");
  print_rule();
  int detected = 0;
  auto scenarios = general_rule_scenarios();
  for (const Scenario& s : scenarios) {
    ScenarioResult r = run_scenario(s);
    if (r.detected) ++detected;
    std::printf("%-5s %-55s %-9s %s\n", s.rule, s.description, r.detected ? "YES" : "NO",
                r.fired_rule.c_str());
  }
  print_rule();
  std::printf("detected %d / %zu (paper: all controlled scenarios detected)\n", detected,
              scenarios.size());

  // And the converse: the safe workflow raises nothing.
  core::Lab lab(core::Variant::Modified);
  trace::Supervisor supervisor(&lab.engine, &lab.backend);
  auto safe = script::record_workflow(lab.backend, script::testbed_workflow_source());
  trace::RunReport report = supervisor.run(safe);
  std::printf("safe workflow (%zu commands): %zu alerts, %zu damage events "
              "(paper: zero false positives)\n",
              safe.size(), report.alerts, report.damage.size());
}

void BM_CheckCommandNonMotion(benchmark::State& state) {
  core::Lab lab(core::Variant::Modified);
  lab.engine.initialize(lab.backend.registry().fetch_observed_state());
  dev::Command cmd = make_cmd(ids::kDosingDevice, "stop_action");
  for (auto _ : state) {
    benchmark::DoNotOptimize(lab.engine.check_command(cmd));
  }
}
BENCHMARK(BM_CheckCommandNonMotion);

void BM_CheckCommandMotion(benchmark::State& state) {
  core::Lab lab(core::Variant::Modified);
  lab.engine.initialize(lab.backend.registry().fetch_observed_state());
  dev::Command cmd = move_cmd(ids::kViperX, geom::Vec3(0.25, 0.0, 0.30));
  for (auto _ : state) {
    benchmark::DoNotOptimize(lab.engine.check_command(cmd));
  }
}
BENCHMARK(BM_CheckCommandMotion);

}  // namespace

int main(int argc, char** argv) {
  print_table3();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
