// Table IV reproduction: the four Hein Lab custom rules, one controlled
// violation each.
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
  std::function<std::vector<dev::Command>(sim::LabBackend&)> build;
};

/// Shared preamble: dose vial_1 with 5 mg of solid so later stages are legal.
std::vector<dev::Command> dosed_vial_preamble() {
  json::Object open = door_arg("open");
  json::Object nw;
  nw["site"] = std::string("grid.NW");
  json::Object dd;
  dd["site"] = std::string("dosing_device");
  json::Object closed = door_arg("closed");
  json::Object q;
  q["quantity"] = 5.0;
  json::Object reopen = door_arg("open");
  json::Object pick_dd;
  pick_dd["site"] = std::string("dosing_device");
  json::Object back;
  back["site"] = std::string("grid.NW");
  json::Object closed2 = door_arg("closed");
  return {
      make_cmd(ids::kVial1, "decap"),
      make_cmd(ids::kDosingDevice, "set_door", std::move(open)),
      make_cmd(ids::kViperX, "pick_object", std::move(nw)),
      make_cmd(ids::kViperX, "place_object", std::move(dd)),
      make_cmd(ids::kViperX, "go_sleep"),
      make_cmd(ids::kDosingDevice, "set_door", std::move(closed)),
      make_cmd(ids::kDosingDevice, "run_action", std::move(q)),
      make_cmd(ids::kDosingDevice, "stop_action"),
      make_cmd(ids::kDosingDevice, "set_door", std::move(reopen)),
      make_cmd(ids::kViperX, "pick_object", std::move(pick_dd)),
      make_cmd(ids::kViperX, "place_object", std::move(back)),
      make_cmd(ids::kViperX, "go_sleep"),
      make_cmd(ids::kDosingDevice, "set_door", std::move(closed2)),
  };
}

std::vector<dev::Command> with_preamble(std::vector<dev::Command> tail) {
  std::vector<dev::Command> cmds = dosed_vial_preamble();
  for (dev::Command& c : tail) cmds.push_back(std::move(c));
  return cmds;
}

std::vector<Scenario> custom_rule_scenarios() {
  return {
      {"C1", "dose solvent into a vial that has no solid yet",
       [](sim::LabBackend&) {
         json::Object draw;
         draw["volume"] = 2.0;
         json::Object dose;
         dose["volume"] = 2.0;
         dose["target"] = std::string(ids::kVial2);  // never dosed with solid
         return std::vector<dev::Command>{
             make_cmd(ids::kSyringePump, "draw_solvent", std::move(draw)),
             make_cmd(ids::kSyringePump, "dose_solvent", std::move(dose))};
       }},
      {"C2", "centrifuge a vial that has solid but no liquid",
       [](sim::LabBackend&) {
         json::Object recap;
         json::Object open = door_arg("open");
         json::Object pick;
         pick["site"] = std::string("grid.NW");
         json::Object place;
         place["site"] = std::string("centrifuge");
         return with_preamble({make_cmd(ids::kVial1, "recap"),
                               make_cmd(ids::kCentrifuge, "set_door", std::move(open)),
                               make_cmd(ids::kViperX, "pick_object", std::move(pick)),
                               make_cmd(ids::kViperX, "place_object", std::move(place))});
       }},
      {"C3", "load the centrifuge while the red dot faces East",
       [](sim::LabBackend&) {
         json::Object draw;
         draw["volume"] = 2.0;
         json::Object dose;
         dose["volume"] = 2.0;
         dose["target"] = std::string(ids::kVial1);
         json::Object rotate;
         rotate["orientation"] = std::string("E");
         json::Object open = door_arg("open");
         json::Object pick;
         pick["site"] = std::string("grid.NW");
         json::Object place;
         place["site"] = std::string("centrifuge");
         return with_preamble({make_cmd(ids::kSyringePump, "draw_solvent", std::move(draw)),
                               make_cmd(ids::kSyringePump, "dose_solvent", std::move(dose)),
                               make_cmd(ids::kVial1, "recap"),
                               make_cmd(ids::kCentrifuge, "rotate_platter", std::move(rotate)),
                               make_cmd(ids::kCentrifuge, "set_door", std::move(open)),
                               make_cmd(ids::kViperX, "pick_object", std::move(pick)),
                               make_cmd(ids::kViperX, "place_object", std::move(place))});
       }},
      {"C4", "load the centrifuge with an unstoppered vial",
       [](sim::LabBackend&) {
         json::Object draw;
         draw["volume"] = 2.0;
         json::Object dose;
         dose["volume"] = 2.0;
         dose["target"] = std::string(ids::kVial1);
         json::Object open = door_arg("open");
         json::Object pick;
         pick["site"] = std::string("grid.NW");
         json::Object place;
         place["site"] = std::string("centrifuge");
         // No recap before loading.
         return with_preamble({make_cmd(ids::kSyringePump, "draw_solvent", std::move(draw)),
                               make_cmd(ids::kSyringePump, "dose_solvent", std::move(dose)),
                               make_cmd(ids::kCentrifuge, "set_door", std::move(open)),
                               make_cmd(ids::kViperX, "pick_object", std::move(pick)),
                               make_cmd(ids::kViperX, "place_object", std::move(place))});
       }},
  };
}

void print_table4() {
  print_header("Table IV — the 4 Hein Lab custom rules, one violation each",
               "RABIT (DSN'24), Table IV + Section IV controlled experiments");
  std::printf("%-5s %-55s %-9s %s\n", "Rule", "Unsafe scenario", "Detected", "Fired");
  print_rule();
  int detected = 0;
  int correct_rule = 0;
  auto scenarios = custom_rule_scenarios();
  for (const Scenario& s : scenarios) {
    core::Lab lab(core::Variant::Modified);
    trace::Supervisor supervisor(&lab.engine, &lab.backend);
    trace::RunReport report = supervisor.run(s.build(lab.backend));
    std::string fired;
    for (const trace::SupervisedStep& step : report.steps) {
      if (step.alert) {
        fired = step.alert->rule;
        break;
      }
    }
    bool ok = report.alert_preceded_damage();
    if (ok) ++detected;
    if (fired == s.rule) ++correct_rule;
    std::printf("%-5s %-55s %-9s %s\n", s.rule, s.description, ok ? "YES" : "NO", fired.c_str());
  }
  print_rule();
  std::printf("detected %d / %zu, exact rule attribution %d / %zu\n", detected, scenarios.size(),
              correct_rule, scenarios.size());
  std::printf("(paper: all controlled custom-rule scenarios detected; custom rules\n");
  std::printf(" are the lab-specific layer that makes RABIT adaptable, Section II-A)\n");
}

void BM_CustomRuleCheck(benchmark::State& state) {
  core::Lab lab(core::Variant::Modified);
  lab.engine.initialize(lab.backend.registry().fetch_observed_state());
  json::Object dose;
  dose["volume"] = 2.0;
  dose["target"] = std::string(ids::kVial2);
  dev::Command cmd = make_cmd(ids::kSyringePump, "dose_solvent", std::move(dose));
  for (auto _ : state) {
    benchmark::DoNotOptimize(lab.engine.check_command(cmd));
  }
}
BENCHMARK(BM_CustomRuleCheck);

}  // namespace

int main(int argc, char** argv) {
  print_table4();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
