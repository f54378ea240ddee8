// Table II reproduction: the state-transition table RABIT populates from
// the configuration — actions with preconditions, labels, postconditions —
// plus a live verification that each listed robot-arm row behaves as stated.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/rules.hpp"

namespace {

using namespace rabit;
using namespace rabit::bench;
namespace ids = sim::deck_ids;

void print_table2() {
  print_header("Table II — actions, preconditions, and postconditions",
               "RABIT (DSN'24), Table II (state-transition table)");
  std::printf("%-14s %-22s %-52s %s\n", "Device type", "Action", "Preconditions", "Rules");
  print_rule();
  for (const core::TransitionEntry& e : core::transition_table()) {
    std::printf("%-14s %-22s %-52s %s\n", std::string(dev::to_string(e.category)).c_str(),
                e.action.c_str(), e.preconditions.c_str(), e.rules.c_str());
    std::printf("%-14s %-22s -> %s\n", "", "", e.postconditions.c_str());
  }
  print_rule();

  // Live verification of the three example rows the paper prints.
  core::Lab lab(core::Variant::Modified);
  core::RabitEngine& engine = lab.engine;
  engine.initialize(lab.backend.registry().fetch_observed_state());

  // Row 1: moving inside a device requires deviceDoorStatus = open.
  dev::Command enter = move_cmd(ids::kViperX, site_local(lab.backend, ids::kViperX,
                                                         "dosing_device"));
  auto a1 = engine.check_command(enter);
  std::printf("move_robot_inside with door closed : %s\n",
              a1 && a1->rule == "G1" ? "blocked by G1 (as in Table II)" : "UNEXPECTED");

  // Row 2: pick_object requires robotArmHolding = 0; postcondition sets it.
  json::Object nw;
  nw["site"] = std::string("grid.NW");
  dev::Command pick = make_cmd(ids::kViperX, "pick_object", std::move(nw));
  auto a2 = engine.check_command(pick);
  engine.apply_expected(pick);
  bool holding_after = engine.tracker().arm_holding(ids::kViperX) == ids::kVial1;
  json::Object se;
  se["site"] = std::string("grid.SE");
  auto a3 = engine.check_command(make_cmd(ids::kViperX, "pick_object", std::move(se)));
  std::printf("pick_object while empty-handed     : %s\n",
              !a2 ? "allowed; postcondition robotArmHolding=vial_1 applied" : "UNEXPECTED");
  std::printf("pick_object while holding          : %s\n",
              a3 && a3->rule == "G4" && holding_after ? "blocked by G4 (as in Table II)"
                                                      : "UNEXPECTED");

  // Row 3: place_object requires robotArmHolding = 1 and clears it.
  json::Object sw;
  sw["site"] = std::string("grid.SW");
  dev::Command place = make_cmd(ids::kViperX, "place_object", std::move(sw));
  auto a4 = engine.check_command(place);
  engine.apply_expected(place);
  std::printf("place_object onto a free site      : %s\n",
              !a4 && engine.tracker().arm_holding(ids::kViperX).empty()
                  ? "allowed; postcondition robotArmHolding=none applied"
                  : "UNEXPECTED");
}

void BM_TransitionTableBuild(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::transition_table());
  }
}
BENCHMARK(BM_TransitionTableBuild);

void BM_ApplyExpected(benchmark::State& state) {
  core::Lab lab(core::Variant::Modified);
  lab.engine.initialize(lab.backend.registry().fetch_observed_state());
  dev::Command cmd = make_cmd(ids::kDosingDevice, "stop_action");
  for (auto _ : state) {
    lab.engine.apply_expected(cmd);
  }
}
BENCHMARK(BM_ApplyExpected);

}  // namespace

int main(int argc, char** argv) {
  print_table2();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
