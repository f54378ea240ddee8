// The paper's three-stage deployment framework (§II, Table I): a researcher
// constructs a *new* workflow and promotes it stage by stage — simulator
// first (fast, nothing to break), then the low-fidelity testbed (cheap
// mockups), and only then production. A bug is cheapest at the earliest
// stage that can expose it.
//
// This example takes one buggy workflow (Fig. 6's Bug D: a pickup height
// edited too low while the arm carries a vial) through all three stages
// twice: once guarded by modified RABIT with the Extended Simulator, and
// once unguarded, accumulating the modeled damage cost each stage would
// have suffered.
//
//   $ ./three_stage_pipeline
#include <cstdio>

#include "bugs/bugs.hpp"
#include "core/lab.hpp"
#include "sim/deck.hpp"
#include "trace/trace.hpp"

using namespace rabit;

namespace {

struct StageOutcome {
  std::string stage;
  bool blocked = false;
  std::string rule;
  std::size_t damage_events = 0;
  double damage_cost = 0;
  double stage_time_s = 0;
};

StageOutcome run_stage(const sim::StageProfile& profile,
                       const std::vector<dev::Command>& workflow, bool with_rabit) {
  core::Lab lab(core::Variant::ModifiedWithSim, 42, {}, profile);
  trace::Supervisor supervisor(with_rabit ? &lab.engine : nullptr, &lab.backend);
  trace::RunReport report = supervisor.run(workflow);

  StageOutcome outcome;
  outcome.stage = profile.name;
  outcome.blocked = report.first_alert_step.has_value();
  if (outcome.blocked) {
    outcome.rule = report.steps[*report.first_alert_step].alert->rule;
  }
  outcome.damage_events = report.damage.size();
  outcome.damage_cost = lab.backend.total_damage_cost();
  outcome.stage_time_s = report.modeled_runtime_s + report.modeled_overhead_s;
  return outcome;
}

void run_pipeline(const std::vector<dev::Command>& workflow, bool with_rabit) {
  std::printf("%-13s %-9s %-6s %-8s %-12s %s\n", "stage", "blocked", "rule", "damage",
              "cost ($)", "stage time (model s)");
  const sim::StageProfile stages[] = {sim::simulator_profile(), sim::testbed_profile(),
                                      sim::production_profile()};
  for (const sim::StageProfile& stage : stages) {
    StageOutcome o = run_stage(stage, workflow, with_rabit);
    std::printf("%-13s %-9s %-6s %-8zu %-12.0f %.1f\n", o.stage.c_str(),
                o.blocked ? "YES" : "no", o.rule.c_str(), o.damage_events, o.damage_cost,
                o.stage_time_s);
  }
}

}  // namespace

int main() {
  std::printf("== the three-stage deployment framework (Table I) ==\n\n");

  // The workflow under construction, with Fig. 6's Bug D (lowered pickup
  // height while holding a vial) still in it.
  sim::LabBackend staging(sim::testbed_profile());
  sim::build_hein_testbed_deck(staging);
  const bugs::BugSpec* bug_d = nullptr;
  for (const bugs::BugSpec& b : bugs::bug_catalogue()) {
    if (b.id == "M3") bug_d = &b;
  }
  auto buggy = bug_d->build(staging);
  auto fixed = bug_d->build_safe(staging);

  std::printf("promoting the BUGGY workflow (Fig. 6 Bug D) without RABIT:\n");
  run_pipeline(buggy, /*with_rabit=*/false);
  std::printf("=> every stage physically crashes; each promotion multiplies the\n");
  std::printf("   cost (Table I's 'risk of damage' row).\n\n");

  std::printf("the same workflow guarded by RABIT (modified + simulator):\n");
  run_pipeline(buggy, /*with_rabit=*/true);
  std::printf("=> blocked at the cheapest stage, before any damage, on every\n");
  std::printf("   stage it would ever reach.\n\n");

  std::printf("after fixing the coordinate, the corrected workflow passes all\n");
  std::printf("three stages:\n");
  run_pipeline(fixed, /*with_rabit=*/true);
  std::printf("=> clean on simulator -> testbed -> production: ready to deploy.\n");
  return 0;
}
