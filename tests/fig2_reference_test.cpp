// The paper's Fig. 2 loop, written out straight as a test-only reference:
// check_command → apply_expected → execute → fetch_status →
// verify_postconditions, halting on an alert. trace::Supervisor runs lines
// 12-16 inside its recovery ladder; without a policy (and without
// assurance) that ladder has no budget, and the Supervisor must do exactly
// what this loop does: the same trace JSONL and, step by step, the same
// alert, halt and execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bugs/bugs.hpp"
#include "core/lab.hpp"
#include "script/workflows.hpp"
#include "sim/deck.hpp"
#include "trace/trace.hpp"

namespace rabit::trace {
namespace {

struct StepFacts {
  std::optional<std::string> alert;  ///< rule and message
  bool halted = false;
  bool executed = false;
};

struct Observed {
  std::string jsonl;
  std::vector<StepFacts> steps;
};

std::optional<std::string> alert_text(const std::optional<core::Alert>& alert) {
  if (!alert) return std::nullopt;
  return alert->rule + ": " + alert->message;
}

/// Fig. 2 lines 3-16, one command at a time.
Observed reference_run(core::Lab& lab, const std::vector<dev::Command>& workflow,
                  bool halt_on_alert) {
  TraceLog log;
  Observed run;
  lab.engine.initialize(lab.backend.fetch_status().snapshot());  // line 3
  for (const dev::Command& cmd : workflow) {
    TraceRecord record;
    record.command = cmd;
    StepFacts facts;
    std::optional<core::Alert> alert = lab.engine.check_command(cmd);  // lines 6-10
    if (alert) {
      record.outcome = Outcome::Blocked;
    } else {
      lab.engine.apply_expected(cmd);                                      // line 11
      sim::ExecResult exec = lab.backend.execute(cmd);                     // line 12
      dev::LabStateSnapshot actual = lab.backend.fetch_status().snapshot();  // line 13
      alert = lab.engine.verify_postconditions(cmd, actual);              // lines 14-16
      facts.executed = exec.executed;
      record.damage_events = exec.damage.size();
      if (alert) {
        record.outcome = Outcome::MalfunctionFlagged;
      } else if (!exec.executed) {
        record.outcome = Outcome::FirmwareError;
      } else if (exec.silently_skipped) {
        record.outcome = Outcome::SilentlySkipped;
      }
    }
    if (alert) {
      record.alert_rule = alert->rule;
      record.alert_message = alert->message;
      facts.halted = halt_on_alert;
    }
    facts.alert = alert_text(alert);
    log.append(std::move(record));
    run.steps.push_back(facts);
    if (facts.halted) break;
  }
  run.jsonl = log.to_jsonl();
  return run;
}

Observed supervised_run(core::Lab& lab, const std::vector<dev::Command>& workflow,
                   bool halt_on_alert) {
  Supervisor::Options options;
  options.halt_on_alert = halt_on_alert;
  Supervisor sup(&lab.engine, &lab.backend, options);
  RunReport report = sup.run(workflow);
  Observed run;
  for (const SupervisedStep& step : report.steps) {
    run.steps.push_back({alert_text(step.alert), step.halted, step.exec && step.exec->executed});
  }
  run.jsonl = sup.log().to_jsonl();
  return run;
}

void expect_same(const Observed& reference, const Observed& supervised) {
  EXPECT_EQ(supervised.jsonl, reference.jsonl);
  ASSERT_EQ(supervised.steps.size(), reference.steps.size());
  for (std::size_t i = 0; i < reference.steps.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    EXPECT_EQ(supervised.steps[i].alert, reference.steps[i].alert);
    EXPECT_EQ(supervised.steps[i].halted, reference.steps[i].halted);
    EXPECT_EQ(supervised.steps[i].executed, reference.steps[i].executed);
  }
}

constexpr core::Variant kVariants[] = {core::Variant::Initial, core::Variant::Modified,
                                       core::Variant::ModifiedWithSim};

TEST(Fig2Reference, CatalogueBugsEveryVariantHaltAndContinue) {
  sim::LabBackend staging(sim::testbed_profile());
  sim::build_hein_testbed_deck(staging);
  std::size_t alerted = 0;
  for (const bugs::BugSpec& bug : bugs::bug_catalogue()) {
    std::vector<dev::Command> workflow = bug.build(staging);
    for (core::Variant variant : kVariants) {
      for (bool halt : {true, false}) {
        SCOPED_TRACE(bug.id + " variant " + std::to_string(static_cast<int>(variant)) +
                     (halt ? " halt" : " continue"));
        core::Lab reference_lab(variant);
        core::Lab supervised_lab(variant);
        Observed reference = reference_run(reference_lab, workflow, halt);
        expect_same(reference, supervised_run(supervised_lab, workflow, halt));
        alerted += std::any_of(reference.steps.begin(), reference.steps.end(),
                               [](const StepFacts& s) { return s.alert.has_value(); });
      }
    }
  }
  EXPECT_GT(alerted, 0u);  // the comparison covered alerting runs
}

std::vector<std::pair<std::string, std::string>> distinct_pairs(
    const std::vector<dev::Command>& workflow) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const dev::Command& c : workflow) {
    std::pair<std::string, std::string> p{c.device, c.action};
    if (std::find(pairs.begin(), pairs.end(), p) == pairs.end()) pairs.push_back(p);
  }
  return pairs;
}

/// The testbed lab with the seed's chaos schedule, as the fault-recovery
/// bench builds it; the deck hook records the workflow into `workflow`.
std::unique_ptr<core::Lab> chaos_lab(unsigned seed, core::Variant variant,
                                     std::vector<dev::Command>& workflow) {
  return std::make_unique<core::Lab>(variant, 42, [&](sim::LabBackend& backend) {
    sim::build_hein_testbed_deck(backend);
    workflow = script::record_workflow(backend, script::testbed_workflow_source());
    dev::FaultSchedule::ChaosOptions chaos;
    chaos.horizon_s = 30.0;
    chaos.transient_count = 8;
    backend.set_fault_schedule(dev::FaultSchedule::chaos(seed, distinct_pairs(workflow), chaos));
  });
}

TEST(Fig2Reference, TestbedWorkflowUnderChaos) {
  std::size_t malfunctions = 0;
  for (unsigned seed = 1; seed <= 40; ++seed) {
    for (core::Variant variant : {core::Variant::Modified, core::Variant::ModifiedWithSim}) {
      for (bool halt : {true, false}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " variant " +
                     std::to_string(static_cast<int>(variant)) + (halt ? " halt" : " continue"));
        std::vector<dev::Command> workflow;
        std::unique_ptr<core::Lab> reference_lab = chaos_lab(seed, variant, workflow);
        std::unique_ptr<core::Lab> supervised_lab = chaos_lab(seed, variant, workflow);
        Observed reference = reference_run(*reference_lab, workflow, halt);
        expect_same(reference, supervised_run(*supervised_lab, workflow, halt));
        malfunctions += reference.jsonl.find("malfunction_flagged") != std::string::npos;
      }
    }
  }
  EXPECT_GT(malfunctions, 0u);  // the transients struck: postcondition alerts were compared
}

}  // namespace
}  // namespace rabit::trace
