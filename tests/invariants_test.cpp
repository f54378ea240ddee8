// System-wide invariants, exercised with randomized workloads:
//   * a generated *safe* workflow never alerts (the zero-false-positive
//     property, beyond the fixed baselines);
//   * blocking is always preemptive — a blocked command leaves the lab
//     physically untouched;
//   * physical bookkeeping is conserved (capacities, monotone spills,
//     broken vials stay empty);
//   * supervision is deterministic.
#include <gtest/gtest.h>

#include <random>

#include "bugs/bugs.hpp"
#include "core/engine.hpp"
#include "core/lab.hpp"
#include "devices/robot_arm.hpp"
#include "script/workflows.hpp"
#include "sim/deck.hpp"
#include "trace/trace.hpp"

namespace rabit {
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

json::Object door(const char* state) {
  json::Object o;
  o["state"] = std::string(state);
  return o;
}

json::Object site_arg(const std::string& s) {
  json::Object o;
  o["site"] = s;
  return o;
}

/// Generates a random but *safe* workflow: composite vial shuffles between
/// free grid slots, disciplined dosing-device cycles, and sub-threshold
/// station settings. Safety is by construction, so any alert is a false
/// positive.
std::vector<Command> random_safe_workflow(std::mt19937& rng, int operations) {
  std::vector<Command> cmds;
  const std::string slots[] = {"grid.NW", "grid.NE", "grid.SW", "grid.SE"};
  // Track where the two vials are believed to be (matches the fresh deck).
  std::map<std::string, std::string> occupant = {{"grid.NW", ids::kVial1},
                                                 {"grid.SE", ids::kVial2}};
  bool vial1_decapped = false;

  std::uniform_int_distribution<int> op_dist(0, 3);
  for (int i = 0; i < operations; ++i) {
    switch (op_dist(rng)) {
      case 0: {  // shuffle a random vial to a random free slot
        std::vector<std::string> occupied;
        std::vector<std::string> free_slots;
        for (const std::string& s : slots) {
          (occupant.contains(s) ? occupied : free_slots).push_back(s);
        }
        if (occupied.empty() || free_slots.empty()) break;
        const std::string& from =
            occupied[std::uniform_int_distribution<std::size_t>(0, occupied.size() - 1)(rng)];
        const std::string& to = free_slots[std::uniform_int_distribution<std::size_t>(
            0, free_slots.size() - 1)(rng)];
        cmds.push_back(make_cmd(ids::kViperX, "pick_object", site_arg(from)));
        cmds.push_back(make_cmd(ids::kViperX, "place_object", site_arg(to)));
        cmds.push_back(make_cmd(ids::kViperX, "go_sleep"));
        occupant[to] = occupant[from];
        occupant.erase(from);
        break;
      }
      case 1: {  // a full disciplined dosing cycle on vial_1 (2 mg fits 5x)
        std::string vial1_slot;
        for (const auto& [slot, vial] : occupant) {
          if (vial == ids::kVial1) vial1_slot = slot;
        }
        if (vial1_slot.empty()) break;
        static int doses = 0;
        if (doses >= 4) break;  // stay below the 10 mg capacity
        ++doses;
        if (!vial1_decapped) {
          cmds.push_back(make_cmd(ids::kVial1, "decap"));
          vial1_decapped = true;
        }
        cmds.push_back(make_cmd(ids::kDosingDevice, "set_door", door("open")));
        cmds.push_back(make_cmd(ids::kViperX, "pick_object", site_arg(vial1_slot)));
        cmds.push_back(make_cmd(ids::kViperX, "place_object", site_arg("dosing_device")));
        cmds.push_back(make_cmd(ids::kViperX, "go_sleep"));
        cmds.push_back(make_cmd(ids::kDosingDevice, "set_door", door("closed")));
        cmds.push_back(make_cmd(ids::kDosingDevice, "run_action", [] {
          json::Object o;
          o["quantity"] = 2.0;
          return o;
        }()));
        cmds.push_back(make_cmd(ids::kDosingDevice, "stop_action"));
        cmds.push_back(make_cmd(ids::kDosingDevice, "set_door", door("open")));
        cmds.push_back(make_cmd(ids::kViperX, "pick_object", site_arg("dosing_device")));
        cmds.push_back(make_cmd(ids::kViperX, "place_object", site_arg(vial1_slot)));
        cmds.push_back(make_cmd(ids::kViperX, "go_sleep"));
        cmds.push_back(make_cmd(ids::kDosingDevice, "set_door", door("closed")));
        break;
      }
      case 2: {  // sub-threshold hotplate settings
        std::uniform_real_distribution<double> temp(30.0, 140.0);
        cmds.push_back(make_cmd(ids::kHotplate, "set_temperature", [&] {
          json::Object o;
          o["celsius"] = temp(rng);
          return o;
        }()));
        cmds.push_back(make_cmd(ids::kHotplate, "stop"));
        break;
      }
      case 3: {  // rotate the centrifuge platter and restore it
        const char* orientations[] = {"E", "S", "W"};
        cmds.push_back(make_cmd(ids::kCentrifuge, "rotate_platter", [&] {
          json::Object o;
          o["orientation"] = std::string(
              orientations[std::uniform_int_distribution<int>(0, 2)(rng)]);
          return o;
        }()));
        cmds.push_back(make_cmd(ids::kCentrifuge, "rotate_platter", [] {
          json::Object o;
          o["orientation"] = std::string("N");
          return o;
        }()));
        break;
      }
    }
  }
  return cmds;
}

class SafeWorkflowProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(SafeWorkflowProperty, GeneratedSafeWorkflowsNeverAlert) {
  std::mt19937 rng(GetParam());
  std::vector<Command> workflow = random_safe_workflow(rng, 12);

  for (core::Variant variant :
       {core::Variant::Initial, core::Variant::Modified, core::Variant::ModifiedWithSim}) {
    bugs::BugOutcome outcome = bugs::evaluate_stream(workflow, variant);
    EXPECT_FALSE(outcome.alerted)
        << "false positive under " << core::to_string(variant) << " (seed " << GetParam()
        << "): " << outcome.alert_rule << " at step "
        << (outcome.report.first_alert_step ? *outcome.report.first_alert_step : 0) << ": "
        << outcome.report.steps[*outcome.report.first_alert_step].alert->message;
    EXPECT_FALSE(outcome.damaged) << "generated workflow was not physically safe (seed "
                                  << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SafeWorkflowProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u));

/// Blocking is preemptive: when RABIT raises a precondition alert, the
/// command never reaches a device, so ground truth is byte-identical.
class PreemptiveBlockProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(PreemptiveBlockProperty, BlockedCommandsLeaveNoTrace) {
  std::mt19937 rng(GetParam() + 100);
  auto staging = std::make_unique<sim::LabBackend>(sim::testbed_profile());
  sim::build_hein_testbed_deck(*staging);
  auto base = script::record_workflow(*staging, script::testbed_workflow_source());

  for (int i = 0; i < 10; ++i) {
    bugs::SyntheticBug bug = bugs::random_mutation(base, rng);

    core::Lab lab(core::Variant::Modified);
    sim::LabBackend& backend = lab.backend;
    trace::Supervisor supervisor(&lab.engine, &backend);
    supervisor.start();
    for (const Command& cmd : bug.commands) {
      auto before = backend.registry().fetch_true_state();
      std::size_t damage_before = backend.damage_log().size();
      trace::SupervisedStep step = supervisor.step(cmd);
      if (step.alert && step.alert->kind == core::AlertKind::InvalidCommand) {
        EXPECT_EQ(backend.registry().fetch_true_state(), before)
            << "blocked command mutated device state: " << cmd.describe();
        EXPECT_EQ(backend.damage_log().size(), damage_before);
      }
      if (step.halted) break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreemptiveBlockProperty, ::testing::Values(1u, 2u, 3u));

/// Physical bookkeeping stays sane under arbitrary mutated workloads.
class ConservationProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ConservationProperty, VialBookkeepingConserved) {
  std::mt19937 rng(GetParam() + 300);
  auto staging = std::make_unique<sim::LabBackend>(sim::testbed_profile());
  sim::build_hein_testbed_deck(*staging);
  auto base = script::record_workflow(*staging, script::testbed_workflow_source());

  for (int i = 0; i < 15; ++i) {
    bugs::SyntheticBug bug = bugs::random_mutation(base, rng);
    sim::LabBackend backend(sim::testbed_profile());
    sim::build_hein_testbed_deck(backend);
    trace::Supervisor bare(nullptr, &backend);

    double last_spilled = 0.0;
    for (const Command& cmd : bug.commands) {
      bare.step(cmd);
      for (const char* id : {ids::kVial1, ids::kVial2}) {
        const dev::Vial& v = backend.vial(id);
        EXPECT_LE(v.solid_mg(), v.state().at("capacityMg").as_double() + 1e-9);
        EXPECT_LE(v.liquid_ml(), v.state().at("capacityMl").as_double() + 1e-9);
        EXPECT_GE(v.solid_mg(), -1e-9);
        EXPECT_GE(v.liquid_ml(), -1e-9);
        if (v.is_broken()) {
          EXPECT_TRUE(v.is_empty());
        }
      }
      double spilled = backend.vial(ids::kVial1).state().at("spilledMg").as_double() +
                       backend.vial(ids::kVial2).state().at("spilledMg").as_double();
      EXPECT_GE(spilled, last_spilled - 1e-9) << "spills must be monotone";
      last_spilled = spilled;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationProperty, ::testing::Values(1u, 2u, 3u));

TEST(Determinism, SupervisedRunsAreReproducible) {
  auto run_once = [](unsigned seed) {
    core::Lab lab(core::Variant::Modified, seed);
    trace::Supervisor supervisor(&lab.engine, &lab.backend);
    auto commands = script::record_workflow(lab.backend, script::testbed_workflow_source());
    supervisor.run(commands);
    return supervisor.log().to_jsonl();
  };
  EXPECT_EQ(run_once(42), run_once(42));
  // Even under a different noise seed, the *logical* trace is identical for
  // a safe workflow (noise only perturbs precision statistics).
  EXPECT_EQ(run_once(42), run_once(1234));
}

TEST(Determinism, BugCatalogueStableAcrossRepeats) {
  for (int repeat = 0; repeat < 3; ++repeat) {
    int detected = 0;
    for (const bugs::BugSpec& bug : bugs::bug_catalogue()) {
      if (bugs::evaluate_bug(bug, core::Variant::Modified).detected) ++detected;
    }
    EXPECT_EQ(detected, 12);
  }
}

}  // namespace
}  // namespace rabit
