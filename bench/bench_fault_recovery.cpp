// Chaos campaign: seeded transient-fault schedules replayed against safe
// workflows with the supervised-recovery ladder enabled. Reports completion
// rate, false-halt rate (must be ZERO for recoverable transients), mean
// retries, and modeled recovery latency; shows the false halts the paper's
// alert-and-stop policy would raise on the same schedules; proves permanent
// faults still escalate; and re-runs the Section IV detection progression
// (8/16 -> 12/16 -> 13/16) to show recovery does not mask a single bug.
//
// Two runtime-assurance legs ride along (PR 7): a miscalibrated-world hazard
// where the predictive barrier check must prevent the damage the reactive
// ladder cannot (damage-events-prevented: RTA vs reactive vs none), and the
// chaos campaign re-run with RTA enabled, where an accurate world must
// produce ZERO demotions (no false safe-stops). Results land in
// BENCH_fault_recovery.json.
//
// `--smoke` runs a reduced campaign and skips the microbenchmarks (CI).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <vector>

#include "bench_common.hpp"
#include "json/json.hpp"
#include "recovery/recovery.hpp"

namespace {

using namespace rabit;
using namespace rabit::bench;

/// One workflow under chaos: how to build the deck and the command stream.
struct WorkflowCase {
  const char* name;
  void (*deck)(sim::LabBackend&);
  sim::StageProfile (*profile)();
  std::string (*source)();
};

const WorkflowCase kWorkflows[] = {
    {"testbed two-arm", sim::build_hein_testbed_deck, sim::testbed_profile,
     script::testbed_workflow_source},
    {"solubility", sim::build_hein_production_deck, sim::production_profile,
     script::solubility_workflow_source},
};

std::vector<std::pair<std::string, std::string>> distinct_pairs(
    const std::vector<dev::Command>& workflow) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const dev::Command& c : workflow) {
    std::pair<std::string, std::string> p{c.device, c.action};
    if (std::find(pairs.begin(), pairs.end(), p) == pairs.end()) pairs.push_back(p);
  }
  return pairs;
}

dev::FaultSchedule chaos_for(const std::vector<dev::Command>& workflow, unsigned seed) {
  dev::FaultSchedule::ChaosOptions options;
  options.horizon_s = 30.0;  // keep fault windows inside the modeled run
  options.transient_count = 8;
  return dev::FaultSchedule::chaos(seed, distinct_pairs(workflow), options);
}

struct ChaosRun {
  bool halted = false;
  bool alerted = false;
  std::size_t retries = 0;
  std::size_t repolls = 0;
  std::size_t absorbed = 0;
  double recovery_time_s = 0.0;
  std::string halt_reason;
};

/// `wc`'s lab: the deck hook records the workflow into `workflow` and
/// installs the seed's chaos fault schedule before the engine is configured.
std::unique_ptr<core::Lab> chaos_lab(const WorkflowCase& wc, unsigned seed, core::Variant variant,
                                     std::vector<dev::Command>& workflow) {
  return std::make_unique<core::Lab>(
      variant, 42,
      [&](sim::LabBackend& backend) {
        wc.deck(backend);
        workflow = script::record_workflow(backend, wc.source());
        backend.set_fault_schedule(chaos_for(workflow, seed));
      },
      wc.profile());
}

ChaosRun run_chaos(const WorkflowCase& wc, unsigned seed, bool with_recovery) {
  std::vector<dev::Command> workflow;
  std::unique_ptr<core::Lab> lab = chaos_lab(wc, seed, core::Variant::Modified, workflow);
  trace::Supervisor::Options options;
  if (with_recovery) options.recovery = recovery::RecoveryPolicy{};
  trace::Supervisor sup(&lab->engine, &lab->backend, options);
  trace::RunReport report = sup.run(workflow);

  ChaosRun out;
  out.halted = report.halted;
  out.alerted = report.alerts > 0;
  if (report.halted && report.first_alert_step) {
    const trace::SupervisedStep& s = report.steps[*report.first_alert_step];
    if (s.alert) out.halt_reason = s.alert->describe();
  }
  if (report.recovery) {
    out.retries = report.recovery->retries;
    out.repolls = report.recovery->repolls;
    out.absorbed = report.recovery->transients_absorbed;
    out.recovery_time_s = report.recovery->recovery_time_s;
  }
  return out;
}

/// Campaign leg: N seeds per workflow, recovery on vs the paper's
/// alert-and-stop policy. Every injected transient is recoverable, so every
/// halt on the recovery side is a false halt. Returns the false-halt count.
int run_campaign(int seeds_per_workflow, json::Object& results) {
  print_header("Chaos campaign: seeded transients under supervised recovery",
               "robustness extension -- RABIT (DSN'24) \"preemptively stop\" policy "
               "vs retry/backoff ladder");

  int recovery_false_halts = 0;
  std::printf("%-18s %6s %10s %10s %8s %8s %12s %14s\n", "Workflow", "Seeds", "Complete",
              "FalseHalt", "Strikes", "Retries", "Repolls", "RecLatency(s)");
  print_rule();
  for (const WorkflowCase& wc : kWorkflows) {
    int complete = 0, halts = 0, strikes = 0;
    std::size_t retries = 0, repolls = 0;
    double rec_time = 0.0;
    for (int seed = 1; seed <= seeds_per_workflow; ++seed) {
      ChaosRun run = run_chaos(wc, static_cast<unsigned>(seed), /*with_recovery=*/true);
      if (run.halted) {
        ++halts;
        std::printf("  ! %s seed %d halted: %s\n", wc.name, seed, run.halt_reason.c_str());
      } else {
        ++complete;
      }
      if (run.absorbed > 0) ++strikes;
      retries += run.retries;
      repolls += run.repolls;
      rec_time += run.recovery_time_s;
    }
    recovery_false_halts += halts;
    std::printf("%-18s %6d %7d/%-2d %7d/%-2d %8d %8.2f %12.2f %14.2f\n", wc.name,
                seeds_per_workflow, complete, seeds_per_workflow, halts, seeds_per_workflow,
                strikes, double(retries) / seeds_per_workflow,
                double(repolls) / seeds_per_workflow, rec_time / seeds_per_workflow);
  }
  print_rule();

  // The same schedules under the paper's policy: the first unabsorbed
  // transient halts the run.
  std::printf("\nwithout recovery (alert-and-stop on the same schedules):\n");
  int baseline_false_halts = 0, baseline_runs = 0;
  for (const WorkflowCase& wc : kWorkflows) {
    int halts = 0;
    for (int seed = 1; seed <= seeds_per_workflow; ++seed) {
      if (run_chaos(wc, static_cast<unsigned>(seed), /*with_recovery=*/false).halted) ++halts;
    }
    baseline_false_halts += halts;
    baseline_runs += seeds_per_workflow;
    std::printf("  %-18s false halts: %d/%d\n", wc.name, halts, seeds_per_workflow);
  }
  std::printf("\nall injected transients are recoverable; the ladder must absorb every\n");
  std::printf("one: false halts with recovery = %d (required: 0), without = %d/%d\n",
              recovery_false_halts, baseline_false_halts, baseline_runs);

  json::Object leg;
  leg["runs"] = baseline_runs;
  leg["false_halts_with_recovery"] = recovery_false_halts;
  leg["false_halts_alert_and_stop"] = baseline_false_halts;
  results["chaos_campaign"] = std::move(leg);
  return recovery_false_halts;
}

/// Permanent-fault leg: a genuinely dead device must still alert, quarantine,
/// and drive the deck to its safe state. Returns the number of violations.
int run_permanent_leg() {
  print_header("Permanent faults still escalate through the ladder",
               "RABIT (DSN'24) Fig. 2 lines 13-15 (declare malfunction)");

  struct PermanentCase {
    const char* name;
    dev::FaultPlan plan;
  };
  std::vector<PermanentCase> cases;
  {
    dev::FaultPlan dead;
    dead.dead_actions = {"set_door"};
    cases.push_back({"dead door actuator", dead});
  }
  {
    dev::FaultPlan liar;
    liar.reported_overrides["doorStatus"] = std::string("closed");
    cases.push_back({"status channel lies", liar});
  }

  int violations = 0;
  for (const PermanentCase& pc : cases) {
    auto backend = make_testbed();
    std::vector<dev::Command> workflow =
        script::record_workflow(*backend, script::testbed_workflow_source());
    dev::FaultSchedule schedule;
    schedule.add_permanent(sim::deck_ids::kDosingDevice, pc.plan);
    backend->set_fault_schedule(std::move(schedule));

    auto engine = std::make_unique<core::RabitEngine>(
        core::config_from_backend(*backend, core::Variant::Modified));
    trace::Supervisor::Options options;
    options.recovery = recovery::RecoveryPolicy{};
    trace::Supervisor sup(engine.get(), backend.get(), options);
    trace::RunReport report = sup.run(workflow);

    bool alerted = report.alerts > 0;
    bool quarantined = report.recovery && !report.recovery->quarantined.empty();
    bool safe_state = report.recovery && report.recovery->safe_state_executed;
    bool ok = report.halted && alerted && quarantined && safe_state;
    if (!ok) ++violations;
    std::printf("  %-22s halted=%d alerted=%d quarantined=%d safe_state=%d  [%s]\n", pc.name,
                report.halted, alerted, quarantined, safe_state, ok ? "ok" : "VIOLATION");
  }
  return violations;
}

/// Regression leg: the Section IV detection progression with the recovery
/// ladder enabled, bug by bug against the alert-and-stop baseline. Returns
/// the number of bugs whose verdict changed.
int run_progression_leg(json::Object& results) {
  print_header("Detection progression is unchanged under recovery",
               "RABIT (DSN'24), Section IV (8/16 -> 12/16 -> 13/16)");

  const core::Variant variants[] = {core::Variant::Initial, core::Variant::Modified,
                                    core::Variant::ModifiedWithSim};
  trace::Supervisor::Options with_recovery;
  with_recovery.recovery = recovery::RecoveryPolicy{};

  int mismatches = 0;
  std::printf("%-16s %10s %14s   %s\n", "Variant", "Baseline", "WithRecovery", "Verdict flips");
  print_rule();
  for (core::Variant variant : variants) {
    int detected_baseline = 0, detected_recovery = 0;
    std::string flips;
    for (const bugs::BugSpec& bug : bugs::bug_catalogue()) {
      std::vector<dev::Command> stream;
      {
        auto staging = make_testbed();
        stream = bug.build(*staging);
      }
      bool base = bugs::evaluate_stream(stream, variant).detected;
      bool rec = bugs::evaluate_stream(stream, variant, with_recovery).detected;
      detected_baseline += base ? 1 : 0;
      detected_recovery += rec ? 1 : 0;
      if (base != rec) {
        ++mismatches;
        if (!flips.empty()) flips += " ";
        flips += bug.id;
      }
    }
    std::printf("%-16s %7d/16 %11d/16   %s\n",
                std::string(core::to_string(variant)).c_str(), detected_baseline,
                detected_recovery, flips.empty() ? "none" : flips.c_str());
  }
  print_rule();
  std::printf("recovery retries transients but never swallows a genuine alert:\n");
  std::printf("verdict flips across 16 bugs x 3 variants: %d (required: 0)\n", mismatches);
  results["progression_verdict_flips"] = mismatches;
  return mismatches;
}

// ---------------------------------------------------------------------------
// Runtime-assurance legs (PR 7)
// ---------------------------------------------------------------------------

/// How one run of the hazard scenario ended, per supervision mode.
struct HazardOutcome {
  std::size_t damage = 0;
  std::size_t demotions = 0;
  std::size_t alerts = 0;
  bool halted = false;
};

enum class HazardMode { None, Reactive, Rta };

/// The §IV category-2 failure in miniature: the configured world is
/// miscalibrated by 2 cm against ground truth. A straight ascent from the
/// viperx sleep pose grazes the *configured* overhead shelf by 1.5 cm —
/// clear, by the boolean collision check — while the *real* shelf sits in
/// the path. Reactive supervision (any ladder) cannot see this coming: the
/// trajectory validates, the crash happens, and even the postcondition check
/// stays quiet because the arm still reaches its goal. The RTA barrier floor
/// (3 cm > the 2 cm miscalibration) demotes before the arm commits.
HazardOutcome run_hazard(HazardMode mode) {
  core::Lab lab(core::Variant::ModifiedWithSim);
  lab.simulator->set_gui_enabled(false);
  // The configured world plus the shelf where the (miscalibrated)
  // configuration believes it is: shifted +2 cm in y, so the ascent at
  // y = -0.10 clears it by 0.015 m.
  lab.simulator->world().add_box(
      "overhead_shelf", geom::Aabb(geom::Vec3(0.07, -0.085, 0.40), geom::Vec3(0.17, 0.015, 0.50)),
      sim::ObstacleKind::Equipment);
  // Ground truth: the real shelf, 2 cm closer to the corridor. Added to the
  // backend only, *after* the config snapshot — exactly a calibration error.
  lab.backend.add_static_obstacle(
      "overhead_shelf",
      geom::Aabb(geom::Vec3(0.07, -0.105, 0.40), geom::Vec3(0.17, -0.005, 0.50)),
      sim::ObstacleKind::Equipment);

  trace::Supervisor::Options options;
  if (mode != HazardMode::None) options.recovery = recovery::RecoveryPolicy{};
  if (mode == HazardMode::Rta) options.assurance = assurance::AssuranceConfig{};
  trace::Supervisor sup(&lab.engine, &lab.backend, options);

  // One command: ascend from sleep (0.12, -0.10, 0.14 lab) straight up into
  // the shelf corridor (viperx base is at z = 0.02).
  std::vector<dev::Command> workflow{move_cmd(sim::deck_ids::kViperX,
                                              geom::Vec3(0.12, -0.10, 0.48))};
  trace::RunReport report = sup.run(workflow);

  HazardOutcome out;
  out.damage = report.damage.size();
  out.alerts = report.alerts;
  out.halted = report.halted;
  if (report.recovery) out.demotions = report.recovery->demotions;
  return out;
}

/// Damage-prevented leg: the RTA mode must prevent strictly more damage
/// events than the reactive ladder and the bare supervisor on the same
/// miscalibrated world. Returns the number of acceptance violations.
int run_hazard_leg(json::Object& results) {
  print_header("Predictive safe-stop vs reactive supervision on a miscalibrated world",
               "SOTER-style runtime assurance over RABIT (DSN'24) V3 trajectory checks");

  struct Row {
    const char* name;
    HazardMode mode;
  };
  const Row rows[] = {{"none", HazardMode::None},
                      {"reactive ladder", HazardMode::Reactive},
                      {"rta", HazardMode::Rta}};

  HazardOutcome outcomes[3];
  std::printf("%-18s %8s %10s %10s %8s %8s\n", "Mode", "Damage", "Prevented", "Demotions",
              "Alerts", "Halted");
  print_rule();
  json::Array hazard_rows;
  for (int i = 0; i < 3; ++i) {
    outcomes[i] = run_hazard(rows[i].mode);
  }
  const std::size_t baseline_damage = outcomes[0].damage;
  for (int i = 0; i < 3; ++i) {
    const HazardOutcome& o = outcomes[i];
    std::size_t prevented = baseline_damage > o.damage ? baseline_damage - o.damage : 0;
    std::printf("%-18s %8zu %10zu %10zu %8zu %8s\n", rows[i].name, o.damage, prevented,
                o.demotions, o.alerts, o.halted ? "yes" : "no");
    json::Object row;
    row["mode"] = std::string(rows[i].name);
    row["damage_events"] = o.damage;
    row["damage_events_prevented"] = prevented;
    row["demotions"] = o.demotions;
    row["alerts"] = o.alerts;
    row["halted"] = o.halted;
    hazard_rows.emplace_back(std::move(row));
  }
  print_rule();

  int violations = 0;
  if (baseline_damage == 0) {
    ++violations;
    std::printf("VIOLATION: hazard scenario caused no damage without assurance — the\n"
                "miscalibration no longer reaches the arm; the leg proves nothing\n");
  }
  if (outcomes[1].damage < baseline_damage) {
    ++violations;
    std::printf("VIOLATION: the reactive ladder prevented the miscalibration damage —\n"
                "the RTA comparison baseline is broken\n");
  }
  if (outcomes[2].damage != 0) {
    ++violations;
    std::printf("VIOLATION: RTA did not prevent the damage (%zu events)\n",
                outcomes[2].damage);
  }
  if (outcomes[2].demotions == 0) {
    ++violations;
    std::printf("VIOLATION: RTA prevented damage without recording a demotion\n");
  }
  std::printf("RTA prevented %zu damage event(s); reactive prevented %zu (required: RTA "
              "strictly more)\n",
              baseline_damage - outcomes[2].damage, baseline_damage - outcomes[1].damage);
  results["hazard"] = std::move(hazard_rows);
  return violations;
}

/// False-safe-stop leg: the chaos campaign re-run at V3 with RTA enabled on
/// an *accurate* world. Transient faults are the recovery ladder's business;
/// the assurance layer must stay silent — zero demotions, zero halts.
/// Returns the number of acceptance violations.
int run_rta_chaos_leg(int seeds_per_workflow, json::Object& results) {
  print_header("RTA on accurate worlds: zero false safe-stops under chaos",
               "robustness extension -- predictive demotion must not fire on clean geometry");

  int violations = 0;
  std::size_t total_demotions = 0;
  int halts = 0, runs = 0;
  std::printf("%-18s %6s %10s %10s %10s\n", "Workflow", "Seeds", "Complete", "Demotions",
              "FalseHalt");
  print_rule();
  for (const WorkflowCase& wc : kWorkflows) {
    int complete = 0, wc_halts = 0;
    std::size_t wc_demotions = 0;
    for (int seed = 1; seed <= seeds_per_workflow; ++seed) {
      std::vector<dev::Command> workflow;
      std::unique_ptr<core::Lab> lab = chaos_lab(wc, static_cast<unsigned>(seed),
                                                 core::Variant::ModifiedWithSim, workflow);
      lab->simulator->set_gui_enabled(false);
      trace::Supervisor::Options options;
      options.recovery = recovery::RecoveryPolicy{};
      options.assurance = assurance::AssuranceConfig{};
      trace::Supervisor sup(&lab->engine, &lab->backend, options);
      trace::RunReport report = sup.run(workflow);

      ++runs;
      if (report.halted) {
        ++wc_halts;
        std::printf("  ! %s seed %d halted under RTA\n", wc.name, seed);
      } else {
        ++complete;
      }
      if (report.recovery) wc_demotions += report.recovery->demotions;
    }
    halts += wc_halts;
    total_demotions += wc_demotions;
    std::printf("%-18s %6d %7d/%-2d %10zu %7d/%-2d\n", wc.name, seeds_per_workflow, complete,
                seeds_per_workflow, wc_demotions, wc_halts, seeds_per_workflow);
  }
  print_rule();
  std::printf("demotions on accurate worlds: %zu (required: 0); false halts: %d/%d "
              "(required: 0)\n",
              total_demotions, halts, runs);
  if (total_demotions > 0) ++violations;
  if (halts > 0) ++violations;

  json::Object leg;
  leg["runs"] = runs;
  leg["demotions"] = total_demotions;
  leg["false_halts"] = halts;
  results["rta_chaos"] = std::move(leg);
  return violations;
}

// Timing: one full chaos run with recovery, per workflow.
void BM_ChaosRunWithRecovery(benchmark::State& state) {
  const WorkflowCase& wc = kWorkflows[state.range(0)];
  unsigned seed = 1;
  for (auto _ : state) {
    ChaosRun run = run_chaos(wc, seed++, /*with_recovery=*/true);
    benchmark::DoNotOptimize(run);
  }
  state.SetLabel(wc.name);
}
BENCHMARK(BM_ChaosRunWithRecovery)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }

  json::Object results;
  results["bench"] = "fault_recovery";
  results["mode"] = smoke ? std::string("smoke") : std::string("full");

  int violations = 0;
  violations += run_campaign(smoke ? 5 : 25, results);
  violations += run_permanent_leg();
  violations += run_progression_leg(results);
  violations += run_hazard_leg(results);
  violations += run_rta_chaos_leg(smoke ? 3 : 10, results);

  results["acceptance_violations"] = violations;
  {
    std::ofstream out("BENCH_fault_recovery.json");
    out << json::serialize_pretty(json::Value(std::move(results))) << "\n";
    std::printf("\nwrote BENCH_fault_recovery.json\n");
  }
  if (violations > 0) {
    std::printf("\nFAIL: %d acceptance violation(s)\n", violations);
    return 1;
  }
  std::printf("all acceptance checks passed\n");

  if (!smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
