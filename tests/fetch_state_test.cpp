// Incremental FetchState (Fig. 2 lines 13-16) against its full-snapshot
// reference. Device revisions must be sound (an unchanged revision() means
// an unchanged state); the backend's re-reads and the tracker's per-device
// diff and resync must match StateTracker::mismatches(snapshot) and
// resync(snapshot) at every fetch; and the work both do is held to exact
// budgets.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "assurance/assurance.hpp"
#include "bugs/bugs.hpp"
#include "core/lab.hpp"
#include "devices/containers.hpp"
#include "devices/fault.hpp"
#include "devices/robot_arm.hpp"
#include "devices/stations.hpp"
#include "rad/rad.hpp"
#include "script/workflows.hpp"
#include "sim/deck.hpp"
#include "trace/trace.hpp"

namespace rabit {
namespace {

namespace ids = sim::deck_ids;

// --- revision soundness ------------------------------------------------------

struct DeviceView {
  std::uint64_t revision = 0;
  dev::StateMap state;
  dev::StateMap observed;
};

std::vector<DeviceView> view(const dev::DeviceRegistry& registry) {
  std::vector<DeviceView> out;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const dev::Device& d = registry.device(i);
    out.push_back({d.revision(), d.state(), d.observed_state()});
  }
  return out;
}

/// Runs `op` and checks the revision contract on every device: one whose
/// revision() did not move reads the same state() and observed_state().
/// Returns how many devices' observed state changed.
template <class Op>
std::size_t expect_sound(const sim::LabBackend& backend, const std::string& what, Op&& op) {
  std::vector<DeviceView> before = view(backend.registry());
  op();
  std::vector<DeviceView> after = view(backend.registry());
  std::size_t changed = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    const std::string& id = backend.registry().device(i).id();
    if (after[i].revision == before[i].revision) {
      EXPECT_TRUE(after[i].state == before[i].state)
          << what << ": " << id << " state changed without a revision bump";
      EXPECT_TRUE(after[i].observed == before[i].observed)
          << what << ": " << id << " observed state changed without a revision bump";
    }
    changed += after[i].observed != before[i].observed;
  }
  return changed;
}

/// Every argument any registered action reads, two value sets apart, so
/// that running an action twice changes what it sets.
json::Object arguments(const sim::LabBackend& backend, const dev::Device& d, bool first) {
  json::Object a;
  a["state"] = std::string(first ? "open" : "closed");
  a["celsius"] = first ? 60.0 : 30.0;
  a["rpm"] = first ? 300.0 : 0.0;
  a["volume"] = first ? 0.2 : 0.1;
  a["quantity"] = first ? 3.0 : 1.0;
  a["amount"] = first ? 2.0 : 1.0;
  a["delay"] = 0;
  a["orientation"] = std::string(first ? "E" : "N");
  for (std::size_t i = 0; i < backend.registry().size(); ++i) {
    const dev::Device& vial = backend.registry().device(i);
    if (dynamic_cast<const dev::Vial*>(&vial) != nullptr) {
      a["target"] = vial.id();
      break;
    }
  }
  if (const auto* arm = dynamic_cast<const dev::RobotArmDevice*>(&d)) {
    geom::Vec3 p = arm->position_local() + geom::Vec3(first ? 0.03 : -0.03, 0.0, 0.02);
    a["position"] = json::Array{p.x, p.y, p.z};
  }
  if (const auto* multi = dynamic_cast<const dev::MultiDoorStation*>(&d)) {
    a["door"] = multi->doors().front().name;
  }
  if (const auto* generic = dynamic_cast<const dev::GenericActionDevice*>(&d)) {
    for (const auto& spec : generic->value_actions()) a[spec.argument] = first ? 5.0 : 1.0;
  }
  return a;
}

dev::Command command(std::string device, std::string action, json::Object args = {}) {
  dev::Command c;
  c.device = std::move(device);
  c.action = std::move(action);
  c.args = json::Value(std::move(args));
  return c;
}

/// Every registered action of every device, twice with different
/// arguments, through the backend's physics; then a status-lying fault
/// plan set and cleared on every device, directly and through a scheduled
/// permanent fault that a status poll arms.
std::size_t sweep_actions_and_fault_plans(sim::LabBackend& backend) {
  std::size_t changed = 0;
  for (std::size_t i = 0; i < backend.registry().size(); ++i) {
    const dev::Device& d = backend.registry().device(i);
    for (const std::string& action : d.actions()) {
      for (bool first : {true, false}) {
        dev::Command cmd = command(d.id(), action, arguments(backend, d, first));
        changed += expect_sound(backend, cmd.describe(), [&] { (void)backend.execute(cmd); });
      }
    }
  }
  for (std::size_t i = 0; i < backend.registry().size(); ++i) {
    dev::Device& d = backend.registry().at(backend.registry().device(i).id());
    dev::FaultPlan lie;
    lie.reported_overrides["lying"] = 1;
    changed += expect_sound(backend, d.id() + " set_fault_plan",
                            [&] { d.set_fault_plan(lie); });
    changed += expect_sound(backend, d.id() + " clear_fault_plan", [&] { d.clear_fault_plan(); });
  }
  dev::FaultPlan lie;
  lie.reported_overrides["doorStatus"] = std::string("open");
  dev::FaultSchedule schedule;
  schedule.add_permanent(ids::kCentrifuge, lie, backend.modeled_clock_s());
  backend.set_fault_schedule(std::move(schedule));
  changed += expect_sound(backend, "armed permanent fault", [&] { (void)backend.fetch_status(); });
  backend.clear_fault_schedule();
  return changed;
}

TEST(DeviceRevision, EveryActionAndFaultPlanOnTheTestbedDeck) {
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  // The device types the stock decks lack, well away from every arm.
  dev::DeviceRegistry& reg = backend.registry();
  reg.add(std::make_unique<dev::MultiDoorStation>(
      "twin_door", std::vector<dev::MultiDoorStation::DoorSpec>{{"north", {0, 1, 0}},
                                                                 {"south", {0, -1, 0}}},
      geom::Aabb(geom::Vec3(5.0, 5.0, 0.0), geom::Vec3(5.2, 5.2, 0.2))));
  reg.add(std::make_unique<dev::GenericActionDevice>(
      "spin_coater",
      std::vector<dev::GenericActionDevice::ValueActionSpec>{
          {"set_spin_speed", "spinRpm", "rpm_value", 9000.0}},
      /*has_door=*/true, geom::Aabb(geom::Vec3(6.0, 5.0, 0.0), geom::Vec3(6.2, 5.2, 0.2))));
  auto& sensor = dynamic_cast<dev::ProximitySensor&>(reg.add(std::make_unique<dev::ProximitySensor>(
      "presence", geom::Aabb(geom::Vec3(7.0, 5.0, 0.0), geom::Vec3(7.5, 5.5, 2.0)))));

  std::size_t changed = sweep_actions_and_fault_plans(backend);
  changed += expect_sound(backend, "presence occupied", [&] { sensor.set_occupied(true); });
  EXPECT_GT(changed, 40u);  // the sweep moved observed state, not just revisions
}

TEST(DeviceRevision, EveryActionAndFaultPlanOnTheProductionDeck) {
  sim::LabBackend backend(sim::production_profile());
  sim::build_hein_production_deck(backend);
  EXPECT_GT(sweep_actions_and_fault_plans(backend), 30u);
}

TEST(DeviceRevision, BackendPhysicsSeatShatterAndDoorBreak) {
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  auto run = [&](dev::Command cmd) {
    return expect_sound(backend, cmd.describe(), [&] { (void)backend.execute(cmd); });
  };
  json::Object open;
  open["state"] = std::string("open");
  json::Object closed;
  closed["state"] = std::string("closed");
  json::Object from_grid;
  from_grid["site"] = std::string("grid.NW");
  json::Object into_dosing;
  into_dosing["site"] = std::string("dosing_device");

  // Seat: vial_1 from its grid slot into the dosing chamber, and back out.
  run(command(ids::kDosingDevice, "set_door", open));
  run(command(ids::kViperX, "pick_object", from_grid));
  run(command(ids::kViperX, "place_object", into_dosing));
  EXPECT_EQ(dynamic_cast<const dev::DosingDeviceModel&>(backend.registry().at(ids::kDosingDevice))
                .container_inside(),
            ids::kVial1);
  run(command(ids::kViperX, "pick_object", into_dosing));
  run(command(ids::kViperX, "go_home"));

  // Shatter: open the gripper high above the deck.
  dev::RobotArmDevice& viperx = backend.arm(ids::kViperX);
  geom::Vec3 above = viperx.position_local() + geom::Vec3(0.0, 0.0, 0.10);
  json::Object lift;
  lift["position"] = json::Array{above.x, above.y, above.z};
  run(command(ids::kViperX, "move_to", lift));
  run(command(ids::kViperX, "open_gripper"));
  EXPECT_TRUE(backend.vial(ids::kVial1).is_broken());

  // Door break: drive the arm into the closed dosing chamber.
  run(command(ids::kDosingDevice, "set_door", closed));
  geom::Vec3 inside = viperx.to_local(backend.find_site("dosing_device")->lab_position);
  json::Object enter;
  enter["position"] = json::Array{inside.x, inside.y, inside.z};
  std::size_t changed = run(command(ids::kViperX, "move_to", enter));
  EXPECT_EQ(dynamic_cast<const dev::DosingDeviceModel&>(backend.registry().at(ids::kDosingDevice))
                .door_status(),
            "broken");
  EXPECT_GE(changed, 2u);  // the arm and the door
}

// --- the tracker's bookkeeping ------------------------------------------------

TEST(FetchStateBookkeeping, VisitsOnlyWhatMovedAndForgetsOnFullResync) {
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  core::EngineConfig config = core::config_from_backend(backend, core::Variant::Modified);
  core::StateTracker tracker(&config);
  const dev::ObservedLab& observed = *backend.fetch_status().observed;
  const std::size_t devices = backend.registry().size();
  auto visits = [&] {
    const std::size_t before = tracker.devices_diffed();
    std::vector<std::string> diffs = tracker.mismatches(observed);
    EXPECT_EQ(diffs, tracker.mismatches(observed.snapshot));
    return tracker.devices_diffed() - before;
  };

  tracker.initialize(observed.snapshot);
  EXPECT_EQ(visits(), devices);  // initialize forgets: every device once
  tracker.resync(observed);
  EXPECT_EQ(visits(), 0u);

  tracker.set_var(ids::kHotplate, "targetC", 99.0);  // a line-11 write
  EXPECT_EQ(tracker.mismatches(observed), std::vector<std::string>{"hotplate.targetC"});
  tracker.resync(observed);
  EXPECT_EQ(visits(), 0u);
  EXPECT_EQ(tracker.var(ids::kHotplate, "targetC"),
            observed.snapshot.at(ids::kHotplate).at("targetC"));

  json::Object celsius;
  celsius["celsius"] = 80.0;
  (void)backend.execute(command(ids::kHotplate, "set_temperature", celsius));
  const std::size_t reads = backend.status_reads();
  (void)backend.fetch_status();
  EXPECT_EQ(backend.status_reads() - reads, 1u);  // the hotplate alone
  EXPECT_EQ(visits(), 1u);
  tracker.resync(observed);

  tracker.resync(observed.snapshot);  // a full resync forgets too
  EXPECT_EQ(visits(), devices);
}

// --- the incremental path against the full-snapshot path ---------------------

/// Fig. 2 lines 3-16 with a bounded recovery ladder (precondition re-polls,
/// busy retries, postcondition re-polls and retries, an assurance park),
/// making the engine calls trace::Supervisor makes, with a full-path
/// shadow StateTracker beside the engine's incremental one. Every fetch
/// compares the incremental mismatch list with the full one; every resync
/// compares tracked state.
class ShadowedRun {
 public:
  ShadowedRun(core::Lab& lab, std::optional<assurance::AssuranceConfig> assurance = {})
      : lab_(lab), shadow_(&lab.engine.config()), assurance_(assurance) {
    lab_.engine.set_assurance_margin(assurance_ ? assurance_->margin_min_m : 0.0);
    const dev::LabStateSnapshot& initial = lab_.backend.fetch_status().snapshot();
    lab_.engine.initialize(initial);
    shadow_.initialize(initial);
    expect_same_state("initialize");
  }

  void run(const std::vector<dev::Command>& workflow) {
    for (const dev::Command& cmd : workflow) step(cmd);
  }

  std::size_t fetches = 0;
  std::size_t divergent_fetches = 0;
  std::size_t slow_paths = 0;
  std::size_t demotions = 0;

 private:
  static constexpr std::size_t kRepolls = 3;
  static constexpr std::size_t kRetries = 3;
  static constexpr double kWait_s = 0.5;

  struct Fetched {
    sim::LabBackend::StatusFetch status;
    std::vector<std::string> diffs;
  };

  void step(const dev::Command& cmd) {
    SCOPED_TRACE(cmd.describe());
    std::optional<core::Alert> alert = lab_.engine.check_command(cmd);
    for (std::size_t repoll = 0; alert && repoll < kRepolls; ++repoll) {
      lab_.backend.advance_clock(kWait_s);
      resync(fetch());
      alert = lab_.engine.check_command(cmd);
    }
    if (alert || demoted(cmd)) return;
    expect(cmd);
    std::size_t retries = 0;
    for (;;) {
      sim::ExecResult exec = lab_.backend.execute(cmd);
      while (exec.transient_busy && retries < kRetries) {
        ++retries;
        lab_.backend.advance_clock(kWait_s);
        exec = lab_.backend.execute(cmd);
      }
      Fetched fetched = fetch();
      for (std::size_t repoll = 0; !fetched.diffs.empty() && repoll < kRepolls; ++repoll) {
        lab_.backend.advance_clock(kWait_s);
        fetched = fetch();
      }
      resync(fetched);
      if (fetched.diffs.empty() || retries == kRetries) return;
      ++retries;
      lab_.backend.advance_clock(kWait_s);
      expect(cmd);
    }
  }

  /// The assurance decision's slow path. A demoted motion parks its arm
  /// instead of running, and the lab is resynced without a line 11.
  bool demoted(const dev::Command& cmd) {
    if (!assurance_ || !lab_.engine.last_margin_tripped()) return false;
    std::optional<core::MotionAnalysis> motion = lab_.engine.motion_analysis(cmd);
    if (!motion || motion->waypoints.size() < 2) return false;
    ++slow_paths;
    sim::MarginProfile profile = lab_.simulator->trajectory_margin(
        motion->waypoints, motion->held_clearance, motion->ignores);
    if (!assurance::decide(profile, *assurance_).demote) return false;
    ++demotions;
    (void)lab_.backend.execute(command(motion->arm_id, "go_sleep"));
    resync(fetch());
    return true;
  }

  void expect(const dev::Command& cmd) {
    lab_.engine.apply_expected(cmd);
    dev::Command canonical = cmd;
    if (const core::DeviceMeta* meta = lab_.engine.config().find_device(cmd.device)) {
      canonical.action = std::string(meta->canonical_action(cmd.action));
    }
    shadow_.apply_postconditions(canonical);
  }

  Fetched fetch() {
    Fetched fetched{lab_.backend.fetch_status(), {}};
    fetched.diffs = lab_.engine.postcondition_mismatches(*fetched.status.observed);
    EXPECT_EQ(fetched.diffs, shadow_.mismatches(fetched.status.snapshot()))
        << "fetch " << fetches;
    ++fetches;
    divergent_fetches += !fetched.diffs.empty();
    return fetched;
  }

  void resync(const Fetched& fetched) {
    lab_.engine.resync_observed(*fetched.status.observed);
    shadow_.resync(fetched.status.snapshot());
    expect_same_state("resync after fetch " + std::to_string(fetches));
  }

  void expect_same_state(const std::string& when) {
    const core::StateTracker& incremental = lab_.engine.tracker();
    EXPECT_EQ(dev::diff(incremental.state(), shadow_.state()), std::vector<std::string>{})
        << when;
  }

  core::Lab& lab_;
  core::StateTracker shadow_;
  std::optional<assurance::AssuranceConfig> assurance_;
};

constexpr core::Variant kVariants[] = {core::Variant::Initial, core::Variant::Modified,
                                       core::Variant::ModifiedWithSim};

TEST(FetchStateDifferential, CatalogueBugsEveryVariant) {
  sim::LabBackend staging(sim::testbed_profile());
  sim::build_hein_testbed_deck(staging);
  std::size_t fetches = 0;
  for (const bugs::BugSpec& bug : bugs::bug_catalogue()) {
    std::vector<dev::Command> workflow = bug.build(staging);
    for (core::Variant variant : kVariants) {
      SCOPED_TRACE(bug.id + " variant " + std::to_string(static_cast<int>(variant)));
      core::Lab lab(variant);
      ShadowedRun run(lab);
      run.run(workflow);
      fetches += run.fetches;
    }
  }
  EXPECT_GT(fetches, 0u);
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

TEST(FetchStateDifferential, TestbedWorkflowUnderChaos) {
  std::size_t divergent = 0;
  std::size_t stale_or_timed_out = 0;
  for (unsigned seed = 1; seed <= 40; ++seed) {
    for (core::Variant variant : {core::Variant::Modified, core::Variant::ModifiedWithSim}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " variant " +
                   std::to_string(static_cast<int>(variant)));
      std::vector<dev::Command> workflow;
      core::Lab lab(variant, 42, [&](sim::LabBackend& backend) {
        sim::build_hein_testbed_deck(backend);
        workflow = script::record_workflow(backend, script::testbed_workflow_source());
        dev::FaultSchedule::ChaosOptions chaos;
        chaos.horizon_s = 30.0;
        chaos.transient_count = 8;
        dev::FaultSchedule schedule =
            dev::FaultSchedule::chaos(seed, distinct_pairs(workflow), chaos);
        // Every other seed, a device also breaks for good mid-run: its
        // status lies from then on, or its door stops moving.
        dev::FaultPlan plan;
        if (seed % 4 == 0) plan.reported_overrides["gripper"] = std::string("closed");
        if (seed % 4 == 2) plan.dead_actions = {"set_door"};
        if (seed % 2 == 0) {
          schedule.add_permanent(seed % 4 == 0 ? ids::kViperX : ids::kDosingDevice, plan,
                                 static_cast<double>(seed % 20));
        }
        backend.set_fault_schedule(std::move(schedule));
      });
      ShadowedRun run(lab);
      run.run(workflow);
      divergent += run.divergent_fetches;
      for (const dev::TransientFault& f : lab.backend.fault_schedule()->transients()) {
        stale_or_timed_out += f.kind == dev::TransientKind::StaleStatus ||
                              f.kind == dev::TransientKind::StatusTimeout;
      }
    }
  }
  EXPECT_GT(divergent, 0u);
  EXPECT_GT(stale_or_timed_out, 0u);
}

/// A fixed-seed rad dosing session on the testbed deck.
std::vector<dev::Command> rad_session(unsigned seed) {
  sim::LabBackend staging(sim::testbed_profile());
  sim::build_hein_testbed_deck(staging);
  std::mt19937_64 rng(seed);
  return rad::synth_session(staging, rng);
}

TEST(FetchStateDifferential, RadSessionAtV3WithAssurance) {
  core::Lab lab(core::Variant::ModifiedWithSim);
  // A floor wide enough that the decision's slow path runs, and demotes.
  assurance::AssuranceConfig assurance;
  assurance.margin_min_m = 0.06;
  ShadowedRun run(lab, assurance);
  run.run(rad_session(7));
  EXPECT_GT(run.fetches, 20u);
  EXPECT_GT(run.slow_paths, 0u);
  EXPECT_GT(run.demotions, 0u);
}

// --- work budgets --------------------------------------------------------------

// Exact totals; a budget may only tighten. The full-snapshot FetchState
// re-read every registry device on every fetch and diffed every one on
// every mismatch call: 440 re-reads (40 fetches x 11 devices) and 429
// devices diffed (39 calls x 11) on the testbed workflow, 286 (26 x 11) and
// 275 (25 x 11) on the rad session.

struct FetchWork {
  std::size_t status_reads;
  std::size_t devices_diffed;
  friend bool operator==(const FetchWork&, const FetchWork&) = default;
};

void PrintTo(const FetchWork& w, std::ostream* os) {
  *os << "{status_reads " << w.status_reads << ", devices_diffed " << w.devices_diffed << "}";
}

FetchWork work(const core::Lab& lab) {
  return {lab.backend.status_reads(), lab.engine.tracker().devices_diffed()};
}

TEST(FetchStateBudget, TestbedWorkflowAtV3) {
  core::Lab lab(core::Variant::ModifiedWithSim);
  std::vector<dev::Command> workflow =
      script::record_workflow(lab.backend, script::testbed_workflow_source());
  trace::Supervisor supervisor(&lab.engine, &lab.backend);
  trace::RunReport report = supervisor.run(workflow);
  ASSERT_FALSE(report.halted);
  EXPECT_EQ(work(lab), (FetchWork{63, 62}));
}

TEST(FetchStateBudget, RadSessionAtV3WithAssurance) {
  core::Lab lab(core::Variant::ModifiedWithSim);
  trace::Supervisor::Options options;
  options.halt_on_alert = false;
  options.assurance = assurance::AssuranceConfig{};
  trace::Supervisor supervisor(&lab.engine, &lab.backend, options);
  (void)supervisor.run(rad_session(7));
  EXPECT_EQ(work(lab), (FetchWork{45, 44}));
}

}  // namespace
}  // namespace rabit
