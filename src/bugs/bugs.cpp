#include "bugs/bugs.hpp"

#include <cmath>

#include "core/lab.hpp"
#include "devices/robot_arm.hpp"
#include "script/workflows.hpp"
#include "sim/deck.hpp"

namespace rabit::bugs {

using dev::Command;
using dev::Severity;
using geom::Vec3;
using sim::deck_ids::kDosingDevice;
using sim::deck_ids::kHotplate;
using sim::deck_ids::kCentrifuge;
using sim::deck_ids::kNed2;
using sim::deck_ids::kViperX;
using sim::deck_ids::kVial1;
using sim::deck_ids::kVial2;

std::string_view to_string(BugCategory c) {
  switch (c) {
    case BugCategory::DoorInteraction: return "door interaction";
    case BugCategory::ArmArmCollision: return "two-arm collision";
    case BugCategory::MissingVial: return "experiment without a vial";
    case BugCategory::CoordinateChange: return "position coordinate change";
    case BugCategory::ArgumentChange: return "argument change";
    case BugCategory::OrderChange: return "command order change";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// StreamEditor
// ---------------------------------------------------------------------------

std::size_t StreamEditor::find(std::string_view device, std::string_view action,
                               std::size_t nth,
                               const std::function<bool(const json::Value&)>& args_match) const {
  std::size_t seen = 0;
  for (std::size_t i = 0; i < commands_.size(); ++i) {
    const Command& c = commands_[i];
    if (c.device != device || c.action != action) continue;
    if (args_match && !args_match(c.args)) continue;
    if (seen == nth) return i;
    ++seen;
  }
  throw std::out_of_range("StreamEditor::find: no match for " + std::string(device) + "." +
                          std::string(action) + " #" + std::to_string(nth));
}

void StreamEditor::erase(std::size_t index, std::size_t count) {
  if (index + count > commands_.size()) throw std::out_of_range("StreamEditor::erase");
  commands_.erase(commands_.begin() + static_cast<std::ptrdiff_t>(index),
                  commands_.begin() + static_cast<std::ptrdiff_t>(index + count));
}

void StreamEditor::insert(std::size_t index, Command cmd) {
  if (index > commands_.size()) throw std::out_of_range("StreamEditor::insert");
  commands_.insert(commands_.begin() + static_cast<std::ptrdiff_t>(index), std::move(cmd));
}

void StreamEditor::swap(std::size_t i, std::size_t j) {
  if (i >= commands_.size() || j >= commands_.size()) {
    throw std::out_of_range("StreamEditor::swap");
  }
  std::swap(commands_[i], commands_[j]);
}

void StreamEditor::set_arg(std::size_t index, std::string_view key, json::Value value) {
  if (index >= commands_.size()) throw std::out_of_range("StreamEditor::set_arg");
  commands_[index].args.as_object()[key] = std::move(value);
}

std::size_t StreamEditor::replace_position(std::string_view device, const Vec3& old_position,
                                           const Vec3& new_position, double tol) {
  std::size_t edits = 0;
  for (Command& c : commands_) {
    if (c.device != device || c.action != "move_to") continue;
    auto pos = dev::position_arg(c.args);
    if (!pos) continue;
    if (std::abs(pos->x - old_position.x) <= tol && std::abs(pos->y - old_position.y) <= tol &&
        std::abs(pos->z - old_position.z) <= tol) {
      c.args.as_object()["position"] =
          json::Array{new_position.x, new_position.y, new_position.z};
      ++edits;
    }
  }
  return edits;
}

Command cmd(std::string device, std::string action, json::Object args) {
  Command c;
  c.device = std::move(device);
  c.action = std::move(action);
  c.args = json::Value(std::move(args));
  return c;
}

Command move_cmd(std::string arm, const Vec3& local_position) {
  json::Object args;
  args["position"] = json::Array{local_position.x, local_position.y, local_position.z};
  return cmd(std::move(arm), "move_to", std::move(args));
}

// ---------------------------------------------------------------------------
// Catalogue helpers
// ---------------------------------------------------------------------------

namespace {

json::Object door_arg(const char* state) {
  json::Object o;
  o["state"] = std::string(state);
  return o;
}

json::Object site_arg(const char* site) {
  json::Object o;
  o["site"] = std::string(site);
  return o;
}

/// Arm-local coordinates of a deck site.
Vec3 site_local(const sim::LabBackend& b, const char* arm, const char* site) {
  const auto& a = dynamic_cast<const dev::RobotArmDevice&>(*b.registry().find(arm));
  return a.to_local(b.find_site(site)->lab_position);
}

Vec3 lab_to_local(const sim::LabBackend& b, const char* arm, const Vec3& lab) {
  const auto& a = dynamic_cast<const dev::RobotArmDevice&>(*b.registry().find(arm));
  return a.to_local(lab);
}

/// The standard primitive testbed workflow (Fig. 5's safe form).
std::vector<Command> base_stream(const sim::LabBackend& b) {
  return script::record_workflow(b, script::testbed_workflow_source());
}

/// A composite-command dosing workflow with two iterations (the production
/// style of Fig. 1b, run on the testbed for the H4 scenario).
std::vector<Command> composite_stream(const sim::LabBackend& b) {
  (void)b;
  std::vector<Command> s;
  auto iteration = [&s](const char* vial, const char* slot) {
    s.push_back(cmd(kDosingDevice, "set_door", door_arg("open")));
    s.push_back(cmd(vial, "decap"));
    s.push_back(cmd(kViperX, "pick_object", site_arg(slot)));
    s.push_back(cmd(kViperX, "place_object", site_arg("dosing_device")));
    s.push_back(cmd(kViperX, "go_home"));
    s.push_back(cmd(kDosingDevice, "set_door", door_arg("closed")));
    s.push_back(cmd(kDosingDevice, "run_action", [] {
      json::Object o;
      o["quantity"] = 5.0;
      o["delay"] = 3;
      return o;
    }()));
    s.push_back(cmd(kDosingDevice, "stop_action"));
    s.push_back(cmd(kDosingDevice, "set_door", door_arg("open")));
    s.push_back(cmd(kViperX, "pick_object", site_arg("dosing_device")));
    s.push_back(cmd(kViperX, "place_object", site_arg(slot)));
    s.push_back(cmd(kViperX, "go_home"));
    s.push_back(cmd(kDosingDevice, "set_door", door_arg("closed")));
  };
  iteration(kVial1, "grid.NW");
  iteration(kVial2, "grid.SE");
  return s;
}

/// Insertion point "after ViperX first returns home mid-workflow".
std::size_t after_second_go_home(const StreamEditor& e) {
  return e.find(kViperX, "go_home", 1) + 1;
}

}  // namespace

// ---------------------------------------------------------------------------
// The 16-bug catalogue
// ---------------------------------------------------------------------------

const std::vector<BugSpec>& bug_catalogue() {
  static const std::vector<BugSpec> kCatalogue = [] {
    std::vector<BugSpec> bugs;

    // ---- High severity: breaking expensive equipment --------------------

    bugs.push_back(BugSpec{
        "H1", "bug-a-door-closed-entry",
        "Fig. 5 Bug A: the set_door(open) before retrieving the vial is omitted; "
        "ViperX drives into the dosing device's closed glass door.",
        BugCategory::DoorInteraction, Severity::High, core::Variant::Initial,
        [](const sim::LabBackend& b) {
          StreamEditor e(base_stream(b));
          e.erase(e.find(kDosingDevice, "set_door", 1, [](const json::Value& a) {
            return a.get_or("state", std::string()) == "open";
          }));
          return e.take();
        },
        base_stream});

    bugs.push_back(BugSpec{
        "H2", "door-closed-on-arm",
        "set_door(closed) is issued while ViperX is still inside the dosing device; "
        "the glass door swings into the arm (footnote 1 of the paper).",
        BugCategory::DoorInteraction, Severity::High, core::Variant::Initial,
        [](const sim::LabBackend& b) {
          StreamEditor e(base_stream(b));
          Vec3 pickup = site_local(b, kViperX, "dosing_device");
          std::size_t inside = e.find(kViperX, "move_to", 0, [&](const json::Value& a) {
            json::Value copy = a;
            Command probe;
            probe.args = copy;
            auto p = dev::position_arg(probe.args);
            return p && std::abs(p->x - pickup.x) < 1e-6 && std::abs(p->y - pickup.y) < 1e-6 &&
                   std::abs(p->z - pickup.z) < 1e-6;
          });
          e.insert(inside + 1, cmd(kDosingDevice, "set_door", door_arg("closed")));
          return e.take();
        },
        base_stream});

    bugs.push_back(BugSpec{
        "H3", "move-into-hotplate",
        "A waypoint's z coordinate is lowered so the target lies inside the hotplate "
        "body; the arm rams the station.",
        BugCategory::CoordinateChange, Severity::High, core::Variant::Initial,
        [](const sim::LabBackend& b) {
          StreamEditor e(base_stream(b));
          std::size_t at = after_second_go_home(e);
          e.insert(at, move_cmd(kViperX, lab_to_local(b, kViperX, Vec3(-0.35, 0.25, 0.08))));
          e.insert(at + 1, cmd(kViperX, "go_home"));
          return e.take();
        },
        [](const sim::LabBackend& b) {
          StreamEditor e(base_stream(b));
          std::size_t at = after_second_go_home(e);
          e.insert(at, move_cmd(kViperX, lab_to_local(b, kViperX, Vec3(-0.35, 0.25, 0.30))));
          e.insert(at + 1, cmd(kViperX, "go_home"));
          return e.take();
        }});

    bugs.push_back(BugSpec{
        "H4", "vial-left-in-dosing-device",
        "The retrieval of the vial from the dosing device is omitted (Fig. 1b line 15); "
        "the next iteration's vial crashes into the one left inside.",
        BugCategory::OrderChange, Severity::High, core::Variant::Initial,
        [](const sim::LabBackend& b) {
          StreamEditor e(composite_stream(b));
          std::size_t pick_back = e.find(kViperX, "pick_object", 0, [](const json::Value& a) {
            return a.get_or("site", std::string()) == "dosing_device";
          });
          e.erase(pick_back, 2);  // pick_object(dosing) + place_object(grid.NW)
          return e.take();
        },
        composite_stream});

    bugs.push_back(BugSpec{
        "H5", "hotplate-over-threshold",
        "The hotplate setpoint is raised past RABIT's configured 150 C threshold "
        "(still below the 340 C firmware limit).",
        BugCategory::ArgumentChange, Severity::High, core::Variant::Initial,
        [](const sim::LabBackend& b) {
          StreamEditor e(base_stream(b));
          e.append(cmd(kHotplate, "set_temperature", [] {
            json::Object o;
            o["celsius"] = 200.0;
            return o;
          }()));
          return e.take();
        },
        [](const sim::LabBackend& b) {
          StreamEditor e(base_stream(b));
          e.append(cmd(kHotplate, "set_temperature", [] {
            json::Object o;
            o["celsius"] = 120.0;
            return o;
          }()));
          return e.take();
        }});

    bugs.push_back(BugSpec{
        "H6", "enter-centrifuge-door-closed",
        "ViperX reaches into the centrifuge without opening its door first.",
        BugCategory::DoorInteraction, Severity::High, core::Variant::Initial,
        [](const sim::LabBackend& b) {
          StreamEditor e(base_stream(b));
          std::size_t at = after_second_go_home(e);
          e.insert(at, move_cmd(kViperX, lab_to_local(b, kViperX, Vec3(-0.45, 0.0, 0.30))));
          e.insert(at + 1, move_cmd(kViperX, site_local(b, kViperX, "centrifuge")));
          e.insert(at + 2, cmd(kViperX, "go_home"));
          return e.take();
        },
        [](const sim::LabBackend& b) {
          StreamEditor e(base_stream(b));
          std::size_t at = after_second_go_home(e);
          e.insert(at, cmd(kCentrifuge, "set_door", door_arg("open")));
          e.insert(at + 1, move_cmd(kViperX, lab_to_local(b, kViperX, Vec3(-0.45, 0.0, 0.30))));
          e.insert(at + 2, move_cmd(kViperX, site_local(b, kViperX, "centrifuge")));
          e.insert(at + 3,
                   move_cmd(kViperX, lab_to_local(b, kViperX, Vec3(-0.45, 0.0, 0.30))));
          e.insert(at + 4, cmd(kViperX, "go_home"));
          e.insert(at + 5, cmd(kCentrifuge, "set_door", door_arg("closed")));
          return e.take();
        }});

    // ---- Medium-high severity: platform, walls, grid, cheap arms --------

    bugs.push_back(BugSpec{
        "M1", "bug-b-two-arm-collision",
        "Fig. 5 Bug B: Ned2 is sent to a 'random' point near the grid while ViperX "
        "still hovers there; the arms collide.",
        BugCategory::ArmArmCollision, Severity::MediumHigh, core::Variant::Modified,
        [](const sim::LabBackend& b) {
          StreamEditor e(base_stream(b));
          // Before the final door-close, while ViperX is still at the grid.
          std::size_t at = e.find(kDosingDevice, "set_door", 1, [](const json::Value& a) {
            return a.get_or("state", std::string()) == "closed";
          });
          e.insert(at, move_cmd(kNed2, lab_to_local(b, kNed2, Vec3(0.30, 0.32, 0.28))));
          return e.take();
        },
        base_stream});

    bugs.push_back(BugSpec{
        "M2", "bug-d-platform-empty",
        "Fig. 6 Bug D (empty hand): the grid pickup height is edited to below the "
        "platform surface; the arm drives into the deck.",
        BugCategory::CoordinateChange, Severity::MediumHigh, core::Variant::Modified,
        [](const sim::LabBackend& b) {
          StreamEditor e(base_stream(b));
          Vec3 pickup = site_local(b, kViperX, "grid.NW");
          e.replace_position(kViperX, pickup, Vec3(pickup.x, pickup.y, -0.01));
          return e.take();
        },
        base_stream});

    bugs.push_back(BugSpec{
        "M3", "bug-d-platform-with-vial",
        "Fig. 6 Bug D (holding a vial): the dosing-device placement height is lowered "
        "from 0.08 to 0.06; the held vial crashes into the platform and shatters.",
        BugCategory::CoordinateChange, Severity::MediumHigh, core::Variant::Modified,
        [](const sim::LabBackend& b) {
          StreamEditor e(base_stream(b));
          Vec3 pickup = site_local(b, kViperX, "dosing_device");
          e.replace_position(kViperX, pickup, Vec3(pickup.x, pickup.y, 0.06));
          return e.take();
        },
        base_stream});

    bugs.push_back(BugSpec{
        "M4", "silent-skip-collision",
        "Footnote 2: a waypoint is edited to a clearly infeasible height; ViperX "
        "silently skips it and the direct path to the next waypoint sweeps through "
        "the grid.",
        BugCategory::CoordinateChange, Severity::MediumHigh, core::Variant::ModifiedWithSim,
        [](const sim::LabBackend& b) {
          StreamEditor e(base_stream(b));
          std::size_t at = after_second_go_home(e);
          e.insert(at, move_cmd(kViperX, lab_to_local(b, kViperX, Vec3(0.18, 0.30, 0.05))));
          e.insert(at + 1, move_cmd(kViperX, lab_to_local(b, kViperX, Vec3(0.35, 0.30, 2.0))));
          e.insert(at + 2, move_cmd(kViperX, lab_to_local(b, kViperX, Vec3(0.48, 0.30, 0.05))));
          e.insert(at + 3, cmd(kViperX, "go_home"));
          return e.take();
        },
        [](const sim::LabBackend& b) {
          StreamEditor e(base_stream(b));
          std::size_t at = after_second_go_home(e);
          e.insert(at, move_cmd(kViperX, lab_to_local(b, kViperX, Vec3(0.18, 0.30, 0.05))));
          e.insert(at + 1, move_cmd(kViperX, lab_to_local(b, kViperX, Vec3(0.35, 0.30, 0.32))));
          e.insert(at + 2, move_cmd(kViperX, lab_to_local(b, kViperX, Vec3(0.48, 0.30, 0.05))));
          e.insert(at + 3, cmd(kViperX, "go_home"));
          return e.take();
        }});

    bugs.push_back(BugSpec{
        "M5", "wall-collision",
        "Ned2 is sent to coordinates inside the east enclosure wall.",
        BugCategory::CoordinateChange, Severity::MediumHigh, core::Variant::Modified,
        [](const sim::LabBackend& b) {
          StreamEditor e(base_stream(b));
          std::size_t at = e.find(kNed2, "go_sleep", 0);
          e.insert(at, move_cmd(kNed2, lab_to_local(b, kNed2, Vec3(0.95, 0.2, 0.30))));
          return e.take();
        },
        [](const sim::LabBackend& b) {
          StreamEditor e(base_stream(b));
          std::size_t at = e.find(kNed2, "go_sleep", 0);
          e.insert(at, move_cmd(kNed2, lab_to_local(b, kNed2, Vec3(0.80, 0.2, 0.30))));
          return e.take();
        }});

    bugs.push_back(BugSpec{
        "M6", "frame-misalignment-brush",
        "ViperX is sent to a point just outside Ned2's *configured* parked cuboid "
        "but within reach of its real links — the ~3 cm frame-unification error of "
        "§IV category 2 made such margins untrustworthy.",
        BugCategory::ArmArmCollision, Severity::MediumHigh, std::nullopt,
        [](const sim::LabBackend& b) {
          StreamEditor e(base_stream(b));
          std::size_t at = after_second_go_home(e);
          e.insert(at, move_cmd(kViperX, lab_to_local(b, kViperX, Vec3(0.45, 0.175, 0.14))));
          e.insert(at + 1, cmd(kViperX, "go_home"));
          return e.take();
        },
        [](const sim::LabBackend& b) {
          StreamEditor e(base_stream(b));
          std::size_t at = after_second_go_home(e);
          e.insert(at, move_cmd(kViperX, lab_to_local(b, kViperX, Vec3(0.45, 0.32, 0.25))));
          e.insert(at + 1, cmd(kViperX, "go_home"));
          return e.take();
        }});

    // ---- Low severity: wasted chemicals ----------------------------------

    bugs.push_back(BugSpec{
        "L1", "overdose",
        "The dosing quantity is raised from 5 mg to 50 mg, five times the vial's "
        "capacity; the excess spills.",
        BugCategory::ArgumentChange, Severity::Low, core::Variant::Initial,
        [](const sim::LabBackend& b) {
          StreamEditor e(base_stream(b));
          e.set_arg(e.find(kDosingDevice, "run_action"), "quantity", json::Value(50.0));
          return e.take();
        },
        base_stream});

    bugs.push_back(BugSpec{
        "L2", "bug-c-missing-pickup",
        "Fig. 5 Bug C: the pick-up call is omitted; the rest of the experiment runs "
        "without a vial and the dose lands in an empty chamber.",
        BugCategory::MissingVial, Severity::Low, std::nullopt,
        [](const sim::LabBackend& b) {
          StreamEditor e(base_stream(b));
          // The five primitives of the first arm_pick_up expansion.
          e.erase(e.find(kViperX, "move_to", 0), 5);
          return e.take();
        },
        base_stream});

    bugs.push_back(BugSpec{
        "L3", "gripper-reorder",
        "open_gripper and close_gripper are reordered inside the pick-up helper "
        "(§IV category 3); the gripper closes on air and the vial stays behind.",
        BugCategory::MissingVial, Severity::Low, std::nullopt,
        [](const sim::LabBackend& b) {
          StreamEditor e(base_stream(b));
          e.swap(e.find(kViperX, "open_gripper", 0), e.find(kViperX, "close_gripper", 0));
          return e.take();
        },
        base_stream});

    // ---- Medium-low severity: glassware ----------------------------------

    bugs.push_back(BugSpec{
        "ML1", "place-onto-occupied-slot",
        "The return destination is changed from grid.NW to grid.SE, which already "
        "holds the spare vial; the released vial lands on it and the glass breaks.",
        BugCategory::CoordinateChange, Severity::MediumLow, core::Variant::Initial,
        [](const sim::LabBackend& b) {
          StreamEditor e(base_stream(b));
          Vec3 nw = site_local(b, kViperX, "grid.NW");
          Vec3 se = site_local(b, kViperX, "grid.SE");
          // Only the *second* visit to grid.NW pickup (the place) is edited.
          std::size_t place_move = e.find(kViperX, "move_to", 1, [&](const json::Value& a) {
            json::Value copy = a;
            Command probe;
            probe.args = copy;
            auto p = dev::position_arg(probe.args);
            return p && std::abs(p->x - nw.x) < 1e-6 && std::abs(p->y - nw.y) < 1e-6 &&
                   std::abs(p->z - nw.z) < 1e-6;
          });
          e.set_arg(place_move, "position", json::Array{se.x, se.y, se.z});
          return e.take();
        },
        base_stream});

    return bugs;
  }();
  return kCatalogue;
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

BugOutcome evaluate_stream(const std::vector<Command>& commands, core::Variant variant,
                           const trace::Supervisor::Options& options) {
  core::Lab lab(variant);
  trace::Supervisor supervisor(&lab.engine, &lab.backend, options);
  BugOutcome outcome;
  outcome.report = supervisor.run(commands);
  outcome.damaged = !outcome.report.damage.empty();
  outcome.damage_severity = outcome.report.max_damage_severity();
  outcome.alerted = outcome.report.first_alert_step.has_value();
  outcome.detected = outcome.report.alert_preceded_damage();
  if (outcome.alerted) {
    for (const trace::SupervisedStep& s : outcome.report.steps) {
      if (s.alert) {
        outcome.alert_rule = s.alert->rule;
        break;
      }
    }
  }
  return outcome;
}

BugOutcome evaluate_bug(const BugSpec& bug, core::Variant variant) {
  sim::LabBackend staging(sim::testbed_profile());
  sim::build_hein_testbed_deck(staging);
  return evaluate_stream(bug.build(staging), variant);
}

// ---------------------------------------------------------------------------
// Synthetic bug generation
// ---------------------------------------------------------------------------

namespace {

/// The mutation draw, generic over the RNG engine (see the header: the
/// std::mt19937_64 overload lets the scenario factory thread one master seed
/// chain through every generator).
template <class Rng>
SyntheticBug random_mutation_draw(const std::vector<Command>& base, Rng& rng) {
  if (base.empty()) throw std::invalid_argument("random_mutation: empty base stream");
  std::uniform_int_distribution<int> kind_dist(0, 3);
  std::uniform_int_distribution<std::size_t> index_dist(0, base.size() - 1);

  SyntheticBug bug;
  bug.commands = base;

  for (int attempt = 0; attempt < 64; ++attempt) {
    auto kind = static_cast<MutationKind>(kind_dist(rng));
    std::size_t index = index_dist(rng);
    Command& target = bug.commands[index];

    switch (kind) {
      case MutationKind::DeleteCommand: {
        bug.kind = kind;
        bug.target_index = index;
        bug.detail = "deleted " + target.describe();
        bug.commands.erase(bug.commands.begin() + static_cast<std::ptrdiff_t>(index));
        return bug;
      }
      case MutationKind::SwapAdjacent: {
        if (index + 1 >= bug.commands.size()) break;
        bug.kind = kind;
        bug.target_index = index;
        bug.detail = "swapped commands " + std::to_string(index) + " and " +
                     std::to_string(index + 1);
        std::swap(bug.commands[index], bug.commands[index + 1]);
        return bug;
      }
      case MutationKind::ScaleArgument: {
        if (!target.args.is_object()) break;
        // Scale the first numeric scalar argument found.
        for (auto& [key, value] : target.args.as_object()) {
          if (!value.is_number()) continue;
          const double factors[] = {10.0, 0.1, 3.0};
          double factor = factors[std::uniform_int_distribution<int>(0, 2)(rng)];
          bug.kind = kind;
          bug.target_index = index;
          bug.detail = "scaled " + target.device + "." + target.action + " " + key + " by " +
                       std::to_string(factor);
          value = json::Value(value.as_double() * factor);
          return bug;
        }
        break;
      }
      case MutationKind::ShiftCoordinate: {
        if (target.action != "move_to") break;
        json::Value* pos = target.args.as_object().find("position");
        if (pos == nullptr || !pos->is_array()) break;
        int axis = std::uniform_int_distribution<int>(0, 2)(rng);
        const double deltas[] = {0.05, -0.05, 0.15, -0.15, 0.4, -0.4};
        double delta = deltas[std::uniform_int_distribution<int>(0, 5)(rng)];
        json::Array& arr = pos->as_array();
        arr[static_cast<std::size_t>(axis)] =
            json::Value(arr[static_cast<std::size_t>(axis)].as_double() + delta);
        bug.kind = kind;
        bug.target_index = index;
        bug.detail = "shifted " + target.device + " move axis " + std::to_string(axis) +
                     " by " + std::to_string(delta);
        return bug;
      }
    }
  }
  // Fallback: guaranteed-applicable deletion.
  bug.kind = MutationKind::DeleteCommand;
  bug.target_index = 0;
  bug.detail = "deleted " + bug.commands.front().describe();
  bug.commands.erase(bug.commands.begin());
  return bug;
}

}  // namespace

SyntheticBug random_mutation(const std::vector<Command>& base, std::mt19937& rng) {
  return random_mutation_draw(base, rng);
}

SyntheticBug random_mutation(const std::vector<Command>& base, std::mt19937_64& rng) {
  return random_mutation_draw(base, rng);
}

}  // namespace rabit::bugs
