#include "core/rules.hpp"

#include <algorithm>
#include <sstream>

namespace rabit::core {

using dev::Command;
using dev::DeviceCategory;
using geom::Vec3;

namespace {

std::optional<double> arg_number(const Command& cmd, std::string_view key) {
  const json::Value* v = cmd.args.find(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  return v->as_double();
}

std::optional<std::string> arg_string(const Command& cmd, std::string_view key) {
  const json::Value* v = cmd.args.find(key);
  if (v == nullptr || !v->is_string()) return std::nullopt;
  return v->as_string();
}

double tracked_number(const StateTracker& tracker, std::string_view device,
                      std::string_view name, double fallback = 0.0) {
  const json::Value* v = tracker.find_var(device, name);
  return v != nullptr && v->is_number() ? v->as_double() : fallback;
}

std::string tracked_string(const StateTracker& tracker, std::string_view device,
                           std::string_view name) {
  const json::Value* v = tracker.find_var(device, name);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

/// Is this Hein's centrifuge? Identified structurally: an action device with
/// a rotor red-dot variable.
bool is_centrifuge(const DeviceMeta& meta, const StateTracker& tracker) {
  return meta.category == DeviceCategory::ActionDevice &&
         tracker.find_var(meta.id, "redDot") != nullptr;
}

}  // namespace

bool is_motion_command(const Command& cmd) {
  return cmd.action == "move_to" || cmd.action == "go_home" || cmd.action == "go_sleep" ||
         cmd.action == "pick_object" || cmd.action == "place_object";
}

std::optional<MotionAnalysis> analyze_motion(const EngineConfig& config,
                                             const StateTracker& tracker, const Command& cmd) {
  const DeviceMeta* meta = config.find_device(cmd.device);
  if (meta == nullptr || !meta->is_arm || !is_motion_command(cmd)) return std::nullopt;

  MotionAnalysis m;
  m.arm_id = meta->id;
  m.start_lab = tracker.arm_position_lab(meta->id);
  m.held_clearance = (config.variant != Variant::Initial && !tracker.arm_holding(meta->id).empty())
                         ? meta->held_clearance
                         : 0.0;

  if (cmd.action == "move_to") {
    std::optional<Vec3> local = dev::position_arg(cmd.args);
    if (!local) return std::nullopt;
    m.target_lab = meta->base.apply(*local);
  } else if (cmd.action == "go_home") {
    m.target_lab = meta->home_position_lab;
  } else if (cmd.action == "go_sleep") {
    m.target_lab = meta->sleep_position_lab;
  } else {  // pick_object / place_object
    auto site_name = arg_string(cmd, "site");
    if (!site_name) return std::nullopt;
    const SiteMeta* site = config.find_site(*site_name);
    if (site == nullptr) return std::nullopt;
    m.target_lab = site->lab_position;
  }

  if (cmd.action == "pick_object" || cmd.action == "place_object") {
    const std::array<Vec3, 3> legs = sim::composite_legs(m.start_lab, m.target_lab);
    m.waypoints = {m.start_lab, legs[0], legs[1], legs[2]};
  } else {
    m.waypoints = {m.start_lab, m.target_lab};
  }

  // Deliberate station interactions at either end of the motion.
  auto note_site = [&](const SiteMeta* site) {
    if (site == nullptr) return;
    if (site->is_grid_slot()) m.ignores.push_back(site->grid_device);
    if (site->is_receptacle()) {
      const DeviceMeta* station = config.find_device(site->receptacle_device);
      if (station == nullptr) return;
      // Doored receptacles are only a deliberate entry when the relevant
      // door is believed open; a closed door is rule G1's business.
      if (!station->multi_doors.empty() && station->box) {
        const DeviceMeta::DoorMeta& door = station->door_facing(m.start_lab);
        if (tracked_string(tracker, station->id, "door_" + door.name) == "open") {
          m.ignores.push_back(site->receptacle_device);
        }
      } else if (!station->has_door ||
                 tracked_string(tracker, station->id, "doorStatus") == "open") {
        m.ignores.push_back(site->receptacle_device);
      }
    }
  };
  note_site(config.site_near(m.start_lab));
  note_site(config.site_near(m.target_lab));
  // World models that contain this arm's own parked cuboid must not treat it
  // as an obstacle for its own motion.
  m.ignores.push_back(m.arm_id);
  return m;
}

std::string RuleBox::name() const {
  std::string out(prefix);
  out += id;
  return out;
}

bool RuleBox::named_in(const std::vector<std::string>& names) const {
  return std::any_of(names.begin(), names.end(), [this](const std::string& n) {
    return n.size() == prefix.size() + id.size() && n.starts_with(prefix) && n.ends_with(id);
  });
}

std::optional<RuleHit> check_target_location(const EngineConfig& config,
                                             const StateTracker& tracker,
                                             const MotionAnalysis& motion) {
  const Vec3& target = motion.target_lab;
  // The held vial: a slim box hanging held_clearance below the tip, as wide
  // as sim::check_point makes it by default.
  std::optional<geom::Aabb> held;
  if (motion.held_clearance > 0) {
    const double half = sim::PathCheckOptions{}.held_half_width;
    held = geom::Aabb(target - Vec3(half, half, motion.held_clearance),
                      target + Vec3(half, half, 0.0));
  }
  std::optional<RuleHit> hit;
  for_each_rule_box(config, tracker, motion.arm_id, [&](const RuleBox& b) {
    // Geometry first: most boxes miss, and a miss needs no name comparison.
    const bool tip_hit = b.contains(target);
    if (!tip_hit && !(held && b.intersects(*held))) return false;
    if (b.named_in(motion.ignores)) return false;
    const sim::CollisionReport report{b.name(), b.kind, target, /*via_held_object=*/!tip_hit,
                                      /*arm_vs_arm=*/false};
    hit = RuleHit{b.kind == sim::ObstacleKind::SoftWall ? "M2" : "G3",
                  motion.arm_id + " target location is occupied: " + report.describe()};
    return true;
  });
  return hit;
}

// ---------------------------------------------------------------------------
// Preconditions
// ---------------------------------------------------------------------------

namespace {

std::optional<RuleHit> check_motion_rules(const EngineConfig& config,
                                          const StateTracker& tracker, const Command& cmd,
                                          const DeviceMeta& meta) {
  auto motion = analyze_motion(config, tracker, cmd);
  if (!motion) {
    return RuleHit{"G3", cmd.device + "." + cmd.action + ": unresolvable motion target"};
  }

  // M1 — time multiplexing: while this arm moves, every other arm must be
  // parked in its sleep pose (§IV category 2 workaround).
  if (config.time_multiplex && config.variant != Variant::Initial) {
    for (const DeviceMeta& other : config.devices) {
      if (!other.is_arm || other.id == meta.id) continue;
      if (tracker.arm_pose(other.id) != "sleep") {
        return RuleHit{"M1", meta.id + " may not move while " + other.id +
                                 " is not in its sleep position (time multiplexing)"};
      }
    }
  }

  // M2 — space multiplexing: the software-defined wall.
  if (config.variant != Variant::Initial) {
    for (const SoftWallSpec& w : config.soft_walls) {
      if (w.arm_id == meta.id && w.forbidden.contains(motion->target_lab)) {
        return RuleHit{"M2", meta.id + " target crosses its software-defined wall"};
      }
    }
  }

  // S1 — sensor extension (§V-B): while a proximity sensor reports its zone
  // occupied, no arm may target a point inside that zone.
  for (const DeviceMeta& d : config.devices) {
    if (!d.is_sensor || !d.sensor_zone) continue;
    if (tracked_number(tracker, d.id, "occupied") == 1.0 &&
        d.sensor_zone->contains(motion->target_lab)) {
      return RuleHit{"S1", meta.id + " may not enter the zone of sensor '" + d.id +
                               "' while it reports a person present"};
    }
  }

  // G1 — no moving into a doored device unless its door is open. Multi-door
  // stations (§V-C extension) check the door guarding the approach side.
  for (const DeviceMeta& d : config.devices) {
    if (!d.box || (!d.has_door && d.multi_doors.empty())) continue;
    if (!d.box->inflated(0.01).contains(motion->target_lab)) continue;
    if (!d.multi_doors.empty()) {
      const DeviceMeta::DoorMeta& door = d.door_facing(motion->start_lab);
      std::string status = tracked_string(tracker, d.id, "door_" + door.name);
      if (status != "open") {
        return RuleHit{"G1", meta.id + " cannot enter " + d.id + " through door '" +
                                 door.name + "' (" + (status.empty() ? "unknown" : status) +
                                 ")"};
      }
    } else {
      std::string door = tracked_string(tracker, d.id, "doorStatus");
      if (door != "open") {
        return RuleHit{"G1", meta.id + " cannot move into " + d.id + " (door " +
                                 (door.empty() ? "unknown" : door) + ")"};
      }
    }
  }

  // G4 — pick only when empty-handed.
  if (cmd.action == "pick_object" && !tracker.arm_holding(meta.id).empty()) {
    return RuleHit{"G4", meta.id + " cannot pick up an object while holding '" +
                             tracker.arm_holding(meta.id) + "'"};
  }

  const SiteMeta* target_site = config.site_near(motion->target_lab);

  // G3 (placement form) — the destination spot must be believed free.
  if (cmd.action == "place_object" && target_site != nullptr) {
    std::string occupant = tracker.site_occupant(target_site->name);
    if (!occupant.empty()) {
      return RuleHit{"G3", "site '" + target_site->name + "' is already occupied by '" +
                               occupant + "'"};
    }
  }

  // Hein custom rules C2-C4 guard *placing a container into the centrifuge*.
  if (config.hein_custom_rules && cmd.action == "place_object" && target_site != nullptr &&
      target_site->is_receptacle()) {
    const DeviceMeta* station = config.find_device(target_site->receptacle_device);
    if (station != nullptr && is_centrifuge(*station, tracker)) {
      std::string held = tracker.arm_holding(meta.id);
      if (!held.empty()) {
        if (tracked_number(tracker, held, "solidMg") <= kVolumeEpsilon ||
            tracked_number(tracker, held, "liquidMl") <= kVolumeEpsilon) {
          return RuleHit{"C2", "container '" + held +
                                   "' must contain both a solid and a liquid before "
                                   "entering the centrifuge"};
        }
        if (tracked_string(tracker, station->id, "redDot") != "N") {
          return RuleHit{"C3", "centrifuge red dot must face North before loading"};
        }
        if (tracked_number(tracker, held, "hasStopper") != 1.0) {
          return RuleHit{"C4", "container '" + held +
                                   "' must have a stopper before entering the centrifuge"};
        }
      }
    }
  }

  // G3 (geometric form) — the target must not lie inside any modeled object.
  return check_target_location(config, tracker, *motion);
}

std::optional<RuleHit> check_gripper_rules(const EngineConfig& config,
                                           const StateTracker& tracker, const Command& cmd,
                                           const DeviceMeta& meta) {
  Vec3 tip = tracker.arm_position_lab(meta.id);
  const SiteMeta* site = config.site_near(tip);
  std::string held = tracker.arm_holding(meta.id);

  if (cmd.action == "close_gripper") {
    // G4 — grabbing at an occupied site while already holding something.
    if (!held.empty() && site != nullptr && !tracker.site_occupant(site->name).empty()) {
      return RuleHit{"G4", meta.id + " cannot grab at '" + site->name + "' while holding '" +
                               held + "'"};
    }
    return std::nullopt;
  }

  // open_gripper while holding: this is a placement.
  if (held.empty() || site == nullptr) return std::nullopt;

  std::string occupant = tracker.site_occupant(site->name);
  if (!occupant.empty()) {
    return RuleHit{"G3", "releasing '" + held + "' onto occupied site '" + site->name + "'"};
  }

  if (config.hein_custom_rules && site->is_receptacle()) {
    const DeviceMeta* station = config.find_device(site->receptacle_device);
    if (station != nullptr && is_centrifuge(*station, tracker)) {
      if (tracked_number(tracker, held, "solidMg") <= kVolumeEpsilon ||
          tracked_number(tracker, held, "liquidMl") <= kVolumeEpsilon) {
        return RuleHit{"C2", "container '" + held +
                                 "' must contain both a solid and a liquid before entering "
                                 "the centrifuge"};
      }
      if (tracked_string(tracker, station->id, "redDot") != "N") {
        return RuleHit{"C3", "centrifuge red dot must face North before loading"};
      }
      if (tracked_number(tracker, held, "hasStopper") != 1.0) {
        return RuleHit{"C4", "container '" + held +
                                 "' must have a stopper before entering the centrifuge"};
      }
    }
  }
  return std::nullopt;
}

std::optional<RuleHit> check_door_rules(const EngineConfig& config, const StateTracker& tracker,
                                        const Command& cmd, const DeviceMeta& meta) {
  auto state = arg_string(cmd, "state");
  if (!state) return std::nullopt;

  if (*state == "closed") {
    // G2 — never close a door onto an arm believed inside.
    for (const DeviceMeta& other : config.devices) {
      if (!other.is_arm) continue;
      if (tracker.arm_inside(other.id) == meta.id) {
        return RuleHit{"G2", "door of " + meta.id + " cannot close while " + other.id +
                                 " is inside"};
      }
    }
  } else if (*state == "open") {
    // G10 — the door stays closed while the station is running.
    if (tracked_number(tracker, meta.id, "running") == 1.0 ||
        tracked_number(tracker, meta.id, "spinning") == 1.0 ||
        tracked_number(tracker, meta.id, "active") == 1.0) {
      return RuleHit{"G10", "door of " + meta.id + " must stay closed while it is running"};
    }
  }
  return std::nullopt;
}

std::optional<RuleHit> check_active_action_rules(const EngineConfig& config,
                                                 const StateTracker& tracker, const Command& cmd,
                                                 const DeviceMeta& meta) {
  // G9 — doored stations act only behind closed doors (every door, for
  // multi-door stations).
  if (meta.has_door && tracked_string(tracker, meta.id, "doorStatus") != "closed") {
    return RuleHit{"G9", meta.id + " must have its door closed before '" + cmd.action + "'"};
  }
  for (const DeviceMeta::DoorMeta& door : meta.multi_doors) {
    if (tracked_string(tracker, meta.id, "door_" + door.name) != "closed") {
      return RuleHit{"G9", meta.id + " must have door '" + door.name + "' closed before '" +
                               cmd.action + "'"};
    }
  }

  if (meta.category == DeviceCategory::ActionDevice) {
    const SiteMeta* site = config.receptacle_site(meta.id);
    if (site != nullptr) {
      std::string occupant = tracker.site_occupant(site->name);
      // G5 — action devices act only on a container inside them.
      if (occupant.empty()) {
        return RuleHit{"G5", meta.id + " cannot perform '" + cmd.action +
                                 "' without a container inside"};
      }
      // G6 — and that container must not be empty.
      if (tracked_number(tracker, occupant, "solidMg") <= kVolumeEpsilon &&
          tracked_number(tracker, occupant, "liquidMl") <= kVolumeEpsilon) {
        return RuleHit{"G6", meta.id + " cannot perform '" + cmd.action + "' on empty '" +
                                 occupant + "'"};
      }
    }
  }

  // Dosing transfer rules for the solid dosing device.
  if (meta.category == DeviceCategory::DosingSystem && cmd.action == "run_action") {
    const SiteMeta* site = config.receptacle_site(meta.id);
    std::string occupant = site != nullptr ? tracker.site_occupant(site->name) : std::string();
    if (!occupant.empty()) {
      // G7 — no transfer through a stopper.
      if (tracked_number(tracker, occupant, "hasStopper") == 1.0) {
        return RuleHit{"G7", "cannot dose into '" + occupant + "' while it has a stopper"};
      }
      // G8 — the receiving container must have room for the dose.
      auto quantity = arg_number(cmd, "quantity");
      const DeviceMeta* vial_meta = config.find_device(occupant);
      if (quantity && vial_meta != nullptr && vial_meta->capacity_mg > 0) {
        double current = tracked_number(tracker, occupant, "solidMg");
        if (current + *quantity > vial_meta->capacity_mg + kVolumeEpsilon) {
          std::ostringstream os;
          os << "dose of " << *quantity << " mg exceeds remaining capacity of '" << occupant
             << "' (" << vial_meta->capacity_mg - current << " mg free)";
          return RuleHit{"G8", os.str()};
        }
      }
    }
    // No vial believed inside: nothing in Table III forbids a dry run — this
    // is exactly why Bug C (experiment without a vial) goes undetected.
  }
  return std::nullopt;
}

std::optional<RuleHit> check_pump_rules(const EngineConfig& config, const StateTracker& tracker,
                                        const Command& cmd, const DeviceMeta& meta) {
  auto volume = arg_number(cmd, "volume");
  auto target = arg_string(cmd, "target");
  if (!volume || !target) return std::nullopt;

  // G8 — the delivering syringe must actually hold enough.
  if (tracked_number(tracker, meta.id, "heldMl") + kVolumeEpsilon < *volume) {
    return RuleHit{"G8", meta.id + " has not drawn enough solvent to dispense " +
                             std::to_string(*volume) + " mL"};
  }
  const DeviceMeta* vial_meta = config.find_device(*target);
  if (vial_meta == nullptr) {
    return RuleHit{"G8", meta.id + ": unknown target container '" + *target + "'"};
  }
  // G7 — no transfer through a stopper.
  if (tracked_number(tracker, *target, "hasStopper") == 1.0) {
    return RuleHit{"G7", "cannot dose into '" + *target + "' while it has a stopper"};
  }
  // G8 — receiving container must have room.
  if (vial_meta->capacity_ml > 0) {
    double current = tracked_number(tracker, *target, "liquidMl");
    if (current + *volume > vial_meta->capacity_ml + kVolumeEpsilon) {
      return RuleHit{"G8", "dose of " + std::to_string(*volume) + " mL overflows '" + *target +
                               "'"};
    }
  }
  // C1 — Hein custom: liquid goes in only after solid.
  if (config.hein_custom_rules &&
      tracked_number(tracker, *target, "solidMg") <= kVolumeEpsilon) {
    return RuleHit{"C1", "liquid may be added to '" + *target +
                             "' only after it already contains solid"};
  }
  return std::nullopt;
}

}  // namespace

std::optional<RuleHit> check_preconditions(const EngineConfig& config,
                                           const StateTracker& tracker, const Command& cmd) {
  const DeviceMeta* meta = config.find_device(cmd.device);
  if (meta == nullptr) {
    return RuleHit{"G3", "command addresses unknown device '" + cmd.device + "'"};
  }

  // G11 — action values must stay below their configured thresholds.
  if (const ThresholdSpec* threshold = meta->threshold_for(cmd.action)) {
    if (auto value = arg_number(cmd, threshold->argument); value && *value > threshold->max) {
      std::ostringstream os;
      os << meta->id << "." << cmd.action << ": " << threshold->argument << "=" << *value
         << " exceeds the predefined threshold " << threshold->max;
      return RuleHit{"G11", os.str()};
    }
  }

  if (meta->is_arm) {
    if (is_motion_command(cmd)) return check_motion_rules(config, tracker, cmd, *meta);
    if (cmd.action == "open_gripper" || cmd.action == "close_gripper") {
      return check_gripper_rules(config, tracker, cmd, *meta);
    }
    return std::nullopt;
  }

  if (cmd.action == "set_door" && (meta->has_door || !meta->multi_doors.empty())) {
    return check_door_rules(config, tracker, cmd, *meta);
  }
  if (meta->is_active_action(cmd.action)) {
    return check_active_action_rules(config, tracker, cmd, *meta);
  }
  if (cmd.action == "dose_solvent") {
    return check_pump_rules(config, tracker, cmd, *meta);
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Transition table (Table II)
// ---------------------------------------------------------------------------

std::vector<TransitionEntry> transition_table() {
  using C = DeviceCategory;
  return {
      {C::RobotArm, "move_to", "deviceDoorStatus[target device] = open; target not occupied",
       "position = target; robotArmInside updated", "G1, G3, M1, M2"},
      {C::RobotArm, "pick_object", "robotArmHolding = none; object present at site",
       "robotArmHolding = object; site free", "G4"},
      {C::RobotArm, "place_object", "robotArmHolding = object; site free",
       "robotArmHolding = none; site = object", "G3, C2, C3, C4"},
      {C::RobotArm, "go_home", "same as move_to", "pose = home", "G1, G3, M1, M2"},
      {C::RobotArm, "go_sleep", "same as move_to", "pose = sleep", "G1, G3, M1, M2"},
      {C::RobotArm, "open_gripper", "release site free (when holding)",
       "gripper = open; held object seated at site", "G3, C2, C3, C4"},
      {C::RobotArm, "close_gripper", "not grabbing while holding",
       "gripper = closed; object at site now held", "G4"},
      {C::DosingSystem, "set_door", "no arm inside when closing; not running when opening",
       "doorStatus = state", "G2, G10"},
      {C::DosingSystem, "run_action", "door closed; no stopper; dose fits receiving container",
       "running = 1; container solid += quantity", "G7, G8, G9"},
      {C::DosingSystem, "stop_action", "none", "running = 0", ""},
      {C::DosingSystem, "dose_solvent",
       "syringe filled; no stopper; volume fits; container has solid",
       "heldMl -= volume; container liquid += volume", "G7, G8, C1"},
      {C::ActionDevice, "start_spin / shake / stir",
       "container inside; container not empty; door closed; value below threshold",
       "device active", "G5, G6, G9, G11"},
      {C::ActionDevice, "set_temperature", "value below predefined threshold",
       "targetC = value", "G11"},
      {C::ActionDevice, "set_door", "no arm inside when closing; not active when opening",
       "doorStatus = state", "G2, G10"},
      {C::Container, "decap / recap", "none", "hasStopper updated", ""},
  };
}

}  // namespace rabit::core
