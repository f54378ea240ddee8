#include "core/tracker.hpp"

#include <algorithm>
#include <cmath>

namespace rabit::core {

using dev::Command;
using geom::Vec3;

namespace {

bool values_match(const json::Value& a, const json::Value& b) {
  if (a.is_number() && b.is_number()) {
    return std::abs(a.as_double() - b.as_double()) <= 1e-6;
  }
  if (a.is_array() && b.is_array()) {
    const json::Array& aa = a.as_array();
    const json::Array& bb = b.as_array();
    if (aa.size() != bb.size()) return false;
    for (std::size_t i = 0; i < aa.size(); ++i) {
      if (!values_match(aa[i], bb[i])) return false;
    }
    return true;
  }
  return a == b;
}

Vec3 vec3_from_position_arg(const json::Value& args) {
  std::optional<Vec3> position = dev::position_arg(args);
  if (!position) throw std::runtime_error("StateTracker: move_to without a [x,y,z] position");
  return *position;
}

}  // namespace

StateTracker::StateTracker(const EngineConfig* config) : config_(config) {
  if (config_ == nullptr) throw std::invalid_argument("StateTracker: null config");
}

void StateTracker::initialize(const dev::LabStateSnapshot& observed) {
  state_.clear();
  arm_lab_positions_.clear();
  site_occupancy_.clear();

  // Symbolic baseline from the researcher-entered configuration...
  for (const DeviceMeta& meta : config_->devices) {
    state_[meta.id] = meta.initial_state;
    if (meta.is_arm) arm_lab_positions_[meta.id] = meta.home_position_lab;
  }
  // ...overlaid with everything the status commands actually report.
  resync(observed);

  // Arms report their tip position in their own frame.
  for (const DeviceMeta& meta : config_->devices) {
    if (!meta.is_arm) continue;
    if (const json::Value* pos = find_var(meta.id, "position");
        pos != nullptr && pos->is_array() && pos->as_array().size() == 3) {
      const json::Array& p = pos->as_array();
      arm_lab_positions_[meta.id] =
          meta.base.apply(Vec3(p[0].as_double(), p[1].as_double(), p[2].as_double()));
    }
  }

  // Initial vial placement: a vial's configured location names the site it
  // starts at.
  for (const DeviceMeta& meta : config_->devices) {
    if (meta.category != dev::DeviceCategory::Container || meta.is_arm) continue;
    const json::Value* loc = find_var(meta.id, "location");
    if (loc != nullptr && loc->is_string() && config_->find_site(loc->as_string()) != nullptr) {
      site_occupancy_[loc->as_string()] = meta.id;
    }
  }
}

const json::Value& StateTracker::var(std::string_view device, std::string_view name) const {
  if (const json::Value* v = find_var(device, name)) return *v;
  throw std::out_of_range("StateTracker: no tracked variable " + std::string(device) + "." +
                          std::string(name));
}

const json::Value* StateTracker::find_var(std::string_view device, std::string_view name) const {
  auto dev_it = state_.find(device);
  if (dev_it == state_.end()) return nullptr;
  auto var_it = dev_it->second.find(name);
  return var_it == dev_it->second.end() ? nullptr : &var_it->second;
}

void StateTracker::set_var(std::string_view device, std::string_view name, json::Value value) {
  state_[std::string(device)][std::string(name)] = std::move(value);
  if (std::find(touched_.begin(), touched_.end(), device) == touched_.end()) {
    touched_.emplace_back(device);
  }
}

std::string StateTracker::arm_holding(std::string_view arm) const {
  const json::Value* v = find_var(arm, "holding");
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

std::string StateTracker::arm_pose(std::string_view arm) const {
  const json::Value* v = find_var(arm, "pose");
  return v != nullptr && v->is_string() ? v->as_string() : std::string("custom");
}

std::string StateTracker::arm_inside(std::string_view arm) const {
  const json::Value* v = find_var(arm, "inside");
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

Vec3 StateTracker::arm_position_lab(std::string_view arm) const {
  auto it = arm_lab_positions_.find(arm);
  if (it == arm_lab_positions_.end()) {
    throw std::out_of_range("StateTracker: unknown arm '" + std::string(arm) + "'");
  }
  return it->second;
}

std::string StateTracker::site_occupant(std::string_view site_name) const {
  auto it = site_occupancy_.find(site_name);
  return it == site_occupancy_.end() ? std::string() : it->second;
}

void StateTracker::seat(std::string_view site_name, std::string vial_id) {
  site_occupancy_[std::string(site_name)] = std::move(vial_id);
}

void StateTracker::unseat(std::string_view site_name) {
  site_occupancy_.erase(std::string(site_name));
}

// ---------------------------------------------------------------------------
// Postconditions (UpdateState)
// ---------------------------------------------------------------------------

void StateTracker::apply_postconditions(const Command& cmd) {
  const DeviceMeta* meta = config_->find_device(cmd.device);
  if (meta == nullptr) return;  // unknown device: nothing to track
  if (meta->is_arm) {
    apply_arm_postconditions(*meta, cmd);
  } else {
    apply_station_postconditions(*meta, cmd);
  }
}

void StateTracker::apply_arm_postconditions(const DeviceMeta& meta, const Command& cmd) {
  const std::string& arm = meta.id;
  auto set_lab_position = [&](const Vec3& lab) {
    arm_lab_positions_[arm] = lab;
    Vec3 local = meta.base.inverse().apply(lab);
    set_var(arm, "position", json::Array{local.x, local.y, local.z});
    // Which doored station does the tip now sit inside (if any)?
    std::string inside;
    for (const DeviceMeta& d : config_->devices) {
      if (!d.box || (!d.has_door && d.multi_doors.empty())) continue;
      if (d.box->inflated(0.01).contains(lab)) {
        inside = d.id;
        break;
      }
    }
    set_var(arm, "inside", inside);
  };

  if (cmd.action == "move_to") {
    set_lab_position(meta.base.apply(vec3_from_position_arg(cmd.args)));
    set_var(arm, "pose", "custom");
  } else if (cmd.action == "go_home") {
    set_lab_position(meta.home_position_lab);
    set_var(arm, "pose", "home");
  } else if (cmd.action == "go_sleep") {
    set_lab_position(meta.sleep_position_lab);
    set_var(arm, "pose", "sleep");
  } else if (cmd.action == "open_gripper") {
    set_var(arm, "gripper", "open");
    track_release(meta);
  } else if (cmd.action == "close_gripper") {
    set_var(arm, "gripper", "closed");
    track_grab(meta);
  } else if (cmd.action == "pick_object") {
    if (const json::Value* site_arg = cmd.args.find("site"); site_arg != nullptr) {
      if (const SiteMeta* site = config_->find_site(site_arg->as_string())) {
        set_lab_position(site->lab_position);
        set_var(arm, "pose", "custom");
        set_var(arm, "gripper", "closed");
        track_grab(meta);
      }
    }
  } else if (cmd.action == "place_object") {
    if (const json::Value* site_arg = cmd.args.find("site"); site_arg != nullptr) {
      if (const SiteMeta* site = config_->find_site(site_arg->as_string())) {
        set_lab_position(site->lab_position);
        set_var(arm, "pose", "custom");
        set_var(arm, "gripper", "open");
        track_release(meta);
      }
    }
  }
}

void StateTracker::track_grab(const DeviceMeta& arm_meta) {
  if (!arm_holding(arm_meta.id).empty()) return;  // gripper already loaded
  const SiteMeta* site = config_->site_near(arm_position_lab(arm_meta.id));
  if (site == nullptr) return;
  std::string occupant = site_occupant(site->name);
  if (occupant.empty()) return;
  set_var(arm_meta.id, "holding", occupant);
  set_var(occupant, "location", "arm:" + arm_meta.id);
  unseat(site->name);
}

void StateTracker::track_release(const DeviceMeta& arm_meta) {
  std::string held = arm_holding(arm_meta.id);
  if (held.empty()) return;
  set_var(arm_meta.id, "holding", "");
  const SiteMeta* site = config_->site_near(arm_position_lab(arm_meta.id));
  if (site != nullptr) {
    seat(site->name, held);
    set_var(held, "location", site->name);
  } else {
    set_var(held, "location", "unknown");
  }
}

void StateTracker::apply_station_postconditions(const DeviceMeta& meta, const Command& cmd) {
  const std::string& id = meta.id;
  auto arg_number = [&](std::string_view key) -> std::optional<double> {
    const json::Value* v = cmd.args.find(key);
    return v != nullptr && v->is_number() ? std::optional<double>(v->as_double()) : std::nullopt;
  };
  auto bump_active = [&](double driving_value, double idle_value) {
    if (find_var(id, "active") != nullptr) {
      set_var(id, "active", driving_value > idle_value ? 1 : var(id, "active").as_int());
    }
  };

  if (cmd.action == "set_door") {
    if (const json::Value* s = cmd.args.find("state"); s != nullptr && s->is_string()) {
      const std::string& state = s->as_string();
      if (state == "open" || state == "closed") {
        const json::Value* door = cmd.args.find("door");
        if (door != nullptr && door->is_string()) {
          set_var(id, "door_" + door->as_string(), state);  // multi-door station
        } else {
          set_var(id, "doorStatus", state);
        }
      }
    }
  } else if (cmd.action == "run_action") {
    set_var(id, "running", 1);
    // Expected outcome: the requested dose lands in the vial believed to be
    // in the chamber.
    if (auto quantity = arg_number("quantity")) {
      for (const SiteMeta& site : config_->sites) {
        if (site.receptacle_device != id) continue;
        std::string occupant = site_occupant(site.name);
        if (!occupant.empty() && find_var(occupant, "solidMg") != nullptr) {
          set_var(occupant, "solidMg", var(occupant, "solidMg").as_double() + *quantity);
        }
      }
    }
  } else if (cmd.action == "stop_action") {
    set_var(id, "running", 0);
  } else if (cmd.action == "draw_solvent") {
    if (auto volume = arg_number("volume")) {
      if (const json::Value* v = find_var(id, "reservoirMl")) {
        set_var(id, "reservoirMl", v->as_double() - *volume);
      }
      if (const json::Value* v = find_var(id, "heldMl")) {
        set_var(id, "heldMl", v->as_double() + *volume);
      }
    }
  } else if (cmd.action == "dose_solvent") {
    auto volume = arg_number("volume");
    const json::Value* target = cmd.args.find("target");
    if (volume && target != nullptr && target->is_string()) {
      if (const json::Value* v = find_var(id, "heldMl")) {
        set_var(id, "heldMl", v->as_double() - *volume);
      }
      const std::string& vial = target->as_string();
      if (find_var(vial, "liquidMl") != nullptr) {
        set_var(vial, "liquidMl", var(vial, "liquidMl").as_double() + *volume);
      }
    }
  } else if (cmd.action == "set_temperature") {
    if (auto celsius = arg_number("celsius")) {
      set_var(id, "targetC", *celsius);
      bump_active(*celsius, 25.0);
    }
  } else if (cmd.action == "stir") {
    if (auto rpm = arg_number("rpm")) {
      set_var(id, "stirRpm", *rpm);
      bump_active(*rpm, 0.0);
    }
  } else if (cmd.action == "shake") {
    if (auto rpm = arg_number("rpm")) {
      set_var(id, "shakeRpm", *rpm);
      bump_active(*rpm, 0.0);
    }
  } else if (cmd.action == "stop") {
    if (find_var(id, "targetC") != nullptr) set_var(id, "targetC", 25.0);
    if (find_var(id, "stirRpm") != nullptr) set_var(id, "stirRpm", 0.0);
    if (find_var(id, "shakeRpm") != nullptr) set_var(id, "shakeRpm", 0.0);
    if (find_var(id, "active") != nullptr) set_var(id, "active", 0);
  } else if (cmd.action == "rotate_platter") {
    if (const json::Value* o = cmd.args.find("orientation"); o != nullptr && o->is_string()) {
      set_var(id, "redDot", o->as_string());
    }
  } else if (cmd.action == "start_spin") {
    set_var(id, "spinning", 1);
  } else if (cmd.action == "stop_spin") {
    set_var(id, "spinning", 0);
  } else if (cmd.action == "decap") {
    set_var(id, "hasStopper", 0);
  } else if (cmd.action == "recap") {
    set_var(id, "hasStopper", 1);
  } else if (cmd.action == "add_solid") {
    if (auto amount = arg_number("amount"); amount && find_var(id, "solidMg") != nullptr) {
      set_var(id, "solidMg", var(id, "solidMg").as_double() + *amount);
    }
  } else if (cmd.action == "add_liquid") {
    if (auto volume = arg_number("volume"); volume && find_var(id, "liquidMl") != nullptr) {
      set_var(id, "liquidMl", var(id, "liquidMl").as_double() + *volume);
    }
  } else if (cmd.action == "start") {
    if (find_var(id, "active") != nullptr) set_var(id, "active", 1);
  } else {
    // Config-declared value actions (generic devices): action sets variable
    // from its argument.
    for (const ValueBinding& vb : meta.value_bindings) {
      if (vb.action != cmd.action) continue;
      if (auto value = arg_number(vb.argument)) set_var(id, vb.variable, *value);
    }
  }
  // measure_solubility and other unknown actions have no tracked
  // postconditions.
}

// ---------------------------------------------------------------------------
// Comparison and resync
// ---------------------------------------------------------------------------

void StateTracker::diff_device(const std::string& device, const dev::StateMap& actual,
                               std::vector<std::string>& out) const {
  auto tracked = state_.find(device);
  if (tracked == state_.end()) return;  // not modeled; cannot judge
  const DeviceMeta* meta = config_->find_device(device);
  for (const auto& [name, value] : actual) {
    if (meta != nullptr && std::find(meta->unchecked_vars.begin(), meta->unchecked_vars.end(),
                                     name) != meta->unchecked_vars.end()) {
      continue;
    }
    auto expected = tracked->second.find(name);
    if (expected == tracked->second.end()) continue;  // not modeled; cannot judge
    if (!values_match(expected->second, value)) out.push_back(device + "." + name);
  }
}

void StateTracker::resync_device(const std::string& device, const dev::StateMap& actual) {
  if (actual.empty()) return;
  dev::StateMap& tracked = state_[device];
  for (const auto& [name, value] : actual) tracked[name] = value;
}

std::vector<std::string> StateTracker::mismatches(const dev::LabStateSnapshot& observed) const {
  std::vector<std::string> out;
  for (const auto& [device, vars] : observed) diff_device(device, vars, out);
  return out;
}

void StateTracker::resync(const dev::LabStateSnapshot& observed) {
  for (const auto& [device, vars] : observed) resync_device(device, vars);
  synced_revisions_.clear();
  touched_.clear();
}

bool StateTracker::synced(const dev::ObservedLab& observed, std::size_t index) const {
  const dev::ObservedLab::Entry& entry = observed.entries[index];
  return index < synced_revisions_.size() && synced_revisions_[index] == entry.revision &&
         std::find(touched_.begin(), touched_.end(), *entry.device) == touched_.end();
}

std::vector<std::string> StateTracker::mismatches(const dev::ObservedLab& observed) const {
  std::vector<const dev::ObservedLab::Entry*> unsynced;
  for (std::size_t i = 0; i < observed.entries.size(); ++i) {
    if (!synced(observed, i)) unsynced.push_back(&observed.entries[i]);
  }
  devices_diffed_ += unsynced.size();
  // Snapshot key order, as the full form walks it.
  std::sort(unsynced.begin(), unsynced.end(),
            [](const auto* a, const auto* b) { return *a->device < *b->device; });
  std::vector<std::string> out;
  for (const dev::ObservedLab::Entry* entry : unsynced) {
    diff_device(*entry->device, *entry->state, out);
  }
  return out;
}

void StateTracker::resync(const dev::ObservedLab& observed) {
  for (std::size_t i = 0; i < observed.entries.size(); ++i) {
    if (synced(observed, i)) continue;
    const dev::ObservedLab::Entry& entry = observed.entries[i];
    resync_device(*entry.device, *entry.state);
    if (i < synced_revisions_.size()) {
      synced_revisions_[i] = entry.revision;
    } else {
      synced_revisions_.push_back(entry.revision);  // every later entry is unsynced: i == size()
    }
  }
  touched_.clear();
}

}  // namespace rabit::core
