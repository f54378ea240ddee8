#include "devices/device.hpp"

#include <algorithm>
#include <cmath>

namespace rabit::dev {

std::string_view to_string(DeviceCategory c) {
  switch (c) {
    case DeviceCategory::Container: return "container";
    case DeviceCategory::RobotArm: return "robot_arm";
    case DeviceCategory::DosingSystem: return "dosing_system";
    case DeviceCategory::ActionDevice: return "action_device";
  }
  return "unknown";
}

std::optional<DeviceCategory> parse_device_category(std::string_view name) {
  if (name == "container") return DeviceCategory::Container;
  if (name == "robot_arm") return DeviceCategory::RobotArm;
  if (name == "dosing_system") return DeviceCategory::DosingSystem;
  if (name == "action_device") return DeviceCategory::ActionDevice;
  return std::nullopt;
}

std::optional<geom::Vec3> position_arg(const json::Value& args) {
  const json::Value* pos = args.find("position");
  if (pos == nullptr || !pos->is_array() || pos->as_array().size() != 3) return std::nullopt;
  const json::Array& p = pos->as_array();
  for (const json::Value& coordinate : p) {
    if (!coordinate.is_number() || !std::isfinite(coordinate.as_double())) return std::nullopt;
  }
  return geom::Vec3(p[0].as_double(), p[1].as_double(), p[2].as_double());
}

std::string Command::describe() const {
  std::string out = device + "." + action + "(";
  bool first = true;
  if (args.is_object()) {
    for (const auto& [k, v] : args.as_object()) {
      if (!first) out += ", ";
      first = false;
      out += k + "=" + json::serialize(v);
    }
  }
  out += ")";
  if (source_line > 0) out += " @line " + std::to_string(source_line);
  return out;
}

std::vector<std::string> diff(const LabStateSnapshot& a, const LabStateSnapshot& b) {
  std::vector<std::string> out;
  auto scan = [&out](const LabStateSnapshot& lhs, const LabStateSnapshot& rhs, bool both_sides) {
    for (const auto& [dev_id, vars] : lhs) {
      auto rhs_dev = rhs.find(dev_id);
      if (rhs_dev == rhs.end()) {
        out.push_back(dev_id + ".*");
        continue;
      }
      for (const auto& [var, value] : vars) {
        auto rhs_var = rhs_dev->second.find(var);
        if (rhs_var == rhs_dev->second.end() || !(rhs_var->second == value)) {
          out.push_back(dev_id + "." + var);
        }
      }
      if (both_sides) {
        // Variables present only on the rhs.
        for (const auto& [var, value] : rhs_dev->second) {
          (void)value;
          if (vars.find(var) == vars.end()) out.push_back(dev_id + "." + var);
        }
      }
    }
  };
  scan(a, b, /*both_sides=*/true);
  for (const auto& [dev_id, vars] : b) {
    (void)vars;
    if (a.find(dev_id) == a.end()) out.push_back(dev_id + ".*");
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool FaultPlan::is_dead(std::string_view action) const {
  return std::find(dead_actions.begin(), dead_actions.end(), action) != dead_actions.end();
}

// ---------------------------------------------------------------------------
// Device
// ---------------------------------------------------------------------------

Device::Device(std::string id, DeviceCategory category)
    : id_(std::move(id)), category_(category) {
  if (id_.empty()) throw std::invalid_argument("Device: empty id");
}

StateMap Device::observed_state() const {
  StateMap out = state_;
  for (const auto& [var, value] : fault_.reported_overrides) out[var] = value;
  if (!receptacle_.empty()) out.erase(receptacle_);
  return out;
}

const Door& Device::named_door(std::string_view name) const {
  for (const Door& d : doors_) {
    if (d.name == name) return d;
  }
  throw DeviceError(DeviceError::Code::BadArgument,
                    id_ + ": unknown door '" + std::string(name) + "'");
}

const std::string& Device::door_status(std::string_view door) const {
  static const std::string kNone = "none";
  if (doors_.empty()) return kNone;
  return var(named_door(door).variable).as_string();
}

void Device::break_door(std::string_view door) {
  if (doors_.empty()) return;
  const Door& d = named_door(door);
  var(d.variable) = "broken";
  note_hazard(d.hazard, Severity::High);
}

const Door& Device::door_facing(const geom::Vec3& from_lab) const {
  if (doors_.empty()) throw std::logic_error(id_ + ": door_facing on a doorless device");
  std::optional<geom::Aabb> fp = footprint();
  return dev::door_facing(doors_, fp ? fp->center() : from_lab, from_lab);
}

void Device::add_door(std::string name, const geom::Vec3& direction, std::string hazard) {
  if (!doors_.empty() && (name.empty() || doors_.front().name.empty())) {
    throw std::logic_error(id_ + ": an unnamed door must be the station's only door");
  }
  std::string variable = name.empty() ? std::string("doorStatus") : "door_" + name;
  set_var(variable, "closed");
  doors_.push_back(Door{std::move(name), std::move(variable), direction, std::move(hazard)});
  if (doors_.size() > 1) return;
  register_action("set_door", [this](const json::Value& args) {
    const bool named = !doors_.front().name.empty();
    std::string door = named ? require_string(args, "door") : std::string();
    std::string state = require_string(args, "state");
    if (state != "open" && state != "closed") {
      throw DeviceError(DeviceError::Code::BadArgument,
                        "set_door: state must be 'open' or 'closed', got '" + state + "'");
    }
    if (door_status(door) == "broken") {
      throw DeviceError(DeviceError::Code::InvalidState,
                        id_ + (named ? ": door '" + door + "' actuator is broken"
                                     : std::string(": door actuator is broken")));
    }
    var(named_door(door).variable) = state;
  });
}

void Device::add_receptacle(std::string variable) {
  set_var(variable, "");
  receptacle_ = std::move(variable);
}

const std::string& Device::container_inside() const {
  static const std::string kEmpty;
  return receptacle_.empty() ? kEmpty : var(receptacle_).as_string();
}

void Device::set_container_inside(std::string vial_id) {
  if (!receptacle_.empty()) var(receptacle_) = std::move(vial_id);
}

void Device::execute(const Command& cmd) {
  auto it = handlers_.find(cmd.action);
  if (it == handlers_.end()) {
    throw DeviceError(DeviceError::Code::UnknownAction,
                      id_ + ": unknown action '" + cmd.action + "'");
  }
  if (fault_.is_dead(cmd.action)) {
    // A malfunctioning device accepts the command but nothing happens — the
    // divergence surfaces later via the status command.
    return;
  }
  it->second(cmd.args);
}

std::vector<Hazard> Device::take_hazards() {
  std::vector<Hazard> out = std::move(hazards_);
  hazards_.clear();
  return out;
}

void Device::note_hazard(std::string description, Severity severity) {
  hazards_.push_back(Hazard{id_, std::move(description), severity});
}

std::string_view to_string(Severity s) {
  switch (s) {
    case Severity::Low: return "low";
    case Severity::MediumLow: return "medium-low";
    case Severity::MediumHigh: return "medium-high";
    case Severity::High: return "high";
  }
  return "unknown";
}

std::vector<std::string> Device::actions() const {
  std::vector<std::string> out;
  out.reserve(handlers_.size());
  for (const auto& [name, handler] : handlers_) {
    (void)handler;
    out.push_back(name);
  }
  return out;
}

void Device::register_action(std::string name, Handler handler) {
  if (handlers_.contains(name)) {
    throw std::logic_error(id_ + ": duplicate action '" + name + "'");
  }
  handlers_.emplace(std::move(name), std::move(handler));
}

json::Value& Device::var(std::string_view name) {
  auto it = state_.find(name);
  if (it == state_.end()) throw std::logic_error(id_ + ": unknown state variable");
  ++revision_;
  return it->second;
}

const json::Value& Device::var(std::string_view name) const {
  auto it = state_.find(name);
  if (it == state_.end()) throw std::logic_error(id_ + ": unknown state variable");
  return it->second;
}

void Device::set_var(std::string_view name, json::Value value) {
  state_[std::string(name)] = std::move(value);
  ++revision_;
}

double Device::require_number(const json::Value& args, std::string_view key) {
  const json::Value* v = args.find(key);
  if (v == nullptr || !v->is_number()) {
    throw DeviceError(DeviceError::Code::BadArgument,
                      "missing or non-numeric argument '" + std::string(key) + "'");
  }
  return v->as_double();
}

std::string Device::require_string(const json::Value& args, std::string_view key) {
  const json::Value* v = args.find(key);
  if (v == nullptr || !v->is_string()) {
    throw DeviceError(DeviceError::Code::BadArgument,
                      "missing or non-string argument '" + std::string(key) + "'");
  }
  return v->as_string();
}

// ---------------------------------------------------------------------------
// DeviceRegistry
// ---------------------------------------------------------------------------

Device& DeviceRegistry::add(std::unique_ptr<Device> device) {
  if (device == nullptr) throw std::invalid_argument("DeviceRegistry::add: null device");
  if (find(device->id()) != nullptr) {
    throw std::invalid_argument("DeviceRegistry::add: duplicate id '" + device->id() + "'");
  }
  devices_.push_back(std::move(device));
  return *devices_.back();
}

Device* DeviceRegistry::find(std::string_view id) {
  for (auto& d : devices_) {
    if (d->id() == id) return d.get();
  }
  return nullptr;
}

const Device* DeviceRegistry::find(std::string_view id) const {
  for (const auto& d : devices_) {
    if (d->id() == id) return d.get();
  }
  return nullptr;
}

Device& DeviceRegistry::at(std::string_view id) {
  if (Device* d = find(id)) return *d;
  throw std::out_of_range("DeviceRegistry: no device '" + std::string(id) + "'");
}

const Device& DeviceRegistry::at(std::string_view id) const {
  if (const Device* d = find(id)) return *d;
  throw std::out_of_range("DeviceRegistry: no device '" + std::string(id) + "'");
}

std::vector<Device*> DeviceRegistry::all() {
  std::vector<Device*> out;
  out.reserve(devices_.size());
  for (auto& d : devices_) out.push_back(d.get());
  return out;
}

std::vector<const Device*> DeviceRegistry::all() const {
  std::vector<const Device*> out;
  out.reserve(devices_.size());
  for (const auto& d : devices_) out.push_back(d.get());
  return out;
}

LabStateSnapshot DeviceRegistry::fetch_observed_state() const {
  LabStateSnapshot snap;
  for (const auto& d : devices_) snap[d->id()] = d->observed_state();
  return snap;
}

LabStateSnapshot DeviceRegistry::fetch_true_state() const {
  LabStateSnapshot snap;
  for (const auto& d : devices_) snap[d->id()] = d->state();
  return snap;
}

// ---------------------------------------------------------------------------
// LocationTable
// ---------------------------------------------------------------------------

void LocationTable::add(std::string name, const geom::Vec3& position) {
  for (auto& [n, p] : entries_) {
    if (n == name) {
      p = position;
      return;
    }
  }
  entries_.emplace_back(std::move(name), position);
}

const geom::Vec3* LocationTable::find(std::string_view name) const {
  for (const auto& [n, p] : entries_) {
    if (n == name) return &p;
  }
  return nullptr;
}

const geom::Vec3& LocationTable::at(std::string_view name) const {
  if (const geom::Vec3* p = find(name)) return *p;
  throw std::out_of_range("LocationTable: unknown location '" + std::string(name) + "'");
}

}  // namespace rabit::dev
