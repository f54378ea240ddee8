#include "devices/stations.hpp"

#include <algorithm>

namespace rabit::dev {

// ---------------------------------------------------------------------------
// DosingDeviceModel
// ---------------------------------------------------------------------------

DosingDeviceModel::DosingDeviceModel(std::string id, const geom::Aabb& footprint)
    : Device(std::move(id), DeviceCategory::DosingSystem), footprint_(footprint) {
  add_door("", geom::Vec3(), "glass door broken");
  add_receptacle("containerInside");
  set_var("running", 0);
  set_var("pendingDoseMg", 0.0);

  register_action("run_action", [this](const json::Value& args) {
    double quantity = require_number(args, "quantity");
    if (quantity < 0) {
      throw DeviceError(DeviceError::Code::BadArgument, "run_action: negative quantity");
    }
    var("running") = 1;
    var("pendingDoseMg") = quantity;
  });
  register_action("stop_action", [this](const json::Value&) { var("running") = 0; });
}

double DosingDeviceModel::take_pending_dose_mg() {
  double pending = var("pendingDoseMg").as_double();
  var("pendingDoseMg") = 0.0;
  return pending;
}

// ---------------------------------------------------------------------------
// SyringePumpModel
// ---------------------------------------------------------------------------

SyringePumpModel::SyringePumpModel(std::string id, double reservoir_ml,
                                   const geom::Aabb& footprint)
    : Device(std::move(id), DeviceCategory::DosingSystem), footprint_(footprint) {
  if (reservoir_ml < 0) throw std::invalid_argument("SyringePumpModel: negative reservoir");
  set_var("reservoirMl", reservoir_ml);
  set_var("heldMl", 0.0);
  set_var("pendingDispenseMl", 0.0);
  set_var("pendingTarget", "");

  register_action("draw_solvent", [this](const json::Value& args) {
    double volume = require_number(args, "volume");
    if (volume < 0) {
      throw DeviceError(DeviceError::Code::BadArgument, "draw_solvent: negative volume");
    }
    double available = this->reservoir_ml();
    double drawn = std::min(volume, available);
    var("reservoirMl") = available - drawn;
    var("heldMl") = held_ml() + drawn;
    if (drawn < volume) note_hazard("reservoir ran dry during draw", Severity::Low);
  });
  register_action("dose_solvent", [this](const json::Value& args) {
    double volume = require_number(args, "volume");
    if (volume < 0) {
      throw DeviceError(DeviceError::Code::BadArgument, "dose_solvent: negative volume");
    }
    var("pendingDispenseMl") = volume;
    var("pendingTarget") = require_string(args, "target");
  });
}

SyringePumpModel::PendingDispense SyringePumpModel::take_pending_dispense() {
  PendingDispense out;
  out.volume_ml = var("pendingDispenseMl").as_double();
  out.target = var("pendingTarget").as_string();
  var("pendingDispenseMl") = 0.0;
  var("pendingTarget") = "";
  return out;
}

double SyringePumpModel::drain_held(double volume_ml) {
  double available = held_ml();
  double drained = std::min(volume_ml, available);
  var("heldMl") = available - drained;
  if (drained < volume_ml) {
    note_hazard("syringe under-dispensed (" + std::to_string(volume_ml - drained) + " mL short)",
                Severity::Low);
  }
  return drained;
}

// ---------------------------------------------------------------------------
// HotplateModel
// ---------------------------------------------------------------------------

HotplateModel::HotplateModel(std::string id, double firmware_limit_c, double hazard_threshold_c,
                             const geom::Aabb& footprint)
    : Device(std::move(id), DeviceCategory::ActionDevice),
      firmware_limit_c_(firmware_limit_c),
      hazard_threshold_c_(hazard_threshold_c),
      footprint_(footprint) {
  set_var("targetC", 25.0);
  set_var("stirRpm", 0.0);
  set_var("active", 0);
  add_receptacle("containerOn");

  register_action("set_temperature", [this](const json::Value& args) {
    double celsius = require_number(args, "celsius");
    if (celsius > firmware_limit_c_) {
      // The device's own threshold, embedded "inside device firmware" (§I).
      throw DeviceError(DeviceError::Code::FirmwareRejected,
                        this->id() + ": firmware limit " + std::to_string(firmware_limit_c_) +
                            " C exceeded");
    }
    var("targetC") = celsius;
    var("active") = celsius > 25.0 ? 1 : var("active").as_int();
    if (celsius > hazard_threshold_c_) {
      note_hazard("hotplate heated past safe threshold, solution overheated", Severity::High);
    }
  });
  register_action("stir", [this](const json::Value& args) {
    double rpm = require_number(args, "rpm");
    if (rpm < 0) throw DeviceError(DeviceError::Code::BadArgument, "stir: negative rpm");
    var("stirRpm") = rpm;
    var("active") = rpm > 0 ? 1 : var("active").as_int();
  });
  register_action("stop", [this](const json::Value&) {
    var("targetC") = 25.0;
    var("stirRpm") = 0.0;
    var("active") = 0;
  });
}

// ---------------------------------------------------------------------------
// CentrifugeModel
// ---------------------------------------------------------------------------

CentrifugeModel::CentrifugeModel(std::string id, const geom::Aabb& footprint)
    : Device(std::move(id), DeviceCategory::ActionDevice), footprint_(footprint) {
  add_door("", geom::Vec3(), "door broken");
  add_receptacle("containerInside");
  set_var("spinning", 0);
  set_var("redDot", "N");

  register_action("rotate_platter", [this](const json::Value& args) {
    std::string orientation = require_string(args, "orientation");
    if (orientation != "N" && orientation != "E" && orientation != "S" && orientation != "W") {
      throw DeviceError(DeviceError::Code::BadArgument,
                        "rotate_platter: orientation must be N/E/S/W");
    }
    var("redDot") = orientation;
  });
  register_action("start_spin", [this](const json::Value& args) {
    double rpm = require_number(args, "rpm");
    if (rpm < 0) throw DeviceError(DeviceError::Code::BadArgument, "start_spin: negative rpm");
    var("spinning") = 1;
    if (door_status() != "closed") {
      note_hazard("centrifuge spun with door not closed, contents ejected", Severity::Low);
    }
    if (container_inside().empty()) {
      note_hazard("centrifuge ran empty (rotor imbalance wear)", Severity::Low);
    }
  });
  register_action("stop_spin", [this](const json::Value&) { var("spinning") = 0; });
}

std::optional<geom::Solid> CentrifugeModel::shape() const {
  geom::Vec3 c = footprint_.center();
  geom::Vec3 s = footprint_.size();
  double radius = 0.5 * std::min(s.x, s.y);
  // The dome takes the top `radius` of the height; the cylinder the rest.
  double dome_base_z = footprint_.max.z - radius;
  double body_height = dome_base_z - footprint_.min.z;
  std::vector<geom::Solid> parts;
  parts.push_back(geom::Solid::vertical_cylinder(geom::Vec3(c.x, c.y, footprint_.min.z),
                                                 radius, body_height));
  parts.push_back(geom::Solid::hemisphere(geom::Vec3(c.x, c.y, dome_base_z), radius));
  return geom::Solid::compound(std::move(parts));
}

// ---------------------------------------------------------------------------
// ThermoshakerModel
// ---------------------------------------------------------------------------

ThermoshakerModel::ThermoshakerModel(std::string id, double firmware_limit_c,
                                     const geom::Aabb& footprint)
    : Device(std::move(id), DeviceCategory::ActionDevice),
      firmware_limit_c_(firmware_limit_c),
      footprint_(footprint) {
  set_var("targetC", 25.0);
  set_var("shakeRpm", 0.0);
  set_var("active", 0);
  add_receptacle("containerInside");

  register_action("set_temperature", [this](const json::Value& args) {
    double celsius = require_number(args, "celsius");
    if (celsius > firmware_limit_c_) {
      throw DeviceError(DeviceError::Code::FirmwareRejected,
                        this->id() + ": firmware limit exceeded");
    }
    var("targetC") = celsius;
    var("active") = celsius > 25.0 ? 1 : var("active").as_int();
  });
  register_action("shake", [this](const json::Value& args) {
    double rpm = require_number(args, "rpm");
    if (rpm < 0) throw DeviceError(DeviceError::Code::BadArgument, "shake: negative rpm");
    var("shakeRpm") = rpm;
    var("active") = rpm > 0 ? 1 : var("active").as_int();
  });
  register_action("stop", [this](const json::Value&) {
    var("targetC") = 25.0;
    var("shakeRpm") = 0.0;
    var("active") = 0;
  });
}

std::optional<geom::Solid> ThermoshakerModel::shape() const {
  geom::Vec3 c = footprint_.center();
  // Body over the lower 70% of the height, bump (half the xy extent) on top.
  double body_top = footprint_.min.z + 0.7 * (footprint_.max.z - footprint_.min.z);
  geom::Aabb body(footprint_.min, geom::Vec3(footprint_.max.x, footprint_.max.y, body_top));
  geom::Vec3 bump_half(0.25 * (footprint_.max.x - footprint_.min.x),
                       0.25 * (footprint_.max.y - footprint_.min.y), 0.0);
  geom::Aabb bump(geom::Vec3(c.x - bump_half.x, c.y - bump_half.y, body_top),
                  geom::Vec3(c.x + bump_half.x, c.y + bump_half.y, footprint_.max.z));
  return geom::Solid::compound({geom::Solid::box(body), geom::Solid::box(bump)});
}

// ---------------------------------------------------------------------------
// GenericActionDevice
// ---------------------------------------------------------------------------

GenericActionDevice::GenericActionDevice(std::string id,
                                         std::vector<ValueActionSpec> value_actions,
                                         bool has_door, std::optional<geom::Aabb> footprint)
    : Device(std::move(id), DeviceCategory::ActionDevice),
      footprint_(footprint),
      value_actions_(std::move(value_actions)) {
  set_var("active", 0);
  add_receptacle("containerInside");
  if (has_door) add_door("", geom::Vec3(), "door broken");

  register_action("start", [this](const json::Value&) { var("active") = 1; });
  register_action("stop", [this](const json::Value&) { var("active") = 0; });

  for (const ValueActionSpec& spec : value_actions_) {
    set_var(spec.variable, 0.0);
    // Copy the spec into the closure (the stored vector may reallocate).
    register_action(spec.action, [this, spec](const json::Value& args) {
      double value = require_number(args, spec.argument);
      if (spec.firmware_max && value > *spec.firmware_max) {
        throw DeviceError(DeviceError::Code::FirmwareRejected,
                          this->id() + ": firmware limit for " + spec.action + " exceeded");
      }
      var(spec.variable) = value;
    });
  }
}

// ---------------------------------------------------------------------------
// MultiDoorStation
// ---------------------------------------------------------------------------

MultiDoorStation::MultiDoorStation(std::string id, const std::vector<DoorSpec>& doors,
                                   const geom::Aabb& footprint)
    : Device(std::move(id), DeviceCategory::ActionDevice), footprint_(footprint) {
  if (doors.size() < 2) {
    throw std::invalid_argument("MultiDoorStation: needs at least two doors");
  }
  set_var("active", 0);
  add_receptacle("containerInside");
  for (const DoorSpec& d : doors) {
    add_door(d.name, d.approach_direction, "door '" + d.name + "' broken");
  }

  register_action("start", [this](const json::Value&) { var("active") = 1; });
  register_action("stop", [this](const json::Value&) { var("active") = 0; });
}

// ---------------------------------------------------------------------------
// ProximitySensor
// ---------------------------------------------------------------------------

ProximitySensor::ProximitySensor(std::string id, const geom::Aabb& zone)
    : Device(std::move(id), DeviceCategory::ActionDevice), zone_(zone) {
  set_var("occupied", 0);
  // Sensors are input-only: no commands beyond status (polled via
  // observed_state); a "reset" action is provided for latch-style hardware.
  register_action("reset", [this](const json::Value&) { var("occupied") = 0; });
}

void ProximitySensor::set_occupied(bool occupied) { var("occupied") = occupied ? 1 : 0; }

}  // namespace rabit::dev
