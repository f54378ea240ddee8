// The automation stations of the Hein Lab deck (paper §II): solid dosing
// device, automated syringe pump, hotplate, centrifuge, thermoshaker — plus
// config-driven generic devices used when adapting RABIT to a new lab
// (paper §V-B, the Berlinguette Lab).
//
// Stations expose their own firmware-level checks (which exist below RABIT
// and stay enabled during evaluation, §IV) and record ground-truth hazards.
// Their doors and receptacle are data on dev::Device (add_door,
// add_receptacle), not C++ types. Cross-device physics — substance transfer
// into a vial, a door hitting an arm — is the backend's job; stations only
// manage their local state.
#pragma once

#include "devices/device.hpp"

namespace rabit::dev {

/// Solid dosing device (paper Fig. 1): doses powder into a vial placed
/// inside; has a fragile software-controlled glass door.
///
/// State: doorStatus, running (0/1), containerInside (vial id or ""),
/// pendingDoseMg (requested by the last run_action, consumed by the backend
/// when it performs the physical transfer).
class DosingDeviceModel : public Device {
 public:
  DosingDeviceModel(std::string id, const geom::Aabb& footprint);

  [[nodiscard]] std::optional<geom::Aabb> footprint() const override { return footprint_; }

  [[nodiscard]] bool running() const { return var("running").as_int() == 1; }

  /// Dose requested by the most recent run_action; reading resets it to 0.
  [[nodiscard]] double take_pending_dose_mg();

  /// The pending dose is internal bookkeeping, not reported by status.
  [[nodiscard]] StateMap observed_state() const override {
    StateMap out = Device::observed_state();
    out.erase("pendingDoseMg");
    return out;
  }

 private:
  geom::Aabb footprint_;
};

/// Automated syringe pump: draws solvent from its reservoir, then dispenses
/// into a target container (the transfer itself is backend physics).
///
/// State: reservoirMl, heldMl, pendingDispenseMl, pendingTarget.
class SyringePumpModel : public Device {
 public:
  SyringePumpModel(std::string id, double reservoir_ml, const geom::Aabb& footprint);

  [[nodiscard]] std::optional<geom::Aabb> footprint() const override { return footprint_; }

  [[nodiscard]] double reservoir_ml() const { return var("reservoirMl").as_double(); }
  [[nodiscard]] double held_ml() const { return var("heldMl").as_double(); }

  /// Volume and target of the most recent dose_solvent; reading resets them.
  struct PendingDispense {
    double volume_ml = 0.0;
    std::string target;
  };
  [[nodiscard]] PendingDispense take_pending_dispense();

  /// Removes up to `volume` from the held syringe content; returns the
  /// amount actually available (backend calls this during the transfer).
  double drain_held(double volume_ml);

  /// Pending-dispense bookkeeping is internal, not reported by status.
  [[nodiscard]] StateMap observed_state() const override {
    StateMap out = Device::observed_state();
    out.erase("pendingDispenseMl");
    out.erase("pendingTarget");
    return out;
  }

 private:
  geom::Aabb footprint_;
};

/// Hotplate with magnetic stirrer. Firmware enforces an absolute temperature
/// limit (paper §I: "the hotplate allows setting a safe temperature limit");
/// RABIT's rule 11 threshold is typically configured *below* it.
///
/// State: targetC, stirRpm, active, containerOn.
class HotplateModel : public Device {
 public:
  HotplateModel(std::string id, double firmware_limit_c, double hazard_threshold_c,
                const geom::Aabb& footprint);

  [[nodiscard]] std::optional<geom::Aabb> footprint() const override { return footprint_; }

  [[nodiscard]] double target_c() const { return var("targetC").as_double(); }
  [[nodiscard]] bool active() const { return var("active").as_int() == 1; }
  [[nodiscard]] double firmware_limit_c() const { return firmware_limit_c_; }

 private:
  double firmware_limit_c_;
  double hazard_threshold_c_;
  geom::Aabb footprint_;
};

/// Centrifuge with a door and a rotor platter whose loading port is marked
/// by a red dot; loading is only safe with the red dot facing North (the
/// Hein Lab's custom rule 3, Table IV).
///
/// State: doorStatus, spinning, redDot ("N"/"E"/"S"/"W"), containerInside.
class CentrifugeModel : public Device {
 public:
  CentrifugeModel(std::string id, const geom::Aabb& footprint);

  [[nodiscard]] std::optional<geom::Aabb> footprint() const override { return footprint_; }

  /// "A centrifuge resembles a hemisphere more than a cuboid" (§V-A): a
  /// cylindrical base topped by a dome, fitted inside the cuboid footprint.
  [[nodiscard]] std::optional<geom::Solid> shape() const override;

  [[nodiscard]] bool spinning() const { return var("spinning").as_int() == 1; }
  [[nodiscard]] const std::string& red_dot() const { return var("redDot").as_string(); }

 private:
  geom::Aabb footprint_;
};

/// Thermoshaker: heats and shakes a vial seated in its block.
///
/// State: targetC, shakeRpm, active, containerInside.
class ThermoshakerModel : public Device {
 public:
  ThermoshakerModel(std::string id, double firmware_limit_c, const geom::Aabb& footprint);

  [[nodiscard]] std::optional<geom::Aabb> footprint() const override { return footprint_; }

  /// "The thermoshaker has a bump at the top" (§V-A): a low body with a
  /// narrower block on top, fitted inside the cuboid footprint.
  [[nodiscard]] std::optional<geom::Solid> shape() const override;

  [[nodiscard]] bool active() const { return var("active").as_int() == 1; }
  [[nodiscard]] double shake_rpm() const { return var("shakeRpm").as_double(); }

 private:
  double firmware_limit_c_;
  geom::Aabb footprint_;
};

/// Config-driven action device for new labs (paper §V-B): named value
/// actions with optional firmware thresholds, optional door, start/stop.
/// Covers the Berlinguette decapper, spin coater, spray nozzles, and XRF
/// stations without writing a new C++ class per device.
class GenericActionDevice : public Device {
 public:
  struct ValueActionSpec {
    std::string action;                     ///< e.g. "set_spin_speed"
    std::string variable;                   ///< state variable it sets
    std::string argument;                   ///< argument name, e.g. "rpm"
    std::optional<double> firmware_max;     ///< firmware rejection threshold
  };

  GenericActionDevice(std::string id, std::vector<ValueActionSpec> value_actions, bool has_door,
                      std::optional<geom::Aabb> footprint);

  /// The configured value actions (so RABIT's config can mirror them).
  [[nodiscard]] const std::vector<ValueActionSpec>& value_actions() const {
    return value_actions_;
  }

  [[nodiscard]] std::optional<geom::Aabb> footprint() const override { return footprint_; }

  [[nodiscard]] bool active() const { return var("active").as_int() == 1; }

 private:
  std::optional<geom::Aabb> footprint_;
  std::vector<ValueActionSpec> value_actions_;
};

/// A station with several independently actuated doors (§V-C: "Devices
/// might have multiple doors, for instance, for two robot arms to approach
/// the device simultaneously. In its current state, RABIT does not handle
/// this."). Each door guards one approach side, given as a horizontal unit
/// direction from the station's center; an arm entering from a side needs
/// *that* side's door open.
///
/// State: door_<name> ("open"/"closed"/"broken") per door, active,
/// containerInside.
class MultiDoorStation : public Device {
 public:
  struct DoorSpec {
    std::string name;                ///< e.g. "north"
    geom::Vec3 approach_direction;   ///< horizontal unit vector, center -> side
  };

  /// Throws std::invalid_argument for fewer than two doors.
  MultiDoorStation(std::string id, const std::vector<DoorSpec>& doors,
                   const geom::Aabb& footprint);

  [[nodiscard]] std::optional<geom::Aabb> footprint() const override { return footprint_; }

  [[nodiscard]] bool active() const { return var("active").as_int() == 1; }

 private:
  geom::Aabb footprint_;
};

/// A human-proximity sensor (§V-B: the Berlinguette Lab used safety sensors
/// before abandoning them over false alarms; the paper suggests treating
/// "sensors as a new device class" so RABIT can respond to them). The sensor
/// watches a zone; while it reports occupied, RABIT's S1 rule forbids arm
/// targets inside that zone. Unlike grippers, the sensor IS observable —
/// that is its entire purpose.
///
/// State: occupied (0/1).
class ProximitySensor : public Device {
 public:
  ProximitySensor(std::string id, const geom::Aabb& zone);

  [[nodiscard]] const geom::Aabb& zone() const { return zone_; }
  [[nodiscard]] bool occupied() const { return var("occupied").as_int() == 1; }
  /// Ground-truth input: a person stepping into / out of the zone.
  void set_occupied(bool occupied);

 private:
  geom::Aabb zone_;
};

}  // namespace rabit::dev
