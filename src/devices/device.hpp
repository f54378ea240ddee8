// rabit::dev — simulated lab devices.
//
// The paper's production deck (§II) has a lab computer, a six-axis robot arm
// and five automation devices: a solid dosing device, an automated syringe
// pump, a centrifuge, a thermoshaker, and a hotplate. RABIT classifies every
// device into one of four types — Container, Robot Arm, Dosing System, Action
// Device — each fully described by named state variables that actions mutate.
//
// This module provides the device base class (state variables, action
// dispatch, firmware-style limits, fault injection for the malfunction-
// detection path of Fig. 2 lines 13-15) and the command/state vocabulary
// shared by the tracer, the backends, and the RABIT engine.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "geometry/geometry.hpp"
#include "geometry/solid.hpp"
#include "json/json.hpp"

namespace rabit::dev {

/// The four device types of paper §II-A.
enum class DeviceCategory { Container, RobotArm, DosingSystem, ActionDevice };

[[nodiscard]] std::string_view to_string(DeviceCategory c);
[[nodiscard]] std::optional<DeviceCategory> parse_device_category(std::string_view name);

/// One intercepted device command: the unit RABIT reasons about (Fig. 2's
/// a_next). Args are a JSON object so heterogeneous devices share one shape.
struct Command {
  std::string device;  ///< target device id
  std::string action;  ///< action label, e.g. "move_to", "set_door"
  json::Value args;    ///< JSON object of named arguments

  /// 1-based script line that issued the command; 0 when synthetic. Alerts
  /// carry this so researchers can find the offending statement.
  int source_line = 0;

  [[nodiscard]] std::string describe() const;

  /// Field by field, source_line included: the same call issued from two
  /// script lines is two different commands.
  friend bool operator==(const Command&, const Command&) = default;
};

/// A move command's `position` argument, [x, y, z] in the arm's frame:
/// nullopt unless `args` holds exactly three finite numbers under that key.
[[nodiscard]] std::optional<geom::Vec3> position_arg(const json::Value& args);

/// Named state variables fully describing a device (paper §II-A), e.g.
/// deviceDoorStatus, robotArmHolding.
using StateMap = std::map<std::string, json::Value, std::less<>>;

/// Snapshot of every device's state: RABIT's S_current / S_expected /
/// S_actual in the Fig. 2 algorithm.
using LabStateSnapshot = std::map<std::string, StateMap, std::less<>>;

/// Variables differing between two snapshots, as "device.var" strings.
[[nodiscard]] std::vector<std::string> diff(const LabStateSnapshot& a, const LabStateSnapshot& b);

/// S_actual as a backend keeps it across status polls (Fig. 2 line 13):
/// one snapshot, updated in place, plus per device (registry order) the
/// Device::revision() its entry was read at. A poll re-reads a device only
/// when its revision moved, so an entry whose revision did not change holds
/// what a fresh read would return. Not copyable: entries point into
/// `snapshot` (copy the snapshot itself to keep S_actual).
struct ObservedLab {
  struct Entry {
    const std::string* device = nullptr;  ///< key in `snapshot`
    const StateMap* state = nullptr;      ///< value in `snapshot`
    std::uint64_t revision = 0;           ///< device revision `state` was read at
  };

  ObservedLab() = default;
  ObservedLab(const ObservedLab&) = delete;
  ObservedLab& operator=(const ObservedLab&) = delete;

  LabStateSnapshot snapshot;
  std::vector<Entry> entries;
};

/// Raised when a device's own firmware refuses a command (paper §I: e.g. the
/// hotplate's built-in safe temperature limit). These checks exist *below*
/// RABIT and keep working alongside it.
class DeviceError : public std::runtime_error {
 public:
  enum class Code { UnknownAction, BadArgument, FirmwareRejected, InvalidState };

  DeviceError(Code code, const std::string& message)
      : std::runtime_error(message), code_(code) {}

  [[nodiscard]] Code code() const { return code_; }

 private:
  Code code_;
};

/// Forced divergence between a device's true state and what its status
/// command reports, plus actions that silently fail — both model the
/// "device malfunction" cases Fig. 2 lines 13-15 detect.
struct FaultPlan {
  /// Status command reports these values regardless of the true state.
  StateMap reported_overrides;
  /// These actions are accepted but have no physical effect.
  std::vector<std::string> dead_actions;

  [[nodiscard]] bool is_dead(std::string_view action) const;
};

/// Damage severity taxonomy of the paper's Table V.
enum class Severity {
  Low,         ///< wasted chemical materials (e.g. spilled solid)
  MediumLow,   ///< breakage of glassware
  MediumHigh,  ///< harm to platform, walls, grids, or another cheap arm
  High,        ///< breaking expensive lab equipment
};

[[nodiscard]] std::string_view to_string(Severity s);

/// A physically undesirable event that actually happened inside a device
/// (spilled solid, broken glass door, ...). Hazards are ground truth: the
/// evaluation scores RABIT by whether an alert fired *before* the hazard.
struct Hazard {
  std::string device;
  std::string description;
  Severity severity = Severity::Low;
};

/// A software-controlled station door (paper §II-C: door presence is a
/// device property). A station has either one unnamed door, held in
/// `doorStatus`, or several named doors (§V-C: "Devices might have multiple
/// doors"), each held in `door_<name>` and guarding the approach side its
/// direction points to. A door is "open", "closed" or "broken".
struct Door {
  std::string name;      ///< "" for a station's only door, e.g. "north" otherwise
  std::string variable;  ///< state variable holding the door's status
  geom::Vec3 direction;  ///< horizontal unit vector, station center -> guarded side
  std::string hazard;    ///< ground-truth hazard noted when the door is smashed
};

/// The largest-dot-product door rule: of `doors` (non-empty, each with a
/// horizontal `direction`), the door guarding an approach from `from_lab`
/// to a station centred at `center` is the one whose direction has the
/// largest dot product with the horizontal offset; the first wins ties.
/// Ground truth (Device::door_facing) and RABIT's configured knowledge
/// (core::DeviceMeta::door_facing) both decide by it.
template <class DoorLike>
[[nodiscard]] const DoorLike& door_facing(const std::vector<DoorLike>& doors,
                                          const geom::Vec3& center, const geom::Vec3& from_lab) {
  geom::Vec3 offset(from_lab.x - center.x, from_lab.y - center.y, 0.0);
  const DoorLike* best = &doors.front();
  double best_dot = -1e300;
  for (const DoorLike& d : doors) {
    double dot = offset.dot(d.direction);
    if (dot > best_dot) {
      best_dot = dot;
      best = &d;
    }
  }
  return *best;
}

/// Base class for every simulated device.
class Device {
 public:
  Device(std::string id, DeviceCategory category);
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const std::string& id() const { return id_; }
  [[nodiscard]] DeviceCategory category() const { return category_; }

  /// The device's true state (ground truth; tests and the physical scene use
  /// this).
  [[nodiscard]] const StateMap& state() const { return state_; }

  /// What the device's status command reports — the paper's FetchState()
  /// input. Diverges from state() under an active fault plan; omits the
  /// receptacle variable, and devices with other unsensed variables (e.g. a
  /// gripper without a pressure sensor) override this to omit them too.
  [[nodiscard]] virtual StateMap observed_state() const;

  /// Bumped by every write to state() or fault_plan(): while it stays put,
  /// so do state() and observed_state(). Status polls re-read a device
  /// only when it moved.
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

  /// Executes an action, updating state. Throws DeviceError on firmware
  /// rejection or unknown actions. Dead actions (fault plan) return silently.
  void execute(const Command& cmd);

  /// Actions this device accepts.
  [[nodiscard]] std::vector<std::string> actions() const;

  /// The device's physical footprint as a cuboid in lab coordinates, when it
  /// occupies space on the deck (containers riding in a grid do not). Fixed
  /// at construction: it must never change afterwards, as LabBackend keeps
  /// the ground-truth world built from it between arm moves.
  [[nodiscard]] virtual std::optional<geom::Aabb> footprint() const { return std::nullopt; }

  /// A refined (non-cuboid) shape, when the cuboid is a poor fit (§V-C:
  /// hemispherical centrifuge, bumped thermoshaker). Its bounding box must
  /// equal footprint(). Defaults to "the cuboid is exact". Fixed at
  /// construction, like footprint().
  [[nodiscard]] virtual std::optional<geom::Solid> shape() const { return std::nullopt; }

  /// The station's doors in declaration order; empty for a doorless device.
  [[nodiscard]] const std::vector<Door>& doors() const { return doors_; }
  /// Status of the door named `door` ("" names a single-door station's
  /// door); "none" on a doorless device. Throws DeviceError (BadArgument)
  /// for a name the station has no door for.
  [[nodiscard]] const std::string& door_status(std::string_view door = {}) const;
  /// Smashes the door named `door` (ground truth: an arm crashed through it
  /// or it closed onto one) and notes its hazard. No-op on a doorless
  /// device; throws like door_status() for an unknown name.
  void break_door(std::string_view door = {});
  /// The door guarding an approach from `from_lab`: dev::door_facing about
  /// the footprint's center (a station without a footprint has no sides, so
  /// its first door guards every approach). Throws std::logic_error on a
  /// doorless device.
  [[nodiscard]] const Door& door_facing(const geom::Vec3& from_lab) const;

  /// The vial in the station's receptacle (on it, for the hotplate): "" when
  /// it is empty or the device has no receptacle.
  [[nodiscard]] const std::string& container_inside() const;
  /// Seats `vial_id` in the receptacle ("" empties it); a device without a
  /// receptacle holds nothing and ignores this.
  void set_container_inside(std::string vial_id);

  void set_fault_plan(FaultPlan plan) {
    fault_ = std::move(plan);
    ++revision_;
  }
  void clear_fault_plan() {
    fault_ = FaultPlan{};
    ++revision_;
  }
  [[nodiscard]] const FaultPlan& fault_plan() const { return fault_; }

  /// Returns and clears hazards accumulated since the last call. Backends
  /// drain this after every command.
  [[nodiscard]] std::vector<Hazard> take_hazards();

 protected:
  using Handler = std::function<void(const json::Value& args)>;

  /// Registers an action handler; called from derived-class constructors.
  void register_action(std::string name, Handler handler);

  /// Declares a door, initially closed: its variable is `doorStatus` when
  /// `name` is empty (the station's only door) and `door_<name>` otherwise.
  /// The first door registers the station's set_door action, which takes
  /// `state` ("open"/"closed") and, on a station with named doors, `door`.
  void add_door(std::string name, const geom::Vec3& direction, std::string hazard);

  /// Declares the receptacle: `variable` names the vial it holds ("" when
  /// empty). No sensor sees the vial, so observed_state() omits it.
  void add_receptacle(std::string variable);

  /// Records a ground-truth hazard (also callable by backends for
  /// cross-device physics like arm/door collisions).
 public:
  void note_hazard(std::string description, Severity severity = Severity::Low);

 protected:
  /// Direct state access for derived classes. The mutable var() counts as
  /// a write (it bumps revision()), whatever the caller does with it.
  [[nodiscard]] json::Value& var(std::string_view name);
  [[nodiscard]] const json::Value& var(std::string_view name) const;
  void set_var(std::string_view name, json::Value value);

  /// Argument helpers (throw DeviceError::BadArgument on absence/mismatch).
  [[nodiscard]] static double require_number(const json::Value& args, std::string_view key);
  [[nodiscard]] static std::string require_string(const json::Value& args, std::string_view key);

 private:
  std::string id_;
  DeviceCategory category_;
  StateMap state_;
  std::map<std::string, Handler, std::less<>> handlers_;
  FaultPlan fault_;
  std::vector<Hazard> hazards_;
  std::uint64_t revision_ = 0;
  std::vector<Door> doors_;
  std::string receptacle_;  ///< the receptacle's state variable; "" when none

  /// The door named `name`; throws DeviceError (BadArgument) when absent.
  [[nodiscard]] const Door& named_door(std::string_view name) const;
};

/// Owns all devices of a lab; the single source a backend and RABIT query.
class DeviceRegistry {
 public:
  /// Adds a device; throws std::invalid_argument on duplicate id. Returns a
  /// reference to the stored device.
  Device& add(std::unique_ptr<Device> device);

  [[nodiscard]] Device* find(std::string_view id);
  [[nodiscard]] const Device* find(std::string_view id) const;

  /// Throws std::out_of_range when absent.
  [[nodiscard]] Device& at(std::string_view id);
  [[nodiscard]] const Device& at(std::string_view id) const;

  [[nodiscard]] std::size_t size() const { return devices_.size(); }

  /// The device at insertion index `index` (< size()): iteration in
  /// insertion order without the vector all() builds.
  [[nodiscard]] const Device& device(std::size_t index) const { return *devices_[index]; }
  [[nodiscard]] Device& device(std::size_t index) { return *devices_[index]; }

  /// Stable iteration in insertion order.
  [[nodiscard]] std::vector<Device*> all();
  [[nodiscard]] std::vector<const Device*> all() const;

  /// Full lab snapshot from every device's status command (FetchState()).
  [[nodiscard]] LabStateSnapshot fetch_observed_state() const;

  /// Full ground-truth snapshot.
  [[nodiscard]] LabStateSnapshot fetch_true_state() const;

 private:
  std::vector<std::unique_ptr<Device>> devices_;
};

/// Named deck locations (the hardcoded coordinate tables of Fig. 6).
class LocationTable {
 public:
  void add(std::string name, const geom::Vec3& position);
  [[nodiscard]] const geom::Vec3* find(std::string_view name) const;
  [[nodiscard]] const geom::Vec3& at(std::string_view name) const;
  [[nodiscard]] bool contains(std::string_view name) const { return find(name) != nullptr; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::vector<std::pair<std::string, geom::Vec3>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, geom::Vec3>> entries_;
};

}  // namespace rabit::dev
