// EngineConfig — everything a researcher tells RABIT about their lab.
//
// In the paper (§II-C) this is a set of JSON files: each device is assigned
// one of the four device types and annotated with its properties (door
// presence, cuboid dimensions, thresholds, commands). This module defines
// the in-memory form, JSON (de)serialization with schema validation (the
// pilot study's sign/syntax errors are caught here, §V-A), and a builder
// that derives a config from a LabBackend deck the way a researcher would
// describe it by hand.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "devices/device.hpp"
#include "geometry/geometry.hpp"
#include "geometry/solid.hpp"
#include "json/json.hpp"
#include "sim/backend.hpp"
#include "sim/world.hpp"

namespace rabit::core {

/// RABIT as deployed over the course of §IV's evaluation.
enum class Variant {
  Initial,          ///< V1: 8/16 — target checks against device cuboids only
  Modified,         ///< V2: 12/16 — + platform/walls, held-object inflation,
                    ///<   parked-arm cuboids and multiplexing preconditions
  ModifiedWithSim,  ///< V3: 13/16 — V2 + Extended Simulator trajectory replay
};

[[nodiscard]] std::string_view to_string(Variant v);
/// The variant named `name` in to_string's spelling ("modified+sim" for V3).
[[nodiscard]] std::optional<Variant> parse_variant(std::string_view name);

/// A RABIT-level threshold on an action argument (Table III rule 11). These
/// sit *above* device firmware limits, typically stricter.
struct ThresholdSpec {
  std::string action;    ///< e.g. "set_temperature"
  std::string argument;  ///< e.g. "celsius"
  double max = 0.0;
};

/// A config-declared value action (generic devices, paper Section V-B): the
/// named action sets `variable` from its `argument`. The tracker uses this
/// to derive postconditions for devices RABIT has no built-in model for.
struct ValueBinding {
  std::string action;
  std::string variable;
  std::string argument;
};

/// Everything RABIT knows about one device.
struct DeviceMeta {
  std::string id;
  dev::DeviceCategory category = dev::DeviceCategory::ActionDevice;
  bool has_door = false;
  std::optional<geom::Aabb> box;  ///< the cuboid model of §III
  /// Refined (non-cuboid) shape description — the §V-C extension requested
  /// in the pilot study. Used only when EngineConfig::use_refined_shapes.
  std::optional<geom::Solid> refined_shape;

  // Robot arms only.
  bool is_arm = false;
  geom::Transform base;                    ///< arm frame -> lab frame
  double held_clearance = 0.07;            ///< held-vial drop below gripper
  std::optional<geom::Aabb> sleep_box;     ///< parked cuboid (time multiplex)
  geom::Vec3 home_position_lab;            ///< tip position at the home pose
  geom::Vec3 sleep_position_lab;           ///< tip position at the sleep pose

  // Containers only.
  double capacity_mg = 0.0;
  double capacity_ml = 0.0;

  std::vector<ThresholdSpec> thresholds;
  std::vector<ValueBinding> value_bindings;
  /// Alternative command names for the same action (alias -> canonical),
  /// closing the paper's "RABIT currently allows only one command per
  /// action" gap (§V-C). E.g. {"move_pose", "move_to"}.
  std::vector<std::pair<std::string, std::string>> action_aliases;
  /// Sensor devices (§V-B: "sensors, which could be treated as a new device
  /// class"): while the sensor reports occupied, no arm may target a point
  /// inside its zone (rule S1).
  bool is_sensor = false;
  std::optional<geom::Aabb> sensor_zone;
  /// Multi-door stations (§V-C): each door guards the approach side its
  /// horizontal direction points toward. Empty for single-door devices
  /// (which use `has_door`).
  struct DoorMeta {
    std::string name;
    geom::Vec3 direction;
  };
  std::vector<DoorMeta> multi_doors;
  /// Actions that count as "performing an action" for rules 5/6/9 (e.g.
  /// start_spin, shake, stir) or "dosing" for rule 9 (run_action).
  std::vector<std::string> active_actions;
  /// State variables excluded from the S_actual/S_expected comparison
  /// (continuous encoder positions, internal bookkeeping).
  std::vector<std::string> unchecked_vars;
  /// Symbolic initial state for devices with no status command (vials).
  dev::StateMap initial_state;

  // Action lookups are linear scans; the first of duplicated entries wins.
  [[nodiscard]] bool is_active_action(std::string_view action) const;
  [[nodiscard]] const ThresholdSpec* threshold_for(std::string_view action) const;
  /// Canonical action name for `action` (itself when not aliased).
  [[nodiscard]] std::string_view canonical_action(std::string_view action) const;
  /// For multi-door devices: the door guarding an approach from `from_lab`.
  /// Requires a box and a non-empty multi_doors list.
  [[nodiscard]] const DoorMeta& door_facing(const geom::Vec3& from_lab) const;
};

/// A named deck location RABIT knows about (mirrors sim::SiteBinding, but
/// as *configured* knowledge rather than ground truth).
struct SiteMeta {
  std::string name;
  geom::Vec3 lab_position;
  std::string grid_device;  ///< grid the slot belongs to ("" otherwise)
  std::string grid_slot;
  std::string receptacle_device;  ///< station this site feeds ("" otherwise)

  [[nodiscard]] bool is_grid_slot() const { return !grid_device.empty(); }
  [[nodiscard]] bool is_receptacle() const { return !receptacle_device.empty(); }
};

/// Space-multiplexing software wall: `arm_id` must never target a point
/// inside `forbidden` (§IV category 2 workaround).
struct SoftWallSpec {
  std::string arm_id;
  geom::Aabb forbidden;
};

struct EngineConfig {
  Variant variant = Variant::Modified;
  std::vector<DeviceMeta> devices;
  std::vector<SiteMeta> sites;
  std::vector<sim::NamedBox> static_obstacles;  ///< platform, walls (V2+)
  std::vector<SoftWallSpec> soft_walls;

  /// Enforce "only one arm moves; the rest are asleep" (V2 testbed mode).
  bool time_multiplex = false;
  /// Enable the Hein Lab custom rules C1-C4 (Table IV).
  bool hein_custom_rules = true;
  /// Check against refined device shapes instead of bounding cuboids (§V-C
  /// extension; off by default to match the paper's deployed system).
  bool use_refined_shapes = false;
  /// How close a tracked tip must be to a site to count as interacting.
  double site_tolerance = 0.035;

  /// First entry with this id/name, by linear scan (nullptr when absent).
  /// The config is a plain value: callers may edit it between lookups.
  [[nodiscard]] const DeviceMeta* find_device(std::string_view id) const;
  [[nodiscard]] const SiteMeta* find_site(std::string_view name) const;
  /// First site whose receptacle feeds `device` (nullptr when none).
  [[nodiscard]] const SiteMeta* receptacle_site(std::string_view device) const;
  [[nodiscard]] const SiteMeta* site_near(const geom::Vec3& lab_point) const;
};

/// Derives the config a researcher would write for `backend`'s deck. The
/// result mirrors the ground truth exactly — detection gaps then come only
/// from the variant's capabilities, matching the §IV evaluation protocol
/// ("we ensure that there are no intentional bugs in the JSON
/// configurations").
[[nodiscard]] EngineConfig config_from_backend(const sim::LabBackend& backend, Variant variant);

/// JSON round trip (the researcher-facing format of §II-C).
[[nodiscard]] json::Value config_to_json(const EngineConfig& config);
[[nodiscard]] EngineConfig config_from_json(const json::Value& doc);

/// The JSON schema for the configuration file. Validating researcher input
/// against it catches the §V-A pilot-study errors (sign mistakes via
/// coordinate bounds, missing fields, wrong types).
[[nodiscard]] json::Schema config_schema();

// ---------------------------------------------------------------------------
// Rulebase introspection (consumed by the rulebase verifier, src/analysis)
// ---------------------------------------------------------------------------

/// The closed action vocabulary check_preconditions and the tracker dispatch
/// for a device of `meta`'s category, plus its configured value bindings and
/// active actions (aliases excluded — they resolve through
/// DeviceMeta::canonical_action). Sorted, unique.
[[nodiscard]] std::vector<std::string> dispatchable_actions(const DeviceMeta& meta);

/// Whether one runtime rule can structurally fire on `config` at all —
/// independent of any command stream. A rule whose configured prerequisites
/// are absent (no sensor device for S1, no soft wall for M2, no centrifuge
/// for C2–C4) is dead by construction: no input reaches it.
struct RuleAvailability {
  std::string rule;    ///< "G1".."G11", "C1".."C4", "M1", "M2", "S1"
  bool reachable = false;
  /// The missing configured prerequisite when !reachable (machine-readable,
  /// e.g. "no-sensor-device"); empty when reachable.
  std::string requirement;
};

/// Structural availability of every rulebase entry on `config`, in stable
/// rulebase order. The R8 dark-key classifier and the coverage-map docs both
/// key on this.
[[nodiscard]] std::vector<RuleAvailability> rulebase_availability(const EngineConfig& config);

}  // namespace rabit::core
