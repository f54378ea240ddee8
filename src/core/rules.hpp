// The RABIT rulebase: the 11 general rules of Table III ("G1".."G11"), the
// 4 Hein Lab custom rules of Table IV ("C1".."C4"), and the two multiplexing
// preconditions added in §IV category 2 ("M1" time, "M2" space).
//
// Rules are evaluated against the *tracked* symbolic state (StateTracker) —
// never against ground truth — so RABIT's knowledge gaps (no gripper sensor,
// an incomplete world model in the Initial variant) produce exactly the
// detection misses reported in the paper.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/tracker.hpp"
#include "devices/device.hpp"
#include "sim/world.hpp"

namespace rabit::core {

struct RuleHit {
  std::string rule;  ///< "G1".."G11", "C1".."C4", "M1", "M2"
  std::string message;
};

/// Geometric context for an arm motion command, shared between the rule-3
/// target check and the V3 trajectory check.
struct MotionAnalysis {
  std::string arm_id;
  geom::Vec3 start_lab;
  geom::Vec3 target_lab;
  double held_clearance = 0.0;  ///< 0 under the Initial variant
  /// Devices the arm deliberately interacts with (grid being reached over,
  /// open-door station being entered): their boxes are not obstacles.
  std::vector<std::string> ignores;
  /// The tip path, including the start. Primitive moves go straight; the
  /// composite pick/place commands follow sim::composite_legs (the same legs
  /// the backend physically executes).
  std::vector<geom::Vec3> waypoints;
};

/// Tolerance for comparing tracked volumes and masses (mg/mL) against
/// capacities and doses. Tracked quantities accumulate through repeated
/// double additions, so exact comparisons would flag phantom shortfalls or
/// overflows one ulp past a boundary; every volume rule shares this epsilon.
inline constexpr double kVolumeEpsilon = 1e-9;

/// True for the commands that physically move an arm's tip.
[[nodiscard]] bool is_motion_command(const dev::Command& cmd);

/// Resolves where a motion command sends the arm and which boxes are
/// deliberate interactions. Returns nullopt for non-motion commands or when
/// the target cannot be resolved (unknown site — reported as a rule hit by
/// check_preconditions instead).
[[nodiscard]] std::optional<MotionAnalysis> analyze_motion(const EngineConfig& config,
                                                           const StateTracker& tracker,
                                                           const dev::Command& cmd);

/// One box of the world G3 checks a motion target against, as
/// for_each_rule_box visits it: a view of the config, so a walk allocates
/// nothing. A soft wall is named "soft_wall:" + its arm (`prefix` + `id`);
/// every other box is named `id`.
struct RuleBox {
  std::string_view prefix;
  std::string_view id;
  sim::ObstacleKind kind;
  const geom::Aabb& box;     ///< the solid's bounding box when `solid` is set
  const geom::Solid* solid;  ///< refined shape, or nullptr

  [[nodiscard]] std::string name() const;
  /// Is this box's name one of `names` (e.g. MotionAnalysis::ignores)?
  [[nodiscard]] bool named_in(const std::vector<std::string>& names) const;
  [[nodiscard]] bool contains(const geom::Vec3& p) const {
    return solid != nullptr ? solid->contains(p) : box.contains(p);
  }
  [[nodiscard]] bool intersects(const geom::Aabb& other) const {
    return solid != nullptr ? solid->intersects_box(other) : box.intersects(other);
  }
};

/// Walks the world RABIT checks `moving_arm`'s targets against, in order,
/// until `visit` returns true. Initial sees the configured device cuboids
/// (their refined solids with use_refined_shapes); Modified adds the static
/// geometry (platform/walls), a cuboid for every other arm believed parked,
/// and `moving_arm`'s space-multiplexing soft walls. On the stock decks that
/// is 11-12 boxes, few enough to read in place on every check.
template <class Visit>
void for_each_rule_box(const EngineConfig& config, const StateTracker& tracker,
                       std::string_view moving_arm, Visit&& visit) {
  for (const DeviceMeta& d : config.devices) {
    if (!d.box || d.id == moving_arm) continue;
    const sim::ObstacleKind kind = d.category == dev::DeviceCategory::Container
                                       ? sim::ObstacleKind::Grid
                                       : sim::ObstacleKind::Equipment;
    const geom::Solid* solid =
        config.use_refined_shapes && d.refined_shape ? &*d.refined_shape : nullptr;
    if (visit(RuleBox{"", d.id, kind, solid != nullptr ? solid->bounding_box() : *d.box, solid})) {
      return;
    }
  }
  if (config.variant == Variant::Initial) return;

  for (const sim::NamedBox& b : config.static_obstacles) {
    if (visit(RuleBox{"", b.name, b.kind, b.box, b.solid ? &*b.solid : nullptr})) return;
  }
  for (const DeviceMeta& d : config.devices) {
    if (!d.is_arm || d.id == moving_arm || !d.sleep_box) continue;
    if (tracker.arm_pose(d.id) == "sleep" &&
        visit(RuleBox{"", d.id, sim::ObstacleKind::ParkedArm, *d.sleep_box, nullptr})) {
      return;
    }
  }
  for (const SoftWallSpec& w : config.soft_walls) {
    if (w.arm_id == moving_arm &&
        visit(RuleBox{"soft_wall:", w.arm_id, sim::ObstacleKind::SoftWall, w.forbidden, nullptr})) {
      return;
    }
  }
}

/// G3's geometric form: the first rule-world box for `motion`'s arm, outside
/// `motion.ignores`, that contains the target or meets the held vial's
/// volume hanging below it (sim::check_point's semantics). Crossing a soft
/// wall is rule M2. check_preconditions runs this last for motion commands.
[[nodiscard]] std::optional<RuleHit> check_target_location(const EngineConfig& config,
                                                           const StateTracker& tracker,
                                                           const MotionAnalysis& motion);

/// Valid(S_current, a_next): first violated precondition, or nullopt when
/// the command is allowed.
[[nodiscard]] std::optional<RuleHit> check_preconditions(const EngineConfig& config,
                                                         const StateTracker& tracker,
                                                         const dev::Command& cmd);

/// One row of the state-transition table (paper Table II): an action with
/// its preconditions and postconditions, in human-readable form. Used for
/// documentation output and the Table II bench.
struct TransitionEntry {
  dev::DeviceCategory category;
  std::string action;
  std::string preconditions;
  std::string postconditions;
  std::string rules;  ///< which rulebase entries guard it
};

/// The full state-transition table RABIT populates from the configuration.
[[nodiscard]] std::vector<TransitionEntry> transition_table();

}  // namespace rabit::core
