// The RABIT rulebase: the 11 general rules of Table III ("G1".."G11"), the
// 4 Hein Lab custom rules of Table IV ("C1".."C4"), and the two multiplexing
// preconditions added in §IV category 2 ("M1" time, "M2" space).
//
// Rules are evaluated against the *tracked* symbolic state (StateTracker) —
// never against ground truth — so RABIT's knowledge gaps (no gripper sensor,
// an incomplete world model in the Initial variant) produce exactly the
// detection misses reported in the paper.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
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

/// The world model RABIT checks targets against, assembled per variant:
/// Initial sees configured device cuboids only; Modified adds the static
/// geometry (platform/walls), parked-arm cuboids for arms believed asleep,
/// and the space-multiplexing soft walls for `moving_arm`.
[[nodiscard]] sim::WorldModel assemble_rule_world(const EngineConfig& config,
                                                  const StateTracker& tracker,
                                                  std::string_view moving_arm);

/// Memoizes assemble_rule_world between commands. The assembled world only
/// depends on static config geometry plus which arms are believed parked, so
/// the tracker's pose revision counter decides whether the cached world (and
/// its broad-phase grid) can be reused — an O(1) comparison per motion. The
/// cache assumes the config it is handed does not change between calls —
/// RabitEngine owns one per (config, tracker) pair for exactly that reason.
class RuleWorldCache {
 public:
  struct Entry {
    sim::WorldModel world;
    sim::BroadPhaseGrid grid;
  };

  /// The rule world for `moving_arm`, rebuilt only when some arm's believed
  /// pose changed since the previous call for this arm.
  [[nodiscard]] const Entry& world_for(const EngineConfig& config, const StateTracker& tracker,
                                       std::string_view moving_arm);

  /// Times the world was actually assembled (memo-effectiveness metric).
  [[nodiscard]] std::size_t rebuilds() const { return rebuilds_; }

 private:
  struct CachedWorld {
    std::uint64_t pose_revision = 0;
    Entry entry;
  };
  std::unordered_map<std::string, CachedWorld, detail::StringViewHash, std::equal_to<>> by_arm_;
  std::size_t rebuilds_ = 0;
};

/// Valid(S_current, a_next): first violated precondition, or nullopt when
/// the command is allowed.
[[nodiscard]] std::optional<RuleHit> check_preconditions(const EngineConfig& config,
                                                         const StateTracker& tracker,
                                                         const dev::Command& cmd);

/// Same, reusing `cache` for the per-motion rule-world assembly (nullptr
/// falls back to assembling per command — identical verdicts either way).
[[nodiscard]] std::optional<RuleHit> check_preconditions(const EngineConfig& config,
                                                         const StateTracker& tracker,
                                                         const dev::Command& cmd,
                                                         RuleWorldCache* cache);

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
