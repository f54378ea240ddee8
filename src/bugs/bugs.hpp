// rabit::bugs — mutation-based bug injection and the §IV bug catalogue.
//
// In the paper, a collaborator acting as a "naive programmer" introduced 16
// potentially unsafe program changes by adding, deleting, updating, or
// reordering one or two lines in the experiment scripts (Figs. 5 and 6).
// This module reproduces that evaluation: each catalogued bug is a small,
// named mutation of a safe command stream, annotated with its §IV category,
// its Table V severity class, and the RABIT variant that first detects it.
// A seeded random mutator generates the "large bug datasets" the paper names
// as future work.
#pragma once

#include <functional>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "devices/device.hpp"
#include "sim/backend.hpp"
#include "trace/trace.hpp"

namespace rabit::bugs {

/// The unsafe-behaviour categories of §IV plus the mutation kinds that do
/// not fit the four named ones.
enum class BugCategory {
  DoorInteraction,   ///< §IV category 1
  ArmArmCollision,   ///< §IV category 2
  MissingVial,       ///< §IV category 3
  CoordinateChange,  ///< §IV category 4
  ArgumentChange,    ///< bad action arguments (overdose, over-temperature)
  OrderChange,       ///< reordered / duplicated commands
};

[[nodiscard]] std::string_view to_string(BugCategory c);

/// Editing operations over a linear command stream — the equivalents of the
/// collaborator's script edits.
class StreamEditor {
 public:
  explicit StreamEditor(std::vector<dev::Command> commands)
      : commands_(std::move(commands)) {}

  [[nodiscard]] const std::vector<dev::Command>& commands() const { return commands_; }
  [[nodiscard]] std::vector<dev::Command> take() { return std::move(commands_); }
  [[nodiscard]] std::size_t size() const { return commands_.size(); }

  /// Index of the nth (0-based) command matching device+action, optionally
  /// refined by an argument predicate. Throws std::out_of_range if absent.
  [[nodiscard]] std::size_t find(std::string_view device, std::string_view action,
                                 std::size_t nth = 0,
                                 const std::function<bool(const json::Value&)>& args_match =
                                     nullptr) const;

  void erase(std::size_t index, std::size_t count = 1);
  void insert(std::size_t index, dev::Command cmd);
  void append(dev::Command cmd) { commands_.push_back(std::move(cmd)); }
  void swap(std::size_t i, std::size_t j);
  void set_arg(std::size_t index, std::string_view key, json::Value value);

  /// Replaces every move_to whose position is within `tol` of `old_position`
  /// (per axis) with `new_position` — editing one entry of the hardcoded
  /// locations file (Fig. 6 / Bug D). Returns the number of edits.
  std::size_t replace_position(std::string_view device, const geom::Vec3& old_position,
                               const geom::Vec3& new_position, double tol = 1e-6);

 private:
  std::vector<dev::Command> commands_;
};

/// Builds commands succinctly.
[[nodiscard]] dev::Command cmd(std::string device, std::string action, json::Object args = {});
[[nodiscard]] dev::Command move_cmd(std::string arm, const geom::Vec3& local_position);

/// One catalogued bug.
struct BugSpec {
  std::string id;  ///< "H1".."H6", "M1".."M6", "L1".."L3", "ML1"
  std::string name;
  std::string description;
  BugCategory category;
  dev::Severity severity;  ///< Table V class of the damage it causes
  /// First RABIT variant that detects it; nullopt = never detected (even
  /// with the Extended Simulator).
  std::optional<core::Variant> detected_from;
  /// Builds the *buggy* command stream for a fresh testbed deck.
  std::function<std::vector<dev::Command>(const sim::LabBackend&)> build;
  /// Builds the corresponding *safe* baseline stream (for the
  /// false-positive check).
  std::function<std::vector<dev::Command>(const sim::LabBackend&)> build_safe;
};

/// The 16 bugs of the paper's uncontrolled evaluation.
[[nodiscard]] const std::vector<BugSpec>& bug_catalogue();

/// Outcome of running one stream under one RABIT variant on a fresh testbed.
struct BugOutcome {
  bool damaged = false;
  std::optional<dev::Severity> damage_severity;
  bool alerted = false;
  std::string alert_rule;
  /// Detected = an alert fired no later than the first damaging command.
  bool detected = false;
  trace::RunReport report;
};

/// Runs `commands` under `variant` on a fresh testbed core::Lab (with an
/// Extended Simulator for ModifiedWithSim). Explicit Supervisor options let
/// the chaos-campaign bench prove the detection progression is unchanged
/// with the recovery ladder on.
[[nodiscard]] BugOutcome evaluate_stream(const std::vector<dev::Command>& commands,
                                         core::Variant variant,
                                         const trace::Supervisor::Options& options = {});

/// Convenience: builds the bug's stream and evaluates it.
[[nodiscard]] BugOutcome evaluate_bug(const BugSpec& bug, core::Variant variant);

// ---------------------------------------------------------------------------
// Synthetic bug datasets (the paper's stated future work: "generating large
// bug datasets — a challenging task in itself").
// ---------------------------------------------------------------------------

enum class MutationKind { DeleteCommand, SwapAdjacent, ScaleArgument, ShiftCoordinate };

struct SyntheticBug {
  MutationKind kind;
  std::size_t target_index = 0;
  std::string detail;
  std::vector<dev::Command> commands;
};

/// Applies one random mutation to `base`. Deterministic under a seeded rng.
[[nodiscard]] SyntheticBug random_mutation(const std::vector<dev::Command>& base,
                                           std::mt19937& rng);

/// Same draw over the caller's std::mt19937_64 chain — the scenario factory
/// threads one master seed chain through every generator (rad synthesis,
/// mutations, fault schedules) so a campaign is reproducible end-to-end
/// from a single seed.
[[nodiscard]] SyntheticBug random_mutation(const std::vector<dev::Command>& base,
                                           std::mt19937_64& rng);

}  // namespace rabit::bugs
