// rabit::analysis — pre-flight static analysis of lab scripts and configs.
//
// The pilot study (§V-A) found researchers lose hours to configuration and
// script errors that only surface at runtime. This module moves detection one
// stage earlier than the paper's own deployment ladder (simulator → testbed →
// production): it walks the script DSL AST with an abstract interpreter —
// constant/interval propagation for numeric arguments, a symbolic device-
// state model reusing StateTracker, bounded unrolling of loops, path forking
// at statically undecidable branches — and evaluates the G/C/M rule
// preconditions against every statically-resolvable device command, before a
// single command executes.
//
// On top of the runtime rulebase it layers analyzer-only checks (A1..A8)
// that catch classes of bug the runtime provably cannot (the paper's Bug C
// dry-run, the gripper reorder, the frame-misalignment brush, the silently
// skipped waypoint), plus a cross-consistency lint over EngineConfig (CFG1..)
// for semantic mistakes the JSON schema cannot express.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "devices/device.hpp"
#include "json/json.hpp"
#include "recovery/recovery.hpp"
#include "script/ast.hpp"

namespace rabit::core {
class StateTracker;
}  // namespace rabit::core

namespace rabit::analysis {

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

enum class Severity { Info, Warning, Error };

[[nodiscard]] std::string_view to_string(Severity s);

struct Diagnostic {
  Severity severity = Severity::Warning;
  /// Rulebase id ("G1".."G11", "C1".."C4", "M1", "M2", "S1"), analyzer rule
  /// ("A1".."A8"), config lint rule ("CFG1"..), interference rule
  /// ("I1".."I6"), or shard-plan rule ("S1".."S3" — those appear only inside
  /// ShardPlan::diagnostics, never in a stream report, so they cannot be
  /// confused with the runtime sensor rule S1).
  std::string rule;
  std::string message;
  /// 1-based script line; for command streams the command's source_line when
  /// recorded from a script, else the 1-based stream index. Interference
  /// diagnostics are campaign-level and use line 0.
  int line = 0;
  /// Devices / sites / entities this diagnostic is about, machine-readable.
  /// Populated by the interference family (I1..I6), where the differential
  /// sweep matches runtime alert devices against it; empty elsewhere.
  /// (Both lists default to `{}`, so an initializer may end at `line`.)
  std::vector<std::string> subjects{};
  /// Names of the campaign streams this diagnostic involves. Populated by
  /// the campaign-level families (I1..I6, S1..S3) so machine consumers can
  /// attribute a finding without parsing the message; empty for
  /// single-stream and config diagnostics.
  std::vector<std::string> streams{};

  [[nodiscard]] std::string format() const;  ///< "line 14: error G7 — ..."
};

struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;
  /// True when the analyzer hit a budget (paths, loop unrolling) and the
  /// report may therefore be incomplete (soundness limit, see DESIGN.md).
  bool truncated = false;

  [[nodiscard]] std::size_t count(Severity s) const;
  [[nodiscard]] bool has_errors() const { return count(Severity::Error) > 0; }
};

/// Serializes one diagnostic as a JSON object — the shared machine-readable
/// schema: {"id", "rule", "severity", "line", "message", "subjects"?,
/// "streams"?}. ("id" and "rule" carry the same value; "id" is the stable
/// name CI consumers key on.) rabit_lint --json and the shard planner's
/// evidence both emit exactly this shape.
[[nodiscard]] json::Value diagnostic_to_json(const Diagnostic& diagnostic);

/// Serializes a report as a JSON object (the rabit_lint --json format): a
/// "diagnostics" array of diagnostic_to_json objects plus summary counts.
[[nodiscard]] json::Value report_to_json(const AnalysisReport& report);

/// A copy of `report` with diagnostics in the canonical emission order —
/// (rule, streams, line, severity, message) — so text and --json output are
/// byte-stable across platforms and discovery orders. Analysis passes keep
/// their natural discovery order internally (tests pin it); emitters sort
/// at the boundary.
[[nodiscard]] AnalysisReport sorted_for_emission(const AnalysisReport& report);

// ---------------------------------------------------------------------------
// Abstract values
// ---------------------------------------------------------------------------

/// The numeric lattice: Const(v) ⊑ Range[lo,hi] ⊑ Top. Non-numeric values
/// are either Const (strings, bools, lists, objects) or Top.
struct AbstractValue {
  enum class Kind { Const, Range, Top };

  Kind kind = Kind::Top;
  json::Value constant;  ///< valid when kind == Const
  double lo = 0.0;       ///< valid when kind == Range
  double hi = 0.0;
  std::string device;    ///< non-empty: this value names a device

  [[nodiscard]] static AbstractValue make_const(json::Value v);
  [[nodiscard]] static AbstractValue make_range(double lo, double hi);
  [[nodiscard]] static AbstractValue top();
  [[nodiscard]] static AbstractValue device_ref(std::string id);

  [[nodiscard]] bool is_const() const { return kind == Kind::Const; }
  [[nodiscard]] bool is_top() const { return kind == Kind::Top; }
  /// Numeric interval view: a Const number reads as a point interval.
  [[nodiscard]] bool numeric_bounds(double& out_lo, double& out_hi) const;
  /// Truth value when statically decidable.
  [[nodiscard]] std::optional<bool> truth() const;
};

/// Interval arithmetic / comparison used by the interpreter (exposed for
/// tests). `op` is one of the DSL binary operators.
[[nodiscard]] AbstractValue abstract_binary(const std::string& op, const AbstractValue& lhs,
                                            const AbstractValue& rhs);

// ---------------------------------------------------------------------------
// Analyzer entry points
// ---------------------------------------------------------------------------

/// One device command the analyzer resolved (or partially resolved) on some
/// path, with the symbolic pre-command state it was checked against. The
/// interference layer consumes these to build per-stream effect summaries;
/// see interference.hpp.
struct CommandObservation {
  const dev::Command* cmd = nullptr;          ///< args constant where foldable
  const core::StateTracker* tracker = nullptr;  ///< state *before* the command
  int line = 0;
  /// True when the observation sits past a statically undecidable branch —
  /// the command may or may not happen; summaries treat it as "may".
  bool speculative = false;
  /// Arguments that did not fold to constants, with their abstract values
  /// (intervals where known, Top otherwise). Null when fully resolved.
  const std::vector<std::pair<std::string, AbstractValue>>* unresolved = nullptr;
};

/// A3 frame-calibration slack (m): a motion target this close to a parked arm
/// is a near-miss. The same slack inflates every arm envelope of a stream
/// summary and, in a shard plan, the parked sleep box of an arm no stream
/// commands.
inline constexpr double kParkedArmMargin = 0.05;
/// A4 inflation of the configured deck envelope (m): a motion target outside
/// it may be silently skipped. An arm whose target cannot be resolved
/// statically occupies this whole inflated envelope in its stream summary.
inline constexpr double kWorkspaceMargin = 0.25;

/// The configured deck envelope: the union of everything the researcher
/// described as occupying space (static obstacles, device and sleep boxes,
/// sensor zones, sites). A motion target far outside it is almost certainly
/// a typo'd coordinate (the silently-skipped waypoint of §IV footnote 2 sat
/// at z = 2.0, a metre above the enclosure).
[[nodiscard]] std::optional<geom::Aabb> workspace_envelope(const core::EngineConfig& config);

struct AnalyzeOptions {
  int loop_unroll_budget = 64;    ///< decidable-loop iterations before widening
  int unknown_loop_unroll = 2;    ///< speculative iterations of unknown loops
  int max_paths = 64;             ///< path-set cap (forked branches)
  int max_diagnostics = 200;      ///< total report cap
  /// Summary hook: called once per checked device command (on every path and
  /// loop iteration), before its postconditions are applied. Diagnostics are
  /// unaffected — the hook only feeds effect-summary construction.
  std::function<void(const CommandObservation&)> observe_command;
};

/// Synthesizes the Fig. 6-style `locations` global from a configuration
/// (sites × arms, arm-local "pickup" plus a raised "safe"), so standalone
/// scripts can be linted without a live backend.
[[nodiscard]] json::Value seed_locations(const core::EngineConfig& config,
                                         double safe_lift = 0.22);

/// Statically analyzes a script against the rulebase. `globals` seeds
/// additional interpreter globals (the `locations` table when absent is
/// synthesized from the config automatically).
[[nodiscard]] AnalysisReport analyze_script(const core::EngineConfig& config,
                                            const script::Program& program,
                                            const AnalyzeOptions& options = {});
[[nodiscard]] AnalysisReport analyze_script(const core::EngineConfig& config,
                                            std::string_view source,
                                            const AnalyzeOptions& options = {});
[[nodiscard]] AnalysisReport analyze_script(const core::EngineConfig& config,
                                            std::string_view source,
                                            const std::map<std::string, json::Value>& globals,
                                            const AnalyzeOptions& options = {});

/// Degenerate (fully concrete) abstract interpretation of a linear command
/// stream: every runtime rule plus the analyzer-only checks, with no
/// execution. Diagnostic lines use each command's source_line when positive,
/// else its 1-based stream index.
[[nodiscard]] AnalysisReport analyze_stream(const core::EngineConfig& config,
                                            const std::vector<dev::Command>& commands,
                                            const AnalyzeOptions& options = {});

/// Cross-consistency lint over a configuration: unknown device/site
/// references, thresholds naming actions no device has, aliases shadowing
/// canonical actions, sites unreachable from every arm, overlapping device
/// cuboids, soft walls referencing unknown arms — semantic checks the JSON
/// schema cannot express.
[[nodiscard]] AnalysisReport lint_config(const core::EngineConfig& config);

/// CFG11 — recovery-policy sanity lint: fatal validation failures (zero or
/// negative backoff, shrinking backoff factor, jitter outside [0,1),
/// non-positive re-poll interval or watchdog) surface as errors, and a
/// watchdog shorter than one worst-case backoff ladder as a warning. The
/// same recovery::validate() the Supervisor enforces at construction, but
/// at pre-flight time where a bad policy costs seconds instead of a
/// mid-campaign escalation.
[[nodiscard]] AnalysisReport lint_recovery_policy(const recovery::RecoveryPolicy& policy);

}  // namespace rabit::analysis
