// Extended Simulator (paper §III): URSim models only the arm; the extension
// adds every deck device as a 3D cuboid and polls the arm's trajectory
// against them, flagging collisions before they happen in the real lab.
//
// The simulator checks a *configured* world model — typically loaded from
// the same JSON the researcher writes for RABIT — which may be incomplete or
// slightly wrong; that is what separates prediction from ground truth.
//
// The paper measures ~2 s of overhead per collision check because the
// simulator GUI runs in a virtual machine; a planned deployment mode
// bypasses the GUI. Both modes are modeled with a virtual latency meter so
// benches can report the paper's overhead numbers without real sleeps.
//
// Fleet-scale hot path: one trajectory primitive, sweep(), serves both the
// paper's V3 replay and the runtime-assurance fast path. A uniform-grid
// broad phase prunes the per-sample narrow phase to candidate boxes, and an
// epoch-versioned verdict cache keyed on (start, goal, clearance, inflation,
// ignore set, world epoch) short-circuits repeated checks of the same leg
// against an unchanged world. Both are transparent: verdicts are
// byte-identical to the unpruned, uncached scan. A simulator belongs to one
// lab and is never shared across threads, so it carries no locks.
#pragma once

#include <functional>
#include <unordered_map>

#include "json/json.hpp"
#include "sim/world.hpp"

namespace rabit::sim {

class ExtendedSimulator {
 public:
  /// Reads an arm's *actual* current tip position (the simulator polls the
  /// robot, paper §III). This is what lets trajectory replay catch the
  /// silently-skipped-command scenario of footnote 2: RABIT believes the arm
  /// reached the skipped waypoint, but the simulator sees where it really is.
  using ArmStateProvider = std::function<std::optional<geom::Vec3>(std::string_view arm_id)>;
  struct Options {
    bool gui_enabled = true;  ///< GUI round trip per check (the 2 s mode)
  };

  /// Trajectory polling resolution.
  static constexpr double kPollingStep_m = 0.01;
  /// Modeled cost of one GUI invocation, and of one with the GUI bypassed.
  static constexpr double kGuiLatency_s = 2.0;
  static constexpr double kHeadlessLatency_s = 0.02;
  /// Verdict-cache entries before a flush.
  static constexpr std::size_t kVerdictCacheCapacity = 1024;

  explicit ExtendedSimulator(WorldModel world) : ExtendedSimulator(std::move(world), Options{}) {}
  ExtendedSimulator(WorldModel world, Options options)
      : world_(std::move(world)), options_(options) {}

  /// Builds the world from a JSON document of the form:
  ///   {"objects": [{"name": "...", "kind": "equipment", "center": [x,y,z],
  ///                 "size": [dx,dy,dz]}, ...]}
  /// Throws std::runtime_error on malformed input.
  [[nodiscard]] static WorldModel world_from_json(const json::Value& config);

  [[nodiscard]] const WorldModel& world() const { return world_; }
  /// Mutable world access. Mutations through add_box/add_solid/
  /// set_arm_segment bump the epoch automatically; direct edits to the
  /// `boxes`/`arm_segments` vectors must be followed by bump_epoch() so the
  /// verdict cache and broad phase notice.
  [[nodiscard]] WorldModel& world() { return world_; }
  [[nodiscard]] const Options& options() const { return options_; }
  void set_gui_enabled(bool enabled) { options_.gui_enabled = enabled; }

  void set_arm_state_provider(ArmStateProvider provider) { provider_ = std::move(provider); }
  /// Polled actual tip position, when a provider is wired up.
  [[nodiscard]] std::optional<geom::Vec3> polled_arm_position(std::string_view arm_id) const {
    return provider_ ? provider_(arm_id) : std::nullopt;
  }

  /// What one sweep found.
  struct SweepResult {
    /// First collision of the uninflated path, leg by leg: nullopt means the
    /// trajectory is clear (the paper's ValidTrajectory(), Fig. 2 line 9).
    std::optional<CollisionReport> hit;
    /// The sweep inflated by `inflate` hit something while the uninflated
    /// path is clear: the runtime-assurance demotion signal. Always false
    /// when `inflate` is not positive.
    bool tripped = false;
  };

  /// Sweeps a multi-leg tip path through the configured world, skipping the
  /// boxes named in `ignore` (the deliberate-entry set computed by motion
  /// analysis; the world itself is never mutated). With `inflate` > 0 every
  /// obstacle is grown by that margin (Ground exempt, see
  /// PathCheckOptions::inflate); only from the first leg whose inflated test
  /// hits onward are legs re-tested uninflated, so assurance costs nothing
  /// extra on clean motions. Each leg up to and including the first whose
  /// inflated test hits charges one modeled simulator invocation; the
  /// uninflated re-tests are free.
  [[nodiscard]] SweepResult sweep(const std::vector<geom::Vec3>& waypoints, double held_clearance,
                                  const std::vector<std::string>& ignore, double inflate = 0.0);

  /// RTA slow path: full signed-clearance barrier profile h(s) over a
  /// multi-leg tip path (sim::margin_profile, exactly culled per leg; no
  /// cache — taken only after the inflated sweep trips). Charges no modeled
  /// latency: the margin comes from the polling sweep the simulator already
  /// ran.
  [[nodiscard]] MarginProfile trajectory_margin(const std::vector<geom::Vec3>& waypoints,
                                                double held_clearance,
                                                const std::vector<std::string>& ignore);

  /// How many margin-profile slow-path scans ran (bench instrumentation).
  [[nodiscard]] std::size_t margin_scans() const { return margin_scans_; }
  /// Box-clearance evaluations summed over those scans
  /// (MarginProfile::boxes_tested).
  [[nodiscard]] std::size_t margin_boxes_tested() const { return margin_boxes_tested_; }

  /// Modeled simulator invocations (one per charged sweep leg).
  [[nodiscard]] std::size_t checks_performed() const { return checks_; }
  /// Modeled wall-clock spent inside the simulator so far.
  [[nodiscard]] double modeled_latency_s() const { return modeled_latency_s_; }

  /// Verdict-cache instrumentation (for benches and invalidation tests).
  [[nodiscard]] std::size_t verdict_cache_hits() const { return cache_hits_; }
  [[nodiscard]] std::size_t narrow_phase_runs() const { return narrow_runs_; }

 private:
  struct VerdictKey {
    geom::Vec3 start;
    geom::Vec3 goal;
    double clearance = 0.0;
    double inflate = 0.0;
    std::vector<std::string> ignore;

    bool operator==(const VerdictKey& o) const {
      return start.x == o.start.x && start.y == o.start.y && start.z == o.start.z &&
             goal.x == o.goal.x && goal.y == o.goal.y && goal.z == o.goal.z &&
             clearance == o.clearance && inflate == o.inflate && ignore == o.ignore;
    }
  };
  struct VerdictKeyHash {
    std::size_t operator()(const VerdictKey& k) const;
  };

  /// Fingerprint of the world revision the caches were built against: the
  /// explicit epoch plus element counts (the counts catch direct vector
  /// mutation that forgot to bump the epoch).
  [[nodiscard]] std::uint64_t world_revision() const;
  /// One leg through the broad phase and verdict cache.
  [[nodiscard]] std::optional<CollisionReport> check_leg(const geom::Vec3& start,
                                                         const geom::Vec3& goal,
                                                         double held_clearance,
                                                         const std::vector<std::string>& ignore,
                                                         double inflate);

  WorldModel world_;
  Options options_;
  ArmStateProvider provider_;
  std::size_t checks_ = 0;
  std::size_t cache_hits_ = 0;
  std::size_t narrow_runs_ = 0;
  std::size_t margin_scans_ = 0;
  std::size_t margin_boxes_tested_ = 0;
  double modeled_latency_s_ = 0.0;

  BroadPhaseGrid grid_;
  /// check_path's per-leg buffers: its options (the ignore list's capacity
  /// is reused) and its narrow list.
  PathCheckOptions leg_options_;
  NarrowList narrow_;
  std::uint64_t cache_revision_ = ~0ULL;
  std::unordered_map<VerdictKey, std::optional<CollisionReport>, VerdictKeyHash> verdicts_;
};

}  // namespace rabit::sim
