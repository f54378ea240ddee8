// LabBackend — the execution environment for one of RABIT's three stages.
//
// The backend is the ground truth this repository substitutes for a physical
// lab: it owns the devices, the deck geometry, and the cross-device physics
// (substance transfer, doors hitting arms, vials shattering), and it records
// DamageEvents when something physically bad happens. RABIT is evaluated by
// whether its alert precedes the damage.
//
// One backend class parameterized by a StageProfile models all three stages
// of Table I (simulator / testbed / production): the stages differ in modeled
// command latency, positioning precision, measurement accuracy, and the
// dollar cost of damage — not in the physics code paths.
#pragma once

#include <array>
#include <random>

#include "devices/containers.hpp"
#include "devices/device.hpp"
#include "devices/fault.hpp"
#include "devices/robot_arm.hpp"
#include "devices/stations.hpp"
#include "sim/world.hpp"

namespace rabit::sim {

/// Stage capability parameters (paper Table I).
struct StageProfile {
  std::string name;
  double command_latency_s = 2.0;       ///< modeled wall-clock per command
  double position_noise_sigma_m = 0.0;  ///< arm positioning error
  double measurement_noise_sigma = 0.0; ///< solubility-measurement error
  double damage_cost_factor = 1.0;      ///< relative $ cost of damage events
};

[[nodiscard]] StageProfile simulator_profile();
[[nodiscard]] StageProfile testbed_profile();
[[nodiscard]] StageProfile production_profile();

/// Ground-truth damage, classified with the paper's Table V severity bands.
struct DamageEvent {
  dev::Severity severity = dev::Severity::Low;
  std::string description;
  std::string device;          ///< primarily affected device
  std::size_t command_index;   ///< which executed command caused it
};

/// Outcome of executing one command against the backend.
struct ExecResult {
  bool executed = false;          ///< false when firmware rejected the command
  bool silently_skipped = false;  ///< arm controller quietly ignored the move
  bool transient_busy = false;    ///< rejection was a firmware-busy transient
  std::string firmware_error;    ///< non-empty when executed == false
  std::vector<DamageEvent> damage;
  double modeled_latency_s = 0.0;
  std::optional<double> measurement;  ///< present for measurement commands

  [[nodiscard]] bool damaged() const { return !damage.empty(); }
};

/// A logical deck location commands refer to by name: either a vial-grid
/// slot, a device receptacle, or a bare waypoint.
struct SiteBinding {
  std::string name;          ///< e.g. "grid.NW", "dosing_device"
  geom::Vec3 lab_position;   ///< ground-truth position of the slot/receptacle
  std::string grid_device;   ///< set when the site is a grid slot
  std::string grid_slot;
  std::string receptacle_device;  ///< set when the site is a device receptacle

  [[nodiscard]] bool is_grid_slot() const { return !grid_device.empty(); }
  [[nodiscard]] bool is_receptacle() const { return !receptacle_device.empty(); }
};

class LabBackend {
 public:
  explicit LabBackend(StageProfile profile, unsigned seed = 42);

  [[nodiscard]] const StageProfile& profile() const { return profile_; }

  [[nodiscard]] dev::DeviceRegistry& registry() { return registry_; }
  [[nodiscard]] const dev::DeviceRegistry& registry() const { return registry_; }

  /// Deck geometry that is not a device: ground, walls, mounting platform.
  void add_static_obstacle(std::string name, const geom::Aabb& box, ObstacleKind kind);
  [[nodiscard]] const std::vector<NamedBox>& static_obstacles() const { return static_; }

  void add_site(SiteBinding site);
  [[nodiscard]] const SiteBinding* find_site(std::string_view name) const;
  /// Site whose lab position is within `tolerance` of `lab_point`.
  [[nodiscard]] const SiteBinding* site_near(const geom::Vec3& lab_point,
                                             double tolerance) const;
  [[nodiscard]] const std::vector<SiteBinding>& sites() const { return sites_; }

  /// Convenience typed lookups (throw std::out_of_range / bad type).
  [[nodiscard]] dev::RobotArmDevice& arm(std::string_view id);
  [[nodiscard]] dev::Vial& vial(std::string_view id);

  /// Builds the complete physical world as seen when `moving_arm` moves:
  /// deck_world_model with every device's refined shape, plus the other
  /// arms' current link segments. SoftWalls are never part of ground truth.
  [[nodiscard]] WorldModel ground_truth_world(std::string_view moving_arm) const;

  /// The ground truth the last arm move was checked against, and its broad
  /// phase (both empty before the first move). Arm moves keep it rather
  /// than build it: it is rebuilt with ground_truth_world() only when the
  /// registry or the static obstacles grew, since footprints and shapes are
  /// fixed at construction and neither list shrinks; each move refreshes
  /// only the other arms' link segments. Robot arms have no footprint, so
  /// the boxes are the same whichever arm moves.
  [[nodiscard]] const WorldModel& kept_ground_truth() const { return kept_.world; }
  [[nodiscard]] const BroadPhaseGrid& kept_ground_truth_grid() const { return kept_.grid; }
  /// Ground-truth worlds built for arm moves so far.
  [[nodiscard]] std::size_t ground_truth_builds() const { return kept_.builds; }

  /// Executes one command with full physics. Never throws for in-experiment
  /// failures (firmware rejections land in ExecResult); throws only on
  /// structural misuse (unknown device).
  ExecResult execute(const dev::Command& cmd);

  [[nodiscard]] const std::vector<DamageEvent>& damage_log() const { return damage_log_; }
  [[nodiscard]] std::size_t commands_executed() const { return commands_executed_; }
  [[nodiscard]] double modeled_clock_s() const { return modeled_clock_s_; }

  /// Advances the modeled clock without executing anything (recovery
  /// backoff waits and status re-poll intervals).
  void advance_clock(double seconds);

  /// Installs a transient/scheduled fault timetable consulted on every
  /// command and status read. Replaces any previous schedule.
  void set_fault_schedule(dev::FaultSchedule schedule);
  void clear_fault_schedule() { fault_schedule_.reset(); }
  [[nodiscard]] const dev::FaultSchedule* fault_schedule() const {
    return fault_schedule_ ? &*fault_schedule_ : nullptr;
  }

  /// One whole-lab status poll (the paper's FetchState) subject to the
  /// fault schedule: a StatusTimeout device gets no response (last-known
  /// data is substituted and the device listed in `timed_out`); a
  /// StaleStatus device silently reports its previous snapshot (`stale`
  /// is ground-truth annotation for benches — a real caller cannot see it).
  /// The schedule is consulted for every device, in registry order; a
  /// device that answers is re-read only when its revision() moved since
  /// its last read.
  struct StatusFetch {
    /// S_actual: a view of the backend's own snapshot, valid until the next
    /// fetch_status(), which updates it in place.
    const dev::ObservedLab* observed = nullptr;
    std::vector<std::string> timed_out;
    std::vector<std::string> stale;
    [[nodiscard]] const dev::LabStateSnapshot& snapshot() const { return observed->snapshot; }
    [[nodiscard]] bool complete() const { return timed_out.empty(); }
  };
  [[nodiscard]] StatusFetch fetch_status();

  /// Device status re-reads (observed_state() calls) fetch_status() made so
  /// far: the work count of Fig. 2 line 13.
  [[nodiscard]] std::size_t status_reads() const { return status_reads_; }

  /// Positioning-error magnitudes sampled per arm move (Table I precision).
  [[nodiscard]] const std::vector<double>& position_error_samples() const {
    return position_errors_;
  }

  /// Total modeled damage cost (severity-weighted, scaled by the stage's
  /// damage_cost_factor) — the "risk of damage" row of Table I.
  [[nodiscard]] double total_damage_cost() const;

  /// Ground-truth solubility readout for a vial, with stage noise applied.
  [[nodiscard]] double measure_solubility(const dev::Vial& v);

  /// Noise-free solubility (used to score stage accuracy in Table I).
  [[nodiscard]] static double true_solubility(const dev::Vial& v);

 private:
  void handle_arm_move(dev::RobotArmDevice& a, const dev::Command& cmd, ExecResult& r);
  void handle_gripper(dev::RobotArmDevice& a, bool open, ExecResult& r);
  void handle_composite(dev::RobotArmDevice& a, const dev::Command& cmd, bool pick,
                        ExecResult& r);
  void handle_composite_pick(dev::RobotArmDevice& a, const dev::Command& cmd, ExecResult& r);
  void handle_composite_place(dev::RobotArmDevice& a, const dev::Command& cmd, ExecResult& r);
  void handle_set_door(dev::Device& d, const dev::Command& cmd, ExecResult& r);
  void after_station_action(dev::Device& d, const dev::Command& cmd, ExecResult& r);

  /// Moves the arm tip to `target_local` with collision physics; returns
  /// true when the motion completed without a halting crash.
  void perform_motion(dev::RobotArmDevice& a, const dev::MotionPlan& plan, ExecResult& r,
                      std::string_view pose_name = "custom");

  /// The kept ground truth, brought up to date for a move of `moving`.
  const WorldModel& ground_truth_for(const dev::RobotArmDevice& moving);
  /// Appends every arm's current links but `moving_arm`'s to `world`.
  void add_arm_segments(WorldModel& world, std::string_view moving_arm) const;

  void record_collision(dev::RobotArmDevice& a, const CollisionReport& hit, ExecResult& r);
  void drain_hazards(ExecResult& r);
  void update_inside_flag(dev::RobotArmDevice& a);

  /// Finds the vial currently sitting at `site`, if any.
  [[nodiscard]] dev::Vial* vial_at_site(const SiteBinding& site);
  /// Clears the slot/receptacle binding that currently holds `vial_id`.
  void detach_vial_from_site(const SiteBinding& site);
  /// Seats `v` at `site` (grid slot or receptacle), with crash physics when
  /// the spot is already occupied.
  void seat_vial(dev::Vial& v, const SiteBinding& site, ExecResult& r);

  StageProfile profile_;
  dev::DeviceRegistry registry_;
  std::vector<NamedBox> static_;
  std::vector<SiteBinding> sites_;
  std::vector<DamageEvent> damage_log_;
  std::vector<double> position_errors_;
  std::size_t commands_executed_ = 0;
  double modeled_clock_s_ = 0.0;
  std::mt19937 rng_;
  std::optional<dev::FaultSchedule> fault_schedule_;
  /// Each device's last successful read (what a stale read replays), with
  /// the revision it was read at; entries follow registry order.
  dev::ObservedLab observed_;
  std::size_t status_reads_ = 0;

  struct KeptGroundTruth {
    WorldModel world;
    BroadPhaseGrid grid;
    std::size_t devices = 0;  ///< registry_.size() at the last build
    std::size_t statics = 0;  ///< static_.size() at the last build
    std::size_t builds = 0;
  };
  KeptGroundTruth kept_;
};

/// The tip waypoints of a composite pick/place from `start` to `site`, start
/// excluded: lift to 0.22 m above the site's height, traverse at that height,
/// then descend onto the site — the motion sequence real pick-and-place
/// wrappers use. The backend executes these legs and RABIT's motion analysis
/// replays the same ones.
[[nodiscard]] std::array<geom::Vec3, 3> composite_legs(const geom::Vec3& start,
                                                       const geom::Vec3& site);

/// Severity for a physical collision, from what was hit (paper Table V).
[[nodiscard]] dev::Severity collision_severity(const CollisionReport& hit);

}  // namespace rabit::sim
