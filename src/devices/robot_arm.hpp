// Robot arm device (paper §II-A type 2): moves between locations, picks up
// and places objects. Wraps a kinematic model; physical collision checking
// is done by the backend sweeping the planned trajectory through the scene.
//
// Coordinate frames: command coordinates are in the arm's own frame (the
// paper keeps separate per-arm coordinate systems on the testbed, §IV
// category 2); the mounting transform maps them into the lab frame.
#pragma once

#include "devices/device.hpp"
#include "kinematics/kinematics.hpp"

namespace rabit::dev {

/// How the arm controller reacts to an unreachable target (paper §IV
/// category 4): ViperX silently skips the command; Ned2 throws and halts.
enum class MotionPolicy { SilentSkipOnUnreachable, ThrowOnUnreachable };

/// A planned motion, ready for the backend to collision-sweep and commit.
struct MotionPlan {
  std::optional<kin::JointTrajectory> trajectory;  ///< absent when skipped
  geom::Vec3 target_local;                          ///< requested target, arm frame
  geom::Vec3 target_lab;                            ///< same point, lab frame
  bool skipped = false;  ///< true when the controller silently ignored the move
};

/// State variables:
///   position  (array [x,y,z], arm frame — what the controller reports)
///   pose      ("home" | "sleep" | "custom")
///   gripper   ("open" | "closed")
///   holding   (vial id or "", ground truth only — no gripper sensor exists,
///              so status commands cannot report it; see §IV category 3)
///   inside    (device id or "", ground truth only)
class RobotArmDevice : public Device {
 public:
  RobotArmDevice(std::string id, kin::ArmModel model, MotionPolicy policy);

  [[nodiscard]] const kin::ArmModel& model() const { return model_; }
  [[nodiscard]] MotionPolicy policy() const { return policy_; }
  [[nodiscard]] const kin::JointVector& joints() const { return joints_; }

  /// Arm-frame point -> lab frame.
  [[nodiscard]] geom::Vec3 to_lab(const geom::Vec3& local) const;
  /// Lab-frame point -> arm frame.
  [[nodiscard]] geom::Vec3 to_local(const geom::Vec3& lab) const;

  /// Current end-effector position in the arm frame.
  [[nodiscard]] geom::Vec3 position_local() const;
  /// Current end-effector position in the lab frame: forward kinematics of
  /// the joints, kept from the last commit_move().
  [[nodiscard]] geom::Vec3 position_lab() const { return tip_lab_; }

  /// Plans a move to `target_local` (arm frame). Unreachable targets follow
  /// the motion policy: either a skipped plan or a DeviceError.
  [[nodiscard]] MotionPlan plan_move(const geom::Vec3& target_local,
                                     std::size_t samples = 32) const;
  /// Plans a move to a named joint pose.
  [[nodiscard]] MotionPlan plan_pose(std::string_view pose_name, std::size_t samples = 32) const;

  /// Overrides the joint configuration behind "home" or "sleep" (arms ship
  /// with generic defaults; decks tune them to their mounting).
  void set_named_pose(std::string_view pose_name, const kin::JointVector& joints);
  [[nodiscard]] const kin::JointVector& named_pose(std::string_view pose_name) const;

  /// Applies a plan: updates joints, the kept tip and the reported
  /// position. The named pose becomes "custom" unless `pose_name` is given.
  void commit_move(const MotionPlan& plan, std::string_view pose_name = "custom");

  /// Gripper state.
  [[nodiscard]] bool gripper_open() const { return var("gripper").as_string() == "open"; }
  void set_gripper(bool open);

  /// Held-object bookkeeping (backend-managed; not observable by status).
  [[nodiscard]] const std::string& holding() const { return var("holding").as_string(); }
  void set_holding(std::string object_id);

  /// Extra reach below the end effector contributed by a held object (m);
  /// 0 when empty-handed. The paper's Bug D fix: "a robot arm's dimensions
  /// may change if it is holding an object".
  [[nodiscard]] double held_clearance() const { return holding().empty() ? 0.0 : held_drop_; }
  void set_held_drop(double meters) { held_drop_ = meters; }
  [[nodiscard]] double held_drop() const { return held_drop_; }

  [[nodiscard]] const std::string& inside_device() const { return var("inside").as_string(); }
  void set_inside_device(std::string device_id);

  /// Status commands report encoder-derived values only: position, pose,
  /// gripper. `holding` and `inside` have no sensor and are omitted — this
  /// is precisely why the paper's Bug C (experiment without a vial) escapes
  /// detection.
  [[nodiscard]] StateMap observed_state() const override;

 private:
  void move_handler(const json::Value& args);

  kin::ArmModel model_;
  MotionPolicy policy_;
  kin::JointVector joints_;
  geom::Vec3 tip_lab_;  ///< model_.forward(joints_); joints_ change only in commit_move
  kin::JointVector home_joints_;
  kin::JointVector sleep_joints_;
  double held_drop_ = 0.07;  ///< a vial hangs ~7 cm below the gripper
};

}  // namespace rabit::dev
