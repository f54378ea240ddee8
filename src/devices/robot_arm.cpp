#include "devices/robot_arm.hpp"

namespace rabit::dev {

namespace {

json::Value position_to_json(const geom::Vec3& p) {
  json::Array arr;
  arr.emplace_back(p.x);
  arr.emplace_back(p.y);
  arr.emplace_back(p.z);
  return json::Value(std::move(arr));
}

geom::Vec3 position_from_args(const json::Value& args) {
  std::optional<geom::Vec3> position = position_arg(args);
  if (!position) {
    throw DeviceError(DeviceError::Code::BadArgument,
                      "move_to requires 'position' = [x, y, z]");
  }
  return *position;
}

}  // namespace

RobotArmDevice::RobotArmDevice(std::string id, kin::ArmModel model, MotionPolicy policy)
    : Device(std::move(id), DeviceCategory::RobotArm),
      model_(std::move(model)),
      policy_(policy),
      joints_(kin::home_configuration()),
      tip_lab_(model_.forward(joints_)),
      home_joints_(kin::home_configuration()),
      sleep_joints_(kin::sleep_configuration()) {
  set_var("position", position_to_json(position_local()));
  set_var("pose", "home");
  set_var("gripper", "open");
  set_var("holding", "");
  set_var("inside", "");

  register_action("move_to", [this](const json::Value& args) { move_handler(args); });
  // Vendor APIs often expose several commands for the same action (Ned2's
  // move_pose vs move_to) — the paper's "multiple commands per action" gap.
  register_action("move_pose", [this](const json::Value& args) { move_handler(args); });
  register_action("go_home", [this](const json::Value&) {
    commit_move(plan_pose("home"), "home");
  });
  register_action("go_sleep", [this](const json::Value&) {
    commit_move(plan_pose("sleep"), "sleep");
  });
  register_action("open_gripper", [this](const json::Value&) { set_gripper(true); });
  register_action("close_gripper", [this](const json::Value&) { set_gripper(false); });
}

geom::Vec3 RobotArmDevice::to_lab(const geom::Vec3& local) const {
  return model_.base().apply(local);
}

geom::Vec3 RobotArmDevice::to_local(const geom::Vec3& lab) const {
  return model_.base().inverse().apply(lab);
}

geom::Vec3 RobotArmDevice::position_local() const { return to_local(tip_lab_); }

MotionPlan RobotArmDevice::plan_move(const geom::Vec3& target_local, std::size_t samples) const {
  MotionPlan plan;
  plan.target_local = target_local;
  plan.target_lab = to_lab(target_local);

  kin::IkResult ik = model_.inverse(plan.target_lab, joints_);
  if (!ik.joints) {
    if (policy_ == MotionPolicy::SilentSkipOnUnreachable) {
      plan.skipped = true;  // the ViperX behaviour: command quietly ignored
      return plan;
    }
    throw DeviceError(DeviceError::Code::FirmwareRejected,
                      id() + ": cannot compute trajectory (" +
                          std::string(kin::to_string(ik.error)) + ")");
  }
  plan.trajectory = kin::JointTrajectory(joints_, *ik.joints, samples);
  return plan;
}

MotionPlan RobotArmDevice::plan_pose(std::string_view pose_name, std::size_t samples) const {
  kin::JointVector goal = named_pose(pose_name);
  MotionPlan plan;
  plan.target_lab = model_.forward(goal);
  plan.target_local = to_local(plan.target_lab);
  plan.trajectory = kin::JointTrajectory(joints_, goal, samples);
  return plan;
}

void RobotArmDevice::commit_move(const MotionPlan& plan, std::string_view pose_name) {
  if (plan.skipped || !plan.trajectory) return;  // nothing physically happened
  joints_ = plan.trajectory->goal();
  tip_lab_ = model_.forward(joints_);
  var("position") = position_to_json(position_local());
  var("pose") = std::string(pose_name);
}

void RobotArmDevice::set_named_pose(std::string_view pose_name, const kin::JointVector& joints) {
  if (pose_name == "home") {
    home_joints_ = joints;
  } else if (pose_name == "sleep") {
    sleep_joints_ = joints;
  } else {
    throw DeviceError(DeviceError::Code::BadArgument,
                      id() + ": unknown pose '" + std::string(pose_name) + "'");
  }
}

const kin::JointVector& RobotArmDevice::named_pose(std::string_view pose_name) const {
  if (pose_name == "home") return home_joints_;
  if (pose_name == "sleep") return sleep_joints_;
  throw DeviceError(DeviceError::Code::BadArgument,
                    id() + ": unknown pose '" + std::string(pose_name) + "'");
}

void RobotArmDevice::set_gripper(bool open) { var("gripper") = open ? "open" : "closed"; }

void RobotArmDevice::set_holding(std::string object_id) { var("holding") = std::move(object_id); }

void RobotArmDevice::set_inside_device(std::string device_id) {
  var("inside") = std::move(device_id);
}

StateMap RobotArmDevice::observed_state() const {
  StateMap out = Device::observed_state();
  out.erase("holding");
  out.erase("inside");
  return out;
}

void RobotArmDevice::move_handler(const json::Value& args) {
  MotionPlan plan = plan_move(position_from_args(args));
  commit_move(plan);
}

}  // namespace rabit::dev
