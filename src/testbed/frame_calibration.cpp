#include "testbed/frame_calibration.hpp"

#include <cmath>

namespace rabit::tb {

using geom::Vec3;

namespace {

/// A noisy "touch" of a physical point, as reported in the arm's own frame:
/// true local coordinates + positioning noise + a gripper-geometry bias that
/// rotates with the horizontal approach direction (vendor gripper mismatch).
Vec3 measure_touch(const dev::RobotArmDevice& arm, const Vec3& physical_lab,
                   double noise_sigma, double gripper_offset, std::mt19937& rng) {
  // N(0, noise_sigma) as libstdc++ computes it (z * sigma + mean), which is
  // also defined for noise_sigma = 0, where std::normal_distribution is not.
  std::normal_distribution<double> standard;
  auto noise = [&] { return standard(rng) * noise_sigma + 0.0; };
  Vec3 local = arm.to_local(physical_lab);
  // The gripper contacts the point from the side facing the arm's base: the
  // offset direction depends on where the point lies, so a single rigid
  // transform cannot absorb it.
  Vec3 planar(local.x, local.y, 0.0);
  Vec3 approach = planar.norm() > 1e-9 ? planar.normalized() : Vec3(1, 0, 0);
  return local + approach * gripper_offset + Vec3(noise(), noise(), noise());
}

}  // namespace

CalibrationResult calibrate_frames(const dev::RobotArmDevice& arm_a,
                                   const dev::RobotArmDevice& arm_b,
                                   const CalibrationOptions& options) {
  if (options.calibration_points < 3) {
    throw std::invalid_argument("calibrate_frames: need at least 3 calibration points");
  }
  std::mt19937 rng(options.seed);

  // Sample physical points reachable by both arms: around the midpoint of
  // the two bases, at bench heights.
  Vec3 base_a = arm_a.model().base().apply(Vec3());
  Vec3 base_b = arm_b.model().base().apply(Vec3());
  Vec3 mid = (base_a + base_b) * 0.5;
  std::uniform_real_distribution<double> dx(-0.12, 0.12);
  std::uniform_real_distribution<double> dz(0.05, 0.25);

  auto sample_shared_point = [&]() -> std::optional<Vec3> {
    for (int attempt = 0; attempt < 64; ++attempt) {
      Vec3 p(mid.x + dx(rng), mid.y + dx(rng), base_a.z + dz(rng));
      if (arm_a.model().reachable(p) && arm_b.model().reachable(p)) return p;
    }
    return std::nullopt;
  };

  std::vector<Vec3> in_a;
  std::vector<Vec3> in_b;
  for (int i = 0; i < options.calibration_points; ++i) {
    auto p = sample_shared_point();
    if (!p) throw std::runtime_error("calibrate_frames: workspaces barely overlap");
    in_a.push_back(measure_touch(arm_a, *p, options.measurement_noise_m,
                                 options.gripper_mismatch_m, rng));
    in_b.push_back(measure_touch(arm_b, *p, options.measurement_noise_m,
                                 -options.gripper_mismatch_m, rng));
  }

  CalibrationResult result;
  result.fit = geom::fit_frame(in_a, in_b);
  result.points_used = options.calibration_points;

  // Score on held-out probe points.
  double sum = 0;
  int scored = 0;
  for (int i = 0; i < options.probe_points; ++i) {
    auto p = sample_shared_point();
    if (!p) continue;
    Vec3 measured_a = measure_touch(arm_a, *p, options.measurement_noise_m,
                                    options.gripper_mismatch_m, rng);
    Vec3 measured_b = measure_touch(arm_b, *p, options.measurement_noise_m,
                                    -options.gripper_mismatch_m, rng);
    double err = result.fit.transform.apply(measured_a).distance_to(measured_b);
    sum += err;
    result.max_probe_error_m = std::max(result.max_probe_error_m, err);
    ++scored;
  }
  if (scored == 0) throw std::runtime_error("calibrate_frames: no probe points reachable");
  result.mean_probe_error_m = sum / scored;
  return result;
}

double required_safety_margin(const CalibrationResult& result) {
  // A unified-frame collision check must pad every clearance by the worst
  // disagreement it may see; 2x the mean observed error is the usual
  // engineering floor, bounded below by the worst probe.
  return std::max(2.0 * result.mean_probe_error_m, result.max_probe_error_m);
}

}  // namespace rabit::tb
