// rabit::assurance — SOTER-style runtime assurance for in-flight arm motion.
//
// The paper's Fig. 2 loop (and our recovery ladder) only *reacts* once an
// anomaly is observed — too late when the arm is already committed to a
// trajectory that intersects an envelope the configured world got slightly
// wrong (the §IV category-2 frame-unification error was ~3 cm on the
// testbed). SOTER's runtime-assurance architecture pairs every advanced
// controller with a verified-safe controller and a decision module that
// switches *while a safe state is still reachable*; the MPPI+CBF line of
// work supplies the margin math. This module is the decision half:
//
//   * barrier h(s)  — signed clearance along the interpolated tip path
//                     (sim::MarginProfile), sampled at the simulator's
//                     polling resolution against static boxes, device
//                     keep-out zones and other-arms envelopes;
//   * switching point — s_viol is the first arc length where h drops below
//                     the configured floor; the verified-safe controller
//                     (decelerate, then park via the recovery safe-state
//                     builder) needs d_stop = v^2 / (2a) of runway, so the
//                     LAST SAFE SWITCHING POINT is s* = max(0, s_viol -
//                     d_stop): demoting there guarantees the arm halts with
//                     h >= margin floor even in the worst case;
//   * AssuranceEvent — the structured record of one demotion (barrier value,
//                     switching point, controller mode) that lands in the
//                     trace, the obs span stream, and the RecoveryReport.
//
// trace::Supervisor drives the ladder (predict -> demote-to-safe -> retry/
// re-poll -> quarantine -> safe-state -> halt); this library keeps the pure
// math so it is testable without a lab.
#pragma once

#include <string>
#include <vector>

#include "geometry/geometry.hpp"
#include "json/json.hpp"
#include "sim/world.hpp"

namespace rabit::assurance {

/// Tunables of the runtime-assurance decision module. There is no on/off
/// field: trace::Supervisor::Options::assurance being set is the switch.
struct AssuranceConfig {
  /// Barrier floor in metres: demote when the planned path would pass closer
  /// than this to any non-ignored obstacle. Sized to dominate the paper's
  /// testbed frame-unification error (~3 cm), so a configured world that is
  /// wrong by less than the floor still cannot let the arm make contact.
  double margin_min_m = 0.03;
  /// Verified-safe controller's deceleration model: the arm moves at
  /// `nominal_speed_mps` and the fallback brakes at `decel_mps2`, giving a
  /// stopping distance of v^2 / (2 a) past the switching point.
  double nominal_speed_mps = 0.25;
  double decel_mps2 = 1.5;

  /// Worst-case runway the safe controller needs after the switch.
  [[nodiscard]] double stop_distance_m() const {
    return nominal_speed_mps * nominal_speed_mps / (2.0 * decel_mps2);
  }
};

/// Outcome of evaluating one motion's barrier profile against the config.
struct Decision {
  bool demote = false;
  double h_min_m = 0.0;     ///< minimum barrier value over the whole path
  double s_viol_m = 0.0;    ///< first arc length with h < margin floor
  double s_star_m = 0.0;    ///< last safe switching point: max(0, s_viol - d_stop)
  double stop_distance_m = 0.0;
  std::string obstacle;     ///< obstacle realizing the first violation
};

/// Pure switching-point derivation. `demote` is set iff any sample of the
/// profile dips below cfg.margin_min_m; s* is clamped at 0 (the violation is
/// closer than one stopping distance — the safe controller runs in place).
[[nodiscard]] Decision decide(const sim::MarginProfile& profile, const AssuranceConfig& cfg);

/// Point at arc length `s` along a piecewise-linear path (clamped to the
/// ends). The truncated advance of the safe controller moves here.
[[nodiscard]] geom::Vec3 point_at_arc_length(const std::vector<geom::Vec3>& waypoints, double s);

/// Structured record of one demotion, for traces / spans / RecoveryReport.
struct AssuranceEvent {
  std::string device;           ///< the demoted command's device (the arm)
  std::string action;
  double barrier_m = 0.0;       ///< h_min over the planned path
  double switch_s_m = 0.0;      ///< s*, where the safe controller took over
  double violation_s_m = 0.0;   ///< s_viol, where the floor would be crossed
  double stop_distance_m = 0.0;
  double trajectory_m = 0.0;    ///< full planned arc length
  std::string obstacle;         ///< what the path would have violated
  std::string controller = "verified_safe";  ///< controller mode after the switch
  double modeled_time_s = 0.0;  ///< backend clock at the demotion

  [[nodiscard]] json::Value to_json() const;
  [[nodiscard]] std::string describe() const;
};

}  // namespace rabit::assurance
