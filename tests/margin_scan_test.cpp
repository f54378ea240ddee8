// The runtime-assurance margin scan against its linear reference.
// sim::margin_profile culls, per leg, the boxes that cannot give any
// sample's minimum. That cull must be exact: every sample's s, h (bit for
// bit) and obstacle, and the profile's min_* fields, must equal a scan that
// tests every box at every sample. The reference below is that scan. The
// scan's work on a fixed shelf-lab session is held to an exact budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "assurance/assurance.hpp"
#include "bugs/bugs.hpp"
#include "core/lab.hpp"
#include "devices/fault.hpp"
#include "geometry/solid.hpp"
#include "rad/rad.hpp"
#include "script/workflows.hpp"
#include "sim/deck.hpp"
#include "sim/world.hpp"
#include "trace/trace.hpp"

namespace rabit {
namespace {

using geom::Aabb;
using geom::Vec3;
using sim::MarginProfile;
using sim::ObstacleKind;

// --- the linear reference ------------------------------------------------------

bool is_ignored(const sim::PathCheckOptions& options, const std::string& name) {
  return std::find(options.ignore.begin(), options.ignore.end(), name) != options.ignore.end();
}

Aabb sample_volume(const Vec3& tip, double held_clearance, const sim::PathCheckOptions& options) {
  if (held_clearance > 0) {
    return Aabb(tip - Vec3(options.held_half_width, options.held_half_width, held_clearance),
                tip + Vec3(options.held_half_width, options.held_half_width, 0.0));
  }
  return Aabb(tip, tip);
}

double box_clearance(const sim::NamedBox& b, const Vec3& tip, const std::optional<Aabb>& held_box) {
  double h;
  if (b.contains(tip)) {
    h = geom::signed_distance(b.box, tip);
    if (h > 0) h = 0.0;
  } else {
    h = b.solid ? geom::distance_to(*b.solid, tip) : b.box.distance_to(tip);
  }
  if (held_box) h = std::min(h, geom::signed_distance(b.box, *held_box));
  return h;
}

/// Every box that is not ground, a disabled soft wall or ignored, and every
/// arm segment, at every polling sample.
MarginProfile linear_margin_profile(const sim::WorldModel& world,
                                    const std::vector<Vec3>& waypoints, double held_clearance,
                                    const sim::PathCheckOptions& options) {
  MarginProfile profile;
  profile.min_margin_m = std::numeric_limits<double>::infinity();
  if (waypoints.size() < 2) return profile;

  auto record = [&profile](sim::MarginSample sample) {
    if (sample.h < profile.min_margin_m) {
      profile.min_margin_m = sample.h;
      profile.min_s_m = sample.s;
      profile.min_obstacle = sample.obstacle;
    }
    profile.samples.push_back(std::move(sample));
  };
  auto sample_clearance = [&](const Vec3& tip, double s) {
    std::optional<Aabb> held_box;
    if (held_clearance > 0) held_box = sample_volume(tip, held_clearance, options);
    sim::MarginSample sample;
    sample.s = s;
    sample.h = std::numeric_limits<double>::infinity();
    for (const sim::NamedBox& b : world.boxes) {
      if (b.kind == ObstacleKind::Ground) continue;
      if (b.kind == ObstacleKind::SoftWall && !options.include_soft_walls) continue;
      if (is_ignored(options, b.name)) continue;
      double h = box_clearance(b, tip, held_box);
      ++profile.boxes_tested;
      if (h < sample.h) {
        sample.h = h;
        sample.obstacle = b.name;
      }
    }
    for (const sim::ArmSegmentObstacle& seg : world.arm_segments) {
      if (is_ignored(options, seg.arm_id)) continue;
      double clearance_needed = seg.radius + options.moving_arm_radius;
      double h = geom::distance(seg.segment, tip) - clearance_needed;
      if (held_box) {
        Vec3 held_bottom = tip - Vec3(0, 0, held_clearance);
        h = std::min(h, geom::distance(seg.segment, held_bottom) - clearance_needed);
      }
      if (h < sample.h) {
        sample.h = h;
        sample.obstacle = seg.arm_id;
      }
    }
    if (!std::isfinite(sample.h)) {
      sample.h = std::numeric_limits<double>::max();
      sample.obstacle.clear();
    }
    record(std::move(sample));
  };

  double s_base = 0.0;
  for (std::size_t leg = 1; leg < waypoints.size(); ++leg) {
    const Vec3& a = waypoints[leg - 1];
    const Vec3& b = waypoints[leg];
    double length = a.distance_to(b);
    const double steps = std::ceil(length / options.step);
    if (!(steps < static_cast<double>(sim::kMaxLegSamples))) {
      record(sim::MarginSample{s_base, 0.0, {}});
      break;
    }
    const std::size_t samples = static_cast<std::size_t>(steps) + 1;
    for (std::size_t i = 1; i <= samples; ++i) {
      double t = static_cast<double>(i) / static_cast<double>(samples);
      sample_clearance(geom::lerp(a, b, t), s_base + length * t);
    }
    s_base += length;
  }
  profile.length_m = s_base;
  if (!std::isfinite(profile.min_margin_m)) profile.min_margin_m = std::numeric_limits<double>::max();
  return profile;
}

// --- comparison ----------------------------------------------------------------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

struct Tally {
  std::size_t profiles = 0;
  std::size_t samples = 0;
  std::size_t differing = 0;  ///< samples, plus one per differing summary
  std::size_t boxes_culled_scan = 0;
  std::size_t boxes_linear_scan = 0;
};

/// Compares a culled profile with the reference's, sample by sample.
void tally(const MarginProfile& culled, const MarginProfile& linear, Tally& t,
           const std::string& what) {
  ++t.profiles;
  t.samples += linear.samples.size();
  t.boxes_culled_scan += culled.boxes_tested;
  t.boxes_linear_scan += linear.boxes_tested;
  if (!same_bits(culled.length_m, linear.length_m) ||
      !same_bits(culled.min_margin_m, linear.min_margin_m) ||
      !same_bits(culled.min_s_m, linear.min_s_m) || culled.min_obstacle != linear.min_obstacle) {
    ++t.differing;
    ADD_FAILURE() << what << ": summary differs: min " << culled.min_margin_m << " at "
                  << culled.min_s_m << " ('" << culled.min_obstacle << "'), reference "
                  << linear.min_margin_m << " at " << linear.min_s_m << " ('"
                  << linear.min_obstacle << "')";
  }
  if (culled.samples.size() != linear.samples.size()) {
    t.differing += std::max(culled.samples.size(), linear.samples.size());
    ADD_FAILURE() << what << ": " << culled.samples.size() << " samples, reference "
                  << linear.samples.size();
    return;
  }
  for (std::size_t i = 0; i < linear.samples.size(); ++i) {
    const sim::MarginSample& c = culled.samples[i];
    const sim::MarginSample& l = linear.samples[i];
    if (same_bits(c.s, l.s) && same_bits(c.h, l.h) && c.obstacle == l.obstacle) continue;
    if (++t.differing <= 5) {
      ADD_FAILURE() << what << ": sample " << i << " s " << c.s << " h " << c.h << " '"
                    << c.obstacle << "', reference s " << l.s << " h " << l.h << " '"
                    << l.obstacle << "'";
    }
  }
}

void compare(const sim::WorldModel& world, const std::vector<Vec3>& waypoints,
             double held_clearance, const sim::PathCheckOptions& options, Tally& t,
             const std::string& what) {
  tally(sim::margin_profile(world, waypoints, held_clearance, options),
        linear_margin_profile(world, waypoints, held_clearance, options), t, what);
}

/// Steps `workflow` through `lab` under assurance without halting on alerts.
/// Before each motion command, the simulator's trajectory_margin() for that
/// motion, on the world as it stands, is compared with the reference.
void compare_supervised(core::Lab& lab, const std::vector<dev::Command>& workflow, Tally& t,
                        const std::string& what) {
  trace::Supervisor::Options options;
  options.halt_on_alert = false;
  options.assurance = assurance::AssuranceConfig{};
  trace::Supervisor supervisor(&lab.engine, &lab.backend, options);
  supervisor.start();
  sim::PathCheckOptions scan;
  scan.step = sim::ExtendedSimulator::kPollingStep_m;
  for (std::size_t i = 0; i < workflow.size(); ++i) {
    const dev::Command& cmd = workflow[i];
    std::optional<core::MotionAnalysis> motion = lab.engine.motion_analysis(cmd);
    if (motion && motion->waypoints.size() >= 2) {
      scan.ignore = motion->ignores;
      tally(lab.simulator->trajectory_margin(motion->waypoints, motion->held_clearance,
                                             motion->ignores),
            linear_margin_profile(lab.simulator->world(), motion->waypoints,
                                  motion->held_clearance, scan),
            t, what + " command " + std::to_string(i) + " " + cmd.describe());
    }
    if (supervisor.step(cmd).halted) break;
  }
}

std::vector<dev::Command> rad_session(unsigned seed) {
  sim::LabBackend staging(sim::testbed_profile());
  sim::build_hein_testbed_deck(staging);
  std::mt19937_64 rng(seed);
  return rad::synth_session(staging, rng);
}

std::vector<std::pair<std::string, std::string>> distinct_pairs(
    const std::vector<dev::Command>& workflow) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const dev::Command& c : workflow) {
    std::pair<std::string, std::string> p{c.device, c.action};
    if (std::find(pairs.begin(), pairs.end(), p) == pairs.end()) pairs.push_back(p);
  }
  return pairs;
}

// --- lab workloads -------------------------------------------------------------

TEST(MarginScanDifferential, CatalogueBugsAtV3WithAssurance) {
  Tally t;
  for (const bugs::BugSpec& bug : bugs::bug_catalogue()) {
    sim::LabBackend staging(sim::testbed_profile());
    sim::build_hein_testbed_deck(staging);
    core::Lab lab(core::Variant::ModifiedWithSim);
    compare_supervised(lab, bug.build(staging), t, "bug " + bug.id);
  }
  EXPECT_EQ(t.differing, 0u);
  EXPECT_GT(t.profiles, 50u);
}

TEST(MarginScanDifferential, RadSessionsOnAShelfLab) {
  Tally t;
  for (unsigned seed = 1; seed <= 6; ++seed) {
    core::Lab lab(core::Variant::ModifiedWithSim);
    sim::add_shelf_rack(lab.simulator->world(), 400);
    compare_supervised(lab, rad_session(seed), t, "rad seed " + std::to_string(seed));
  }
  EXPECT_EQ(t.differing, 0u);
  EXPECT_GT(t.profiles, 50u);
  // The shelf sits 8 m from every path: the cull drops it on every leg.
  EXPECT_LT(t.boxes_culled_scan * 20, t.boxes_linear_scan);
}

TEST(MarginScanDifferential, TestbedWorkflowUnderChaos) {
  Tally t;
  for (unsigned seed = 1; seed <= 12; ++seed) {
    std::vector<dev::Command> workflow;
    core::Lab lab(core::Variant::ModifiedWithSim, 42, [&](sim::LabBackend& backend) {
      sim::build_hein_testbed_deck(backend);
      workflow = script::record_workflow(backend, script::testbed_workflow_source());
      dev::FaultSchedule::ChaosOptions chaos;
      chaos.horizon_s = 30.0;
      chaos.transient_count = 8;
      backend.set_fault_schedule(dev::FaultSchedule::chaos(seed, distinct_pairs(workflow), chaos));
    });
    compare_supervised(lab, workflow, t, "chaos seed " + std::to_string(seed));
  }
  EXPECT_EQ(t.differing, 0u);
  EXPECT_GT(t.profiles, 100u);
}

// --- random and constructed worlds ----------------------------------------------

struct Case {
  sim::WorldModel world;
  std::vector<Vec3> waypoints;
  double held_clearance = 0.0;
  sim::PathCheckOptions options;
};

/// A random world around a random path, at lab scale, 1e6 m out, at a
/// scale where squared distances underflow, or 1e20 m wide (where a leg's
/// extent and its pad vanish against the distances).
Case random_case(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  auto chance = [&](double p) { return unit(rng) < p; };
  auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };

  double scale = 1.0;
  double offset = 0.0;
  switch (pick(5)) {
    case 0: offset = 1e6; break;
    case 1: scale = 1e-300; break;
    case 2: scale = 1e20; break;
    default: break;
  }
  auto coord = [&](double lo, double hi) { return offset + scale * (lo + (hi - lo) * unit(rng)); };
  auto point = [&] { return Vec3(coord(-0.6, 0.6), coord(-0.6, 0.6), coord(0.0, 0.8)); };
  auto size = [&] { return scale * (0.01 + 0.4 * unit(rng)); };

  Case c;
  c.options.step = scale * (chance(0.5) ? 0.01 : 0.04);
  c.options.include_soft_walls = chance(0.5);
  c.options.held_half_width *= scale;
  c.options.moving_arm_radius *= scale;
  if (chance(0.5)) c.held_clearance = scale * (0.02 + 0.3 * unit(rng));

  static constexpr ObstacleKind kKinds[] = {
      ObstacleKind::Equipment, ObstacleKind::Equipment, ObstacleKind::Vial,
      ObstacleKind::Grid,      ObstacleKind::Wall,      ObstacleKind::SoftWall,
      ObstacleKind::Ground,    ObstacleKind::ParkedArm};
  const std::size_t boxes = 1 + pick(24);
  for (std::size_t i = 0; i < boxes; ++i) {
    std::string name = "box-" + std::to_string(i);
    const ObstacleKind kind = kKinds[pick(std::size(kKinds))];
    const double roll = unit(rng);
    if (roll < 0.15 && !c.world.boxes.empty()) {
      // An exact duplicate (sometimes under the same name): every sample
      // ties between the two, and the first must win.
      sim::NamedBox copy = c.world.boxes[pick(c.world.boxes.size())];
      if (chance(0.5)) copy.name = name;
      c.world.boxes.push_back(copy);
      c.world.bump_epoch();
    } else if (roll < 0.3) {
      const Vec3 base = point();
      const double r = size() / 2;
      switch (pick(4)) {
        case 0: c.world.add_solid(name, geom::Solid::vertical_cylinder(base, r, size()), kind); break;
        case 1: c.world.add_solid(name, geom::Solid::hemisphere(base, r), kind); break;
        case 2: c.world.add_solid(name, geom::Solid::box(Aabb::from_center(base, Vec3(r, r, r))), kind); break;
        default:
          c.world.add_solid(name,
                            geom::Solid::compound({geom::Solid::vertical_cylinder(base, r, size()),
                                                   geom::Solid::hemisphere(point(), r)}),
                            kind);
      }
    } else if (roll < 0.45) {
      // Degenerate: zero extent on one to three axes.
      Vec3 lo = point();
      Vec3 hi = lo + Vec3(chance(0.5) ? size() : 0.0, chance(0.5) ? size() : 0.0, 0.0);
      c.world.add_box(name, Aabb(lo, hi), kind);
    } else {
      c.world.add_box(name, Aabb::from_center(point(), Vec3(size(), size(), size())), kind);
    }
  }
  const std::size_t arms = pick(3);
  for (std::size_t i = 0; i < arms; ++i) {
    c.world.set_arm_segment("arm-" + std::to_string(i), geom::Segment{point(), point()},
                            scale * (0.02 + 0.06 * unit(rng)));
  }
  for (const sim::NamedBox& b : c.world.boxes) {
    if (chance(0.1)) c.options.ignore.push_back(b.name);
  }
  for (const sim::ArmSegmentObstacle& seg : c.world.arm_segments) {
    if (chance(0.3)) c.options.ignore.push_back(seg.arm_id);
  }

  const std::size_t waypoints = 2 + pick(4);
  for (std::size_t i = 0; i < waypoints; ++i) {
    // Some legs have zero length.
    c.waypoints.push_back(i > 0 && chance(0.15) ? c.waypoints.back() : point());
  }
  if (chance(0.1)) {
    Vec3& p = c.waypoints[1 + pick(waypoints - 1)];
    switch (pick(3)) {
      case 0: p.x = std::numeric_limits<double>::quiet_NaN(); break;
      case 1: p.y = std::numeric_limits<double>::infinity(); break;
      default: p.z += 1e5 * scale;  // past kMaxLegSamples
    }
  }
  return c;
}

TEST(MarginScanDifferential, RandomWorlds) {
  std::mt19937_64 rng(20240611);
  Tally t;
  for (int i = 0; i < 3000; ++i) {
    Case c = random_case(rng);
    compare(c.world, c.waypoints, c.held_clearance, c.options, t, "world " + std::to_string(i));
  }
  EXPECT_EQ(t.differing, 0u);
  EXPECT_GT(t.samples, 100000u);
  // The cull does drop boxes here, so the comparison is not vacuous.
  EXPECT_LT(t.boxes_culled_scan, t.boxes_linear_scan);
}

/// Cases the random worlds reach rarely or never, each at a bound of the
/// cull's exactness argument.
TEST(MarginScanDifferential, ConstructedWorlds) {
  Tally t;
  sim::PathCheckOptions options;
  const std::vector<Vec3> short_leg{Vec3(0, 0, 0), Vec3(0.05, 0, 0)};

  {
    // 1e20 m out, the pad and the leg vanish in every difference: each box's
    // gap equals its far and the bound, and both boxes tie at every sample.
    // Only a strict cull keeps them, and the first wins.
    sim::WorldModel w;
    w.add_box("east", Aabb(Vec3(1e20, 0, 0), Vec3(1e20, 0, 0)), ObstacleKind::Equipment);
    w.add_box("west", Aabb(Vec3(-1e20, 0, 0), Vec3(-1e20, 0, 0)), ObstacleKind::Equipment);
    compare(w, short_leg, 0.0, options, t, "ties 1e20 m out");
    EXPECT_EQ(sim::margin_profile(w, short_leg, 0.0, options).min_obstacle, "east");
  }
  {
    // Squared distances underflow to 0: h is 0 although the box is a
    // positive distance away, and its far is 0 too.
    const double d = 1e-300;
    sim::WorldModel w;
    w.add_box("speck", Aabb(Vec3(2 * d, 0, 0), Vec3(2 * d, 0, 0)), ObstacleKind::Equipment);
    sim::PathCheckOptions fine;
    fine.step = d / 4;
    compare(w, {Vec3(0, 0, 0), Vec3(d, 0, 0)}, 0.0, fine, t, "underflow");
  }
  {
    // The held volume reaches a low box that the tip alone is far from; a
    // box beside the path is nearer the tip but farther than the held vial.
    sim::WorldModel w;
    w.add_box("low", Aabb(Vec3(0.1, -0.05, 0.0), Vec3(0.2, 0.05, 0.15)), ObstacleKind::Equipment);
    w.add_box("beside", Aabb(Vec3(0.1, 0.2, 0.45), Vec3(0.2, 0.25, 0.55)), ObstacleKind::Equipment);
    const std::vector<Vec3> path{Vec3(0, 0, 0.5), Vec3(0.3, 0, 0.5)};
    compare(w, path, 0.3, options, t, "held volume");
    EXPECT_EQ(sim::margin_profile(w, path, 0.3, options).min_obstacle, "low");
  }
  {
    // A leg in from 2.7e6 m: lerp() rounds its last tip past the leg's end,
    // onto the face of a box just beyond it.
    sim::WorldModel w;
    const Vec3 a(2743483.4726164863, 0.2, 0.3);
    const Vec3 b(-0.006260272920997291, 0.2, 0.3);
    const Vec3 end = geom::lerp(a, b, 1.0);
    ASSERT_LT(end.x, b.x);
    w.add_box("past-end", Aabb(end - Vec3(1, 1, 1), Vec3(end.x, 1.2, 1.3)),
              ObstacleKind::Equipment);
    w.add_box("behind", Aabb(a + Vec3(1, 0, 0), a + Vec3(2, 1, 1)), ObstacleKind::Equipment);
    sim::PathCheckOptions coarse;
    coarse.step = 1e4;
    compare(w, {a, b}, 0.0, coarse, t, "rounded past the end");
  }
  {
    // Ground, disabled soft walls and ignored boxes never bind; a box that
    // is nearer to the path than all of them does.
    sim::WorldModel w;
    w.add_box("floor", Aabb(Vec3(-1, -1, -0.1), Vec3(1, 1, 0)), ObstacleKind::Ground);
    w.add_box("fence", Aabb(Vec3(0, 0.01, 0), Vec3(0.1, 0.02, 0.1)), ObstacleKind::SoftWall);
    w.add_box("target", Aabb(Vec3(0, -0.02, 0), Vec3(0.1, -0.01, 0.1)), ObstacleKind::Vial);
    w.add_box("far", Aabb(Vec3(3, 3, 3), Vec3(4, 4, 4)), ObstacleKind::Equipment);
    sim::PathCheckOptions skip;
    skip.include_soft_walls = false;
    skip.ignore = {"target"};
    const std::vector<Vec3> path{Vec3(0, 0, 0.05), Vec3(0.1, 0, 0.05)};
    compare(w, path, 0.0, skip, t, "filters");
    EXPECT_EQ(sim::margin_profile(w, path, 0.0, skip).min_obstacle, "far");
  }
  EXPECT_EQ(t.differing, 0u);
}

// --- work budget ---------------------------------------------------------------

// Exact totals; a budget may only tighten. A scan that tests every box at
// every sample made 73,115 box-clearance evaluations over the same 4 scans.

struct ScanWork {
  std::size_t scans;
  std::size_t boxes_tested;
  friend bool operator==(const ScanWork&, const ScanWork&) = default;
};

void PrintTo(const ScanWork& w, std::ostream* os) {
  *os << "{scans " << w.scans << ", boxes_tested " << w.boxes_tested << "}";
}

TEST(MarginScanBudget, RadSessionOnAShelfLab) {
  core::Lab lab(core::Variant::ModifiedWithSim);
  sim::add_shelf_rack(lab.simulator->world(), 400);
  trace::Supervisor::Options options;
  options.halt_on_alert = false;
  // A floor wide enough that the slow path runs on several motions.
  options.assurance = assurance::AssuranceConfig{};
  options.assurance->margin_min_m = 0.06;
  trace::Supervisor supervisor(&lab.engine, &lab.backend, options);
  (void)supervisor.run(rad_session(7));
  EXPECT_EQ((ScanWork{lab.simulator->margin_scans(), lab.simulator->margin_boxes_tested()}),
            (ScanWork{4, 1327}));
}

}  // namespace
}  // namespace rabit
