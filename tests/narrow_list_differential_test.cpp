// check_path's per-leg narrow list against the per-sample full scan.
// sim::check_path decides once per leg which obstacles a sample can hit (the
// non-ignored boxes and arm segments whose test shape meets the leg's padded
// hull) and tests every sample against that list alone. The cull must be
// exact: every verdict names the same obstacle, kind and position bits,
// with the same via_held_object, arm_vs_arm and too_long_to_poll, as a scan
// that re-decides every obstacle at every sample. The reference below is
// that scan, as check_path made it before the list; check_path (with and
// without a broad phase, with a reused buffer), check_point and
// ExtendedSimulator::sweep are held to it on random, constructed and
// whole-lab inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
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
#include "sim/extended_sim.hpp"
#include "sim/world.hpp"
#include "trace/trace.hpp"

namespace rabit {
namespace {

using geom::Aabb;
using geom::Vec3;
using sim::CollisionReport;
using sim::ObstacleKind;
using sim::PathCheckOptions;
using Verdict = std::optional<CollisionReport>;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// --- the per-sample reference ----------------------------------------------------

bool is_ignored(const PathCheckOptions& options, const std::string& name) {
  return std::find(options.ignore.begin(), options.ignore.end(), name) != options.ignore.end();
}

/// One tip sample against every box, then every arm segment, re-deciding
/// the filters and the inflated shape of each at the sample.
Verdict reference_sample(const sim::WorldModel& world, const Vec3& tip, double held_clearance,
                         const PathCheckOptions& options) {
  std::optional<Aabb> held_box;
  if (held_clearance > 0) {
    held_box = Aabb(tip - Vec3(options.held_half_width, options.held_half_width, held_clearance),
                    tip + Vec3(options.held_half_width, options.held_half_width, 0.0));
  }
  for (const sim::NamedBox& b : world.boxes) {
    if (b.kind == ObstacleKind::SoftWall && !options.include_soft_walls) continue;
    if (is_ignored(options, b.name)) continue;
    double infl = b.kind != ObstacleKind::Ground ? options.inflate : 0.0;
    bool tip_hit = infl > 0 ? b.box.inflated(infl).contains(tip) : b.contains(tip);
    if (tip_hit) return CollisionReport{b.name, b.kind, tip, false, false};
    bool held_hit = held_box && (infl > 0 ? b.box.inflated(infl).intersects(*held_box)
                                          : b.intersects(*held_box));
    if (held_hit) return CollisionReport{b.name, b.kind, tip, true, false};
  }
  for (const sim::ArmSegmentObstacle& seg : world.arm_segments) {
    if (is_ignored(options, seg.arm_id)) continue;
    double clearance_needed = seg.radius + options.moving_arm_radius + options.inflate;
    if (geom::distance(seg.segment, tip) < clearance_needed) {
      return CollisionReport{seg.arm_id, ObstacleKind::Equipment, tip, false, true};
    }
    if (held_box) {
      Vec3 held_bottom = tip - Vec3(0, 0, held_clearance);
      if (geom::distance(seg.segment, held_bottom) < clearance_needed) {
        return CollisionReport{seg.arm_id, ObstacleKind::Equipment, held_bottom, true, true};
      }
    }
  }
  return std::nullopt;
}

Verdict reference_path(const sim::WorldModel& world, const Vec3& start, const Vec3& goal,
                       double held_clearance, const PathCheckOptions& options) {
  const double steps = std::ceil(start.distance_to(goal) / options.step);
  if (!(steps < static_cast<double>(sim::kMaxLegSamples))) {
    CollisionReport unpolled;
    unpolled.position = goal;
    unpolled.too_long_to_poll = true;
    return unpolled;
  }
  const std::size_t samples = static_cast<std::size_t>(steps) + 1;
  for (std::size_t i = 1; i <= samples; ++i) {
    double t = static_cast<double>(i) / static_cast<double>(samples);
    if (auto hit = reference_sample(world, geom::lerp(start, goal, t), held_clearance, options)) {
      return hit;
    }
  }
  return std::nullopt;
}

/// ExtendedSimulator::sweep over the reference: the inflated sweep leg by
/// leg, and from its first hit on the uninflated one.
sim::ExtendedSimulator::SweepResult reference_sweep(const sim::WorldModel& world,
                                                    const std::vector<Vec3>& waypoints,
                                                    double held_clearance,
                                                    const std::vector<std::string>& ignore,
                                                    double inflate) {
  PathCheckOptions options;
  options.step = sim::ExtendedSimulator::kPollingStep_m;
  options.ignore = ignore;
  options.inflate = std::max(inflate, 0.0);
  PathCheckOptions exact = options;
  exact.inflate = 0.0;
  sim::ExtendedSimulator::SweepResult result;
  for (std::size_t leg = 1; leg < waypoints.size(); ++leg) {
    result.hit = reference_path(world, waypoints[leg - 1], waypoints[leg], held_clearance, options);
    if (!result.hit) continue;
    if (options.inflate > 0.0) {
      result.hit.reset();
      for (std::size_t i = leg; i < waypoints.size() && !result.hit; ++i) {
        result.hit = reference_path(world, waypoints[i - 1], waypoints[i], held_clearance, exact);
      }
      result.tripped = !result.hit;
    }
    return result;
  }
  return result;
}

// --- comparison ------------------------------------------------------------------

bool same_report(const Verdict& a, const Verdict& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  return a->obstacle == b->obstacle && a->kind == b->kind &&
         std::memcmp(&a->position, &b->position, sizeof(Vec3)) == 0 &&
         a->via_held_object == b->via_held_object && a->arm_vs_arm == b->arm_vs_arm &&
         a->too_long_to_poll == b->too_long_to_poll;
}

std::string show(const Verdict& v) { return v ? v->describe() : "clear"; }

struct Tally {
  std::size_t paths = 0;
  std::size_t hits = 0;
  std::size_t arm_hits = 0;
  std::size_t held_hits = 0;
  std::size_t unpolled = 0;
  std::size_t sweeps = 0;
  std::size_t trips = 0;
  std::size_t differing = 0;
};

void fail(Tally& t, const std::string& what) {
  if (++t.differing <= 8) ADD_FAILURE() << what;
}

/// One leg, every way check_path and check_point can run it, against the
/// reference: without a grid, with `grid` (when given), and with `narrow`,
/// a buffer shared across the calls of a test.
void compare_leg(const sim::WorldModel& world, const sim::BroadPhaseGrid* grid,
                 sim::NarrowList& narrow, const Vec3& start, const Vec3& goal,
                 double held_clearance, const PathCheckOptions& options, Tally& t,
                 const std::string& what) {
  const Verdict want = reference_path(world, start, goal, held_clearance, options);
  ++t.paths;
  if (want) {
    ++t.hits;
    t.arm_hits += want->arm_vs_arm;
    t.held_hits += want->via_held_object;
    t.unpolled += want->too_long_to_poll;
  }
  const Verdict plain = sim::check_path(world, start, goal, held_clearance, options);
  if (!same_report(plain, want)) fail(t, what + ": " + show(plain) + ", reference " + show(want));
  const Verdict reused =
      sim::check_path(world, start, goal, held_clearance, options, grid, &narrow);
  if (!same_report(reused, want)) {
    fail(t, what + (grid ? " (grid)" : "") + ": " + show(reused) + ", reference " + show(want));
  }
  const Verdict point = sim::check_point(world, goal, held_clearance, options);
  const Verdict point_want = reference_sample(world, goal, held_clearance, options);
  if (!same_report(point, point_want)) {
    fail(t, what + " point: " + show(point) + ", reference " + show(point_want));
  }
}

void compare_sweep(const sim::WorldModel& world, const std::vector<Vec3>& waypoints,
                   double held_clearance, const std::vector<std::string>& ignore, double inflate,
                   Tally& t, const std::string& what) {
  sim::ExtendedSimulator simulator(world);
  const sim::ExtendedSimulator::SweepResult want =
      reference_sweep(world, waypoints, held_clearance, ignore, inflate);
  ++t.sweeps;
  t.trips += want.tripped;
  // Twice: the second sweep is served from the verdict cache.
  for (int pass = 0; pass < 2; ++pass) {
    const sim::ExtendedSimulator::SweepResult got =
        simulator.sweep(waypoints, held_clearance, ignore, inflate);
    if (!same_report(got.hit, want.hit) || got.tripped != want.tripped) {
      fail(t, what + " sweep: " + show(got.hit) + (got.tripped ? " (tripped)" : "") +
                  ", reference " + show(want.hit) + (want.tripped ? " (tripped)" : ""));
    }
  }
}

// --- random worlds ---------------------------------------------------------------

struct Case {
  sim::WorldModel world;
  std::vector<Vec3> waypoints;
  double held_clearance = 0.0;
  PathCheckOptions options;
};

/// A random world around a random path at lab scale, 1e6 m out, or 1e20 m
/// wide: cuboids, solids, exact duplicates, degenerate boxes, soft walls and
/// ground, other arms' links, and ignore lists naming boxes and arms. Some
/// legs end on a box face or corner, so a box is hit only at a leg's last
/// sample.
Case random_case(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  auto chance = [&](double p) { return unit(rng) < p; };
  auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };

  double scale = 1.0;
  double offset = 0.0;
  switch (pick(6)) {
    case 0: offset = 1e6; break;
    case 1: scale = 1e20; break;
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
  if (chance(0.5)) c.held_clearance = scale * 0.07;
  const double roll_inflate = unit(rng);
  c.options.inflate = roll_inflate < 0.45 ? 0.0
                      : roll_inflate < 0.9 ? scale * 0.03
                      : roll_inflate < 0.95 ? -scale * 0.02
                                            : kNaN;

  static constexpr ObstacleKind kKinds[] = {
      ObstacleKind::Equipment, ObstacleKind::Equipment, ObstacleKind::Vial,
      ObstacleKind::Grid,      ObstacleKind::Wall,      ObstacleKind::SoftWall,
      ObstacleKind::Ground,    ObstacleKind::ParkedArm};
  const std::size_t boxes = 1 + pick(24);
  for (std::size_t i = 0; i < boxes; ++i) {
    std::string name = "box-" + std::to_string(i);
    const ObstacleKind kind = kKinds[pick(std::size(kKinds))];
    const double roll = unit(rng);
    if (roll < 0.1 && !c.world.boxes.empty()) {
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
    } else if (roll < 0.4) {
      Vec3 lo = point();
      Vec3 hi = lo + Vec3(chance(0.5) ? size() : 0.0, chance(0.5) ? size() : 0.0, 0.0);
      c.world.add_box(name, Aabb(lo, hi), kind);
    } else {
      c.world.add_box(name, Aabb::from_center(point(), Vec3(size(), size(), size())), kind);
    }
  }
  const std::size_t arms = pick(4);
  for (std::size_t i = 0; i < arms; ++i) {
    // Links as long as an arm's, or points.
    const Vec3 a = point();
    const Vec3 b = chance(0.2) ? a : point();
    c.world.set_arm_segment("arm-" + std::to_string(i), geom::Segment{a, b},
                            scale * (0.02 + 0.06 * unit(rng)));
  }
  for (const sim::NamedBox& b : c.world.boxes) {
    if (chance(0.1)) c.options.ignore.push_back(b.name);
  }
  for (const sim::ArmSegmentObstacle& seg : c.world.arm_segments) {
    if (chance(0.3)) c.options.ignore.push_back(seg.arm_id);
  }

  const std::size_t waypoints = 2 + pick(3);
  for (std::size_t i = 0; i < waypoints; ++i) {
    if (i > 0 && chance(0.1)) {
      c.waypoints.push_back(c.waypoints.back());  // a zero-length leg
    } else if (i > 0 && chance(0.3)) {
      // Onto a corner or a face of a cuboid's bounds.
      const Aabb& box = c.world.boxes[pick(c.world.boxes.size())].box;
      Vec3 p = chance(0.5) ? box.min : box.max;
      if (chance(0.5)) p.y = box.center().y;
      c.waypoints.push_back(p);
    } else {
      c.waypoints.push_back(point());
    }
  }
  return c;
}

TEST(NarrowListDifferential, RandomWorlds) {
  std::mt19937_64 rng(20261021);
  Tally t;
  sim::NarrowList narrow;
  for (int i = 0; i < 3000; ++i) {
    const Case c = random_case(rng);
    const sim::BroadPhaseGrid grid(c.world);
    const std::string what = "world " + std::to_string(i);
    for (std::size_t leg = 1; leg < c.waypoints.size(); ++leg) {
      compare_leg(c.world, &grid, narrow, c.waypoints[leg - 1], c.waypoints[leg],
                  c.held_clearance, c.options, t, what + " leg " + std::to_string(leg));
    }
    compare_sweep(c.world, c.waypoints, c.held_clearance, c.options.ignore, c.options.inflate, t,
                  what);
  }
  EXPECT_EQ(t.differing, 0u);
  // Every kind of verdict was exercised.
  EXPECT_GT(t.hits, 1000u);
  EXPECT_GT(t.arm_hits, 50u);
  EXPECT_GT(t.held_hits, 50u);
  EXPECT_GT(t.paths - t.hits, 1000u);
  EXPECT_GT(t.trips, 20u);
}

// --- constructed worlds -------------------------------------------------------------

/// Another arm's link parallel to a leg, its distance from the leg `k` ulps
/// either side of the clearance threshold, at several magnitudes and
/// directions: check_path's segment pad must keep every link the reference
/// hits, and it is hit within a few ulps of the threshold only.
TEST(NarrowListDifferential, ArmSegmentsAtTheClearanceThreshold) {
  Tally t;
  sim::NarrowList narrow;
  PathCheckOptions options;
  for (double origin : {0.0, 0.3, 1e3, 1e6}) {
    for (double inflate : {0.0, 0.03}) {
      options.inflate = inflate;
      const double radius = 0.05;
      const double threshold = radius + options.moving_arm_radius + inflate;
      for (const Vec3& side : {Vec3(0, 1, 0), Vec3(0, 0, -1), Vec3(0.6, 0.8, 0)}) {
        double offset = threshold;
        for (int k = 0; k < 8; ++k) offset = std::nextafter(offset, 0.0);
        for (int k = -8; k <= 8; ++k) {
          const Vec3 start(origin, origin + 0.1, 0.4);
          const Vec3 goal(origin + 0.2, origin + 0.1, 0.4);
          sim::WorldModel world;
          world.set_arm_segment("ned2",
                                geom::Segment{start + side * offset - Vec3(0.05, 0, 0),
                                              goal + side * offset + Vec3(0.05, 0, 0)},
                                radius);
          for (double held : {0.0, 0.07}) {
            compare_leg(world, nullptr, narrow, start, goal, held, options, t,
                        "origin " + std::to_string(origin) + " ulp " + std::to_string(k));
          }
          offset = std::nextafter(offset, 1.0);
        }
      }
    }
  }
  EXPECT_EQ(t.differing, 0u);
  // The threshold was crossed both ways.
  EXPECT_GT(t.arm_hits, 50u);
  EXPECT_GT(t.paths - t.hits, 50u);
}

/// Boxes hit only at a leg's last sample, through the tip or the held
/// volume; legs past kMaxLegSamples; NaN and +-1e308 boxes, and a world
/// whose bounds overflow the grid.
TEST(NarrowListDifferential, EdgesOfTheHull) {
  Tally t;
  sim::NarrowList narrow;
  PathCheckOptions options;
  {
    // The leg ends on each face of a box, from outside.
    sim::WorldModel world;
    world.add_box("cube", Aabb(Vec3(0.2, 0.2, 0.2), Vec3(0.3, 0.3, 0.3)), ObstacleKind::Equipment);
    world.add_solid("drum", geom::Solid::vertical_cylinder(Vec3(0.6, 0.25, 0.2), 0.05, 0.1),
                    ObstacleKind::Equipment);
    const sim::BroadPhaseGrid grid(world);
    const Vec3 cube_center(0.25, 0.25, 0.25);
    const Vec3 drum_center(0.6, 0.25, 0.25);
    for (const Vec3& goal : {Vec3(0.2, 0.25, 0.25), Vec3(0.3, 0.25, 0.25), Vec3(0.25, 0.2, 0.25),
                             Vec3(0.25, 0.3, 0.25), Vec3(0.25, 0.25, 0.3), Vec3(0.55, 0.25, 0.25),
                             Vec3(0.6, 0.25, 0.3), Vec3(0.25, 0.25, 0.37)}) {
      // In along the face's outward normal.
      const Vec3 center = goal.x > 0.5 ? drum_center : cube_center;
      const Vec3 start = goal + (goal - center).normalized() * 0.2;
      for (double held : {0.0, 0.07}) {
        for (double inflate : {0.0, 0.03}) {
          options.inflate = inflate;
          compare_leg(world, &grid, narrow, start, goal, held, options, t, "face");
        }
      }
    }
  }
  {
    // A negative inflate leaves every box as it is; a grid query shrunk by
    // it (toward the hull's center) missed the first box on this leg.
    sim::WorldModel world;
    for (int i = 0; i < 8; ++i) {
      const double x = 0.125 * i;
      std::string name = "b";
      name += std::to_string(i);
      world.add_box(name, Aabb(Vec3(x, 0, 0), Vec3(x + 0.05, 0.05, 0.05)), ObstacleKind::Equipment);
    }
    const sim::BroadPhaseGrid grid(world);
    options.inflate = -0.3;
    compare_leg(world, &grid, narrow, Vec3(0.9, 0.02, 0.02), Vec3(0.02, 0.02, 0.02), 0.0,
                options, t, "negative inflate");
  }
  options.inflate = 0.0;
  {
    // Too long to poll, a NaN and an infinite goal.
    sim::WorldModel world;
    world.add_box("cube", Aabb(Vec3(0.2, 0.2, 0.2), Vec3(0.3, 0.3, 0.3)), ObstacleKind::Equipment);
    for (const Vec3& goal : {Vec3(1e5, 0, 0), Vec3(kNaN, 0, 0),
                             Vec3(0, std::numeric_limits<double>::infinity(), 0)}) {
      compare_leg(world, nullptr, narrow, Vec3(0.25, 0.25, 0.1), goal, 0.0, options, t,
                  "unpolled");
    }
  }
  {
    // NaN boxes, boxes at +-1e308 whose union overflows, and an infinite
    // box: the grid is the full scan and the list must match it.
    sim::WorldModel world;
    world.boxes.push_back(sim::NamedBox{"nan", Aabb(Vec3(kNaN, 0, 0), Vec3(kNaN, 1, 1)),
                                        ObstacleKind::Equipment, std::nullopt});
    world.add_box("far-east", Aabb(Vec3(1e308, -1, -1), Vec3(1e308, 1, 1)), ObstacleKind::Wall);
    world.add_box("far-west", Aabb(Vec3(-1e308, -1, -1), Vec3(-1e308, 1, 1)), ObstacleKind::Wall);
    world.add_box("everything-above", Aabb(Vec3(-std::numeric_limits<double>::infinity(), -1, 1),
                                           Vec3(std::numeric_limits<double>::infinity(), 1, 2)),
                  ObstacleKind::SoftWall);
    world.add_box("cube", Aabb(Vec3(0.2, 0.2, 0.2), Vec3(0.3, 0.3, 0.3)), ObstacleKind::Equipment);
    world.set_arm_segment("huge", geom::Segment{Vec3(-1e308, 0, 0), Vec3(1e308, 0, 0)}, 0.05);
    world.set_arm_segment("nan", geom::Segment{Vec3(0, 0, kNaN), Vec3(0, 0, 0.5)}, 0.05);
    const sim::BroadPhaseGrid grid(world);
    std::mt19937_64 rng(3);
    std::uniform_real_distribution<double> pos(-0.5, 1.5);
    for (int i = 0; i < 400; ++i) {
      options.include_soft_walls = i % 2 == 0;
      options.inflate = i % 3 == 0 ? 0.03 : 0.0;
      options.ignore.clear();
      if (i % 5 == 0) options.ignore = {"huge"};
      compare_leg(world, &grid, narrow, Vec3(pos(rng), pos(rng), pos(rng)),
                  Vec3(pos(rng), pos(rng), pos(rng)), i % 4 == 0 ? 0.07 : 0.0, options, t,
                  "non-finite world " + std::to_string(i));
    }
  }
  EXPECT_EQ(t.differing, 0u);
  EXPECT_GT(t.hits, 100u);
  EXPECT_GE(t.unpolled, 3u);
}

// --- whole labs ---------------------------------------------------------------------

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

/// Steps `workflow` through `lab` without halting on alerts. Every V3
/// replay the engine makes is swept again on a copy of the simulator's
/// world, inflated as the engine inflates it and uninflated, and each of
/// its legs is checked with the world's grid; after every step that moved
/// an arm, its move is checked through the kept ground truth and its grid,
/// empty-handed and holding, with no station ignored, each one ignored and
/// all of them. Each is held to the reference.
void compare_lab(core::Lab& lab, const std::vector<dev::Command>& workflow,
                 std::optional<assurance::AssuranceConfig> assurance, Tally& t,
                 const std::string& what) {
  sim::NarrowList narrow;
  std::string step;
  lab.engine.set_motion_observer([&](const core::MotionAnalysis& motion) {
    const sim::WorldModel& world = lab.simulator->world();
    const sim::BroadPhaseGrid grid(world);
    for (double inflate : {lab.engine.assurance_margin(), 0.0}) {
      compare_sweep(world, motion.waypoints, motion.held_clearance, motion.ignores, inflate, t,
                    step);
      PathCheckOptions options;
      options.step = sim::ExtendedSimulator::kPollingStep_m;
      options.ignore = motion.ignores;
      options.inflate = inflate;
      for (std::size_t leg = 1; leg < motion.waypoints.size(); ++leg) {
        compare_leg(world, &grid, narrow, motion.waypoints[leg - 1], motion.waypoints[leg],
                    motion.held_clearance, options, t, step + " leg " + std::to_string(leg));
      }
    }
  });

  trace::Supervisor::Options options;
  options.halt_on_alert = false;
  options.assurance = assurance;
  trace::Supervisor supervisor(&lab.engine, &lab.backend, options);
  supervisor.start();
  dev::DeviceRegistry& registry = lab.backend.registry();
  for (std::size_t i = 0; i < workflow.size(); ++i) {
    const dev::Command& cmd = workflow[i];
    step = what + " command " + std::to_string(i) + " " + cmd.describe();
    auto* arm = dynamic_cast<dev::RobotArmDevice*>(registry.find(cmd.device));
    const Vec3 start = arm != nullptr ? arm->position_lab() : Vec3();
    const std::size_t motions = lab.backend.position_error_samples().size();
    const bool halted = supervisor.step(cmd).halted;
    if (arm != nullptr && lab.backend.position_error_samples().size() != motions) {
      const sim::WorldModel& kept = lab.backend.kept_ground_truth();
      PathCheckOptions ground;
      ground.include_soft_walls = false;
      ground.moving_arm_radius = arm->model().link_radius();
      std::vector<std::vector<std::string>> ignores = {{}, {}};
      for (const sim::NamedBox& b : kept.boxes) {
        if (registry.find(b.name) == nullptr) continue;
        ignores.push_back({b.name});
        ignores[1].push_back(b.name);
      }
      for (double held : {0.0, arm->held_drop()}) {
        for (const std::vector<std::string>& ignore : ignores) {
          ground.ignore = ignore;
          compare_leg(kept, &lab.backend.kept_ground_truth_grid(), narrow, start,
                      arm->position_lab(), held, ground, t, step + " ground truth");
        }
      }
    }
    if (halted) break;
  }
  lab.engine.set_motion_observer(nullptr);
}

TEST(NarrowListDifferential, RadShelfSessionsWithAssurance) {
  Tally t;
  for (unsigned seed = 1; seed <= 6; ++seed) {
    core::Lab lab(core::Variant::ModifiedWithSim);
    sim::add_shelf_rack(lab.simulator->world(), 400);
    compare_lab(lab, rad_session(seed), assurance::AssuranceConfig{}, t,
                "rad seed " + std::to_string(seed));
  }
  EXPECT_EQ(t.differing, 0u);
  EXPECT_GT(t.sweeps, 100u);
  EXPECT_GT(t.paths, 1000u);
}

TEST(NarrowListDifferential, CatalogueBugsUnderEveryVariant) {
  Tally t;
  for (core::Variant variant :
       {core::Variant::Initial, core::Variant::Modified, core::Variant::ModifiedWithSim}) {
    for (const bugs::BugSpec& bug : bugs::bug_catalogue()) {
      sim::LabBackend staging(sim::testbed_profile());
      sim::build_hein_testbed_deck(staging);
      core::Lab lab(variant);
      compare_lab(lab, bug.build(staging), std::nullopt, t,
                  "bug " + bug.id + " at " + std::string(core::to_string(variant)));
    }
  }
  EXPECT_EQ(t.differing, 0u);
  EXPECT_GT(t.sweeps, 50u);
  EXPECT_GT(t.hits, 0u);
}

TEST(NarrowListDifferential, TestbedWorkflowUnderChaos) {
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
    compare_lab(lab, workflow, assurance::AssuranceConfig{}, t,
                "chaos seed " + std::to_string(seed));
  }
  EXPECT_EQ(t.differing, 0u);
  EXPECT_GT(t.sweeps, 100u);
}

}  // namespace
}  // namespace rabit
