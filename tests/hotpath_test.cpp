// Hot-path equivalence and invalidation: the broad-phase grid and the
// collision-verdict cache are pure accelerations — every test here pins the
// invariant that they can change the cost of an answer but never the
// answer, and that every mutation of the underlying world invalidates what
// it must. The config lookups and the rule-world walk they sit beside are
// first-match scans over a freely editable config.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "bugs/bugs.hpp"
#include "core/engine.hpp"
#include "core/lab.hpp"
#include "core/rules.hpp"
#include "json/json.hpp"
#include "sim/deck.hpp"
#include "sim/extended_sim.hpp"
#include "trace/trace.hpp"

namespace rabit::core {
namespace {

using dev::Command;
using geom::Aabb;
using geom::Vec3;
namespace ids = sim::deck_ids;

Command make_cmd(std::string device, std::string action, json::Object args = {}) {
  Command c;
  c.device = std::move(device);
  c.action = std::move(action);
  c.args = json::Value(std::move(args));
  return c;
}

// ---------------------------------------------------------------------------
// Config lookups
// ---------------------------------------------------------------------------

class ConfigIndexTest : public ::testing::Test {
 protected:
  ConfigIndexTest() : backend(sim::testbed_profile()) {
    sim::build_hein_testbed_deck(backend);
    config = config_from_backend(backend, Variant::Modified);
  }

  sim::LabBackend backend;
  EngineConfig config;
};

TEST_F(ConfigIndexTest, IndexedAndLinearLookupsAgree) {
  // Every lookup is a first-match scan. Shadow each testbed device and site
  // with a later entry of the same id/name but a different payload, and give
  // every device a duplicated alias, threshold and active action: each
  // lookup must answer with the first entry.
  EngineConfig dup = config;
  for (const DeviceMeta& d : config.devices) {
    DeviceMeta shadow = d;
    shadow.is_arm = !d.is_arm;
    dup.devices.push_back(std::move(shadow));
  }
  for (const SiteMeta& s : config.sites) {
    SiteMeta shadow = s;
    shadow.lab_position = s.lab_position + Vec3(1, 1, 1);
    dup.sites.push_back(std::move(shadow));
  }
  for (DeviceMeta& d : dup.devices) {
    d.action_aliases.emplace_back("nudge", "first");
    d.action_aliases.emplace_back("nudge", "second");
    std::vector<ThresholdSpec> shadowed = d.thresholds;
    for (ThresholdSpec& t : shadowed) t.max += 1.0;
    d.thresholds.insert(d.thresholds.end(), shadowed.begin(), shadowed.end());
    d.active_actions.insert(d.active_actions.end(), 2, "whirl");
  }

  for (std::size_t i = 0; i < config.devices.size(); ++i) {
    const DeviceMeta& original = config.devices[i];
    const DeviceMeta* found = dup.find_device(original.id);
    ASSERT_EQ(found, &dup.devices[i]) << original.id;
    EXPECT_EQ(found->is_arm, original.is_arm) << original.id;
    EXPECT_EQ(found->canonical_action("nudge"), "first") << original.id;
    for (const auto& [alias, canonical] : original.action_aliases) {
      EXPECT_EQ(found->canonical_action(alias), canonical) << original.id;
    }
    for (std::size_t k = 0; k < original.thresholds.size(); ++k) {
      const ThresholdSpec* t = found->threshold_for(original.thresholds[k].action);
      ASSERT_EQ(t, &found->thresholds[k]) << original.id;
      EXPECT_EQ(t->max, original.thresholds[k].max);
    }
    EXPECT_TRUE(found->is_active_action("whirl")) << original.id;
    for (const std::string& action : original.active_actions) {
      EXPECT_TRUE(found->is_active_action(action)) << original.id;
    }
    // Unknown names: nullptr, or the action unchanged.
    EXPECT_EQ(found->canonical_action("no_such_action"), "no_such_action");
    EXPECT_EQ(found->threshold_for("no_such_action"), nullptr);
    EXPECT_FALSE(found->is_active_action("no_such_action"));
  }
  for (std::size_t i = 0; i < config.sites.size(); ++i) {
    EXPECT_EQ(dup.find_site(config.sites[i].name), &dup.sites[i]) << config.sites[i].name;
  }
  EXPECT_EQ(dup.find_device("no_such_device"), nullptr);
  EXPECT_EQ(dup.find_site("no_such_site"), nullptr);
}

TEST_F(ConfigIndexTest, IndexSurvivesVectorGrowth) {
  ASSERT_NE(config.find_device(ids::kViperX), nullptr);

  DeviceMeta late;
  late.id = "late_device";
  config.devices.push_back(late);  // likely reallocates the backing vector
  const DeviceMeta* found = config.find_device("late_device");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found, &config.devices.back());
  // The pre-existing entries still resolve after the reallocation.
  EXPECT_NE(config.find_device(ids::kViperX), nullptr);

  SiteMeta site;
  site.name = "late_site";
  config.sites.push_back(site);
  EXPECT_EQ(config.find_site("late_site"), &config.sites.back());
}

TEST_F(ConfigIndexTest, IndexSurvivesInPlaceRename) {
  std::string old_id = config.devices.front().id;
  ASSERT_NE(config.find_device(old_id), nullptr);

  // In-place id edit: vector data pointer and size are unchanged, and the
  // next lookup must still see the new id.
  config.devices.front().id = "renamed_device";
  EXPECT_EQ(config.find_device("renamed_device"), &config.devices.front());
  EXPECT_EQ(config.find_device(old_id), nullptr);
}

// ---------------------------------------------------------------------------
// Broad phase
// ---------------------------------------------------------------------------

/// A deterministic pseudo-random world: 120 clustered boxes plus a ground
/// plane big enough to land on the grid's oversize list. Draws positions
/// from `rng`, which the caller keeps using for its queries.
sim::WorldModel seeded_world(std::mt19937& rng) {
  sim::WorldModel world;
  std::uniform_real_distribution<double> pos(-1.0, 2.0);
  std::uniform_real_distribution<double> size(0.02, 0.30);
  for (int i = 0; i < 120; ++i) {
    Vec3 center(pos(rng), pos(rng), pos(rng));
    Vec3 extent(size(rng), size(rng), size(rng));
    world.add_box("box_" + std::to_string(i), Aabb::from_center(center, extent),
                  sim::ObstacleKind::Equipment);
  }
  world.add_box("ground", Aabb(Vec3(-5, -5, -1), Vec3(5, 5, -0.5)), sim::ObstacleKind::Ground);
  return world;
}

/// Byte-identical verdicts: same first-hit obstacle at exactly the same sample.
void expect_same_hit(const std::optional<sim::CollisionReport>& got,
                     const std::optional<sim::CollisionReport>& want, int path) {
  ASSERT_EQ(got.has_value(), want.has_value()) << "path " << path;
  if (!want) return;
  EXPECT_EQ(got->obstacle, want->obstacle) << "path " << path;
  EXPECT_EQ(got->position.x, want->position.x);
  EXPECT_EQ(got->position.y, want->position.y);
  EXPECT_EQ(got->position.z, want->position.z);
  EXPECT_EQ(got->via_held_object, want->via_held_object);
  EXPECT_EQ(got->arm_vs_arm, want->arm_vs_arm);
}

TEST(BroadPhase, PathAndPointVerdictsMatchFullScan) {
  std::mt19937 rng(20240806);
  sim::WorldModel world = seeded_world(rng);
  std::uniform_real_distribution<double> pos(-1.0, 2.0);
  sim::BroadPhaseGrid grid(world);
  ASSERT_EQ(grid.box_count(), world.boxes.size());

  sim::PathCheckOptions opts;
  int collisions = 0;
  for (int i = 0; i < 200; ++i) {
    Vec3 start(pos(rng), pos(rng), pos(rng));
    Vec3 goal(pos(rng), pos(rng), pos(rng));
    if (i % 5 == 0) {
      opts.ignore = {"box_" + std::to_string(i % 120)};
    } else {
      opts.ignore.clear();
    }
    auto full = sim::check_path(world, start, goal, 0.05, opts, nullptr);
    expect_same_hit(sim::check_path(world, start, goal, 0.05, opts, &grid), full, i);
    if (full) ++collisions;
  }
  // The world is dense enough that the equivalence was actually exercised.
  EXPECT_GT(collisions, 10);
}

TEST(BroadPhase, SweepMatchesLegByLegCheckPath) {
  std::mt19937 rng(20240806);
  sim::WorldModel world = seeded_world(rng);
  world.set_arm_segment("other_arm", geom::Segment{Vec3(0.5, -1, 0.5), Vec3(0.5, 2, 0.5)}, 0.05);
  std::uniform_real_distribution<double> pos(-1.0, 2.0);
  // Short hops around a random anchor, so some legs graze an obstacle
  // within the inflation margin without touching it.
  std::uniform_real_distribution<double> hop(-0.15, 0.15);

  int hits = 0;
  int trips = 0;
  sim::ExtendedSimulator simulator(world);
  std::mt19937 path_rng(7);
  for (int i = 0; i < 300; ++i) {
    Vec3 anchor(pos(path_rng), pos(path_rng), pos(path_rng));
    std::vector<Vec3> waypoints{anchor};
    for (int k = 0; k < 1 + i % 4; ++k) {
      waypoints.push_back(waypoints.back() + Vec3(hop(path_rng), hop(path_rng), hop(path_rng)));
    }
    std::vector<std::string> ignore;
    if (i % 3 == 0) ignore = {"box_" + std::to_string(i % 120), "other_arm"};
    double held = i % 2 == 0 ? 0.05 : 0.0;
    for (double inflate : {0.0, 0.03}) {
      // Reference: check_path leg by leg, full scan, no cache.
      sim::PathCheckOptions exact_opts;
      exact_opts.ignore = ignore;
      sim::PathCheckOptions inflated_opts = exact_opts;
      inflated_opts.inflate = inflate;
      std::optional<sim::CollisionReport> exact;
      std::size_t charged_legs = 0;
      bool inflated_hit = false;
      for (std::size_t leg = 1; leg < waypoints.size(); ++leg) {
        if (!exact) exact = sim::check_path(world, waypoints[leg - 1], waypoints[leg], held,
                                            exact_opts);
        if (inflated_hit) continue;
        ++charged_legs;
        inflated_hit = sim::check_path(world, waypoints[leg - 1], waypoints[leg], held,
                                       inflated_opts)
                           .has_value();
      }

      // Twice: the second sweep is served from the verdict cache.
      for (int pass = 0; pass < 2; ++pass) {
        std::size_t charged_before = simulator.checks_performed();
        sim::ExtendedSimulator::SweepResult swept =
            simulator.sweep(waypoints, held, ignore, inflate);
        EXPECT_EQ(simulator.checks_performed() - charged_before, charged_legs) << "path " << i;
        expect_same_hit(swept.hit, exact, i);
        EXPECT_EQ(swept.tripped, inflated_hit && !exact) << "path " << i;
        if (pass == 0) {
          hits += exact ? 1 : 0;
          trips += swept.tripped ? 1 : 0;
        }
      }
    }
  }
  // Both verdict kinds were actually exercised.
  EXPECT_GT(hits, 20);
  EXPECT_GT(trips, 5);
}

TEST(BroadPhase, NonFiniteQueryBoxReturnsFullScanCandidates) {
  std::mt19937 rng(20240806);
  sim::WorldModel world = seeded_world(rng);
  sim::BroadPhaseGrid grid(world);
  std::vector<std::size_t> every_box(world.boxes.size());
  for (std::size_t i = 0; i < every_box.size(); ++i) every_box[i] = i;

  // A NaN or infinite coordinate spans every cell: the full scan, never a
  // silent miss (and never a NaN cast to a cell index).
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> out;
  for (const Aabb& query : {Aabb(Vec3(kNaN, 0, 0), Vec3(kNaN, 0, 0)),
                            Aabb(Vec3(0, kNaN, 0), Vec3(1, 1, kNaN)),
                            Aabb(Vec3(kInf, 0, 0), Vec3(kInf, 0, 0))}) {
    grid.candidates(query, out);
    EXPECT_EQ(out, every_box);
  }
}

// --- the flat grid against the per-cell grid it replaced ----------------------

/// The broad phase as it was before the flat layout, kept verbatim as the
/// reference: one std::vector per cell, std::floor before the clamp.
/// Worlds whose bounds are not finite are outside its domain (it cast NaN
/// cell coordinates to int); the tests below never give it one.
class PerCellReferenceGrid {
 public:
  explicit PerCellReferenceGrid(const sim::WorldModel& world) {
    box_count_ = world.boxes.size();
    if (world.boxes.empty()) return;
    Aabb bounds = world.boxes.front().box;
    for (const sim::NamedBox& b : world.boxes) bounds = bounds.united(b.box);
    bounds = bounds.inflated(1e-6);
    origin_ = bounds.min;
    Vec3 extent = bounds.size();
    auto axis_cells = [](double e) { return e <= 0 ? 1 : 8; };
    nx_ = axis_cells(extent.x);
    ny_ = axis_cells(extent.y);
    nz_ = axis_cells(extent.z);
    Vec3 cell_size(extent.x > 0 ? extent.x / nx_ : 1.0, extent.y > 0 ? extent.y / ny_ : 1.0,
                   extent.z > 0 ? extent.z / nz_ : 1.0);
    inv_cell_ = Vec3(1.0 / cell_size.x, 1.0 / cell_size.y, 1.0 / cell_size.z);
    cells_.assign(static_cast<std::size_t>(nx_ * ny_ * nz_), {});
    for (std::size_t i = 0; i < world.boxes.size(); ++i) {
      int x0, x1, y0, y1, z0, z1;
      cell_range(world.boxes[i].box, x0, x1, y0, y1, z0, z1);
      auto covered = static_cast<std::size_t>((x1 - x0 + 1) * (y1 - y0 + 1) * (z1 - z0 + 1));
      if (covered * 2 > cells_.size()) {
        oversize_.push_back(static_cast<std::uint32_t>(i));
        continue;
      }
      for (int z = z0; z <= z1; ++z) {
        for (int y = y0; y <= y1; ++y) {
          for (int x = x0; x <= x1; ++x) {
            cells_[cell_index(x, y, z)].push_back(static_cast<std::uint32_t>(i));
          }
        }
      }
    }
  }

  void candidates(const Aabb& query, std::vector<std::size_t>& out) const {
    out.clear();
    if (box_count_ == 0) return;
    out.insert(out.end(), oversize_.begin(), oversize_.end());
    if (!cells_.empty()) {
      int x0, x1, y0, y1, z0, z1;
      cell_range(query, x0, x1, y0, y1, z0, z1);
      for (int z = z0; z <= z1; ++z) {
        for (int y = y0; y <= y1; ++y) {
          for (int x = x0; x <= x1; ++x) {
            const std::vector<std::uint32_t>& cell = cells_[cell_index(x, y, z)];
            out.insert(out.end(), cell.begin(), cell.end());
          }
        }
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }

 private:
  [[nodiscard]] std::size_t cell_index(int x, int y, int z) const {
    return static_cast<std::size_t>((z * ny_ + y) * nx_ + x);
  }
  void cell_range(const Aabb& box, int& x0, int& x1, int& y0, int& y1, int& z0, int& z1) const {
    for (double v : {box.min.x, box.min.y, box.min.z, box.max.x, box.max.y, box.max.z}) {
      if (std::isfinite(v)) continue;
      x0 = y0 = z0 = 0;
      x1 = nx_ - 1;
      y1 = ny_ - 1;
      z1 = nz_ - 1;
      return;
    }
    auto clamp_cell = [](double v, int n) {
      if (v < 0) return 0;
      if (v >= n) return n - 1;
      return static_cast<int>(v);
    };
    x0 = clamp_cell(std::floor((box.min.x - origin_.x) * inv_cell_.x), nx_);
    x1 = clamp_cell(std::floor((box.max.x - origin_.x) * inv_cell_.x), nx_);
    y0 = clamp_cell(std::floor((box.min.y - origin_.y) * inv_cell_.y), ny_);
    y1 = clamp_cell(std::floor((box.max.y - origin_.y) * inv_cell_.y), ny_);
    z0 = clamp_cell(std::floor((box.min.z - origin_.z) * inv_cell_.z), nz_);
    z1 = clamp_cell(std::floor((box.max.z - origin_.z) * inv_cell_.z), nz_);
  }

  Vec3 origin_;
  Vec3 inv_cell_;
  int nx_ = 0, ny_ = 0, nz_ = 0;
  std::vector<std::vector<std::uint32_t>> cells_;
  std::size_t box_count_ = 0;
  std::vector<std::uint32_t> oversize_;
};

/// Compares `grid` (already built over `world`) with the reference on
/// `queries` random boxes: every other one starts inside a random box of
/// the world (on its faces when the box is flat), the rest anywhere around
/// the world's bounds. A quarter are points, half are up to a tenth of the
/// world across and a quarter up to one and a half worlds. Returns how many
/// queries differed; `nonempty` counts those with at least one candidate.
std::size_t differing_candidates(const sim::BroadPhaseGrid& grid, const sim::WorldModel& world,
                                 std::mt19937& rng, int queries, int& nonempty) {
  PerCellReferenceGrid reference(world);
  Aabb bounds(Vec3(-1, -1, -1), Vec3(1, 1, 1));
  if (!world.boxes.empty()) {
    bounds = world.boxes.front().box;
    for (const sim::NamedBox& b : world.boxes) bounds = bounds.united(b.box);
  }
  const Vec3 extent = bounds.size();
  const Vec3 pad(0.25 * extent.x + 0.1, 0.25 * extent.y + 0.1, 0.25 * extent.z + 0.1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  auto within = [&](const Vec3& lo, const Vec3& span) {
    return Vec3(lo.x + unit(rng) * span.x, lo.y + unit(rng) * span.y, lo.z + unit(rng) * span.z);
  };
  std::size_t differing = 0;
  std::vector<std::size_t> got;
  std::vector<std::size_t> want;
  for (int q = 0; q < queries; ++q) {
    Vec3 corner;
    if (q % 2 == 1 && !world.boxes.empty()) {
      const Aabb& b = world.boxes[rng() % world.boxes.size()].box;
      corner = within(b.min, b.size());
    } else {
      corner = within(bounds.min - pad, extent + pad * 2.0);
    }
    const double scale = q % 4 == 0 ? 0.0 : q % 4 == 3 ? 1.5 : 0.1;
    const Vec3 reach = (extent + Vec3(0.1, 0.1, 0.1)) * scale;
    const Aabb query(corner, corner + within(Vec3(0, 0, 0), reach));
    grid.candidates(query, got);
    reference.candidates(query, want);
    if (got != want) ++differing;
    if (!want.empty()) ++nonempty;
  }
  return differing;
}

/// The shelf lab's simulator world: the V3 testbed deck, its parked arms'
/// sleep boxes and a 400-box shelf rack (413 boxes).
sim::WorldModel shelf_lab_world() {
  Lab lab(Variant::ModifiedWithSim);
  sim::add_shelf_rack(lab.simulator->world(), 400);
  return lab.simulator->world();
}

/// The testbed deck's ground truth, as the backend keeps it for the ViperX.
sim::WorldModel testbed_ground_truth() {
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  return backend.ground_truth_world(ids::kViperX);
}

TEST(BroadPhase, FlatGridMatchesPerCellReference) {
  std::mt19937 rng(20240806);
  sim::WorldModel seeded = seeded_world(rng);
  // Every box on one plane. At z = 0.3 the padding leaves that axis 2e-6 m
  // deep, still cut into 8 cells; at z = 1e11 the padding rounds away and
  // the axis has a single cell.
  std::uniform_real_distribution<double> pos(-1.0, 1.0);
  auto flat_world = [&](double z) {
    sim::WorldModel world;
    for (int i = 0; i < 60; ++i) {
      world.add_box("flat_" + std::to_string(i),
                    Aabb::from_center(Vec3(pos(rng), pos(rng), z), Vec3(0.1, 0.2, 0.0)),
                    sim::ObstacleKind::Equipment);
    }
    return world;
  };
  const sim::WorldModel thin = flat_world(0.3);
  const sim::WorldModel one_cell_deep = flat_world(1e11);
  sim::WorldModel one_box;
  one_box.add_box("only", Aabb(Vec3(0.1, 0.2, 0.3), Vec3(0.4, 0.5, 0.6)),
                  sim::ObstacleKind::Equipment);
  const sim::WorldModel shelf = shelf_lab_world();
  ASSERT_EQ(shelf.boxes.size(), 413u);
  const sim::WorldModel ground_truth = testbed_ground_truth();
  ASSERT_EQ(ground_truth.boxes.size(), 11u);
  const sim::WorldModel empty;

  const std::vector<std::pair<const char*, const sim::WorldModel*>> worlds = {
      {"seeded", &seeded},   {"flat, thin", &thin}, {"flat, one cell deep", &one_cell_deep},
      {"empty", &empty},     {"one box", &one_box}, {"shelf lab", &shelf},
      {"testbed ground truth", &ground_truth}};
  for (const auto& [name, world] : worlds) {
    sim::BroadPhaseGrid grid(*world);
    int nonempty = 0;
    EXPECT_EQ(differing_candidates(grid, *world, rng, 1500, nonempty), 0u) << name;
    // Queries met boxes often enough for the comparison to mean something.
    if (!world->boxes.empty()) {
      EXPECT_GT(nonempty, 500) << name;
    }
  }
}

TEST(BroadPhase, InPlaceRebuildMatchesPerCellReference) {
  // One grid object, rebuilt over a larger world and then a smaller one:
  // no cell may keep an index from the world before.
  std::mt19937 rng(11);
  const sim::WorldModel ground_truth = testbed_ground_truth();
  const sim::WorldModel shelf = shelf_lab_world();
  const sim::WorldModel seeded = seeded_world(rng);
  sim::BroadPhaseGrid grid(ground_truth);
  for (const sim::WorldModel* world : {&shelf, &seeded, &ground_truth, &shelf}) {
    grid.rebuild(*world);
    ASSERT_EQ(grid.box_count(), world->boxes.size());
    int nonempty = 0;
    EXPECT_EQ(differing_candidates(grid, *world, rng, 1000, nonempty), 0u)
        << world->boxes.size() << " boxes";
  }
}

// --- worlds whose bounds are not finite -------------------------------------

/// Every box index of `world`, ascending: the full scan's candidate list.
std::vector<std::size_t> every_box(const sim::WorldModel& world) {
  std::vector<std::size_t> all(world.boxes.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return all;
}

/// Paths through `world` must get the verdict of check_path without a grid,
/// through `grid` and through an ExtendedSimulator over the same world.
void expect_full_scan_verdicts(const sim::WorldModel& world, const sim::BroadPhaseGrid& grid) {
  sim::ExtendedSimulator simulator(world);
  const std::vector<std::pair<Vec3, Vec3>> paths = {
      {Vec3(-1, 0, 0), Vec3(1, 0, 0)},  // through the ordinary box
      {Vec3(0, 2, 0), Vec3(0, 3, 0)},   // clear
      {Vec3(0.5, 0.5, 2), Vec3(-0.5, -0.5, 2)}};
  int hits = 0;
  for (int p = 0; p < static_cast<int>(paths.size()); ++p) {
    const auto& [start, goal] = paths[static_cast<std::size_t>(p)];
    auto full = sim::check_path(world, start, goal, 0.05);
    expect_same_hit(sim::check_path(world, start, goal, 0.05, {}, &grid), full, p);
    expect_same_hit(simulator.sweep({start, goal}, 0.05, {}).hit, full, p);
    hits += full ? 1 : 0;
  }
  EXPECT_EQ(hits, 1);
}

TEST(BroadPhase, OverflowingBoundsFallBackToFullScan) {
  // Finite boxes at x = +-1e308: the union's extent is infinite, so no cell
  // size exists (a cell coordinate would be inf * 0 = NaN).
  const json::Value config = json::parse(R"({"objects": [
      {"name": "far_west", "center": [-1e308, 0, 0], "size": [1, 1, 1]},
      {"name": "far_east", "center": [1e308, 0, 0], "size": [1, 1, 1]},
      {"name": "block", "center": [0, 0, 0], "size": [0.2, 0.2, 0.2]}]})");
  const sim::WorldModel world = sim::ExtendedSimulator::world_from_json(config);
  sim::BroadPhaseGrid grid(world);
  std::vector<std::size_t> out;
  for (const Aabb& query : {Aabb(Vec3(-0.1, -0.1, -0.1), Vec3(0.1, 0.1, 0.1)),
                            Aabb(Vec3(1e308, 0, 0), Vec3(1e308, 0, 0)),
                            Aabb(Vec3(5, 5, 5), Vec3(6, 6, 6))}) {
    grid.candidates(query, out);
    EXPECT_EQ(out, every_box(world));
  }
  expect_full_scan_verdicts(world, grid);
}

TEST(BroadPhase, NaNFirstBoxFallsBackToFullScan) {
  // The first box seeds the bounds, so its NaN survives every union.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  sim::WorldModel world;
  world.add_box("nan", Aabb(Vec3(kNaN, 0, 0), Vec3(kNaN, 1, 1)), sim::ObstacleKind::Equipment);
  world.add_box("block", Aabb::from_center(Vec3(0, 0, 0), Vec3(0.2, 0.2, 0.2)),
                sim::ObstacleKind::Equipment);
  world.add_box("shelf", Aabb(Vec3(3, 3, 0), Vec3(3.5, 3.5, 0.5)), sim::ObstacleKind::Equipment);
  sim::BroadPhaseGrid grid(world);
  std::vector<std::size_t> out;
  grid.candidates(Aabb(Vec3(-0.1, -0.1, -0.1), Vec3(0.1, 0.1, 0.1)), out);
  EXPECT_EQ(out, every_box(world));
  expect_full_scan_verdicts(world, grid);
}

TEST(BroadPhase, StaleGridFallsBackToFullScan) {
  sim::WorldModel world;
  world.add_box("a", Aabb(Vec3(0.4, -0.1, -0.1), Vec3(0.6, 0.1, 0.1)),
                sim::ObstacleKind::Equipment);
  sim::BroadPhaseGrid grid(world);
  // Grow the world without rebuilding: the grid's box count no longer
  // matches, so check_path must ignore it and still see the new box.
  world.add_box("b", Aabb(Vec3(-0.6, -0.1, -0.1), Vec3(-0.4, 0.1, 0.1)),
                sim::ObstacleKind::Equipment);
  auto hit = sim::check_path(world, Vec3(0, 0, 0), Vec3(-1, 0, 0), 0.0, {}, &grid);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->obstacle, "b");
}

// ---------------------------------------------------------------------------
// Collision-verdict cache
// ---------------------------------------------------------------------------

class VerdictCacheTest : public ::testing::Test {
 protected:
  VerdictCacheTest() {
    sim::WorldModel world;
    world.add_box("block", Aabb(Vec3(0.45, -0.05, 0.0), Vec3(0.55, 0.05, 0.2)),
                  sim::ObstacleKind::Equipment);
    sim::ExtendedSimulator::Options options;
    options.gui_enabled = false;
    simulator = std::make_unique<sim::ExtendedSimulator>(std::move(world), options);
  }

  /// One straight leg through the simulator's sweep.
  std::optional<sim::CollisionReport> leg(const Vec3& from, const Vec3& to,
                                          const std::vector<std::string>& ignore = {}) {
    return simulator->sweep({from, to}, 0.0, ignore).hit;
  }

  std::unique_ptr<sim::ExtendedSimulator> simulator;
  const Vec3 start{0.0, 0.0, 0.1};
  const Vec3 goal{1.0, 0.0, 0.1};
};

TEST_F(VerdictCacheTest, RepeatQueryHitsCache) {
  auto first = leg(start, goal);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->obstacle, "block");
  EXPECT_EQ(simulator->narrow_phase_runs(), 1u);
  EXPECT_EQ(simulator->verdict_cache_hits(), 0u);

  auto second = leg(start, goal);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->obstacle, first->obstacle);
  EXPECT_EQ(simulator->narrow_phase_runs(), 1u);
  EXPECT_EQ(simulator->verdict_cache_hits(), 1u);
}

TEST_F(VerdictCacheTest, AddBoxInvalidates) {
  Vec3 high_goal(1.0, 0.0, 0.5);
  ASSERT_FALSE(leg(start, high_goal).has_value());
  ASSERT_EQ(simulator->narrow_phase_runs(), 1u);

  // add_box bumps the world epoch, so the cached clear verdict must not be
  // served: the re-run sees the new obstacle.
  simulator->world().add_box("late", Aabb(Vec3(0.45, -0.05, 0.2), Vec3(0.55, 0.05, 0.6)),
                             sim::ObstacleKind::Equipment);
  auto hit = leg(start, high_goal);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->obstacle, "late");
  EXPECT_EQ(simulator->narrow_phase_runs(), 2u);
}

TEST_F(VerdictCacheTest, ArmSegmentInvalidates) {
  Vec3 high_goal(1.0, 0.0, 0.5);
  ASSERT_FALSE(leg(start, high_goal).has_value());

  simulator->world().set_arm_segment(
      "other_arm", geom::Segment{Vec3(0.5, -0.5, 0.4), Vec3(0.5, 0.5, 0.4)}, 0.05);
  auto hit = leg(start, high_goal);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->arm_vs_arm);
  EXPECT_EQ(simulator->narrow_phase_runs(), 2u);
}

TEST_F(VerdictCacheTest, DirectEditNeedsEpochBumpAndIsSeen) {
  ASSERT_TRUE(leg(start, goal).has_value());
  // Move the blocking box out of the way by editing the vector directly,
  // then bump the epoch as the WorldModel contract requires.
  simulator->world().boxes[0].box = Aabb(Vec3(5, 5, 5), Vec3(6, 6, 6));
  simulator->world().bump_epoch();
  EXPECT_FALSE(leg(start, goal).has_value());
  EXPECT_EQ(simulator->narrow_phase_runs(), 2u);
}

TEST_F(VerdictCacheTest, IgnoreSetsAreDistinctCacheEntries) {
  // The deliberate-entry ignore set is part of the cache key — the door
  // opening (which admits the device into the ignore set) must never be
  // served a verdict cached for the closed-door query, or vice versa.
  std::vector<std::string> ignore_block{"block"};
  ASSERT_TRUE(leg(start, goal).has_value());
  EXPECT_FALSE(leg(start, goal, ignore_block).has_value());
  auto again = leg(start, goal);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->obstacle, "block");
  EXPECT_FALSE(leg(start, goal, ignore_block).has_value());
  // Two distinct entries, each hit once on its second query.
  EXPECT_EQ(simulator->narrow_phase_runs(), 2u);
  EXPECT_EQ(simulator->verdict_cache_hits(), 2u);
}

// ---------------------------------------------------------------------------
// Engine-level: the world survives a trajectory alert untouched
// ---------------------------------------------------------------------------

TEST(EngineWorldPreservation, TrajectoryAlertLeavesWorldIntact) {
  Lab lab(Variant::ModifiedWithSim);
  sim::LabBackend& backend = lab.backend;
  RabitEngine& engine = lab.engine;
  const sim::ExtendedSimulator& simulator = *lab.simulator;
  engine.initialize(backend.registry().fetch_observed_state());

  auto snapshot_names = [&] {
    std::vector<std::string> names;
    for (const sim::NamedBox& b : simulator.world().boxes) names.push_back(b.name);
    return names;
  };
  std::vector<std::string> before = snapshot_names();

  auto move = [&](const Vec3& local) {
    json::Object args;
    args["position"] = json::Array{local.x, local.y, local.z};
    return make_cmd(ids::kViperX, "move_to", std::move(args));
  };
  // Wake the arm west of the grid, then sweep across it: the straight path
  // collides with the grid box and the trajectory check alerts.
  Command to_west = move(Vec3(0.18, 0.30, 0.03));
  ASSERT_FALSE(engine.check_command(to_west).has_value());
  engine.apply_expected(to_west);
  backend.execute(to_west);
  auto alert = engine.check_command(move(Vec3(0.48, 0.30, 0.03)));
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(alert->kind, AlertKind::InvalidTrajectory);

  // The seed engine erased and re-inserted deliberate-entry boxes around the
  // trajectory query; the read-only ignore filter must leave the world
  // byte-identical after an alert.
  EXPECT_EQ(snapshot_names(), before);
}

// ---------------------------------------------------------------------------
// kVolumeEpsilon boundary
// ---------------------------------------------------------------------------

TEST(VolumeEpsilon, SharedConstantGovernsPumpBoundaries) {
  EXPECT_DOUBLE_EQ(kVolumeEpsilon, 1e-9);

  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  EngineConfig config = config_from_backend(backend, Variant::Modified);
  StateTracker tracker(&config);
  tracker.initialize(backend.registry().fetch_observed_state());
  tracker.set_var(ids::kVial1, "solidMg", 5.0);  // C1: solid before liquid
  tracker.set_var(ids::kVial1, "liquidMl", 0.0);
  tracker.set_var(ids::kSyringePump, "heldMl", 10.0);

  auto dose = [&](double volume) {
    json::Object args;
    args["volume"] = volume;
    args["target"] = std::string(ids::kVial1);
    return check_preconditions(config, tracker, make_cmd(ids::kSyringePump, "dose_solvent",
                                                         std::move(args)));
  };

  // A float-noise overdraw within the epsilon passes; a real overdraw trips
  // G8 — the pump check now shares kVolumeEpsilon instead of its own 1e-9.
  EXPECT_FALSE(dose(10.0).has_value());
  EXPECT_FALSE(dose(10.0 + kVolumeEpsilon / 2).has_value());
  auto overdraw = dose(10.001);
  ASSERT_TRUE(overdraw.has_value());
  EXPECT_EQ(overdraw->rule, "G8");

  // Receiving-capacity boundary (vial capacity 15 mL): exactly full is
  // allowed, epsilon-significant overflow is not.
  tracker.set_var(ids::kSyringePump, "heldMl", 20.0);
  EXPECT_FALSE(dose(15.0).has_value());
  auto overflow = dose(15.0 + 1e-6);
  ASSERT_TRUE(overflow.has_value());
  EXPECT_EQ(overflow->rule, "G8");
}

// ---------------------------------------------------------------------------
// Catalogue verdict parity: the engine vs the stateless rulebase
// ---------------------------------------------------------------------------

TEST(HotPathParity, CatalogueVerdictsUnchangedAtV3) {
  // Every catalogue bug's buggy and safe stream, stepped through a V3 lab
  // without halting. At each command, the engine's precondition verdict
  // must equal the stateless check_preconditions oracle on the same tracked
  // state and canonical command: the same rule and message, or no hit on
  // either side.
  trace::Supervisor::Options options;
  options.halt_on_alert = false;
  std::size_t checked = 0;
  std::size_t hits = 0;
  for (const bugs::BugSpec& bug : bugs::bug_catalogue()) {
    sim::LabBackend staging(sim::testbed_profile());
    sim::build_hein_testbed_deck(staging);
    for (const std::vector<Command>& commands : {bug.build(staging), bug.build_safe(staging)}) {
      Lab lab(Variant::ModifiedWithSim);
      trace::Supervisor supervisor(&lab.engine, &lab.backend, options);
      supervisor.start();
      const EngineConfig& config = lab.engine.config();
      for (std::size_t i = 0; i < commands.size(); ++i) {
        Command canonical = commands[i];
        if (const DeviceMeta* meta = config.find_device(canonical.device)) {
          canonical.action = std::string(meta->canonical_action(canonical.action));
        }
        std::optional<RuleHit> oracle =
            check_preconditions(config, lab.engine.tracker(), canonical);
        trace::SupervisedStep step = supervisor.step(commands[i]);
        bool blocked = step.alert && step.alert->kind == AlertKind::InvalidCommand;
        ASSERT_EQ(blocked, oracle.has_value()) << bug.id << " command " << i;
        ++checked;
        if (!oracle) continue;
        ++hits;
        EXPECT_EQ(step.alert->rule, oracle->rule) << bug.id << " command " << i;
        EXPECT_EQ(step.alert->message, oracle->message) << bug.id << " command " << i;
      }
    }
  }
  // Both verdict kinds were actually exercised.
  EXPECT_GT(checked, 500u);
  EXPECT_GT(hits, 10u);
}

}  // namespace
}  // namespace rabit::core
