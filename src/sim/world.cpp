#include "sim/world.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace rabit::sim {

std::string_view to_string(ObstacleKind k) {
  switch (k) {
    case ObstacleKind::Ground: return "ground";
    case ObstacleKind::Wall: return "wall";
    case ObstacleKind::Grid: return "grid";
    case ObstacleKind::Equipment: return "equipment";
    case ObstacleKind::Vial: return "vial";
    case ObstacleKind::SoftWall: return "soft_wall";
    case ObstacleKind::ParkedArm: return "parked_arm";
  }
  return "unknown";
}

std::optional<ObstacleKind> parse_obstacle_kind(std::string_view name) {
  for (ObstacleKind k : {ObstacleKind::Ground, ObstacleKind::Wall, ObstacleKind::Grid,
                         ObstacleKind::Equipment, ObstacleKind::Vial, ObstacleKind::SoftWall,
                         ObstacleKind::ParkedArm}) {
    if (to_string(k) == name) return k;
  }
  return std::nullopt;
}

void WorldModel::add_box(std::string name, const geom::Aabb& box, ObstacleKind kind) {
  boxes.push_back(NamedBox{std::move(name), box, kind, std::nullopt});
  bump_epoch();
}

void WorldModel::add_solid(std::string name, geom::Solid solid, ObstacleKind kind) {
  geom::Aabb bounds = solid.bounding_box();
  boxes.push_back(NamedBox{std::move(name), bounds, kind, std::move(solid)});
  bump_epoch();
}

void WorldModel::set_arm_segment(std::string arm_id, const geom::Segment& segment,
                                 double radius) {
  for (ArmSegmentObstacle& seg : arm_segments) {
    if (seg.arm_id == arm_id) {
      seg.segment = segment;
      seg.radius = radius;
      bump_epoch();
      return;
    }
  }
  arm_segments.push_back(ArmSegmentObstacle{std::move(arm_id), segment, radius});
  bump_epoch();
}

const NamedBox* WorldModel::find_box(std::string_view name) const {
  for (const NamedBox& b : boxes) {
    if (b.name == name) return &b;
  }
  return nullptr;
}

const NamedBox* WorldModel::box_containing(const geom::Vec3& p) const {
  for (const NamedBox& b : boxes) {
    if (b.contains(p)) return &b;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// BroadPhaseGrid
// ---------------------------------------------------------------------------

namespace {

/// Cells per axis. Deck worlds hold tens of boxes over a ~2 m table; 8^3
/// cells keeps occupancy lists short without a per-rebuild allocation storm.
constexpr int kGridCellsPerAxis = 8;

}  // namespace

template <typename F>
void BroadPhaseGrid::for_each_cell(const CellRange& r, F&& f) const {
  for (int z = r.z0; z <= r.z1; ++z) {
    for (int y = r.y0; y <= r.y1; ++y) {
      const std::size_t row = (static_cast<std::size_t>(z) * static_cast<std::size_t>(ny_) +
                               static_cast<std::size_t>(y)) *
                              static_cast<std::size_t>(nx_);
      for (int x = r.x0; x <= r.x1; ++x) f(row + static_cast<std::size_t>(x));
    }
  }
}

void BroadPhaseGrid::rebuild(const WorldModel& world) {
  box_count_ = world.boxes.size();
  nx_ = ny_ = nz_ = 0;
  cell_start_.clear();
  cell_boxes_.clear();
  oversize_.clear();
  placed_.clear();
  if (world.boxes.empty()) return;
  oversize_.reserve(box_count_);

  geom::Aabb bounds = world.boxes.front().box;
  for (const NamedBox& b : world.boxes) bounds = bounds.united(b.box);
  // Pad slightly so boundary queries never fall outside the grid range.
  bounds = bounds.inflated(1e-6);
  const geom::Vec3 extent = bounds.size();

  // Bounds that overflow (finite boxes at +-1e308) or carry a NaN (seeded by
  // the first box) leave no cell computable: a cell coordinate would be
  // inf * 0 or NaN. Every box goes on the oversize list instead, which makes
  // every query the full scan.
  auto finite = [](const geom::Vec3& v) {
    return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
  };
  if (!finite(bounds.min) || !finite(extent)) {
    for (std::size_t i = 0; i < box_count_; ++i) {
      oversize_.push_back(static_cast<std::uint32_t>(i));
    }
    return;
  }
  origin_ = bounds.min;
  auto axis_cells = [](double e) { return e <= 0 ? 1 : kGridCellsPerAxis; };
  auto inverse_cell = [](double e, int n) { return e > 0 ? 1.0 / (e / n) : 1.0; };
  nx_ = axis_cells(extent.x);
  ny_ = axis_cells(extent.y);
  nz_ = axis_cells(extent.z);
  inv_cell_ = geom::Vec3(inverse_cell(extent.x, nx_), inverse_cell(extent.y, ny_),
                         inverse_cell(extent.z, nz_));
  const std::size_t total_cells = static_cast<std::size_t>(nx_) *
                                  static_cast<std::size_t>(ny_) * static_cast<std::size_t>(nz_);

  // Counting pass: each box's cell range, computed once and kept for the
  // fill pass; cell_start_[c] counts the boxes of cell c.
  cell_start_.assign(total_cells + 1, 0);
  placed_.reserve(box_count_);
  for (std::size_t i = 0; i < box_count_; ++i) {
    const CellRange r = cell_range(world.boxes[i].box);
    const std::size_t covered = static_cast<std::size_t>(r.x1 - r.x0 + 1) *
                                static_cast<std::size_t>(r.y1 - r.y0 + 1) *
                                static_cast<std::size_t>(r.z1 - r.z0 + 1);
    // Room-scale boxes (ground plane, walls) would land in nearly every
    // cell; keeping them in a flat always-checked list is cheaper.
    if (covered * 2 > total_cells) {
      oversize_.push_back(static_cast<std::uint32_t>(i));
      continue;
    }
    placed_.push_back(Placed{static_cast<std::uint32_t>(i), r});
    for_each_cell(r, [&](std::size_t c) { ++cell_start_[c]; });
  }
  // Running sum: cell_start_[c] becomes the end of cell c.
  std::uint32_t end = 0;
  for (std::size_t c = 0; c < total_cells; ++c) {
    end += cell_start_[c];
    cell_start_[c] = end;
  }
  cell_start_[total_cells] = end;

  // Fill pass, last box first: each cell fills from its end down, so its
  // indices end up ascending and cell_start_[c] moves back to its start.
  cell_boxes_.resize(end);
  for (auto p = placed_.rbegin(); p != placed_.rend(); ++p) {
    for_each_cell(p->range, [&](std::size_t c) { cell_boxes_[--cell_start_[c]] = p->box; });
  }
}

BroadPhaseGrid::CellRange BroadPhaseGrid::cell_range(const geom::Aabb& box) const {
  // A box with an infinite or NaN coordinate spans every cell: the query
  // becomes a full scan, never a silent miss (and NaN is never cast to int).
  for (double v : {box.min.x, box.min.y, box.min.z, box.max.x, box.max.y, box.max.z}) {
    if (!std::isfinite(v)) return CellRange{0, nx_ - 1, 0, ny_ - 1, 0, nz_ - 1};
  }
  // With finite bounds and a finite box, v is finite or an overflowed
  // +-inf, never NaN. Truncation is the floor on [0, n), and the clamp maps
  // every negative v to cell 0 either way.
  auto clamp_cell = [](double v, int n) {
    if (v < 0) return 0;
    if (v >= n) return n - 1;
    return static_cast<int>(v);
  };
  return CellRange{clamp_cell((box.min.x - origin_.x) * inv_cell_.x, nx_),
                   clamp_cell((box.max.x - origin_.x) * inv_cell_.x, nx_),
                   clamp_cell((box.min.y - origin_.y) * inv_cell_.y, ny_),
                   clamp_cell((box.max.y - origin_.y) * inv_cell_.y, ny_),
                   clamp_cell((box.min.z - origin_.z) * inv_cell_.z, nz_),
                   clamp_cell((box.max.z - origin_.z) * inv_cell_.z, nz_)};
}

void BroadPhaseGrid::candidates(const geom::Aabb& query, std::vector<std::size_t>& out) const {
  out.assign(oversize_.begin(), oversize_.end());
  // With no box in the cells, the oversize list (ascending) is the answer.
  if (cell_boxes_.empty()) return;
  for_each_cell(cell_range(query), [&](std::size_t c) {
    out.insert(out.end(), cell_boxes_.begin() + cell_start_[c],
               cell_boxes_.begin() + cell_start_[c + 1]);
  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

std::string CollisionReport::describe() const {
  std::ostringstream os;
  if (too_long_to_poll) {
    os << "leg to " << position << " too long to poll: over the " << kMaxLegSamples
       << "-sample per-leg cap";
    return os.str();
  }
  if (arm_vs_arm) {
    os << "collision with robot arm '" << obstacle << "'";
  } else {
    os << "collision with " << to_string(kind) << " '" << obstacle << "'";
  }
  if (via_held_object) os << " via held object";
  os << " at " << position;
  return os.str();
}

namespace {

bool is_ignored(const PathCheckOptions& options, const std::string& name) {
  return std::find(options.ignore.begin(), options.ignore.end(), name) != options.ignore.end();
}

/// The axis-aligned volume a tip sample can touch: the tip itself plus the
/// held-object box hanging below it.
geom::Aabb sample_volume(const geom::Vec3& tip, double held_clearance,
                         const PathCheckOptions& options) {
  if (held_clearance > 0) {
    return geom::Aabb(
        tip - geom::Vec3(options.held_half_width, options.held_half_width, held_clearance),
        tip + geom::Vec3(options.held_half_width, options.held_half_width, 0.0));
  }
  return geom::Aabb(tip, tip);
}

/// Polling samples for one leg of `length` at `step`, or nullopt when the leg
/// needs more than kMaxLegSamples (NaN and infinite lengths included): the
/// count is range-checked before it is cast.
std::optional<std::size_t> leg_samples(double length, double step) {
  const double steps = std::ceil(length / step);
  if (!(steps < static_cast<double>(kMaxLegSamples))) return std::nullopt;
  return static_cast<std::size_t>(steps) + 1;
}

/// Checks a single tip sample against the world. When `candidates` is
/// non-null, only those box indices (ascending — same visit order as the
/// full scan) are narrow-phase tested.
std::optional<CollisionReport> check_sample(const WorldModel& world, const geom::Vec3& tip,
                                            double held_clearance,
                                            const PathCheckOptions& options,
                                            const std::vector<std::size_t>* candidates) {
  // The volume occupied by a held object: a slim box hanging below the tip.
  std::optional<geom::Aabb> held_box;
  if (held_clearance > 0) {
    held_box = geom::Aabb(
        tip - geom::Vec3(options.held_half_width, options.held_half_width, held_clearance),
        tip + geom::Vec3(options.held_half_width, options.held_half_width, 0.0));
  }

  const std::size_t count = candidates != nullptr ? candidates->size() : world.boxes.size();
  for (std::size_t c = 0; c < count; ++c) {
    const NamedBox& b = world.boxes[candidates != nullptr ? (*candidates)[c] : c];
    if (b.kind == ObstacleKind::SoftWall && !options.include_soft_walls) continue;
    if (is_ignored(options, b.name)) continue;
    // RTA fast path: inflate by the requested margin (bounding cuboid for
    // solids — conservative), except Ground (see PathCheckOptions::inflate).
    double infl = b.kind != ObstacleKind::Ground ? options.inflate : 0.0;
    bool tip_hit = infl > 0 ? b.box.inflated(infl).contains(tip) : b.contains(tip);
    if (tip_hit) {
      return CollisionReport{b.name, b.kind, tip, /*via_held_object=*/false,
                             /*arm_vs_arm=*/false};
    }
    bool held_hit = held_box && (infl > 0 ? b.box.inflated(infl).intersects(*held_box)
                                          : b.intersects(*held_box));
    if (held_hit) {
      return CollisionReport{b.name, b.kind, tip, /*via_held_object=*/true,
                             /*arm_vs_arm=*/false};
    }
  }

  for (const ArmSegmentObstacle& seg : world.arm_segments) {
    if (is_ignored(options, seg.arm_id)) continue;
    double clearance_needed = seg.radius + options.moving_arm_radius + options.inflate;
    if (geom::distance(seg.segment, tip) < clearance_needed) {
      return CollisionReport{seg.arm_id, ObstacleKind::Equipment, tip,
                             /*via_held_object=*/false, /*arm_vs_arm=*/true};
    }
    if (held_box) {
      geom::Vec3 held_bottom = tip - geom::Vec3(0, 0, held_clearance);
      if (geom::distance(seg.segment, held_bottom) < clearance_needed) {
        return CollisionReport{seg.arm_id, ObstacleKind::Equipment, held_bottom,
                               /*via_held_object=*/true, /*arm_vs_arm=*/true};
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<CollisionReport> check_path(const WorldModel& world, const geom::Vec3& start,
                                          const geom::Vec3& goal, double held_clearance,
                                          const PathCheckOptions& options,
                                          const BroadPhaseGrid* grid) {
  if (options.step <= 0) throw std::invalid_argument("check_path: step must be positive");
  const std::optional<std::size_t> samples = leg_samples(start.distance_to(goal), options.step);
  if (!samples) {
    CollisionReport unpolled;
    unpolled.position = goal;
    unpolled.too_long_to_poll = true;
    return unpolled;
  }

  // Broad phase: one swept-volume query covers every sample on the segment,
  // so the per-sample narrow phase only sees boxes near the motion. A grid
  // built for a different world (box count mismatch) is ignored — a wrong
  // candidate set would silently change verdicts.
  std::vector<std::size_t> candidate_storage;
  const std::vector<std::size_t>* candidates = nullptr;
  if (grid != nullptr && grid->box_count() == world.boxes.size()) {
    geom::Aabb swept = geom::Aabb(start, start).united(geom::Aabb(goal, goal));
    swept = swept.united(sample_volume(start, held_clearance, options))
                .united(sample_volume(goal, held_clearance, options))
                .inflated(geom::kEpsilon + options.inflate);
    grid->candidates(swept, candidate_storage);
    candidates = &candidate_storage;
  }

  for (std::size_t i = 0; i <= *samples; ++i) {
    double t = static_cast<double>(i) / static_cast<double>(*samples);
    geom::Vec3 tip = geom::lerp(start, goal, t);
    // Skip the departure point itself: the arm is allowed to *leave* a spot
    // that brushes an obstacle boundary (e.g. lifting out of a grid slot).
    if (i == 0) continue;
    if (auto hit = check_sample(world, tip, held_clearance, options, candidates)) return hit;
  }
  return std::nullopt;
}

std::optional<CollisionReport> check_point(const WorldModel& world, const geom::Vec3& point,
                                           double held_clearance,
                                           const PathCheckOptions& options) {
  return check_sample(world, point, held_clearance, options, nullptr);
}

// ---------------------------------------------------------------------------
// Runtime-assurance margin profile
// ---------------------------------------------------------------------------

namespace {

/// Signed clearance of one tip sample to one obstacle box: exact solid
/// distance outside, negative bounding-cuboid depth when penetrating. The
/// held volume contributes its box separation (bounding cuboid for solids —
/// pessimistic, never optimistic).
double box_clearance(const NamedBox& b, const geom::Vec3& tip,
                     const std::optional<geom::Aabb>& held_box) {
  double h;
  if (b.contains(tip)) {
    h = geom::signed_distance(b.box, tip);
    if (h > 0) h = 0.0;  // inside the solid but outside its bounding cuboid
  } else {
    h = b.solid ? geom::distance_to(*b.solid, tip) : b.box.distance_to(tip);
  }
  if (held_box) h = std::min(h, geom::signed_distance(b.box, *held_box));
  return h;
}

/// max() that keeps a NaN from either argument (std::max drops a NaN second
/// argument), so that a NaN bound keeps its box.
double max_keeping_nan(double a, double b) { return std::isnan(b) || b > a ? b : a; }

/// Bounds on a cuboid's box_clearance() at every tip whose sample volume
/// lies inside `w`. `gap`, the largest per-axis separation of the box from
/// w, is a lower bound; `far`, the distance between their farthest corners,
/// an upper bound (a penetrating sample has h <= 0). Each is built from the
/// same differences, squares and sums as h itself, so with rounding
/// monotone they bound the computed h, not only the exact one.
struct ClearanceBounds {
  double gap;
  double far;
};

ClearanceBounds clearance_bounds(const geom::Aabb& box, const geom::Aabb& w) {
  const double gx = max_keeping_nan(box.min.x - w.max.x, w.min.x - box.max.x);
  const double gy = max_keeping_nan(box.min.y - w.max.y, w.min.y - box.max.y);
  const double gz = max_keeping_nan(box.min.z - w.max.z, w.min.z - box.max.z);
  const geom::Vec3 far(max_keeping_nan(box.max.x - w.min.x, w.max.x - box.min.x),
                       max_keeping_nan(box.max.y - w.min.y, w.max.y - box.min.y),
                       max_keeping_nan(box.max.z - w.min.z, w.max.z - box.min.z));
  return {max_keeping_nan(max_keeping_nan(gx, gy), gz), far.norm()};
}

/// The axis-aligned hull of every sample volume on the leg a -> b: both end
/// volumes, padded by an absolute and a magnitude-relative epsilon. The pad
/// covers lerp()'s rounding past an end (a few ulps of the largest
/// coordinate) and keeps a positive gap clear of underflow.
geom::Aabb leg_hull(const geom::Vec3& a, const geom::Vec3& b, double held_clearance,
                    const PathCheckOptions& options) {
  const geom::Aabb hull = sample_volume(a, held_clearance, options)
                              .united(sample_volume(b, held_clearance, options));
  double magnitude = 0.0;
  for (double v : {hull.min.x, hull.min.y, hull.min.z, hull.max.x, hull.max.y, hull.max.z}) {
    magnitude = std::max(magnitude, std::abs(v));
  }
  return hull.inflated(geom::kEpsilon * (1.0 + magnitude));
}

}  // namespace

MarginProfile margin_profile(const WorldModel& world, const std::vector<geom::Vec3>& waypoints,
                             double held_clearance, const PathCheckOptions& options) {
  if (options.step <= 0) throw std::invalid_argument("margin_profile: step must be positive");
  MarginProfile profile;
  profile.min_margin_m = std::numeric_limits<double>::infinity();
  if (waypoints.size() < 2) return profile;

  // The boxes that may bind h at all, once per scan.
  std::vector<const NamedBox*> obstacles;
  for (const NamedBox& b : world.boxes) {
    if (b.kind == ObstacleKind::Ground) continue;  // see PathCheckOptions::inflate
    if (b.kind == ObstacleKind::SoftWall && !options.include_soft_walls) continue;
    if (is_ignored(options, b.name)) continue;
    obstacles.push_back(&b);
  }
  std::vector<const ArmSegmentObstacle*> segments;
  for (const ArmSegmentObstacle& seg : world.arm_segments) {
    if (!is_ignored(options, seg.arm_id)) segments.push_back(&seg);
  }
  // Per leg, the obstacles that may give some sample's minimum, in world
  // order (see the cull below).
  std::vector<const NamedBox*> near;
  std::vector<double> gaps(obstacles.size());

  auto record = [&profile](MarginSample sample) {
    if (sample.h < profile.min_margin_m) {
      profile.min_margin_m = sample.h;
      profile.min_s_m = sample.s;
      profile.min_obstacle = sample.obstacle;
    }
    profile.samples.push_back(std::move(sample));
  };
  auto sample_clearance = [&](const geom::Vec3& tip, double s) {
    std::optional<geom::Aabb> held_box;
    if (held_clearance > 0) held_box = sample_volume(tip, held_clearance, options);

    MarginSample sample;
    sample.s = s;
    sample.h = std::numeric_limits<double>::infinity();
    for (const NamedBox* b : near) {
      double h = box_clearance(*b, tip, held_box);
      if (h < sample.h) {
        sample.h = h;
        sample.obstacle = b->name;
      }
    }
    profile.boxes_tested += near.size();
    for (const ArmSegmentObstacle* seg : segments) {
      double clearance_needed = seg->radius + options.moving_arm_radius;
      double h = geom::distance(seg->segment, tip) - clearance_needed;
      if (held_box) {
        geom::Vec3 held_bottom = tip - geom::Vec3(0, 0, held_clearance);
        h = std::min(h, geom::distance(seg->segment, held_bottom) - clearance_needed);
      }
      if (h < sample.h) {
        sample.h = h;
        sample.obstacle = seg->arm_id;
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
    const geom::Vec3& a = waypoints[leg - 1];
    const geom::Vec3& b = waypoints[leg];
    double length = a.distance_to(b);
    const std::optional<std::size_t> samples = leg_samples(length, options.step);
    if (!samples) {
      record(MarginSample{s_base, 0.0, {}});  // too long to poll: no clearance
      break;
    }
    // The cull. Every sample volume of this leg lies inside `hull`, so a
    // cuboid's gap is at most its h at every sample, and `bound`, the least
    // far, is at least every sample's box minimum. A cuboid with gap > bound
    // has h > that minimum at every sample: it can neither win nor tie, so
    // dropping it leaves each sample's h, s and obstacle bit-identical to
    // testing every box, in the same order. Solids are always kept and set
    // no bound: their distance formulas round differently from a cuboid's.
    const geom::Aabb hull = leg_hull(a, b, held_clearance, options);
    double bound = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < obstacles.size(); ++k) {
      if (obstacles[k]->solid) continue;
      const ClearanceBounds cb = clearance_bounds(obstacles[k]->box, hull);
      gaps[k] = cb.gap;
      if (cb.far < bound) bound = cb.far;
    }
    near.clear();
    for (std::size_t k = 0; k < obstacles.size(); ++k) {
      if (obstacles[k]->solid || !(gaps[k] > bound)) near.push_back(obstacles[k]);
    }
    for (std::size_t i = 0; i <= *samples; ++i) {
      double t = static_cast<double>(i) / static_cast<double>(*samples);
      // Skip the global departure point (check_path semantics) and each leg's
      // own start, which duplicates the previous leg's end sample.
      if (i == 0) continue;
      sample_clearance(geom::lerp(a, b, t), s_base + length * t);
    }
    s_base += length;
  }
  profile.length_m = s_base;
  if (!std::isfinite(profile.min_margin_m)) profile.min_margin_m = std::numeric_limits<double>::max();
  return profile;
}

}  // namespace rabit::sim
