// rabit::sim — collision world model shared by ground truth and prediction.
//
// The paper's Extended Simulator (§III) models every automation device as a
// 3D cuboid and polls the robot arm's trajectory against them. The same
// path-checking primitive serves two roles here:
//   * ground truth — the LabBackend sweeps the arm's *actual* motion through
//     the *complete* physical world and records real damage;
//   * prediction — the ExtendedSimulator sweeps the *planned* motion through
//     its *configured* world model (which may be incomplete; that is exactly
//     how detection gaps arise in §IV).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "geometry/geometry.hpp"
#include "geometry/solid.hpp"

namespace rabit::sim {

/// What a box in the world stands for; determines damage severity when hit.
enum class ObstacleKind {
  Ground,     ///< floor / mounting platform
  Wall,       ///< room or enclosure walls
  Grid,       ///< vial rack (inexpensive)
  Equipment,  ///< expensive automation device
  Vial,       ///< a standing vial (glassware)
  SoftWall,   ///< virtual software-defined wall (space multiplexing, §IV) —
              ///< crossing it is a rule violation but causes no damage
  ParkedArm,  ///< a sleeping robot arm modeled as a cuboid (time multiplexing)
};

[[nodiscard]] std::string_view to_string(ObstacleKind k);
[[nodiscard]] std::optional<ObstacleKind> parse_obstacle_kind(std::string_view name);

struct NamedBox {
  std::string name;
  geom::Aabb box;
  ObstacleKind kind = ObstacleKind::Equipment;
  /// Optional refined (non-cuboid) shape — the §V-C extension. When present,
  /// collision queries use it instead of the bounding cuboid; `box` must be
  /// its bounding box.
  std::optional<geom::Solid> solid;

  [[nodiscard]] bool contains(const geom::Vec3& p) const {
    return solid ? solid->contains(p) : box.contains(p);
  }
  [[nodiscard]] bool intersects(const geom::Aabb& other) const {
    return solid ? solid->intersects_box(other) : box.intersects(other);
  }
};

/// Another arm's current link, treated as a dynamic obstacle.
struct ArmSegmentObstacle {
  std::string arm_id;
  geom::Segment segment;
  double radius = 0.05;
};

struct WorldModel {
  std::vector<NamedBox> boxes;
  std::vector<ArmSegmentObstacle> arm_segments;

  void add_box(std::string name, const geom::Aabb& box, ObstacleKind kind);
  /// Adds a refined-shape obstacle (bounding box derived from the solid).
  void add_solid(std::string name, geom::Solid solid, ObstacleKind kind);
  [[nodiscard]] const NamedBox* find_box(std::string_view name) const;

  /// First box (if any) containing the point.
  [[nodiscard]] const NamedBox* box_containing(const geom::Vec3& p) const;

  /// Mutation counter consumed by the collision-verdict cache and the broad
  /// phase. add_box/add_solid/set_arm_segment bump it automatically; code
  /// that mutates `boxes`/`arm_segments` directly must call bump_epoch()
  /// afterwards or cached verdicts may go stale (element-count changes are
  /// additionally caught by the cache's size fingerprint).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  void bump_epoch() { ++epoch_; }

  /// Updates (or inserts) another arm's link obstacle, bumping the epoch.
  void set_arm_segment(std::string arm_id, const geom::Segment& segment, double radius);

 private:
  std::uint64_t epoch_ = 0;
};

/// Uniform-grid broad phase over a WorldModel's box AABBs. Queries return a
/// conservative superset of the boxes intersecting an axis-aligned region,
/// in ascending box-index order, so narrow-phase iteration visits boxes in
/// exactly the order a full scan would — verdicts stay byte-identical.
///
/// The cells are one flat array: cell c holds the ascending box indices
/// `cell_boxes_[cell_start_[c], cell_start_[c + 1])`, laid out by a counting
/// pass and a fill pass. A world whose bounds overflow or carry a NaN has no
/// computable cells; every box is then on the oversize list, so every query
/// is the full scan.
///
/// The grid snapshots the world at build time; rebuild() after the world's
/// epoch changes. Queries are const and touch no mutable state, so a built
/// grid is safe to share across threads.
class BroadPhaseGrid {
 public:
  BroadPhaseGrid() = default;
  explicit BroadPhaseGrid(const WorldModel& world) { rebuild(world); }

  /// Rebuilds into the grid's own buffers: rebuilding over a world no larger
  /// than one the grid already held allocates nothing.
  void rebuild(const WorldModel& world);

  /// Number of boxes indexed at build time (sanity check against the world).
  [[nodiscard]] std::size_t box_count() const { return box_count_; }

  /// Appends the indices (ascending, deduplicated) of all boxes whose AABB
  /// may intersect `query` to `out` (cleared first).
  void candidates(const geom::Aabb& query, std::vector<std::size_t>& out) const;

 private:
  /// Inclusive cell coordinates a box covers on each axis.
  struct CellRange {
    int x0 = 0, x1 = 0, y0 = 0, y1 = 0, z0 = 0, z1 = 0;
  };
  /// A box kept in the cells, with the range the counting pass computed.
  struct Placed {
    std::uint32_t box = 0;
    CellRange range;
  };

  [[nodiscard]] CellRange cell_range(const geom::Aabb& box) const;
  /// Calls `f(cell index)` for every cell of `r`.
  template <typename F>
  void for_each_cell(const CellRange& r, F&& f) const;

  geom::Vec3 origin_;
  geom::Vec3 inv_cell_;  ///< 1 / cell size, per axis
  int nx_ = 0, ny_ = 0, nz_ = 0;
  std::size_t box_count_ = 0;
  std::vector<std::uint32_t> cell_start_;  ///< one per cell, plus the total
  std::vector<std::uint32_t> cell_boxes_;
  /// Boxes that span more than half the grid (ground plane, walls), checked
  /// by every query instead of flooding the cells.
  std::vector<std::uint32_t> oversize_;
  std::vector<Placed> placed_;  ///< rebuild's working list, kept for its capacity
};

/// Most polling samples one straight leg may take in check_path and
/// margin_profile: 10 km at the default 1 cm step, far past any lab. A
/// longer leg cannot be polled (past 2^64 samples its count does not even
/// fit a std::size_t), so check_path reports it as a hit and margin_profile
/// as zero clearance: it is never a pass.
inline constexpr std::size_t kMaxLegSamples = 1'000'000;

struct CollisionReport {
  std::string obstacle;     ///< box name or other arm id
  ObstacleKind kind = ObstacleKind::Equipment;
  geom::Vec3 position;      ///< where along the path contact happened (lab)
  bool via_held_object = false;  ///< the held vial hit, not the arm itself
  bool arm_vs_arm = false;
  /// The leg ending at `position` needs more than kMaxLegSamples samples.
  bool too_long_to_poll = false;

  [[nodiscard]] std::string describe() const;
};

/// Path-check parameters. `step` is the polling resolution of the paper's
/// trajectory polling (ablation A2 sweeps it).
struct PathCheckOptions {
  double step = 0.01;              ///< metres between samples
  double moving_arm_radius = 0.05; ///< collision radius of the moving tool
  double held_half_width = 0.012;  ///< held vial half width (m)
  bool include_soft_walls = true;  ///< treat SoftWall boxes as obstacles
  /// Boxes whose name appears here are skipped (e.g. the device the arm is
  /// deliberately reaching into through an open door).
  std::vector<std::string> ignore;
  /// RTA fast path: grow every obstacle (and arm-segment clearance) by this
  /// margin so a clear verdict certifies clearance >= inflate along the whole
  /// path. Ground boxes are exempt — every pick/place approaches the deck
  /// vertically, so deck clearance is governed by the exact check, not the
  /// barrier. Solids are inflated via their bounding cuboid (a conservative
  /// over-approximation; the margin-profile slow path settles false trips).
  double inflate = 0.0;
};

/// A leg's narrow list: the obstacles check_path tests every sample of one
/// leg against, in the full scan's order, each with its test shape fixed
/// for the leg. check_path refills it at every call. A caller that sweeps
/// many legs keeps one and passes it in, so that the buffers' capacity is
/// reused; it carries nothing from one call to the next, and serves one
/// thread at a time.
struct NarrowList {
  /// A box and the shape a sample is tested against: the refined `solid`
  /// when set, else the AABB `shape` (the box, or its cuboid grown by
  /// PathCheckOptions::inflate).
  struct Box {
    const NamedBox* box = nullptr;
    geom::Aabb shape;
    const geom::Solid* solid = nullptr;
  };
  /// Another arm's link and the distance a sample must keep from it.
  struct Segment {
    const ArmSegmentObstacle* segment = nullptr;
    double clearance = 0.0;
  };
  std::vector<std::size_t> candidates;  ///< the broad phase's answer for the leg
  std::vector<Box> boxes;
  std::vector<Segment> segments;
};

/// Sweeps a straight tip path from `start` to `goal` (lab frame) through the
/// world. `held_clearance` extends the checked volume below the tip by the
/// held object's length (the Bug D fix: arm dimensions change when holding).
/// Returns the first collision, or nullopt for a clear path. A path too long
/// to poll (see kMaxLegSamples) is reported as a collision at `goal`.
///
/// The leg's narrow list is built once: the non-ignored obstacles whose
/// test shape meets the leg's padded hull. Every sample is tested against
/// it alone, in world order, so the verdict is the full per-sample scan's,
/// bit for bit. When `grid` is a broad phase built from this world (same
/// box count), the list is built from its candidates; a mismatched or null
/// grid falls back to every box. `narrow`, when given, holds the list's
/// buffers.
[[nodiscard]] std::optional<CollisionReport> check_path(const WorldModel& world,
                                                        const geom::Vec3& start,
                                                        const geom::Vec3& goal,
                                                        double held_clearance,
                                                        const PathCheckOptions& options = {},
                                                        const BroadPhaseGrid* grid = nullptr,
                                                        NarrowList* narrow = nullptr);

/// Point-in-world query with the same held-object semantics: the first box
/// (then arm segment) that contains `point` or meets the held volume below
/// it, tested as check_path tests one sample. RABIT's own target check
/// (core::check_target_location, paper §II-B lines 8-10) walks its
/// configured world in place with these semantics.
[[nodiscard]] std::optional<CollisionReport> check_point(const WorldModel& world,
                                                         const geom::Vec3& point,
                                                         double held_clearance,
                                                         const PathCheckOptions& options = {});

// ---------------------------------------------------------------------------
// Runtime-assurance margin profile
// ---------------------------------------------------------------------------

/// One barrier sample: signed clearance h at arc length s along the path.
struct MarginSample {
  double s = 0.0;         ///< arc length from the path start (m)
  double h = 0.0;         ///< signed clearance to the nearest obstacle (m)
  std::string obstacle;   ///< which obstacle realizes h (empty if none apply)
};

/// CBF-style barrier profile h(s) of a piecewise-linear tip path: at every
/// polling sample, the signed clearance to the nearest non-ignored obstacle
/// (boxes by exact solid distance, other arms by link-segment distance minus
/// the combined radii, the held object by box separation). Ground boxes are
/// excluded — see PathCheckOptions::inflate. h > 0 means clear by that much;
/// h < 0 means the sample penetrates.
struct MarginProfile {
  double length_m = 0.0;  ///< total arc length of the sampled path
  double min_margin_m = 0.0;
  double min_s_m = 0.0;         ///< arc length where min_margin_m occurs
  std::string min_obstacle;
  std::vector<MarginSample> samples;  ///< in ascending s order
  /// Box-clearance evaluations the scan made (one per sample per box tested).
  std::size_t boxes_tested = 0;
};

/// Sweeps the full profile: the RTA slow path, taken only after the inflated
/// fast check trips. Mirrors check_path semantics: the departure sample s=0
/// is skipped (the arm may leave a spot that brushes a boundary), soft walls
/// count per `options`, `options.ignore` filters, and the held volume hangs
/// `held_clearance` below the tip. A leg too long to poll (see
/// kMaxLegSamples) ends the profile with a zero-clearance sample at its
/// start.
///
/// Each leg tests only the boxes that can give some sample's minimum: a
/// cuboid whose separation from the leg's padded hull exceeds the least
/// farthest-corner distance of any cuboid is dropped for that leg. The cull
/// is exact: every sample's h, s and obstacle are bit-identical to testing
/// every box, ties included (tests/margin_scan_test.cpp holds that against a
/// linear reference).
[[nodiscard]] MarginProfile margin_profile(const WorldModel& world,
                                           const std::vector<geom::Vec3>& waypoints,
                                           double held_clearance,
                                           const PathCheckOptions& options = {});

}  // namespace rabit::sim
