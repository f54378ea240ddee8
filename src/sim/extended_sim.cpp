#include "sim/extended_sim.hpp"

#include <algorithm>

namespace rabit::sim {

namespace {

geom::Vec3 vec3_from_json(const json::Value& v, const char* what) {
  if (!v.is_array() || v.as_array().size() != 3) {
    throw std::runtime_error(std::string("ExtendedSimulator: ") + what +
                             " must be an array of 3 numbers");
  }
  const json::Array& a = v.as_array();
  return geom::Vec3(a[0].as_double(), a[1].as_double(), a[2].as_double());
}

void hash_combine(std::size_t& seed, std::size_t v) {
  seed ^= v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

}  // namespace

std::size_t ExtendedSimulator::VerdictKeyHash::operator()(const VerdictKey& k) const {
  std::size_t seed = 0;
  std::hash<double> hd;
  std::hash<std::string> hs;
  hash_combine(seed, hd(k.start.x));
  hash_combine(seed, hd(k.start.y));
  hash_combine(seed, hd(k.start.z));
  hash_combine(seed, hd(k.goal.x));
  hash_combine(seed, hd(k.goal.y));
  hash_combine(seed, hd(k.goal.z));
  hash_combine(seed, hd(k.clearance));
  hash_combine(seed, hd(k.inflate));
  for (const std::string& s : k.ignore) hash_combine(seed, hs(s));
  return seed;
}

WorldModel ExtendedSimulator::world_from_json(const json::Value& config) {
  WorldModel world;
  const json::Value* objects = config.find("objects");
  if (objects == nullptr || !objects->is_array()) {
    throw std::runtime_error("ExtendedSimulator: config needs an 'objects' array");
  }
  for (const json::Value& obj : objects->as_array()) {
    if (!obj.is_object()) throw std::runtime_error("ExtendedSimulator: object must be a map");
    const json::Value* name = obj.find("name");
    const json::Value* center = obj.find("center");
    const json::Value* size = obj.find("size");
    if (name == nullptr || !name->is_string() || center == nullptr || size == nullptr) {
      throw std::runtime_error("ExtendedSimulator: object needs name/center/size");
    }
    const geom::Vec3 middle = vec3_from_json(*center, "center");
    const geom::Vec3 extent = vec3_from_json(*size, "size");
    if (extent.x < 0 || extent.y < 0 || extent.z < 0) {
      throw std::runtime_error("ExtendedSimulator: object '" + name->as_string() +
                               "' has a negative size");
    }
    std::string kind_name = obj.get_or("kind", std::string("equipment"));
    std::optional<ObstacleKind> kind = parse_obstacle_kind(kind_name);
    if (!kind) {
      throw std::runtime_error("ExtendedSimulator: unknown obstacle kind '" + kind_name + "'");
    }
    world.add_box(name->as_string(), geom::Aabb::from_center(middle, extent), *kind);
  }
  return world;
}

std::uint64_t ExtendedSimulator::world_revision() const {
  // Element counts are folded in so a direct boxes.push_back that forgot
  // bump_epoch() still invalidates; in-place coordinate edits need the bump.
  return world_.epoch() * 0x100000001b3ULL + world_.boxes.size() * 8191 +
         world_.arm_segments.size();
}

std::optional<CollisionReport> ExtendedSimulator::check_leg(
    const geom::Vec3& start, const geom::Vec3& goal, double held_clearance,
    const std::vector<std::string>& ignore, double inflate) {
  std::uint64_t revision = world_revision();
  if (revision != cache_revision_) {
    grid_.rebuild(world_);
    verdicts_.clear();
    cache_revision_ = revision;
  }

  VerdictKey key{start, goal, held_clearance, inflate, ignore};
  if (auto it = verdicts_.find(key); it != verdicts_.end()) {
    ++cache_hits_;
    return it->second;
  }
  ++narrow_runs_;
  leg_options_.step = kPollingStep_m;
  leg_options_.ignore = ignore;
  leg_options_.inflate = inflate;
  std::optional<CollisionReport> verdict =
      check_path(world_, start, goal, held_clearance, leg_options_, &grid_, &narrow_);
  if (verdicts_.size() >= kVerdictCacheCapacity) verdicts_.clear();
  verdicts_.emplace(std::move(key), verdict);
  return verdict;
}

ExtendedSimulator::SweepResult ExtendedSimulator::sweep(const std::vector<geom::Vec3>& waypoints,
                                                        double held_clearance,
                                                        const std::vector<std::string>& ignore,
                                                        double inflate) {
  inflate = std::max(inflate, 0.0);
  SweepResult result;
  for (std::size_t leg = 1; leg < waypoints.size(); ++leg) {
    ++checks_;
    modeled_latency_s_ += options_.gui_enabled ? kGuiLatency_s : kHeadlessLatency_s;
    result.hit = check_leg(waypoints[leg - 1], waypoints[leg], held_clearance, ignore, inflate);
    if (!result.hit) continue;
    if (inflate > 0.0) {
      // Inflated trip: settle the exact verdict uninflated. Inflation only
      // grows obstacles, so the legs before this one are clear uninflated.
      result.hit.reset();
      for (std::size_t i = leg; i < waypoints.size() && !result.hit; ++i) {
        result.hit = check_leg(waypoints[i - 1], waypoints[i], held_clearance, ignore, 0.0);
      }
      result.tripped = !result.hit;
    }
    return result;
  }
  return result;
}

MarginProfile ExtendedSimulator::trajectory_margin(const std::vector<geom::Vec3>& waypoints,
                                                   double held_clearance,
                                                   const std::vector<std::string>& ignore) {
  ++margin_scans_;
  PathCheckOptions opts;
  opts.step = kPollingStep_m;
  opts.ignore = ignore;
  MarginProfile profile = margin_profile(world_, waypoints, held_clearance, opts);
  margin_boxes_tested_ += profile.boxes_tested;
  return profile;
}

}  // namespace rabit::sim
