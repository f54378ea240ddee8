#include "sim/deck.hpp"

#include <memory>
#include <string>

namespace rabit::sim {

using dev::DeviceCategory;
using geom::Aabb;
using geom::Transform;
using geom::Vec3;

namespace {

// Deck geometry (lab frame, metres). The mounting platform's top surface is
// at z = kPlatformTop; everything sits on it. Values echo the Fig. 6 scale
// (pickup heights of 0.10-0.23 m above the platform).
constexpr double kPlatformTop = 0.02;

void add_static_geometry(LabBackend& b) {
  b.add_static_obstacle("platform", Aabb(Vec3(-1.0, -1.0, -0.5), Vec3(1.0, 1.0, kPlatformTop)),
                        ObstacleKind::Ground);
  b.add_static_obstacle("wall_north", Aabb(Vec3(-1.0, 0.9, -0.5), Vec3(1.0, 1.0, 1.5)),
                        ObstacleKind::Wall);
  b.add_static_obstacle("wall_south", Aabb(Vec3(-1.0, -1.0, -0.5), Vec3(1.0, -0.9, 1.5)),
                        ObstacleKind::Wall);
  b.add_static_obstacle("wall_east", Aabb(Vec3(0.9, -1.0, -0.5), Vec3(1.0, 1.0, 1.5)),
                        ObstacleKind::Wall);
  b.add_static_obstacle("wall_west", Aabb(Vec3(-1.0, -1.0, -0.5), Vec3(-0.9, 1.0, 1.5)),
                        ObstacleKind::Wall);
}

void add_stations(LabBackend& b) {
  auto& reg = b.registry();

  // Vial grid: a 2x2 rack. Tray top at 0.06; seated vials are grabbed at
  // z = 0.11 (tray top + most of a 7 cm vial).
  Aabb grid_box = Aabb::from_center(Vec3(0.35, 0.25, 0.04), Vec3(0.20, 0.20, 0.04));
  reg.add(std::make_unique<dev::VialGrid>(
      deck_ids::kGrid, std::vector<std::string>{"NW", "NE", "SW", "SE"}, grid_box));
  const double grab_z = 0.11;
  b.add_site({"grid.NW", Vec3(0.30, 0.30, grab_z), deck_ids::kGrid, "NW", ""});
  b.add_site({"grid.NE", Vec3(0.40, 0.30, grab_z), deck_ids::kGrid, "NE", ""});
  b.add_site({"grid.SW", Vec3(0.30, 0.20, grab_z), deck_ids::kGrid, "SW", ""});
  b.add_site({"grid.SE", Vec3(0.40, 0.20, grab_z), deck_ids::kGrid, "SE", ""});

  // Solid dosing device, with the fragile software-controlled glass door.
  reg.add(std::make_unique<dev::DosingDeviceModel>(
      deck_ids::kDosingDevice,
      Aabb::from_center(Vec3(0.0, 0.45, 0.12), Vec3(0.16, 0.16, 0.20))));
  b.add_site({"dosing_device", Vec3(0.0, 0.45, 0.10), "", "", deck_ids::kDosingDevice});

  // Automated syringe pump (doses via tubing; no receptacle site needed).
  reg.add(std::make_unique<dev::SyringePumpModel>(
      deck_ids::kSyringePump, /*reservoir_ml=*/500.0,
      Aabb::from_center(Vec3(-0.20, -0.35, 0.10), Vec3(0.10, 0.10, 0.16))));

  // Hotplate: vials sit on top of the plate.
  reg.add(std::make_unique<dev::HotplateModel>(
      deck_ids::kHotplate, /*firmware_limit_c=*/340.0, /*hazard_threshold_c=*/150.0,
      Aabb::from_center(Vec3(-0.35, 0.25, 0.06), Vec3(0.12, 0.12, 0.08))));
  b.add_site({"hotplate", Vec3(-0.35, 0.25, 0.16), "", "", deck_ids::kHotplate});

  // Centrifuge, with a door and the red-dot-marked rotor port.
  reg.add(std::make_unique<dev::CentrifugeModel>(
      deck_ids::kCentrifuge,
      Aabb::from_center(Vec3(-0.45, 0.0, 0.10), Vec3(0.18, 0.18, 0.16))));
  b.add_site({"centrifuge", Vec3(-0.45, 0.0, 0.10), "", "", deck_ids::kCentrifuge});

  // Thermoshaker.
  reg.add(std::make_unique<dev::ThermoshakerModel>(
      deck_ids::kThermoshaker, /*firmware_limit_c=*/110.0,
      Aabb::from_center(Vec3(0.35, -0.25, 0.07), Vec3(0.14, 0.14, 0.10))));
  b.add_site({"thermoshaker", Vec3(0.35, -0.25, 0.14), "", "", deck_ids::kThermoshaker});

  // Camera for solubility measurement (no deck footprint).
  reg.add(std::make_unique<dev::GenericActionDevice>(
      deck_ids::kCamera, std::vector<dev::GenericActionDevice::ValueActionSpec>{},
      /*has_door=*/false, std::nullopt));

  // Two vials: the working vial at grid.NW and a spare at grid.SE.
  auto& vial1 = dynamic_cast<dev::Vial&>(reg.add(std::make_unique<dev::Vial>(
      deck_ids::kVial1, /*capacity_mg=*/10.0, /*capacity_ml=*/15.0, "grid.NW")));
  auto& vial2 = dynamic_cast<dev::Vial&>(reg.add(std::make_unique<dev::Vial>(
      deck_ids::kVial2, /*capacity_mg=*/10.0, /*capacity_ml=*/15.0, "grid.SE")));
  auto& grid = dynamic_cast<dev::VialGrid&>(reg.at(deck_ids::kGrid));
  grid.place("NW", vial1.id());
  grid.place("SE", vial2.id());
}

/// Solves a named pose for a deck-safe tip position in the arm's frame (the
/// generic presets can park below the platform on some geometries, e.g.
/// Ned2): damped-least-squares IK from the fresh arm's joints.
kin::JointVector solve_pose(const dev::RobotArmDevice& arm, std::string_view pose,
                            const Vec3& local_tip) {
  kin::IkResult ik = arm.model().inverse(arm.to_lab(local_tip), arm.joints());
  if (!ik.joints) {
    throw std::logic_error(arm.id() + ": deck pose '" + std::string(pose) + "' unreachable");
  }
  return *ik.joints;
}

}  // namespace

void build_hein_production_deck(LabBackend& backend) {
  add_static_geometry(backend);
  // UR3e mounted at the deck origin; real controllers refuse unreachable
  // targets with an error rather than skipping them.
  auto& ur3e = dynamic_cast<dev::RobotArmDevice&>(backend.registry().add(
      std::make_unique<dev::RobotArmDevice>(
          deck_ids::kUr3e, kin::make_ur3e(Transform::translation(Vec3(0.0, 0.0, kPlatformTop))),
          dev::MotionPolicy::ThrowOnUnreachable)));
  // Every IK input (arm model, mount, initial joints, target) is a constant
  // of this deck, so the poses are solved once per process.
  static const kin::JointVector home = solve_pose(ur3e, "home", Vec3(0.20, 0.0, 0.40));
  static const kin::JointVector sleep = solve_pose(ur3e, "sleep", Vec3(0.15, 0.0, 0.15));
  ur3e.set_named_pose("home", home);
  ur3e.set_named_pose("sleep", sleep);
  ur3e.commit_move(ur3e.plan_pose("home"), "home");
  add_stations(backend);
}

void build_hein_testbed_deck(LabBackend& backend) {
  add_static_geometry(backend);
  // ViperX at the origin (silently skips unreachable targets, §IV cat. 4);
  // Ned2 mounted opposite, rotated to face it — deliberately a different
  // coordinate frame, as in the real testbed.
  auto& viperx = dynamic_cast<dev::RobotArmDevice&>(backend.registry().add(
      std::make_unique<dev::RobotArmDevice>(
          deck_ids::kViperX,
          kin::make_viperx300(Transform::translation(Vec3(0.0, 0.0, kPlatformTop))),
          dev::MotionPolicy::SilentSkipOnUnreachable)));
  auto& ned2 = dynamic_cast<dev::RobotArmDevice&>(backend.registry().add(
      std::make_unique<dev::RobotArmDevice>(
          deck_ids::kNed2,
          kin::make_ned2(Transform::translation(Vec3(0.60, 0.10, kPlatformTop)) *
                         Transform::rotation_z(3.14159265358979323846)),
          dev::MotionPolicy::ThrowOnUnreachable)));
  // Solved once per process, as on the production deck.
  static const kin::JointVector viperx_home = solve_pose(viperx, "home", Vec3(0.25, 0.0, 0.30));
  static const kin::JointVector viperx_sleep =
      solve_pose(viperx, "sleep", Vec3(0.12, -0.10, 0.12));
  static const kin::JointVector ned2_home = solve_pose(ned2, "home", Vec3(0.20, 0.0, 0.25));
  static const kin::JointVector ned2_sleep = solve_pose(ned2, "sleep", Vec3(0.15, 0.0, 0.12));
  viperx.set_named_pose("home", viperx_home);
  viperx.set_named_pose("sleep", viperx_sleep);
  ned2.set_named_pose("home", ned2_home);
  ned2.set_named_pose("sleep", ned2_sleep);
  // Testbed discipline: both arms start parked so either may move first
  // under time multiplexing.
  viperx.commit_move(viperx.plan_pose("sleep"), "sleep");
  ned2.commit_move(ned2.plan_pose("sleep"), "sleep");
  add_stations(backend);
}

void add_shelf_rack(WorldModel& world, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    double x = 8.0 + 0.3 * static_cast<double>(i % 20);
    double y = 0.3 * static_cast<double>((i / 20) % 20);
    double z = 0.3 * static_cast<double>(i / 400);
    world.add_box("shelf-" + std::to_string(i),
                  Aabb(Vec3(x, y, z), Vec3(x + 0.25, y + 0.25, z + 0.25)),
                  ObstacleKind::Equipment);
  }
}

WorldModel deck_world_model(const LabBackend& backend, bool refined_shapes) {
  WorldModel world;
  world.boxes = backend.static_obstacles();
  const dev::DeviceRegistry& registry = backend.registry();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const dev::Device& d = registry.device(i);
    auto fp = d.footprint();
    if (!fp) continue;
    ObstacleKind kind = dynamic_cast<const dev::VialGrid*>(&d) != nullptr ? ObstacleKind::Grid
                                                                          : ObstacleKind::Equipment;
    std::optional<geom::Solid> solid = refined_shapes ? d.shape() : std::nullopt;
    if (solid) {
      world.add_solid(d.id(), std::move(*solid), kind);
    } else {
      world.add_box(d.id(), *fp, kind);
    }
  }
  return world;
}

json::Value deck_world_json(const LabBackend& backend) {
  WorldModel world = deck_world_model(backend);
  json::Array objects;
  for (const NamedBox& b : world.boxes) {
    json::Object obj;
    obj["name"] = b.name;
    obj["kind"] = std::string(to_string(b.kind));
    geom::Vec3 c = b.box.center();
    geom::Vec3 s = b.box.size();
    obj["center"] = json::Array{c.x, c.y, c.z};
    obj["size"] = json::Array{s.x, s.y, s.z};
    objects.emplace_back(std::move(obj));
  }
  json::Object root;
  root["objects"] = std::move(objects);
  return json::Value(std::move(root));
}

}  // namespace rabit::sim
