#include "core/config.hpp"

#include <algorithm>
#include <set>

#include "devices/containers.hpp"
#include "devices/robot_arm.hpp"
#include "devices/stations.hpp"

namespace rabit::core {

using geom::Aabb;
using geom::Transform;
using geom::Vec3;

std::string_view to_string(Variant v) {
  switch (v) {
    case Variant::Initial: return "initial";
    case Variant::Modified: return "modified";
    case Variant::ModifiedWithSim: return "modified+sim";
  }
  return "unknown";
}

std::optional<Variant> parse_variant(std::string_view name) {
  for (Variant v : {Variant::Initial, Variant::Modified, Variant::ModifiedWithSim}) {
    if (to_string(v) == name) return v;
  }
  return std::nullopt;
}

bool DeviceMeta::is_active_action(std::string_view action) const {
  return std::find(active_actions.begin(), active_actions.end(), action) != active_actions.end();
}

std::string_view DeviceMeta::canonical_action(std::string_view action) const {
  for (const auto& [alias, canonical] : action_aliases) {
    if (alias == action) return canonical;
  }
  return action;
}

const ThresholdSpec* DeviceMeta::threshold_for(std::string_view action) const {
  for (const ThresholdSpec& t : thresholds) {
    if (t.action == action) return &t;
  }
  return nullptr;
}

const DeviceMeta::DoorMeta& DeviceMeta::door_facing(const geom::Vec3& from_lab) const {
  if (multi_doors.empty() || !box) {
    throw std::logic_error("DeviceMeta::door_facing: not a multi-door device");
  }
  return dev::door_facing(multi_doors, box->center(), from_lab);
}

const DeviceMeta* EngineConfig::find_device(std::string_view id) const {
  for (const DeviceMeta& d : devices) {
    if (d.id == id) return &d;
  }
  return nullptr;
}

const SiteMeta* EngineConfig::find_site(std::string_view name) const {
  for (const SiteMeta& s : sites) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const SiteMeta* EngineConfig::receptacle_site(std::string_view device) const {
  for (const SiteMeta& s : sites) {
    if (s.receptacle_device == device) return &s;
  }
  return nullptr;
}

const SiteMeta* EngineConfig::site_near(const Vec3& lab_point) const {
  const SiteMeta* best = nullptr;
  double best_dist = site_tolerance;
  for (const SiteMeta& s : sites) {
    double d = s.lab_position.distance_to(lab_point);
    if (d <= best_dist) {
      best_dist = d;
      best = &s;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// config_from_backend
// ---------------------------------------------------------------------------

namespace {

geom::Aabb arm_pose_box(const kin::ArmModel& model, const kin::JointVector& joints) {
  std::vector<Vec3> pts = model.link_points(joints);
  Aabb box(pts.front(), pts.front());
  for (const Vec3& p : pts) box = box.united(Aabb(p, p));
  return box.inflated(model.link_radius());
}

DeviceMeta meta_for_device(const dev::Device& d) {
  DeviceMeta m;
  m.id = d.id();
  m.category = d.category();
  m.box = d.footprint();
  m.refined_shape = d.shape();
  m.initial_state = d.state();
  for (const dev::Door& door : d.doors()) {
    if (door.name.empty()) {
      m.has_door = true;
    } else {
      m.multi_doors.push_back(DeviceMeta::DoorMeta{door.name, door.direction});
    }
  }

  if (const auto* arm = dynamic_cast<const dev::RobotArmDevice*>(&d)) {
    m.is_arm = true;
    m.action_aliases = {{"move_pose", "move_to"}};
    m.base = arm->model().base();
    m.held_clearance = arm->held_drop();
    m.sleep_box = arm_pose_box(arm->model(), arm->named_pose("sleep"));
    m.home_position_lab = arm->model().forward(arm->named_pose("home"));
    m.sleep_position_lab = arm->model().forward(arm->named_pose("sleep"));
    // Continuous encoder-derived values are not part of the discrete
    // state-variable comparison (which is also why a silently skipped move
    // escapes the malfunction check, §IV category 4).
    m.unchecked_vars = {"position", "pose"};
  } else if (const auto* vial = dynamic_cast<const dev::Vial*>(&d)) {
    m.capacity_mg = vial->state().at("capacityMg").as_double();
    m.capacity_ml = vial->state().at("capacityMl").as_double();
  } else if (dynamic_cast<const dev::DosingDeviceModel*>(&d) != nullptr) {
    m.active_actions = {"run_action"};
    m.unchecked_vars = {"pendingDoseMg"};
  } else if (dynamic_cast<const dev::HotplateModel*>(&d) != nullptr) {
    m.active_actions = {"stir"};
    m.thresholds = {{"set_temperature", "celsius", 150.0}, {"stir", "rpm", 1200.0}};
  } else if (dynamic_cast<const dev::CentrifugeModel*>(&d) != nullptr) {
    m.active_actions = {"start_spin"};
    m.thresholds = {{"start_spin", "rpm", 4000.0}};
  } else if (dynamic_cast<const dev::ThermoshakerModel*>(&d) != nullptr) {
    m.active_actions = {"shake"};
    m.thresholds = {{"shake", "rpm", 1500.0}, {"set_temperature", "celsius", 90.0}};
  } else if (dynamic_cast<const dev::SyringePumpModel*>(&d) != nullptr) {
    m.unchecked_vars = {"pendingDispenseMl", "pendingTarget"};
  } else if (dynamic_cast<const dev::MultiDoorStation*>(&d) != nullptr) {
    m.active_actions = {"start"};
  } else if (const auto* sensor = dynamic_cast<const dev::ProximitySensor*>(&d)) {
    m.is_sensor = true;
    m.sensor_zone = sensor->zone();
    // A sensor reading changes because the *environment* changed, never
    // because a command did — it is input, not a postcondition, so it is
    // exempt from the S_actual/S_expected malfunction comparison. The
    // tracker still follows it via the per-command resync.
    m.unchecked_vars = {"occupied"};
  } else if (const auto* gen = dynamic_cast<const dev::GenericActionDevice*>(&d)) {
    m.active_actions = {"start"};
    for (const dev::GenericActionDevice::ValueActionSpec& spec : gen->value_actions()) {
      m.value_bindings.push_back(ValueBinding{spec.action, spec.variable, spec.argument});
    }
  }
  return m;
}

}  // namespace

EngineConfig config_from_backend(const sim::LabBackend& backend, Variant variant) {
  EngineConfig cfg;
  cfg.variant = variant;
  std::size_t arm_count = 0;
  for (const dev::Device* d : backend.registry().all()) {
    cfg.devices.push_back(meta_for_device(*d));
    if (cfg.devices.back().is_arm) ++arm_count;
  }
  for (const sim::SiteBinding& s : backend.sites()) {
    cfg.sites.push_back(
        SiteMeta{s.name, s.lab_position, s.grid_device, s.grid_slot, s.receptacle_device});
  }
  cfg.static_obstacles = backend.static_obstacles();
  // Multi-arm decks adopt the time-multiplexing discipline as soon as RABIT
  // was taught about other arms (the V2 modification of §IV category 2).
  cfg.time_multiplex = arm_count > 1 && variant != Variant::Initial;
  return cfg;
}

// ---------------------------------------------------------------------------
// JSON (de)serialization
// ---------------------------------------------------------------------------

namespace {

json::Value vec3_to_json(const Vec3& v) {
  json::Object o;
  o["x"] = v.x;
  o["y"] = v.y;
  o["z"] = v.z;
  return json::Value(std::move(o));
}

Vec3 vec3_from_json(const json::Value& v) {
  return Vec3(v.as_object().at("x").as_double(), v.as_object().at("y").as_double(),
              v.as_object().at("z").as_double());
}

json::Value box_to_json(const Aabb& b) {
  json::Object o;
  o["center"] = vec3_to_json(b.center());
  o["size"] = vec3_to_json(b.size());
  return json::Value(std::move(o));
}

Aabb box_from_json(const json::Value& v) {
  return Aabb::from_center(vec3_from_json(v.as_object().at("center")),
                           vec3_from_json(v.as_object().at("size")));
}

json::Value solid_to_json(const geom::Solid& s) {
  json::Object o;
  switch (s.kind()) {
    case geom::Solid::Kind::Box: {
      o["kind"] = std::string("box");
      const Aabb& b = s.as_box();
      o["center"] = vec3_to_json(b.center());
      o["size"] = vec3_to_json(b.size());
      break;
    }
    case geom::Solid::Kind::Cylinder: {
      o["kind"] = std::string("cylinder");
      const geom::Solid::CylinderData& c = s.as_cylinder();
      o["base_center"] = vec3_to_json(c.base_center);
      o["radius"] = c.radius;
      o["height"] = c.height;
      break;
    }
    case geom::Solid::Kind::Hemisphere: {
      o["kind"] = std::string("hemisphere");
      const geom::Solid::HemisphereData& h = s.as_hemisphere();
      o["dome_base_center"] = vec3_to_json(h.dome_base_center);
      o["radius"] = h.radius;
      break;
    }
    case geom::Solid::Kind::Compound: {
      o["kind"] = std::string("compound");
      json::Array parts;
      for (const geom::Solid& part : s.as_compound()) parts.push_back(solid_to_json(part));
      o["parts"] = std::move(parts);
      break;
    }
  }
  return json::Value(std::move(o));
}

geom::Solid solid_from_json(const json::Value& v) {
  const std::string& kind = v.as_object().at("kind").as_string();
  if (kind == "box") {
    return geom::Solid::box(Aabb::from_center(vec3_from_json(v.as_object().at("center")),
                                              vec3_from_json(v.as_object().at("size"))));
  }
  if (kind == "cylinder") {
    return geom::Solid::vertical_cylinder(vec3_from_json(v.as_object().at("base_center")),
                                          v.as_object().at("radius").as_double(),
                                          v.as_object().at("height").as_double());
  }
  if (kind == "hemisphere") {
    return geom::Solid::hemisphere(vec3_from_json(v.as_object().at("dome_base_center")),
                                   v.as_object().at("radius").as_double());
  }
  if (kind == "compound") {
    std::vector<geom::Solid> parts;
    for (const json::Value& p : v.as_object().at("parts").as_array()) {
      parts.push_back(solid_from_json(p));
    }
    return geom::Solid::compound(std::move(parts));
  }
  throw std::runtime_error("EngineConfig: unknown solid kind '" + kind + "'");
}

json::Value state_to_json(const dev::StateMap& state) {
  json::Object o;
  for (const auto& [k, v] : state) o[k] = v;
  return json::Value(std::move(o));
}

dev::StateMap state_from_json(const json::Value& v) {
  dev::StateMap out;
  for (const auto& [k, val] : v.as_object()) out[k] = val;
  return out;
}

}  // namespace

json::Value config_to_json(const EngineConfig& config) {
  json::Object root;
  root["variant"] = std::string(to_string(config.variant));
  root["time_multiplex"] = config.time_multiplex;
  root["hein_custom_rules"] = config.hein_custom_rules;
  root["use_refined_shapes"] = config.use_refined_shapes;
  root["site_tolerance"] = config.site_tolerance;

  json::Array devices;
  for (const DeviceMeta& m : config.devices) {
    json::Object d;
    d["id"] = m.id;
    d["category"] = std::string(dev::to_string(m.category));
    d["has_door"] = m.has_door;
    if (m.box) d["box"] = box_to_json(*m.box);
    if (m.refined_shape) d["refined_shape"] = solid_to_json(*m.refined_shape);
    if (m.is_arm) {
      json::Object arm;
      arm["base_translation"] = vec3_to_json(m.base.translation_part());
      arm["base_yaw_rad"] = m.base.yaw();
      arm["held_clearance"] = m.held_clearance;
      if (m.sleep_box) arm["sleep_box"] = box_to_json(*m.sleep_box);
      arm["home_position"] = vec3_to_json(m.home_position_lab);
      arm["sleep_position"] = vec3_to_json(m.sleep_position_lab);
      d["arm"] = std::move(arm);
    }
    if (m.capacity_mg > 0) d["capacity_mg"] = m.capacity_mg;
    if (m.capacity_ml > 0) d["capacity_ml"] = m.capacity_ml;
    if (!m.thresholds.empty()) {
      json::Array thresholds;
      for (const ThresholdSpec& t : m.thresholds) {
        json::Object to;
        to["action"] = t.action;
        to["argument"] = t.argument;
        to["max"] = t.max;
        thresholds.emplace_back(std::move(to));
      }
      d["thresholds"] = std::move(thresholds);
    }
    if (!m.active_actions.empty()) {
      json::Array actions;
      for (const std::string& a : m.active_actions) actions.emplace_back(a);
      d["active_actions"] = std::move(actions);
    }
    if (!m.action_aliases.empty()) {
      json::Array aliases;
      for (const auto& [alias, canonical] : m.action_aliases) {
        json::Object ao;
        ao["alias"] = alias;
        ao["canonical"] = canonical;
        aliases.emplace_back(std::move(ao));
      }
      d["action_aliases"] = std::move(aliases);
    }
    if (m.is_sensor) {
      d["is_sensor"] = true;
      if (m.sensor_zone) d["sensor_zone"] = box_to_json(*m.sensor_zone);
    }
    if (!m.multi_doors.empty()) {
      json::Array doors;
      for (const DeviceMeta::DoorMeta& dm : m.multi_doors) {
        json::Object od;
        od["name"] = dm.name;
        od["direction"] = vec3_to_json(dm.direction);
        doors.emplace_back(std::move(od));
      }
      d["multi_doors"] = std::move(doors);
    }
    if (!m.value_bindings.empty()) {
      json::Array bindings;
      for (const ValueBinding& vb : m.value_bindings) {
        json::Object bo;
        bo["action"] = vb.action;
        bo["variable"] = vb.variable;
        bo["argument"] = vb.argument;
        bindings.emplace_back(std::move(bo));
      }
      d["value_bindings"] = std::move(bindings);
    }
    if (!m.unchecked_vars.empty()) {
      json::Array vars;
      for (const std::string& v : m.unchecked_vars) vars.emplace_back(v);
      d["unchecked_vars"] = std::move(vars);
    }
    d["initial_state"] = state_to_json(m.initial_state);
    devices.emplace_back(std::move(d));
  }
  root["devices"] = std::move(devices);

  json::Array sites;
  for (const SiteMeta& s : config.sites) {
    json::Object so;
    so["name"] = s.name;
    so["position"] = vec3_to_json(s.lab_position);
    if (s.is_grid_slot()) {
      so["grid_device"] = s.grid_device;
      so["grid_slot"] = s.grid_slot;
    }
    if (s.is_receptacle()) so["receptacle_device"] = s.receptacle_device;
    sites.emplace_back(std::move(so));
  }
  root["sites"] = std::move(sites);

  json::Array statics;
  for (const sim::NamedBox& b : config.static_obstacles) {
    json::Object so;
    so["name"] = b.name;
    so["kind"] = std::string(sim::to_string(b.kind));
    so["box"] = box_to_json(b.box);
    statics.emplace_back(std::move(so));
  }
  root["static_obstacles"] = std::move(statics);

  json::Array walls;
  for (const SoftWallSpec& w : config.soft_walls) {
    json::Object wo;
    wo["arm_id"] = w.arm_id;
    wo["forbidden"] = box_to_json(w.forbidden);
    walls.emplace_back(std::move(wo));
  }
  root["soft_walls"] = std::move(walls);

  return json::Value(std::move(root));
}

EngineConfig config_from_json(const json::Value& doc) {
  // Validate first so researcher mistakes surface as located issues rather
  // than exceptions from deep inside the parser.
  std::vector<json::SchemaIssue> issues = config_schema().validate(doc);
  if (!issues.empty()) {
    std::string message = "configuration rejected by schema:";
    for (const json::SchemaIssue& issue : issues) {
      message += "\n  " + issue.path + ": " + issue.message;
    }
    throw std::runtime_error(message);
  }

  EngineConfig cfg;
  const json::Object& root = doc.as_object();
  const std::string& variant = root.at("variant").as_string();
  if (auto parsed = parse_variant(variant)) {
    cfg.variant = *parsed;
  } else {
    throw std::runtime_error("EngineConfig: unknown variant '" + variant + "'");
  }
  cfg.time_multiplex = doc.get_or("time_multiplex", false);
  cfg.hein_custom_rules = doc.get_or("hein_custom_rules", true);
  cfg.use_refined_shapes = doc.get_or("use_refined_shapes", false);
  cfg.site_tolerance = doc.get_or("site_tolerance", 0.035);

  for (const json::Value& d : root.at("devices").as_array()) {
    DeviceMeta m;
    m.id = d.as_object().at("id").as_string();
    auto category = dev::parse_device_category(d.as_object().at("category").as_string());
    if (!category) {
      throw std::runtime_error("EngineConfig: bad category for device '" + m.id + "'");
    }
    m.category = *category;
    m.has_door = d.get_or("has_door", false);
    if (const json::Value* box = d.find("box")) m.box = box_from_json(*box);
    if (const json::Value* shape = d.find("refined_shape")) {
      m.refined_shape = solid_from_json(*shape);
    }
    if (const json::Value* arm = d.find("arm")) {
      m.is_arm = true;
      m.base = Transform::translation(vec3_from_json(arm->as_object().at("base_translation"))) *
               Transform::rotation_z(arm->get_or("base_yaw_rad", 0.0));
      m.held_clearance = arm->get_or("held_clearance", 0.07);
      if (const json::Value* sb = arm->find("sleep_box")) m.sleep_box = box_from_json(*sb);
      m.home_position_lab = vec3_from_json(arm->as_object().at("home_position"));
      m.sleep_position_lab = vec3_from_json(arm->as_object().at("sleep_position"));
    }
    m.capacity_mg = d.get_or("capacity_mg", 0.0);
    m.capacity_ml = d.get_or("capacity_ml", 0.0);
    if (const json::Value* thresholds = d.find("thresholds")) {
      for (const json::Value& t : thresholds->as_array()) {
        m.thresholds.push_back(ThresholdSpec{t.as_object().at("action").as_string(),
                                             t.as_object().at("argument").as_string(),
                                             t.as_object().at("max").as_double()});
      }
    }
    if (const json::Value* actions = d.find("active_actions")) {
      for (const json::Value& a : actions->as_array()) m.active_actions.push_back(a.as_string());
    }
    if (const json::Value* aliases = d.find("action_aliases")) {
      for (const json::Value& a : aliases->as_array()) {
        m.action_aliases.emplace_back(a.as_object().at("alias").as_string(),
                                      a.as_object().at("canonical").as_string());
      }
    }
    m.is_sensor = d.get_or("is_sensor", false);
    if (const json::Value* zone = d.find("sensor_zone")) {
      m.sensor_zone = box_from_json(*zone);
    }
    if (const json::Value* doors = d.find("multi_doors")) {
      for (const json::Value& od : doors->as_array()) {
        m.multi_doors.push_back(
            DeviceMeta::DoorMeta{od.as_object().at("name").as_string(),
                                 vec3_from_json(od.as_object().at("direction"))});
      }
    }
    if (const json::Value* bindings = d.find("value_bindings")) {
      for (const json::Value& vb : bindings->as_array()) {
        m.value_bindings.push_back(ValueBinding{vb.as_object().at("action").as_string(),
                                                vb.as_object().at("variable").as_string(),
                                                vb.as_object().at("argument").as_string()});
      }
    }
    if (const json::Value* vars = d.find("unchecked_vars")) {
      for (const json::Value& v : vars->as_array()) m.unchecked_vars.push_back(v.as_string());
    }
    if (const json::Value* init = d.find("initial_state")) {
      m.initial_state = state_from_json(*init);
    }
    cfg.devices.push_back(std::move(m));
  }

  for (const json::Value& s : root.at("sites").as_array()) {
    SiteMeta site;
    site.name = s.as_object().at("name").as_string();
    site.lab_position = vec3_from_json(s.as_object().at("position"));
    site.grid_device = s.get_or("grid_device", std::string());
    site.grid_slot = s.get_or("grid_slot", std::string());
    site.receptacle_device = s.get_or("receptacle_device", std::string());
    cfg.sites.push_back(std::move(site));
  }

  if (const json::Value* statics = doc.find("static_obstacles")) {
    for (const json::Value& b : statics->as_array()) {
      const std::string& kind = b.as_object().at("kind").as_string();
      std::optional<sim::ObstacleKind> parsed = sim::parse_obstacle_kind(kind);
      if (!parsed) throw std::runtime_error("EngineConfig: unknown obstacle kind '" + kind + "'");
      cfg.static_obstacles.push_back(sim::NamedBox{b.as_object().at("name").as_string(),
                                                   box_from_json(b.as_object().at("box")),
                                                   *parsed, std::nullopt});
    }
  }

  if (const json::Value* walls = doc.find("soft_walls")) {
    for (const json::Value& w : walls->as_array()) {
      cfg.soft_walls.push_back(SoftWallSpec{w.as_object().at("arm_id").as_string(),
                                            box_from_json(w.as_object().at("forbidden"))});
    }
  }

  return cfg;
}

json::Schema config_schema() {
  // Coordinates live on a tabletop deck: |x|,|y| <= 2 m, 0 <= z <= 2 m. The
  // z lower bound is what catches the pilot study's sign error in a site
  // height; x/y bounds catch digit slips.
  static const char* kSchema = R"JSON({
    "type": "object",
    "required": ["variant", "devices", "sites"],
    "properties": {
      "variant": {"type": "string", "enum": ["initial", "modified", "modified+sim"]},
      "time_multiplex": {"type": "boolean"},
      "hein_custom_rules": {"type": "boolean"},
      "site_tolerance": {"type": "number", "exclusiveMinimum": 0, "maximum": 0.2},
      "devices": {
        "type": "array",
        "minItems": 1,
        "items": {
          "type": "object",
          "required": ["id", "category"],
          "properties": {
            "id": {"type": "string", "minLength": 1},
            "category": {"type": "string",
                         "enum": ["container", "robot_arm", "dosing_system", "action_device"]},
            "has_door": {"type": "boolean"},
            "capacity_mg": {"type": "number", "minimum": 0},
            "capacity_ml": {"type": "number", "minimum": 0},
            "thresholds": {"type": "array", "items": {
              "type": "object",
              "required": ["action", "argument", "max"],
              "properties": {
                "action": {"type": "string", "minLength": 1},
                "argument": {"type": "string", "minLength": 1},
                "max": {"type": "number"}
              }
            }},
            "active_actions": {"type": "array", "items": {"type": "string"}},
            "unchecked_vars": {"type": "array", "items": {"type": "string"}}
          }
        }
      },
      "sites": {
        "type": "array",
        "items": {
          "type": "object",
          "required": ["name", "position"],
          "properties": {
            "name": {"type": "string", "minLength": 1},
            "position": {
              "type": "object",
              "required": ["x", "y", "z"],
              "properties": {
                "x": {"type": "number", "minimum": -2, "maximum": 2},
                "y": {"type": "number", "minimum": -2, "maximum": 2},
                "z": {"type": "number", "minimum": 0, "maximum": 2}
              }
            },
            "grid_device": {"type": "string"},
            "grid_slot": {"type": "string"},
            "receptacle_device": {"type": "string"}
          }
        }
      }
    }
  })JSON";
  return json::Schema(std::string_view(kSchema));
}

std::vector<std::string> dispatchable_actions(const DeviceMeta& meta) {
  // Mirrors what core/rules.cpp and core/tracker.cpp actually dispatch on —
  // the same closed vocabulary the config lint's CFG4/CFG5 checks assume.
  std::set<std::string> actions;
  if (meta.is_arm) {
    actions = {"move_to",      "go_home",      "go_sleep",   "pick_object",
               "place_object", "open_gripper", "close_gripper"};
  } else {
    actions = {"set_door",     "run_action",      "stop_action", "draw_solvent",
               "dose_solvent", "set_temperature", "stir",        "shake",
               "stop",         "rotate_platter",  "start_spin",  "stop_spin",
               "decap",        "recap",           "add_solid",   "add_liquid",
               "start",        "status",          "measure_solubility"};
  }
  for (const ValueBinding& binding : meta.value_bindings) actions.insert(binding.action);
  for (const std::string& active : meta.active_actions) actions.insert(active);
  return {actions.begin(), actions.end()};
}

std::vector<RuleAvailability> rulebase_availability(const EngineConfig& config) {
  bool has_arm = false;
  std::size_t arm_count = 0;
  bool doored_station = false;       // non-arm with a door and a box (G1/G2)
  bool doored_active = false;        // active actions behind a door (G9/G10)
  bool active_receptacle = false;    // active device fed by a receptacle site (G5/G6)
  bool dosing_system = false;        // run_action / dose_solvent rule paths (G7/G8/C1)
  bool container = false;            // something a stopper/capacity can live on
  bool any_threshold = false;        // G11
  bool centrifuge = false;           // ActionDevice with a rotor red dot (C2..C4)
  bool sensor = false;               // S1
  bool any_site = false;

  for (const DeviceMeta& d : config.devices) {
    if (d.is_arm) {
      has_arm = true;
      ++arm_count;
    }
    bool has_any_door = d.has_door || !d.multi_doors.empty();
    if (!d.is_arm && has_any_door && d.box) doored_station = true;
    if (has_any_door && !d.active_actions.empty()) doored_active = true;
    if (!d.active_actions.empty() && config.receptacle_site(d.id) != nullptr) {
      active_receptacle = true;
    }
    if (d.category == dev::DeviceCategory::DosingSystem) dosing_system = true;
    if (d.category == dev::DeviceCategory::Container &&
        (d.capacity_mg > 0 || d.capacity_ml > 0)) {
      container = true;
    }
    if (!d.thresholds.empty()) any_threshold = true;
    if (d.category == dev::DeviceCategory::ActionDevice &&
        d.initial_state.find("redDot") != d.initial_state.end()) {
      centrifuge = true;
    }
    if (d.is_sensor && d.sensor_zone) sensor = true;
  }
  any_site = !config.sites.empty();

  bool v2 = config.variant != Variant::Initial;
  bool soft_wall_on_known_arm = false;
  for (const SoftWallSpec& w : config.soft_walls) {
    const DeviceMeta* arm = config.find_device(w.arm_id);
    if (arm != nullptr && arm->is_arm) soft_wall_on_known_arm = true;
  }

  auto entry = [](std::string rule, bool reachable, std::string requirement) {
    return RuleAvailability{std::move(rule), reachable, reachable ? "" : std::move(requirement)};
  };

  std::vector<RuleAvailability> out;
  out.push_back(entry("G1", has_arm && doored_station, "no-doored-station"));
  out.push_back(entry("G2", has_arm && doored_station, "no-doored-station"));
  out.push_back(entry("G3", has_arm, "no-arm"));
  out.push_back(entry("G4", has_arm && any_site, "no-pick-site"));
  out.push_back(entry("G5", active_receptacle, "no-active-receptacle"));
  out.push_back(entry("G6", active_receptacle, "no-active-receptacle"));
  out.push_back(entry("G7", dosing_system && container, "no-dosing-path"));
  out.push_back(entry("G8", dosing_system && container, "no-dosing-path"));
  out.push_back(entry("G9", doored_active, "no-doored-active-device"));
  out.push_back(entry("G10", doored_active, "no-doored-active-device"));
  out.push_back(entry("G11", any_threshold, "no-threshold"));
  out.push_back(entry("C1", config.hein_custom_rules && dosing_system && container,
                      config.hein_custom_rules ? "no-dosing-path" : "custom-rules-off"));
  for (const char* c : {"C2", "C3", "C4"}) {
    out.push_back(entry(c, config.hein_custom_rules && centrifuge && has_arm,
                        config.hein_custom_rules ? "no-centrifuge" : "custom-rules-off"));
  }
  out.push_back(entry("M1", v2 && config.time_multiplex && arm_count >= 2,
                      config.time_multiplex ? "fewer-than-two-arms" : "time-multiplex-off"));
  out.push_back(entry("M2", v2 && soft_wall_on_known_arm, "no-soft-wall"));
  out.push_back(entry("S1", has_arm && sensor, "no-sensor-device"));
  return out;
}

}  // namespace rabit::core
