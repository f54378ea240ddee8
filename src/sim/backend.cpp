#include "sim/backend.hpp"

#include <algorithm>
#include <cmath>

#include "sim/deck.hpp"

namespace rabit::sim {

using dev::Command;
using dev::DeviceCategory;
using dev::Severity;
using geom::Vec3;

namespace {

/// Grab/seat tolerance: how close the gripper tip must be to a site to
/// interact with whatever sits there. Generous enough to absorb testbed
/// imprecision, far smaller than inter-site spacing.
constexpr double kSiteTolerance = 0.035;

/// Dropping a held vial from higher than this above the deck shatters it.
constexpr double kSafeDropHeight = 0.03;

double severity_cost(Severity s) {
  switch (s) {
    case Severity::Low: return 10.0;
    case Severity::MediumLow: return 50.0;
    case Severity::MediumHigh: return 500.0;
    case Severity::High: return 5000.0;
  }
  return 0.0;
}

/// One N(0, sigma) draw that is also defined for sigma = 0, where
/// std::normal_distribution is not: a standard draw times sigma plus the
/// mean, libstdc++'s own formula, so the values and the engine calls are
/// those of std::normal_distribution(0, sigma).
double zero_mean_normal(std::normal_distribution<double>& standard, std::mt19937& rng,
                        double sigma) {
  return standard(rng) * sigma + 0.0;
}

}  // namespace

StageProfile simulator_profile() {
  // Fast exploration, perfect positioning of a virtual arm, poor fidelity of
  // results, and no physical damage possible.
  return StageProfile{"simulator", 0.05, 0.0, 0.15, 0.0};
}

StageProfile testbed_profile() {
  // Cheap educational arms: slower than simulation, imprecise, mockup-grade
  // results, and breaking things is cheap cardboard.
  return StageProfile{"testbed", 1.0, 0.005, 0.05, 0.1};
}

StageProfile production_profile() {
  // Real UR3e and Mettler-Toledo hardware: slow, precise, accurate, and very
  // expensive to damage.
  return StageProfile{"production", 2.0, 0.0005, 0.01, 1.0};
}

dev::Severity collision_severity(const CollisionReport& hit) {
  if (hit.arm_vs_arm) return Severity::MediumHigh;
  switch (hit.kind) {
    case ObstacleKind::Ground:
    case ObstacleKind::Wall:
    case ObstacleKind::Grid:
    case ObstacleKind::ParkedArm:
      return Severity::MediumHigh;
    case ObstacleKind::Equipment:
      return Severity::High;
    case ObstacleKind::Vial:
      return Severity::MediumLow;
    case ObstacleKind::SoftWall:
      return Severity::Low;  // virtual: crossing it damages nothing
  }
  return Severity::Low;
}

LabBackend::LabBackend(StageProfile profile, unsigned seed)
    : profile_(std::move(profile)), rng_(seed) {}

void LabBackend::add_static_obstacle(std::string name, const geom::Aabb& box, ObstacleKind kind) {
  static_.push_back(NamedBox{std::move(name), box, kind, std::nullopt});
}

void LabBackend::add_site(SiteBinding site) {
  if (find_site(site.name) != nullptr) {
    throw std::invalid_argument("LabBackend: duplicate site '" + site.name + "'");
  }
  sites_.push_back(std::move(site));
}

const SiteBinding* LabBackend::find_site(std::string_view name) const {
  for (const SiteBinding& s : sites_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const SiteBinding* LabBackend::site_near(const Vec3& lab_point, double tolerance) const {
  const SiteBinding* best = nullptr;
  double best_dist = tolerance;
  for (const SiteBinding& s : sites_) {
    double d = s.lab_position.distance_to(lab_point);
    if (d <= best_dist) {
      best_dist = d;
      best = &s;
    }
  }
  return best;
}

dev::RobotArmDevice& LabBackend::arm(std::string_view id) {
  auto* a = dynamic_cast<dev::RobotArmDevice*>(&registry_.at(id));
  if (a == nullptr) {
    throw std::out_of_range("LabBackend: '" + std::string(id) + "' is not a robot arm");
  }
  return *a;
}

dev::Vial& LabBackend::vial(std::string_view id) {
  auto* v = dynamic_cast<dev::Vial*>(&registry_.at(id));
  if (v == nullptr) {
    throw std::out_of_range("LabBackend: '" + std::string(id) + "' is not a vial");
  }
  return *v;
}

WorldModel LabBackend::ground_truth_world(std::string_view moving_arm) const {
  // Ground truth uses each device's *real* shape; the cuboid is only the
  // configured approximation RABIT checks against.
  WorldModel world = deck_world_model(*this, /*refined_shapes=*/true);
  add_arm_segments(world, moving_arm);
  return world;
}

void LabBackend::add_arm_segments(WorldModel& world, std::string_view moving_arm) const {
  for (std::size_t i = 0; i < registry_.size(); ++i) {
    const auto* other = dynamic_cast<const dev::RobotArmDevice*>(&registry_.device(i));
    if (other == nullptr || other->id() == moving_arm) continue;
    for (const geom::Segment& seg : other->model().link_segments(other->joints())) {
      world.arm_segments.push_back(
          ArmSegmentObstacle{other->id(), seg, other->model().link_radius()});
    }
  }
}

const WorldModel& LabBackend::ground_truth_for(const dev::RobotArmDevice& moving) {
  if (kept_.devices != registry_.size() || kept_.statics != static_.size()) {
    kept_.world = ground_truth_world(moving.id());
    kept_.grid.rebuild(kept_.world);
    kept_.devices = registry_.size();
    kept_.statics = static_.size();
    ++kept_.builds;
  } else {
    kept_.world.arm_segments.clear();
    add_arm_segments(kept_.world, moving.id());
    kept_.world.bump_epoch();
  }
  return kept_.world;
}

double LabBackend::true_solubility(const dev::Vial& v) {
  // Simple dissolution model: 1 mL of solvent dissolves up to 20 mg of solid.
  constexpr double kMgPerMl = 20.0;
  double solid = v.solid_mg();
  if (solid <= 0) return 1.0;
  return std::min(1.0, v.liquid_ml() * kMgPerMl / solid);
}

double LabBackend::measure_solubility(const dev::Vial& v) {
  std::normal_distribution<double> standard;
  return std::clamp(
      true_solubility(v) + zero_mean_normal(standard, rng_, profile_.measurement_noise_sigma),
      0.0, 1.0);
}

double LabBackend::total_damage_cost() const {
  double total = 0.0;
  for (const DamageEvent& e : damage_log_) total += severity_cost(e.severity);
  return total * profile_.damage_cost_factor;
}

void LabBackend::advance_clock(double seconds) {
  modeled_clock_s_ += std::max(0.0, seconds);
}

void LabBackend::set_fault_schedule(dev::FaultSchedule schedule) {
  fault_schedule_ = std::move(schedule);
}

LabBackend::StatusFetch LabBackend::fetch_status() {
  StatusFetch fetch;
  fetch.observed = &observed_;
  if (fault_schedule_) fault_schedule_->arm_permanent_plans(registry_, modeled_clock_s_);
  const std::size_t known = observed_.entries.size();
  for (std::size_t i = 0; i < registry_.size(); ++i) {
    const dev::Device& d = registry_.device(i);
    const std::string& id = d.id();
    std::optional<dev::TransientKind> fault;
    if (fault_schedule_) fault = fault_schedule_->on_status_read(id, modeled_clock_s_);
    if (i < known) {
      dev::ObservedLab::Entry& entry = observed_.entries[i];
      if (fault) {
        (*fault == dev::TransientKind::StatusTimeout ? fetch.timed_out : fetch.stale).push_back(id);
        continue;
      }
      if (entry.revision == d.revision()) continue;  // a fresh read would match
      observed_.snapshot.find(id)->second = d.observed_state();
      entry.revision = d.revision();
    } else {
      // First poll of a device (also under a fault: there is no earlier
      // snapshot a stale read could replay).
      auto slot = observed_.snapshot.emplace(id, d.observed_state()).first;
      observed_.entries.push_back({&slot->first, &slot->second, d.revision()});
    }
    ++status_reads_;
  }
  return fetch;
}

// ---------------------------------------------------------------------------
// Command execution
// ---------------------------------------------------------------------------

ExecResult LabBackend::execute(const Command& cmd) {
  ExecResult r;
  r.modeled_latency_s = profile_.command_latency_s;
  modeled_clock_s_ += r.modeled_latency_s;

  dev::Device* d = registry_.find(cmd.device);
  if (d == nullptr) {
    throw std::out_of_range("LabBackend: unknown device '" + cmd.device + "'");
  }

  if (fault_schedule_) {
    fault_schedule_->arm_permanent_plans(registry_, modeled_clock_s_);
    if (auto kind = fault_schedule_->on_command_attempt(cmd.device, cmd.action,
                                                        modeled_clock_s_)) {
      ++commands_executed_;
      if (*kind == dev::TransientKind::FirmwareBusy) {
        r.executed = false;
        r.transient_busy = true;
        r.firmware_error = cmd.device + ": firmware busy, command temporarily rejected";
      } else {  // DeadAction: accepted, but nothing physically happens.
        r.executed = true;
      }
      return r;
    }
  }

  try {
    if (auto* a = dynamic_cast<dev::RobotArmDevice*>(d)) {
      if (cmd.action == "move_to" || cmd.action == "move_pose" || cmd.action == "go_home" ||
          cmd.action == "go_sleep") {
        handle_arm_move(*a, cmd, r);
      } else if (cmd.action == "open_gripper") {
        handle_gripper(*a, /*open=*/true, r);
      } else if (cmd.action == "close_gripper") {
        handle_gripper(*a, /*open=*/false, r);
      } else if (cmd.action == "pick_object") {
        handle_composite_pick(*a, cmd, r);
      } else if (cmd.action == "place_object") {
        handle_composite_place(*a, cmd, r);
      } else {
        d->execute(cmd);
      }
      r.executed = r.firmware_error.empty();
    } else if (cmd.action == "set_door" && !d->doors().empty()) {
      handle_set_door(*d, cmd, r);
      r.executed = r.firmware_error.empty();
    } else if (cmd.action == "measure_solubility") {
      const json::Value* target = cmd.args.find("target");
      if (target == nullptr || !target->is_string()) {
        throw dev::DeviceError(dev::DeviceError::Code::BadArgument,
                               "measure_solubility requires 'target'");
      }
      r.measurement = measure_solubility(vial(target->as_string()));
      r.executed = true;
    } else {
      d->execute(cmd);
      after_station_action(*d, cmd, r);
      r.executed = true;
    }
  } catch (const dev::DeviceError& e) {
    r.executed = false;
    r.firmware_error = e.what();
  }

  drain_hazards(r);
  ++commands_executed_;
  return r;
}

void LabBackend::handle_arm_move(dev::RobotArmDevice& a, const Command& cmd, ExecResult& r) {
  dev::MotionPlan plan;
  if (cmd.action == "move_to" || cmd.action == "move_pose") {
    std::optional<Vec3> local = dev::position_arg(cmd.args);
    if (!local) {
      throw dev::DeviceError(dev::DeviceError::Code::BadArgument,
                             "move_to requires 'position' = [x, y, z]");
    }
    plan = a.plan_move(*local);
  } else {
    plan = a.plan_pose(cmd.action == "go_home" ? "home" : "sleep");
  }

  if (plan.skipped) {
    // ViperX-style controller: unreachable target quietly ignored (§IV cat. 4).
    r.silently_skipped = true;
    return;
  }
  perform_motion(a, plan, r,
                 cmd.action == "go_home" ? "home"
                 : cmd.action == "go_sleep" ? "sleep"
                                            : "custom");
}

void LabBackend::perform_motion(dev::RobotArmDevice& a, const dev::MotionPlan& plan,
                                ExecResult& r, std::string_view pose_name) {
  Vec3 start = a.position_lab();
  Vec3 goal = plan.target_lab;

  const WorldModel& world = ground_truth_for(a);
  PathCheckOptions options;
  options.include_soft_walls = false;  // soft walls are virtual, never physical
  options.moving_arm_radius = a.model().link_radius();

  // Deliberate station interactions: when the start or the goal is a bound
  // site, the arm is *supposed* to reach over/into that station, so its box
  // is not an accidental obstacle. Doored receptacles additionally require
  // the door on the side the arm approaches from to be open — a closed door
  // is smashed, not ignored.
  auto maybe_ignore = [&](const SiteBinding* site) {
    if (site == nullptr) return;
    if (site->is_grid_slot()) options.ignore.push_back(site->grid_device);
    if (site->is_receptacle()) {
      const dev::Device& station = registry_.at(site->receptacle_device);
      if (station.doors().empty() ||
          station.door_status(station.door_facing(start).name) == "open") {
        options.ignore.push_back(site->receptacle_device);
      }
    }
  };
  maybe_ignore(site_near(start, kSiteTolerance));
  maybe_ignore(site_near(goal, kSiteTolerance));

  std::optional<CollisionReport> hit =
      check_path(world, start, goal, a.held_clearance(), options, &kept_.grid);
  if (hit) {
    record_collision(a, *hit, r);
    if (hit->via_held_object && !a.holding().empty()) {
      // The held vial smashed; the arm itself continues unharmed (Bug D
      // with a vial: "the vial crashed to the ground and broke").
      dev::Vial& v = vial(a.holding());
      v.shatter(hit->describe());
      v.set_location("lost");
      a.set_holding("");
    }
  }

  // The arm ends at the goal (a real crash leaves the arm at the point of
  // impact; modeling the full dynamics adds nothing for rule evaluation).
  a.commit_move(plan, pose_name);
  update_inside_flag(a);

  std::normal_distribution<double> standard;
  const double sigma = profile_.position_noise_sigma_m;
  Vec3 err(zero_mean_normal(standard, rng_, sigma), zero_mean_normal(standard, rng_, sigma),
           zero_mean_normal(standard, rng_, sigma));
  position_errors_.push_back(err.norm());
}

void LabBackend::record_collision(dev::RobotArmDevice& a, const CollisionReport& hit,
                                  ExecResult& r) {
  Severity sev = collision_severity(hit);
  DamageEvent event{sev, a.id() + ": " + hit.describe(), a.id(), commands_executed_};
  r.damage.push_back(event);
  damage_log_.push_back(event);

  // Crashing into a doored station also smashes the door on that side.
  if (!hit.arm_vs_arm && !hit.via_held_object) {
    dev::Device* station = registry_.find(hit.obstacle);
    if (station != nullptr && !station->doors().empty()) {
      const std::string& door = station->door_facing(hit.position).name;
      if (station->door_status(door) != "open") station->break_door(door);
    }
  }
}

void LabBackend::update_inside_flag(dev::RobotArmDevice& a) {
  Vec3 tip = a.position_lab();
  std::string inside;
  for (std::size_t i = 0; i < registry_.size(); ++i) {
    const dev::Device* d = &registry_.device(i);
    if (d->doors().empty()) continue;
    if (auto fp = d->footprint(); fp && fp->inflated(0.01).contains(tip)) {
      inside = d->id();
      break;
    }
  }
  a.set_inside_device(inside);
}

// ---------------------------------------------------------------------------
// Gripper physics
// ---------------------------------------------------------------------------

dev::Vial* LabBackend::vial_at_site(const SiteBinding& site) {
  std::string vial_id;
  if (site.is_grid_slot()) {
    auto& grid = dynamic_cast<dev::VialGrid&>(registry_.at(site.grid_device));
    vial_id = grid.occupant(site.grid_slot);
  } else if (site.is_receptacle()) {
    vial_id = registry_.at(site.receptacle_device).container_inside();
  } else {
    // Bare waypoint: a vial may simply be standing there.
    for (std::size_t i = 0; i < registry_.size(); ++i) {
      auto* v = dynamic_cast<dev::Vial*>(&registry_.device(i));
      if (v != nullptr && v->location() == site.name) {
        return v;
      }
    }
    return nullptr;
  }
  if (vial_id.empty()) return nullptr;
  return &vial(vial_id);
}

void LabBackend::detach_vial_from_site(const SiteBinding& site) {
  if (site.is_grid_slot()) {
    auto& grid = dynamic_cast<dev::VialGrid&>(registry_.at(site.grid_device));
    grid.remove(site.grid_slot);
  } else if (site.is_receptacle()) {
    registry_.at(site.receptacle_device).set_container_inside("");
  }
}

void LabBackend::seat_vial(dev::Vial& v, const SiteBinding& site, ExecResult& r) {
  dev::Vial* occupant = vial_at_site(site);
  if (occupant != nullptr) {
    // Footnote 1 of the paper: the vial left behind collides with the new
    // vial in the next iteration.
    if (site.is_receptacle()) {
      dev::Device& station = registry_.at(site.receptacle_device);
      station.note_hazard("incoming vial crashed into vial already inside", Severity::High);
      occupant->shatter("struck by incoming vial inside " + site.receptacle_device);
      v.shatter("crashed into occupant of " + site.receptacle_device);
      v.set_location("lost");
      return;
    }
    if (site.is_grid_slot()) {
      auto& grid = dynamic_cast<dev::VialGrid&>(registry_.at(site.grid_device));
      grid.place(site.grid_slot, v.id());  // notes the glass-break hazard
      v.shatter("dropped onto occupied slot " + site.grid_slot);
      v.set_location("lost");
      return;
    }
  }

  if (site.is_grid_slot()) {
    auto& grid = dynamic_cast<dev::VialGrid&>(registry_.at(site.grid_device));
    grid.place(site.grid_slot, v.id());
  } else if (site.is_receptacle()) {
    registry_.at(site.receptacle_device).set_container_inside(v.id());
  }
  v.set_location(site.name);
  (void)r;
}

void LabBackend::handle_gripper(dev::RobotArmDevice& a, bool open, ExecResult& r) {
  Vec3 tip = a.position_lab();
  const SiteBinding* site = site_near(tip, kSiteTolerance);

  if (!open) {
    // Closing: grab whatever stands at the current site, if empty-handed.
    a.set_gripper(false);
    if (!a.holding().empty() || site == nullptr) return;
    dev::Vial* v = vial_at_site(*site);
    if (v == nullptr || v->is_broken()) return;
    detach_vial_from_site(*site);
    v->set_location("arm:" + a.id());
    a.set_holding(v->id());
    return;
  }

  // Opening: release whatever is held.
  a.set_gripper(true);
  if (a.holding().empty()) return;
  dev::Vial& v = vial(a.holding());
  a.set_holding("");
  if (site != nullptr) {
    seat_vial(v, *site, r);
    return;
  }
  // Released in mid-air away from any site.
  double drop = tip.z - a.held_clearance();
  if (drop > kSafeDropHeight) {
    v.shatter("dropped from height by " + a.id());
    v.set_location("lost");
  } else {
    v.set_location("bench");
  }
}

// ---------------------------------------------------------------------------
// Composite pick/place (the production deck's robot.pick_up_vial() style)
// ---------------------------------------------------------------------------

std::array<Vec3, 3> composite_legs(const Vec3& start, const Vec3& site) {
  constexpr double kCompositeSafeLift = 0.22;
  const double safe_z = site.z + kCompositeSafeLift;
  return {Vec3(start.x, start.y, safe_z), Vec3(site.x, site.y, safe_z), site};
}

void LabBackend::handle_composite(dev::RobotArmDevice& a, const Command& cmd, bool pick,
                                  ExecResult& r) {
  const char* what = pick ? "pick_object" : "place_object";
  const json::Value* site_arg = cmd.args.find("site");
  if (site_arg == nullptr || !site_arg->is_string()) {
    throw dev::DeviceError(dev::DeviceError::Code::BadArgument,
                           std::string(what) + " requires 'site'");
  }
  const SiteBinding* site = find_site(site_arg->as_string());
  if (site == nullptr) {
    throw dev::DeviceError(dev::DeviceError::Code::BadArgument,
                           std::string(what) + ": unknown site '" + site_arg->as_string() + "'");
  }

  for (const Vec3& waypoint : composite_legs(a.position_lab(), site->lab_position)) {
    dev::MotionPlan plan = a.plan_move(a.to_local(waypoint));
    if (plan.skipped) {
      r.silently_skipped = true;
      return;
    }
    perform_motion(a, plan, r);
  }
  handle_gripper(a, /*open=*/!pick, r);
}

void LabBackend::handle_composite_pick(dev::RobotArmDevice& a, const Command& cmd,
                                       ExecResult& r) {
  handle_composite(a, cmd, /*pick=*/true, r);
}

void LabBackend::handle_composite_place(dev::RobotArmDevice& a, const Command& cmd,
                                        ExecResult& r) {
  handle_composite(a, cmd, /*pick=*/false, r);
}

// ---------------------------------------------------------------------------
// Stations
// ---------------------------------------------------------------------------

void LabBackend::handle_set_door(dev::Device& d, const Command& cmd, ExecResult& r) {
  const json::Value* state = cmd.args.find("state");
  bool closing = state != nullptr && state->is_string() && state->as_string() == "closed";
  if (closing) {
    // A door swinging shut onto an arm that is still inside smashes the door
    // (footnote 1 of the paper: the broken glass door incident).
    for (std::size_t i = 0; i < registry_.size(); ++i) {
      auto* a = dynamic_cast<dev::RobotArmDevice*>(&registry_.device(i));
      if (a != nullptr && a->inside_device() == d.id()) {
        // A multi-door command's named door (its first door when it names
        // none); a single-door station's only door.
        const std::string& first = d.doors().front().name;
        const json::Value* door_arg = cmd.args.find("door");
        d.break_door(!first.empty() && door_arg != nullptr && door_arg->is_string()
                         ? door_arg->as_string()
                         : first);
        DamageEvent event{Severity::High,
                          d.id() + ": door closed onto " + a->id() + ", glass door broken",
                          d.id(), commands_executed_};
        r.damage.push_back(event);
        damage_log_.push_back(event);
        return;  // the door never reached the closed state
      }
    }
  }
  d.execute(cmd);
}

void LabBackend::after_station_action(dev::Device& d, const Command& cmd, ExecResult& r) {
  (void)r;
  if (auto* dosing = dynamic_cast<dev::DosingDeviceModel*>(&d)) {
    if (cmd.action == "run_action") {
      double pending = dosing->take_pending_dose_mg();
      if (dosing->door_status() == "open") {
        dosing->note_hazard("dosing with door open, powder escaped", Severity::Low);
      }
      if (dosing->container_inside().empty()) {
        dosing->note_hazard("dosed " + std::to_string(pending) + " mg into empty chamber, wasted",
                            Severity::Low);
      } else {
        vial(dosing->container_inside()).add_solid(pending);
      }
    }
    return;
  }
  if (auto* pump = dynamic_cast<dev::SyringePumpModel*>(&d)) {
    if (cmd.action == "dose_solvent") {
      dev::SyringePumpModel::PendingDispense pending = pump->take_pending_dispense();
      double available = pump->drain_held(pending.volume_ml);
      auto* target = dynamic_cast<dev::Vial*>(registry_.find(pending.target));
      if (target == nullptr) {
        pump->note_hazard("dispensed " + std::to_string(available) + " mL into nothing, wasted",
                          Severity::Low);
      } else {
        target->add_liquid(available);
      }
    }
    return;
  }
  if (auto* cf = dynamic_cast<dev::CentrifugeModel*>(&d)) {
    if (cmd.action == "start_spin" && !cf->container_inside().empty()) {
      dev::Vial& v = vial(cf->container_inside());
      if (!v.has_stopper()) v.spill_contents("centrifuged without stopper");
    }
    return;
  }
  if (auto* ts = dynamic_cast<dev::ThermoshakerModel*>(&d)) {
    if (cmd.action == "shake" && ts->shake_rpm() > 0 && !ts->container_inside().empty()) {
      dev::Vial& v = vial(ts->container_inside());
      if (!v.has_stopper() && v.liquid_ml() > 0) {
        v.spill_contents("shaken without stopper");
      }
    }
    return;
  }
}

void LabBackend::drain_hazards(ExecResult& r) {
  for (std::size_t i = 0; i < registry_.size(); ++i) {
    for (dev::Hazard& h : registry_.device(i).take_hazards()) {
      DamageEvent event{h.severity, h.description, h.device, commands_executed_};
      r.damage.push_back(event);
      damage_log_.push_back(event);
    }
  }
}

}  // namespace rabit::sim
