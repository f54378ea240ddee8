#include "core/engine.hpp"

#include <chrono>
#include <sstream>

namespace rabit::core {

std::string_view to_string(AlertKind k) {
  switch (k) {
    case AlertKind::InvalidCommand: return "Invalid Command!";
    case AlertKind::InvalidTrajectory: return "Invalid trajectory!";
    case AlertKind::DeviceMalfunction: return "Device malfunction!";
  }
  return "unknown";
}

std::string Alert::describe() const {
  std::string out = "[";
  out.append(to_string(kind)).append("]");
  if (!rule.empty()) out.append(" rule ").append(rule);
  out.append(": ").append(message).append(" (command: ").append(command.describe()).append(")");
  return out;
}

RabitEngine::RabitEngine(EngineConfig config, HotPathConfig /*unused*/)
    : config_(std::move(config)), tracker_(&config_) {}

void RabitEngine::attach_simulator(sim::ExtendedSimulator* simulator) {
  simulator_ = simulator;
}

void RabitEngine::initialize(const dev::LabStateSnapshot& observed) {
  tracker_.initialize(observed);
  stats_ = Stats{};
  base_overhead_s_ = 0.0;
}

namespace {

/// Rewrites aliased command names to their canonical action (the §V-C
/// multiple-commands-per-action extension): the rulebase and tracker only
/// ever reason about canonical names. Returns nullopt when the command is
/// already canonical — the common case — so the hot path never copies a
/// Command just to inspect it.
std::optional<dev::Command> canonicalize_aliased(const EngineConfig& config,
                                                 const dev::Command& cmd) {
  const DeviceMeta* meta = config.find_device(cmd.device);
  if (meta == nullptr) return std::nullopt;
  std::string_view canonical = meta->canonical_action(cmd.action);
  if (canonical == cmd.action) return std::nullopt;
  dev::Command rewritten = cmd;
  rewritten.action = std::string(canonical);
  return rewritten;
}

}  // namespace

std::optional<Alert> RabitEngine::check_command(const dev::Command& raw) {
  ++stats_.commands_checked;
  base_overhead_s_ += kBaseCheckCost_s;
  last_margin_tripped_ = false;
  // Observability hook: when a span is attached, each pipeline phase records
  // its modeled duration (deterministic, exported) and wall microseconds
  // (histograms only). Disabled, every hook below is one branch on span_.
  obs::SpanRecord* span = span_;
  std::chrono::steady_clock::time_point phase_t0;
  if (span != nullptr) phase_t0 = std::chrono::steady_clock::now();

  std::optional<dev::Command> aliased = canonicalize_aliased(config_, raw);
  const dev::Command& cmd = aliased ? *aliased : raw;
  if (span != nullptr) {
    auto t1 = std::chrono::steady_clock::now();
    span->phases.push_back(
        {obs::Phase::Canonicalize, 0.0,
         std::chrono::duration<double, std::micro>(t1 - phase_t0).count()});
    phase_t0 = t1;
  }
  // Modeled cost of this check: the fixed base cost plus whatever latency the
  // simulator accrues during trajectory replay below.
  const double sim_modeled_0 =
      simulator_ != nullptr ? simulator_->modeled_latency_s() : 0.0;
  auto finish_precondition_phase = [&] {
    if (span == nullptr) return;
    auto t1 = std::chrono::steady_clock::now();
    double sim_delta =
        (simulator_ != nullptr ? simulator_->modeled_latency_s() : 0.0) - sim_modeled_0;
    span->phases.push_back(
        {obs::Phase::Precondition, kBaseCheckCost_s + sim_delta,
         std::chrono::duration<double, std::micro>(t1 - phase_t0).count()});
  };

  // Lines 6-7: precondition validation against the tracked state.
  if (auto hit = check_preconditions(config_, tracker_, cmd)) {
    ++stats_.precondition_alerts;
    finish_precondition_phase();
    return Alert{AlertKind::InvalidCommand, hit->rule, hit->message, cmd};
  }

  // Lines 8-10: trajectory replay when a simulator is available. Without
  // one, only the target location was checked (already done above via G3).
  if (simulator_ != nullptr && config_.variant == Variant::ModifiedWithSim &&
      is_motion_command(cmd)) {
    if (auto motion = analyze_motion(config_, tracker_, cmd)) {
      ++stats_.trajectory_checks;
      // The simulator polls the robot's real position when it can (URSim
      // style); RABIT's tracked position is only the fallback. This is what
      // catches a preceding silently-skipped move (footnote 2).
      if (auto actual = simulator_->polled_arm_position(motion->arm_id)) {
        motion->waypoints.front() = *actual;
      }
      if (motion_observer_) motion_observer_(*motion);
      // Deliberate-entry boxes are skipped via the read-only ignore filter —
      // the world itself is never mutated by a check, so a throwing
      // validation can never lose boxes. With an assurance margin set, the
      // same sweep is inflated and reports the demotion signal.
      sim::ExtendedSimulator::SweepResult swept = simulator_->sweep(
          motion->waypoints, motion->held_clearance, motion->ignores, assurance_margin_);
      last_margin_tripped_ = swept.tripped;
      if (swept.hit) {
        ++stats_.trajectory_alerts;
        finish_precondition_phase();
        return Alert{AlertKind::InvalidTrajectory, "SIM",
                     motion->arm_id + " trajectory unsafe: " + swept.hit->describe(), cmd};
      }
    }
  } else if (simulator_ == nullptr && config_.variant == Variant::ModifiedWithSim &&
             is_motion_command(cmd)) {
    // Degraded mode: V3 was configured but the simulator is detached
    // (crashed or disconnected mid-run). The V2 target checks above still
    // ran; count the skipped trajectory replay as a warning instead of
    // losing it silently.
    ++stats_.degraded_checks;
  }
  finish_precondition_phase();
  return std::nullopt;
}

std::optional<MotionAnalysis> RabitEngine::motion_analysis(const dev::Command& raw) const {
  std::optional<dev::Command> aliased = canonicalize_aliased(config_, raw);
  const dev::Command& cmd = aliased ? *aliased : raw;
  if (!is_motion_command(cmd)) return std::nullopt;
  std::optional<MotionAnalysis> motion = analyze_motion(config_, tracker_, cmd);
  if (motion && simulator_ != nullptr && !motion->waypoints.empty()) {
    if (auto actual = simulator_->polled_arm_position(motion->arm_id)) {
      motion->waypoints.front() = *actual;
    }
  }
  return motion;
}

void RabitEngine::apply_expected(const dev::Command& cmd) {
  std::optional<dev::Command> aliased = canonicalize_aliased(config_, cmd);
  tracker_.apply_postconditions(aliased ? *aliased : cmd);
}

std::optional<Alert> RabitEngine::verify_postconditions(const dev::Command& cmd,
                                                        const dev::LabStateSnapshot& observed) {
  std::vector<std::string> diffs = tracker_.mismatches(observed);
  tracker_.resync(observed);  // line 16, unconditionally
  ++stats_.resyncs;
  if (diffs.empty()) return std::nullopt;
  return declare_malfunction(cmd, diffs);
}

std::vector<std::string> RabitEngine::postcondition_mismatches(
    const dev::ObservedLab& observed) const {
  return tracker_.mismatches(observed);
}

void RabitEngine::resync_observed(const dev::ObservedLab& observed) {
  tracker_.resync(observed);
  ++stats_.resyncs;
}

Alert RabitEngine::declare_malfunction(const dev::Command& cmd,
                                       const std::vector<std::string>& diffs) {
  ++stats_.malfunction_alerts;
  std::ostringstream os;
  os << "state diverged from expectation at:";
  for (const std::string& d : diffs) os << " " << d;
  return Alert{AlertKind::DeviceMalfunction, "POST", os.str(), cmd};
}

void RabitEngine::export_stats(obs::Registry& registry) const {
  auto add = [&](const char* family, const char* help, std::size_t value) {
    if (value > 0) registry.counter(family, "", help).increment(value);
  };
  add("rabit_engine_commands_checked_total", "Commands validated by check_command",
      stats_.commands_checked);
  add("rabit_engine_precondition_alerts_total", "Invalid-command precondition alerts",
      stats_.precondition_alerts);
  add("rabit_engine_trajectory_alerts_total", "Invalid-trajectory simulator alerts",
      stats_.trajectory_alerts);
  add("rabit_engine_malfunction_alerts_total", "Device-malfunction postcondition alerts",
      stats_.malfunction_alerts);
  add("rabit_engine_trajectory_checks_total", "Trajectory replays issued to the simulator",
      stats_.trajectory_checks);
  add("rabit_engine_degraded_checks_total",
      "Motion commands checked at V2 level with the V3 simulator detached",
      stats_.degraded_checks);
  add("rabit_engine_resyncs_total", "Line-16 resyncs of tracked state onto observed state",
      stats_.resyncs);
}

double RabitEngine::modeled_overhead_s() const {
  return base_overhead_s_ + (simulator_ != nullptr ? simulator_->modeled_latency_s() : 0.0);
}

}  // namespace rabit::core
