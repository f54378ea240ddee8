#include "trace/trace.hpp"

#include <chrono>
#include <sstream>

namespace rabit::trace {

namespace {

/// Times one engine check call, accumulating real microseconds of *thread
/// CPU time* into `out`. Thread CPU time (not wall clock) is the honest
/// per-check cost under a multi-worker fleet: a check preempted mid-flight
/// would otherwise absorb the scheduler quantum it waited out — a ~10 ms
/// artifact at high stream counts — into a measurement whose stated intent
/// is "the real CPU cost of the checks".
template <typename Fn>
auto timed_check(double& out, Fn&& fn) {
  double t0 = obs::thread_cpu_now_us();
  auto result = fn();
  out += obs::thread_cpu_now_us() - t0;
  return result;
}

}  // namespace

std::string_view to_string(Outcome o) {
  switch (o) {
    case Outcome::Executed: return "executed";
    case Outcome::SilentlySkipped: return "silently_skipped";
    case Outcome::FirmwareError: return "firmware_error";
    case Outcome::Blocked: return "blocked";
    case Outcome::MalfunctionFlagged: return "malfunction_flagged";
    case Outcome::TransientRetry: return "transient_retry";
    case Outcome::StatusRepoll: return "status_repoll";
    case Outcome::SafeState: return "safe_state";
    case Outcome::Quarantined: return "quarantined";
    case Outcome::Demoted: return "demoted";
  }
  return "unknown";
}

namespace {

std::optional<Outcome> outcome_from_name(const std::string& name) {
  if (name == "executed") return Outcome::Executed;
  if (name == "silently_skipped") return Outcome::SilentlySkipped;
  if (name == "firmware_error") return Outcome::FirmwareError;
  if (name == "blocked") return Outcome::Blocked;
  if (name == "malfunction_flagged") return Outcome::MalfunctionFlagged;
  if (name == "transient_retry") return Outcome::TransientRetry;
  if (name == "status_repoll") return Outcome::StatusRepoll;
  if (name == "safe_state") return Outcome::SafeState;
  if (name == "quarantined") return Outcome::Quarantined;
  if (name == "demoted") return Outcome::Demoted;
  return std::nullopt;
}

std::string require_string(const json::Object& obj, const char* key, std::size_t line_no) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) {
    throw TraceParseError(std::string("missing required field '") + key + "'", line_no);
  }
  if (!v->is_string()) {
    throw TraceParseError(std::string("field '") + key + "' must be a string, got " +
                              std::string(json::to_string(v->type())),
                          line_no);
  }
  return v->as_string();
}

std::int64_t optional_int(const json::Object& obj, const char* key, std::size_t line_no) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) return 0;
  if (!v->is_int()) {
    throw TraceParseError(std::string("field '") + key + "' must be an integer, got " +
                              std::string(json::to_string(v->type())),
                          line_no);
  }
  return v->as_int();
}

TraceRecord parse_record(std::string_view line, std::size_t line_no) {
  json::Value doc;
  try {
    doc = json::parse(line);
  } catch (const json::ParseError& e) {
    throw TraceParseError(std::string("malformed JSON: ") + e.what(), line_no);
  }
  if (!doc.is_object()) {
    throw TraceParseError("record must be a JSON object, got " +
                              std::string(json::to_string(doc.type())),
                          line_no);
  }
  const json::Object& obj = doc.as_object();

  TraceRecord r;
  r.command.device = require_string(obj, "device", line_no);
  r.command.action = require_string(obj, "action", line_no);
  if (const json::Value* args = obj.find("args")) r.command.args = *args;
  r.command.source_line = static_cast<int>(optional_int(obj, "line", line_no));

  std::string outcome_name = require_string(obj, "outcome", line_no);
  std::optional<Outcome> outcome = outcome_from_name(outcome_name);
  if (!outcome) {
    throw TraceParseError("unknown outcome '" + outcome_name + "'", line_no);
  }
  r.outcome = *outcome;

  if (obj.contains("alert_rule")) r.alert_rule = require_string(obj, "alert_rule", line_no);
  if (obj.contains("alert_message")) {
    r.alert_message = require_string(obj, "alert_message", line_no);
  }
  r.damage_events = static_cast<std::size_t>(optional_int(obj, "damage_events", line_no));
  r.attempt = static_cast<std::size_t>(optional_int(obj, "attempt", line_no));
  return r;
}

}  // namespace

std::string TraceLog::to_jsonl() const {
  std::string out;
  for (const TraceRecord& r : records_) {
    json::Object line;
    line["device"] = r.command.device;
    line["action"] = r.command.action;
    line["args"] = r.command.args;
    line["line"] = r.command.source_line;
    line["outcome"] = std::string(to_string(r.outcome));
    if (!r.alert_rule.empty()) {
      line["alert_rule"] = r.alert_rule;
      line["alert_message"] = r.alert_message;
    }
    if (r.damage_events > 0) line["damage_events"] = r.damage_events;
    if (r.attempt > 0) line["attempt"] = r.attempt;
    out += json::serialize(json::Value(std::move(line)));
    out += '\n';
  }
  return out;
}

TraceLog TraceLog::from_jsonl(std::string_view text, bool strict, std::size_t* skipped_lines) {
  TraceLog log;
  if (skipped_lines != nullptr) *skipped_lines = 0;
  std::size_t start = 0;
  std::size_t line_no = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    if (line.empty()) continue;

    try {
      log.append(parse_record(line, line_no));
    } catch (const TraceParseError&) {
      if (strict) throw;
      if (skipped_lines != nullptr) ++*skipped_lines;
    }
  }
  return log;
}

// ---------------------------------------------------------------------------
// RunReport
// ---------------------------------------------------------------------------

bool RunReport::alert_preceded_damage() const {
  if (!first_alert_step) return false;
  if (!first_damage_step) return true;  // alerted and nothing ever broke
  return *first_alert_step <= *first_damage_step;
}

std::optional<dev::Severity> RunReport::max_damage_severity() const {
  std::optional<dev::Severity> worst;
  for (const sim::DamageEvent& e : damage) {
    if (!worst || static_cast<int>(e.severity) > static_cast<int>(*worst)) {
      worst = e.severity;
    }
  }
  return worst;
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

namespace {

/// The paper's alert-and-stop is the recovery ladder with no budget: no
/// retry and no re-poll can fire, so no watchdog check runs either.
constexpr recovery::RecoveryPolicy kAlertAndStop{.max_retries = 0, .max_status_repolls = 0};

Outcome outcome_of(const sim::ExecResult& exec) {
  if (!exec.executed) return Outcome::FirmwareError;
  if (exec.silently_skipped) return Outcome::SilentlySkipped;
  return Outcome::Executed;
}

double elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - since)
      .count();
}

/// Runs `fn` as one span phase of RABIT's own compute (0 modeled seconds:
/// the lab clock does not move). Without an open span it only runs `fn`.
template <typename Fn>
void timed_phase(obs::SpanRecord* span, obs::Phase phase, Fn&& fn) {
  if (span == nullptr) {
    fn();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  span->phases.push_back({phase, 0.0, elapsed_us(t0)});
}

}  // namespace

Supervisor::Supervisor(core::RabitEngine* engine, sim::LabBackend* backend, Options options)
    : engine_(engine), backend_(backend), options_(std::move(options)) {
  if (backend_ == nullptr) throw std::invalid_argument("Supervisor: null backend");
  if (options_.recovery) {
    // A policy that fails fatal validation makes the ladder nonsensical
    // (zero backoff hammers the device, jitter >= 1 can produce negative
    // waits); refuse it here rather than misbehave mid-campaign.
    for (const recovery::PolicyIssue& issue : recovery::validate(*options_.recovery)) {
      if (issue.fatal) {
        throw std::invalid_argument("Supervisor: invalid RecoveryPolicy: " + issue.message);
      }
    }
    backoff_.emplace(*options_.recovery);
  }
  if (engine_ != nullptr) {
    // Fold the assurance margin into the engine's own V3 sweep: the fast
    // path becomes a flag read instead of a second sweep per motion. Reset
    // explicitly when assurance is off, in case the engine is reused.
    engine_->set_assurance_margin(options_.assurance ? options_.assurance->margin_min_m : 0.0);
  }
}

void Supervisor::start() {
  halted_ = false;
  log_.clear();
  recovery_report_ = recovery::RecoveryReport{};
  quarantined_.clear();
  safe_controller_active_ = false;
  span_seq_ = 0;
  if (backoff_) backoff_->reset();
  if (engine_ != nullptr) {
    engine_->initialize(backend_->fetch_status().snapshot());
  }
}

const recovery::RecoveryPolicy& Supervisor::policy() const {
  return options_.recovery ? *options_.recovery : kAlertAndStop;
}

double Supervisor::modeled_now() const {
  return backend_->modeled_clock_s() +
         (engine_ != nullptr ? engine_->modeled_overhead_s() : 0.0);
}

void Supervisor::emit_rung(std::string_view kind, const dev::Command& cmd, std::size_t attempt,
                           const std::string& note) {
  if (options_.obs_sink == nullptr) return;
  obs::RungRecord rung;
  rung.stream = options_.obs_stream;
  rung.span_seq = active_span_ != nullptr ? active_span_->seq : span_seq_;
  rung.kind = std::string(kind);
  rung.device = cmd.device;
  rung.action = cmd.action;
  rung.attempt = attempt;
  rung.t_modeled_s = modeled_now();
  rung.note = note;
  options_.obs_sink->on_rung(std::move(rung));
}

void Supervisor::finalize_span(obs::SpanRecord& span, const SupervisedStep& result) const {
  if (result.demoted) {
    // A demotion carries an alert too (the averted trajectory violation);
    // the span verdict names the stronger fact: the safe controller ran.
    span.rule = result.alert ? result.alert->rule : "RTA";
    span.verdict = "demoted";
  } else if (result.alert) {
    span.rule = result.alert->rule;
    span.verdict = result.alert->kind == core::AlertKind::DeviceMalfunction ? "malfunction"
                                                                            : "blocked";
  } else if (!result.exec) {
    // Refused before any execution: the experiment had already halted or the
    // device is quarantined; the refusal record carries the reason.
    span.verdict = "refused";
    if (!log_.records().empty()) span.rule = log_.records().back().alert_rule;
  } else if (!result.exec->executed) {
    span.verdict = "firmware_error";
  } else if (result.exec->silently_skipped) {
    span.verdict = "silently_skipped";
  } else {
    span.verdict = "pass";
  }
}

void Supervisor::update_metrics(const obs::SpanRecord& span, const SupervisedStep& result) {
  obs::Registry& reg = *options_.obs_metrics;
  reg.counter("rabit_commands_total", "", "Commands intercepted by the Supervisor").increment();
  reg.counter("rabit_verdicts_total", "verdict=\"" + span.verdict + "\"",
              "Per-command span verdicts")
      .increment();
  if (result.alert) {
    // Metric-friendly slugs, not the core::to_string banner text.
    std::string_view kind = "invalid_command";
    if (result.alert->kind == core::AlertKind::InvalidTrajectory) kind = "invalid_trajectory";
    if (result.alert->kind == core::AlertKind::DeviceMalfunction) kind = "device_malfunction";
    reg.counter("rabit_alerts_total", "kind=\"" + std::string(kind) + "\"", "Alerts by kind")
        .increment();
  }
  if (result.check_cpu_us > 0) {
    reg.histogram("rabit_check_latency_us",
                  "Real microseconds spent in pre-execution engine checks per command")
        .observe(result.check_cpu_us);
  }
  if (result.retries > 0) {
    reg.counter("rabit_recovery_retries_total", "", "Recovery-ladder command re-attempts")
        .increment(result.retries);
  }
  if (result.repolls > 0) {
    reg.counter("rabit_recovery_repolls_total", "", "Recovery-ladder status re-polls")
        .increment(result.repolls);
  }
  if (result.demoted) {
    reg.counter("rabit_assurance_demotions_total", "",
                "Motion commands demoted to the verified-safe controller")
        .increment();
  }
}

void Supervisor::append_recovery_record(const dev::Command& cmd, Outcome outcome,
                                        std::size_t attempt, const std::string& note) {
  TraceRecord r;
  r.command = cmd;
  r.outcome = outcome;
  r.attempt = attempt;
  if (!note.empty()) {
    r.alert_rule = "RECOVERY";
    r.alert_message = note;
  }
  log_.append(std::move(r));
  if (options_.obs_sink != nullptr) {
    std::string_view kind;
    switch (outcome) {
      case Outcome::TransientRetry: kind = "retry"; break;
      case Outcome::StatusRepoll: kind = "repoll"; break;
      case Outcome::SafeState: kind = "safe_state"; break;
      case Outcome::Quarantined: kind = "quarantine"; break;
      case Outcome::Demoted: kind = "demote"; break;
      default: kind = "rung"; break;
    }
    emit_rung(kind, cmd, attempt, note);
  }
}

void Supervisor::raise_alert(core::Alert alert, Outcome outcome, SupervisedStep& result,
                             TraceRecord& record) {
  record.outcome = outcome;
  record.alert_rule = alert.rule;
  record.alert_message = alert.message;
  result.alert = std::move(alert);
  if (options_.halt_on_alert) {
    halted_ = true;
    result.halted = true;
  }
}

sim::LabBackend::StatusFetch Supervisor::repoll_status(const dev::Command& cmd,
                                                       SupervisedStep& result,
                                                       std::size_t repoll, std::string note) {
  const double interval = policy().repoll_interval_s;
  backend_->advance_clock(interval);
  ++result.repolls;
  ++recovery_report_.repolls;
  recovery_report_.recovery_time_s += interval;
  recovery_report_.events.push_back({recovery::RecoveryEvent::Kind::Repoll, cmd.device,
                                     cmd.action, repoll, backend_->modeled_clock_s(),
                                     std::move(note)});
  append_recovery_record(cmd, Outcome::StatusRepoll, repoll, std::string());
  return backend_->fetch_status();
}

void Supervisor::escalate(const dev::Command& cmd, bool quarantine_device) {
  // Re-entrancy guard: a fault raised by one of the safe controller's own
  // commands must not restart the escalation (or re-enter the retry ladder)
  // while the safe sequence is still draining — it would double-count
  // quarantines and draw from the BackoffClock mid-escalation, perturbing
  // the deterministic jitter stream.
  if (safe_controller_active_) return;
  if (!options_.recovery) return;
  const recovery::RecoveryPolicy& pol = *options_.recovery;
  safe_controller_active_ = true;

  if (quarantine_device && quarantined_.insert(cmd.device).second) {
    recovery_report_.quarantined.push_back(cmd.device);
    recovery_report_.events.push_back({recovery::RecoveryEvent::Kind::Quarantine, cmd.device,
                                       cmd.action, 0, backend_->modeled_clock_s(),
                                       "device removed from service"});
    append_recovery_record(cmd, Outcome::Quarantined, 0, "device removed from service");
  }

  if (pol.safe_state_on_escalation && !recovery_report_.safe_state_executed) {
    recovery_report_.safe_state_executed = true;
    recovery_report_.events.push_back({recovery::RecoveryEvent::Kind::SafeState, cmd.device,
                                       cmd.action, 0, backend_->modeled_clock_s(),
                                       "safe-state sequence started"});
    // The safe-state sequence is open-loop by design: the deck is in an
    // unknown state and a quarantined controller may reject commands, so
    // each is attempted once and failures are only counted.
    for (const dev::Command& safe_cmd : recovery::safe_state_sequence(*backend_, quarantined_)) {
      sim::ExecResult exec = backend_->execute(safe_cmd);
      ++recovery_report_.safe_state_commands;
      bool ok = exec.executed && !exec.silently_skipped;
      if (!ok) ++recovery_report_.safe_state_failures;
      append_recovery_record(safe_cmd, Outcome::SafeState, 0,
                             ok ? std::string() : "safe-state command failed");
    }
  }

  recovery_report_.halted = true;
  recovery_report_.events.push_back({recovery::RecoveryEvent::Kind::Halt, cmd.device, cmd.action,
                                     0, backend_->modeled_clock_s(), "experiment halted"});
  emit_rung("halt", cmd, 0, "experiment halted");
  safe_controller_active_ = false;
}

bool Supervisor::maybe_demote(const dev::Command& cmd, SupervisedStep& result,
                              TraceRecord& record) {
  const assurance::AssuranceConfig& cfg = *options_.assurance;
  if (engine_ == nullptr) return false;
  sim::ExtendedSimulator* simulator = engine_->simulator();
  if (simulator == nullptr || engine_->config().variant != core::Variant::ModifiedWithSim) {
    return false;
  }

  // Fast path: the engine's own V3 replay already swept with the margin
  // folded in (set_assurance_margin, see the constructor) — a clean motion
  // costs the assurance layer nothing beyond this flag read. Only a trip
  // pays for the motion analysis and the exact margin profile below.
  if (!engine_->last_margin_tripped()) return false;

  std::optional<core::MotionAnalysis> motion = engine_->motion_analysis(cmd);
  if (!motion || motion->waypoints.size() < 2) return false;

  // Slow path: the inflated query over-approximates solids by their bounding
  // cuboid, so a trip is only a suspicion; the signed-margin profile settles
  // it and locates the violation for the switching-point derivation.
  sim::MarginProfile profile;
  assurance::Decision decision;
  timed_phase(active_span_, obs::Phase::Assurance, [&] {
    profile = timed_check(result.check_cpu_us, [&] {
      return simulator->trajectory_margin(motion->waypoints, motion->held_clearance,
                                          motion->ignores);
    });
    decision = assurance::decide(profile, cfg);
  });
  if (!decision.demote) return false;

  // Demote: the advanced command is never forwarded. The verified-safe
  // controller advances (open-loop) to the last safe switching point and
  // parks; its commands are trusted, not re-supervised.
  safe_controller_active_ = true;
  ++recovery_report_.demotions;

  assurance::AssuranceEvent event;
  event.device = cmd.device;
  event.action = cmd.action;
  event.barrier_m = decision.h_min_m;
  event.switch_s_m = decision.s_star_m;
  event.violation_s_m = decision.s_viol_m;
  event.stop_distance_m = decision.stop_distance_m;
  event.trajectory_m = profile.length_m;
  event.obstacle = decision.obstacle;
  event.modeled_time_s = backend_->modeled_clock_s();
  const std::string note = event.describe();
  recovery_report_.events.push_back({recovery::RecoveryEvent::Kind::Demoted, cmd.device,
                                     cmd.action, 0, backend_->modeled_clock_s(), note});
  recovery_report_.assurance.push_back(event);

  raise_alert(core::Alert{core::AlertKind::InvalidTrajectory, "RTA", note, cmd},
              Outcome::Demoted, result, record);
  result.demoted = true;
  log_.append(std::move(record));
  emit_rung("demote", cmd, 0, note);

  std::vector<dev::Command> safe_cmds;
  const core::DeviceMeta* meta = engine_->config().find_device(motion->arm_id);
  if (decision.s_star_m > 1e-9 && meta != nullptr) {
    // Truncated advance: a real move_to (in the arm's own frame) to s*, so
    // the trace replays through the same motion pipeline as any script move.
    geom::Vec3 stop_lab = assurance::point_at_arc_length(motion->waypoints, decision.s_star_m);
    geom::Vec3 stop_arm = meta->base.inverse().apply(stop_lab);
    dev::Command advance;
    advance.device = motion->arm_id;
    advance.action = "move_to";
    json::Object args;
    json::Array pos;
    pos.emplace_back(stop_arm.x);
    pos.emplace_back(stop_arm.y);
    pos.emplace_back(stop_arm.z);
    args["position"] = std::move(pos);
    advance.args = json::Value(std::move(args));
    safe_cmds.push_back(std::move(advance));
  }
  dev::Command park;
  park.device = motion->arm_id;
  park.action = "go_sleep";
  safe_cmds.push_back(std::move(park));

  // The step's ExecResult reflects the *advanced* command (never executed);
  // damage from the safe stop — none, when the switching-point math holds —
  // is still attached so RunReport accounting cannot miss it.
  sim::ExecResult combined;
  combined.executed = false;
  for (const dev::Command& safe_cmd : safe_cmds) {
    sim::ExecResult exec = backend_->execute(safe_cmd);
    for (const sim::DamageEvent& e : exec.damage) combined.damage.push_back(e);
    bool ok = exec.executed && !exec.silently_skipped;
    TraceRecord safe_rec;
    safe_rec.command = safe_cmd;
    safe_rec.outcome = Outcome::SafeState;
    safe_rec.alert_rule = "RTA";
    safe_rec.alert_message = ok ? "assurance safe stop" : "safe-stop command failed";
    safe_rec.damage_events = exec.damage.size();
    log_.append(std::move(safe_rec));
    emit_rung("safe_state", safe_cmd, 0,
              ok ? "assurance safe stop" : "safe-stop command failed");
  }
  result.exec = std::move(combined);

  // Adopt reality: the arm is wherever the safe controller left it, not where
  // the demoted command's postconditions would have put it.
  engine_->resync_observed(*backend_->fetch_status().observed);
  safe_controller_active_ = false;

  if (result.halted) {
    // The arm's configured geometry just proved untrustworthy. With a policy
    // the ladder finishes the job: quarantine the device, then safe state.
    recovery_report_.halted = true;
    escalate(cmd, /*quarantine_device=*/true);
  }
  return true;
}

void Supervisor::execute_and_verify(const dev::Command& cmd, SupervisedStep& result,
                                    TraceRecord& record) {
  const recovery::RecoveryPolicy& pol = policy();
  const double deadline = backend_->modeled_clock_s() + pol.watchdog_timeout_s;
  std::size_t attempts_used = 0;
  const std::size_t repolls_before = result.repolls;
  bool watchdog_logged = false;
  std::vector<sim::DamageEvent> all_damage;

  auto watchdog_ok = [&] { return backend_->modeled_clock_s() < deadline; };
  auto note_watchdog = [&] {
    if (watchdog_logged) return;
    watchdog_logged = true;
    ++recovery_report_.watchdog_expirations;
    recovery_report_.events.push_back({recovery::RecoveryEvent::Kind::WatchdogExpired,
                                       cmd.device, cmd.action, attempts_used,
                                       backend_->modeled_clock_s(),
                                       "per-command watchdog expired"});
    emit_rung("watchdog", cmd, attempts_used, "per-command watchdog expired");
  };

  // Span phases: Dispatch is the backend executing the command, Postcondition
  // the status fetches, diffs and resyncs (no modeled time), Recovery what the
  // ladder waited (backoff, re-poll intervals).
  const double span_modeled_0 = modeled_now();
  const double span_recovery_0 = recovery_report_.recovery_time_s;
  double dispatch_wall_us = 0.0;
  std::chrono::steady_clock::time_point span_wall_0;
  if (active_span_ != nullptr) span_wall_0 = std::chrono::steady_clock::now();

  // One rung of the retry ladder: backoff wait + bookkeeping. Returns false
  // once the per-command budget or the watchdog is exhausted.
  auto take_retry = [&](const std::string& note) -> bool {
    if (safe_controller_active_) return false;  // never retry inside the safe controller
    if (attempts_used >= pol.max_retries) return false;
    if (!watchdog_ok()) {
      note_watchdog();
      return false;
    }
    ++attempts_used;
    ++result.retries;
    double wait = backoff_->wait_s(attempts_used);
    backend_->advance_clock(wait);
    ++recovery_report_.retries;
    recovery_report_.recovery_time_s += wait;
    recovery_report_.events.push_back({recovery::RecoveryEvent::Kind::Retry, cmd.device,
                                       cmd.action, attempts_used, backend_->modeled_clock_s(),
                                       note});
    append_recovery_record(cmd, Outcome::TransientRetry, attempts_used, note);
    return true;
  };

  auto dispatch = [&] {
    std::chrono::steady_clock::time_point t0;
    if (active_span_ != nullptr) t0 = std::chrono::steady_clock::now();
    sim::ExecResult exec = backend_->execute(cmd);
    if (active_span_ != nullptr) dispatch_wall_us += elapsed_us(t0);
    return exec;
  };

  // Line 12 with busy-retry absorption: a firmware-busy rejection is waited
  // out rather than surfaced, until the budget runs dry.
  auto execute_once = [&] {
    sim::ExecResult exec = dispatch();
    while (exec.transient_busy && take_retry("firmware busy")) exec = dispatch();
    all_damage.insert(all_damage.end(), exec.damage.begin(), exec.damage.end());
    return exec;
  };

  sim::ExecResult exec = execute_once();

  // Lines 13-16: fetch S_actual, compare it with S_expected, resync.
  std::optional<core::Alert> malfunction;
  if (engine_ != nullptr) {
    for (;;) {
      sim::LabBackend::StatusFetch fetched = backend_->fetch_status();
      std::vector<std::string> diffs = engine_->postcondition_mismatches(*fetched.observed);

      // Stale-read filter: a divergence may be a status artifact (timeout
      // substituting a cached snapshot, stale firmware report), not damage.
      // Re-poll before judging.
      for (std::size_t repoll = 1;
           !diffs.empty() && repoll <= pol.max_status_repolls && watchdog_ok(); ++repoll) {
        fetched = repoll_status(cmd, result, repoll, "status re-poll");
        diffs = engine_->postcondition_mismatches(*fetched.observed);
      }
      engine_->resync_observed(*fetched.observed);  // line 16
      if (diffs.empty()) break;

      // The divergence survived re-polling: retry the command with a
      // re-armed expectation, or declare the malfunction of line 14.
      if (!take_retry("postcondition divergence")) {
        malfunction = engine_->declare_malfunction(cmd, diffs);
        break;
      }
      engine_->apply_expected(cmd);
      exec = execute_once();
    }
  }

  record.outcome = outcome_of(exec);
  record.damage_events = all_damage.size();
  exec.damage = std::move(all_damage);
  result.exec = std::move(exec);

  const bool rung_taken =
      result.retries > 0 || result.repolls > repolls_before || watchdog_logged;
  if (malfunction) {
    raise_alert(std::move(*malfunction), Outcome::MalfunctionFlagged, result, record);
  } else if ((rung_taken || repolls_before > 0) && result.exec->executed) {
    // The ladder saved this command: a rung anywhere in its step, the
    // precondition re-polls before this routine included, and it executed.
    ++recovery_report_.transients_absorbed;
  }

  if (active_span_ != nullptr) {
    const double wall_us = elapsed_us(span_wall_0);
    const double recovery_modeled = recovery_report_.recovery_time_s - span_recovery_0;
    active_span_->phases.push_back(
        {obs::Phase::Dispatch, modeled_now() - span_modeled_0 - recovery_modeled,
         dispatch_wall_us});
    if (engine_ != nullptr) {
      active_span_->phases.push_back({obs::Phase::Postcondition, 0.0, wall_us - dispatch_wall_us});
    }
    if (rung_taken) active_span_->phases.push_back({obs::Phase::Recovery, recovery_modeled, 0.0});
  }

  log_.append(std::move(record));
  if (result.halted) escalate(cmd, /*quarantine_device=*/true);
}

SupervisedStep Supervisor::step(const dev::Command& cmd) {
  if (options_.obs_sink == nullptr) {
    // Observability disabled: one branch, no span allocation, no timing.
    if (options_.obs_metrics == nullptr) return step_impl(cmd);
  }
  obs::SpanRecord span;
  span.stream = options_.obs_stream;
  span.seq = span_seq_++;
  span.device = cmd.device;
  span.action = cmd.action;
  span.source_line = cmd.source_line;
  span.t0_modeled_s = modeled_now();
  active_span_ = &span;
  if (engine_ != nullptr) engine_->set_span(&span);
  SupervisedStep result = step_impl(cmd);
  if (engine_ != nullptr) engine_->set_span(nullptr);
  active_span_ = nullptr;
  finalize_span(span, result);
  if (options_.obs_metrics != nullptr) update_metrics(span, result);
  if (options_.obs_sink != nullptr) options_.obs_sink->on_span(std::move(span));
  return result;
}

SupervisedStep Supervisor::step_impl(const dev::Command& cmd) {
  SupervisedStep result;
  TraceRecord record;
  record.command = cmd;

  if (halted_) {
    // The experiment already stopped; refuse further commands.
    result.halted = true;
    record.outcome = Outcome::Blocked;
    record.alert_rule = "HALTED";
    record.alert_message = "experiment already halted";
    log_.append(std::move(record));
    return result;
  }

  if (quarantined_.contains(cmd.device)) {
    // A quarantined device is out of service until a human clears it.
    record.outcome = Outcome::Blocked;
    record.alert_rule = "QUARANTINE";
    record.alert_message = cmd.device + " is quarantined; command refused";
    log_.append(std::move(record));
    return result;
  }

  // Lines 6-10: pre-execution checks. Precondition and trajectory alerts
  // flag *script* bugs — retrying the same command cannot fix those. The one
  // ladder rung that does apply is the status re-poll: the check runs
  // against the last fetched snapshot, and a stale or timed-out status
  // channel can make a safe script look unsafe. A genuine script bug
  // re-checks identically on fresh data, so re-polling never masks one.
  if (engine_ != nullptr) {
    const recovery::RecoveryPolicy& pol = policy();
    std::optional<core::Alert> pre_alert =
        timed_check(result.check_cpu_us, [&] { return engine_->check_command(cmd); });
    for (std::size_t repoll = 1; pre_alert && repoll <= pol.max_status_repolls; ++repoll) {
      engine_->resync_observed(
          *repoll_status(cmd, result, repoll,
                         "re-polling status before declaring " + pre_alert->rule + " violation")
               .observed);
      if (active_span_ != nullptr) {
        active_span_->phases.push_back({obs::Phase::Recovery, pol.repoll_interval_s, 0.0});
      }
      pre_alert = timed_check(result.check_cpu_us, [&] { return engine_->check_command(cmd); });
    }
    if (pre_alert) {
      raise_alert(std::move(*pre_alert), Outcome::Blocked, result, record);
      log_.append(std::move(record));
      if (result.halted) escalate(cmd, /*quarantine_device=*/false);
      return result;
    }
    // Runtime-assurance decision module: a motion whose barrier profile dips
    // below the floor is demoted to the verified-safe controller here —
    // before line 11, so the tracker never adopts expectations the advanced
    // command will not realize.
    if (options_.assurance && maybe_demote(cmd, result, record)) return result;
    timed_phase(active_span_, obs::Phase::Expectation,
                [&] { engine_->apply_expected(cmd); });  // line 11
  }

  execute_and_verify(cmd, result, record);
  return result;
}

void RunReport::record(SupervisedStep step) {
  std::size_t index = steps.size();
  check_cpu_s += step.check_cpu_us * 1e-6;
  if (step.alert) {
    ++alerts;
    if (!first_alert_step) first_alert_step = index;
  }
  if (step.exec) {
    for (const sim::DamageEvent& e : step.exec->damage) {
      if (!first_damage_step) first_damage_step = index;
      damage.push_back(e);
    }
  }
  halted = halted || step.halted;
  steps.push_back(std::move(step));
}

RunReport Supervisor::run(const std::vector<dev::Command>& workflow) {
  start();
  const double clock_before = backend_->modeled_clock_s();
  const double overhead_before = engine_ != nullptr ? engine_->modeled_overhead_s() : 0.0;
  RunReport report;
  for (const dev::Command& cmd : workflow) {
    report.record(step(cmd));
    if (report.halted) break;
  }
  report.modeled_runtime_s = backend_->modeled_clock_s() - clock_before;
  report.modeled_overhead_s =
      (engine_ != nullptr ? engine_->modeled_overhead_s() : 0.0) - overhead_before;
  if (options_.recovery || options_.assurance) report.recovery = recovery_report_;
  if (engine_ != nullptr) {
    report.degraded_checks = engine_->stats().degraded_checks;
    // Absorb the engine's ad-hoc Stats counters into the metrics registry
    // (they reset on start(), so each run adds exactly its own activity).
    if (options_.obs_metrics != nullptr) engine_->export_stats(*options_.obs_metrics);
  }
  return report;
}

}  // namespace rabit::trace
