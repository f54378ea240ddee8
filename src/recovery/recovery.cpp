#include "recovery/recovery.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace rabit::recovery {

double BackoffClock::wait_s(std::size_t attempt) {
  double wait = policy_.backoff_base_s;
  for (std::size_t i = 1; i < attempt; ++i) wait *= policy_.backoff_factor;
  if (policy_.backoff_jitter > 0.0) {
    std::uniform_real_distribution<double> jitter(1.0 - policy_.backoff_jitter,
                                                  1.0 + policy_.backoff_jitter);
    wait *= jitter(rng_);
  }
  return wait;
}

double worst_case_ladder_s(const RecoveryPolicy& policy) {
  // The retry waits at maximum jitter are a geometric series, summed in
  // closed form: validate() runs on every Supervisor construction, and the
  // retry budget may be as large as std::size_t allows.
  const double n = static_cast<double>(policy.max_retries);
  const double first = policy.backoff_base_s * (1.0 + policy.backoff_jitter);
  const double factor = policy.backoff_factor;
  const double retries =
      factor == 1.0 ? first * n : first * (std::pow(factor, n) - 1.0) / (factor - 1.0);
  return retries + static_cast<double>(policy.max_status_repolls) * policy.repoll_interval_s;
}

std::vector<PolicyIssue> validate(const RecoveryPolicy& policy) {
  std::vector<PolicyIssue> issues;
  auto fatal = [&issues](std::string message) {
    issues.push_back(PolicyIssue{true, std::move(message)});
  };
  std::ostringstream os;
  if (!(policy.backoff_base_s > 0.0)) {
    os << "backoff_base_s must be positive (got " << policy.backoff_base_s << ")";
    fatal(os.str());
    os.str("");
  }
  if (!(policy.backoff_factor >= 1.0)) {
    os << "backoff_factor must be >= 1 (got " << policy.backoff_factor
       << "); a shrinking backoff hammers a busy device faster each attempt";
    fatal(os.str());
    os.str("");
  }
  if (!(policy.backoff_jitter >= 0.0 && policy.backoff_jitter < 1.0)) {
    os << "backoff_jitter must lie in [0, 1) (got " << policy.backoff_jitter
       << "); jitter >= 1 can produce a zero or negative wait";
    fatal(os.str());
    os.str("");
  }
  if (!(policy.repoll_interval_s > 0.0)) {
    os << "repoll_interval_s must be positive (got " << policy.repoll_interval_s << ")";
    fatal(os.str());
    os.str("");
  }
  if (!(policy.watchdog_timeout_s > 0.0)) {
    os << "watchdog_timeout_s must be positive (got " << policy.watchdog_timeout_s << ")";
    fatal(os.str());
    os.str("");
  } else {
    double ladder = worst_case_ladder_s(policy);
    if (policy.watchdog_timeout_s < ladder) {
      os << "watchdog_timeout_s (" << policy.watchdog_timeout_s
         << " s) is shorter than one worst-case backoff ladder (" << ladder
         << " s): the watchdog can expire mid-ladder on a fault the retry "
            "budget was sized to absorb";
      issues.push_back(PolicyIssue{false, os.str()});
      os.str("");
    }
  }
  return issues;
}

namespace {

/// Exact integers in range only: casting anything else is undefined
/// behaviour (negative, too large) or a silent truncation (fractions).
template <typename Int>
Int whole_number(const json::Value& value, const std::string& key) {
  // 2^digits is exact as a double, unlike the type's maximum for 64 bits.
  const double limit = std::ldexp(1.0, std::numeric_limits<Int>::digits);
  double v = value.is_number() ? value.as_double() : -1.0;
  if (!(v >= 0.0 && v < limit) || v != std::floor(v)) {
    throw std::runtime_error("recovery policy: '" + key + "' must be an integer in [0, " +
                             std::to_string(std::numeric_limits<Int>::max()) + "]");
  }
  return static_cast<Int>(v);
}

}  // namespace

RecoveryPolicy policy_from_json(const json::Value& doc) {
  if (!doc.is_object()) throw std::runtime_error("recovery policy must be an object");
  RecoveryPolicy p;
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "max_retries") {
      p.max_retries = whole_number<std::size_t>(value, key);
    } else if (key == "backoff_base_s") {
      p.backoff_base_s = value.as_double();
    } else if (key == "backoff_factor") {
      p.backoff_factor = value.as_double();
    } else if (key == "backoff_jitter") {
      p.backoff_jitter = value.as_double();
    } else if (key == "jitter_seed") {
      p.jitter_seed = whole_number<unsigned>(value, key);
    } else if (key == "max_status_repolls") {
      p.max_status_repolls = whole_number<std::size_t>(value, key);
    } else if (key == "repoll_interval_s") {
      p.repoll_interval_s = value.as_double();
    } else if (key == "watchdog_timeout_s") {
      p.watchdog_timeout_s = value.as_double();
    } else if (key == "safe_state_on_escalation") {
      p.safe_state_on_escalation = value.as_bool();
    } else {
      throw std::runtime_error("recovery policy: unknown key '" + key + "'");
    }
  }
  return p;
}

json::Value policy_to_json(const RecoveryPolicy& policy) {
  json::Object out;
  out["max_retries"] = policy.max_retries;
  out["backoff_base_s"] = policy.backoff_base_s;
  out["backoff_factor"] = policy.backoff_factor;
  out["backoff_jitter"] = policy.backoff_jitter;
  out["jitter_seed"] = static_cast<double>(policy.jitter_seed);
  out["max_status_repolls"] = policy.max_status_repolls;
  out["repoll_interval_s"] = policy.repoll_interval_s;
  out["watchdog_timeout_s"] = policy.watchdog_timeout_s;
  out["safe_state_on_escalation"] = policy.safe_state_on_escalation;
  return json::Value(std::move(out));
}

std::string_view to_string(RecoveryEvent::Kind k) {
  switch (k) {
    case RecoveryEvent::Kind::Demoted: return "demoted";
    case RecoveryEvent::Kind::Retry: return "retry";
    case RecoveryEvent::Kind::Repoll: return "repoll";
    case RecoveryEvent::Kind::WatchdogExpired: return "watchdog_expired";
    case RecoveryEvent::Kind::Quarantine: return "quarantine";
    case RecoveryEvent::Kind::SafeState: return "safe_state";
    case RecoveryEvent::Kind::Halt: return "halt";
  }
  return "unknown";
}

json::Value RecoveryReport::to_json() const {
  json::Object out;
  out["retries"] = retries;
  out["repolls"] = repolls;
  out["transients_absorbed"] = transients_absorbed;
  out["watchdog_expirations"] = watchdog_expirations;
  json::Array q;
  for (const std::string& d : quarantined) q.emplace_back(d);
  out["quarantined"] = std::move(q);
  out["safe_state_executed"] = safe_state_executed;
  out["safe_state_commands"] = safe_state_commands;
  out["safe_state_failures"] = safe_state_failures;
  out["halted"] = halted;
  out["recovery_time_s"] = recovery_time_s;
  json::Array evs;
  for (const RecoveryEvent& e : events) {
    json::Object ev;
    ev["kind"] = std::string(to_string(e.kind));
    ev["device"] = e.device;
    ev["action"] = e.action;
    if (e.attempt > 0) ev["attempt"] = e.attempt;
    ev["t"] = e.modeled_time_s;
    if (!e.note.empty()) ev["note"] = e.note;
    evs.emplace_back(std::move(ev));
  }
  out["events"] = std::move(evs);
  out["demotions"] = demotions;
  json::Array asr;
  for (const assurance::AssuranceEvent& e : assurance) asr.emplace_back(e.to_json());
  out["assurance"] = std::move(asr);
  return json::Value(std::move(out));
}

std::string RecoveryReport::describe() const {
  std::ostringstream os;
  os << "recovery: " << retries << " retries, " << repolls << " repolls, "
     << transients_absorbed << " transients absorbed";
  if (demotions > 0) os << ", " << demotions << " demotions to the safe controller";
  if (watchdog_expirations > 0) os << ", " << watchdog_expirations << " watchdog expirations";
  if (!quarantined.empty()) {
    os << "; quarantined:";
    for (const std::string& d : quarantined) os << " " << d;
  }
  if (safe_state_executed) {
    os << "; safe state executed (" << safe_state_commands << " commands, "
       << safe_state_failures << " failed)";
  }
  if (halted) os << "; HALTED";
  return os.str();
}

namespace {

dev::Command make_cmd(const std::string& device, const char* action, json::Object args = {}) {
  dev::Command c;
  c.device = device;
  c.action = action;
  c.args = json::Value(std::move(args));
  return c;
}

}  // namespace

std::vector<dev::Command> safe_state_sequence(const sim::LabBackend& backend,
                                              const std::set<std::string>& quarantined) {
  std::vector<dev::Command> out;
  const dev::DeviceRegistry& registry = backend.registry();

  auto skip = [&quarantined](const dev::Device& d) { return quarantined.contains(d.id()); };

  // 1. Park every arm. Arms go first so that no door below closes onto an
  //    arm still reaching inside a station.
  for (const dev::Device* d : registry.all()) {
    if (skip(*d)) continue;
    if (dynamic_cast<const dev::RobotArmDevice*>(d) != nullptr) {
      out.push_back(make_cmd(d->id(), "go_sleep"));
    }
  }

  // 2. Close every software-controlled door that is currently open (a
  //    broken actuator would only reject the command).
  for (const dev::Device* d : registry.all()) {
    if (skip(*d)) continue;
    for (const dev::Door& door : d->doors()) {
      if (d->door_status(door.name) != "open") continue;
      json::Object args;
      args["state"] = "closed";
      if (!door.name.empty()) args["door"] = door.name;  // multi-door stations
      out.push_back(make_cmd(d->id(), "set_door", std::move(args)));
    }
  }

  // 3. Stop everything that heats, shakes, spins, or doses.
  for (const dev::Device* d : registry.all()) {
    if (skip(*d)) continue;
    if (const auto* hp = dynamic_cast<const dev::HotplateModel*>(d)) {
      if (hp->active() || hp->target_c() > 25.0) out.push_back(make_cmd(d->id(), "stop"));
    } else if (const auto* ts = dynamic_cast<const dev::ThermoshakerModel*>(d)) {
      if (ts->active()) out.push_back(make_cmd(d->id(), "stop"));
    } else if (const auto* cf = dynamic_cast<const dev::CentrifugeModel*>(d)) {
      if (cf->spinning()) out.push_back(make_cmd(d->id(), "stop_spin"));
    } else if (const auto* dosing = dynamic_cast<const dev::DosingDeviceModel*>(d)) {
      if (dosing->running()) out.push_back(make_cmd(d->id(), "stop_action"));
    } else if (const auto* gen = dynamic_cast<const dev::GenericActionDevice*>(d)) {
      if (gen->active()) out.push_back(make_cmd(d->id(), "stop"));
    } else if (const auto* multi = dynamic_cast<const dev::MultiDoorStation*>(d)) {
      if (multi->active()) out.push_back(make_cmd(d->id(), "stop"));
    }
  }
  return out;
}

}  // namespace rabit::recovery
