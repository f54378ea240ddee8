// rabit::recovery — supervised recovery from transient device faults.
//
// The paper's Fig. 2 algorithm answers every anomaly with alertAndStop.
// That is the right call for script bugs (preconditions) but fatal for
// month-long autonomous campaigns, where real labs mostly see *transient*
// faults — busy firmware, a dropped status read, a stale snapshot — that a
// retry would absorb. Following SOTER's runtime-assurance argument
// (graceful degradation to a safe controller instead of a hard stop), this
// module provides:
//
//   * RecoveryPolicy  — bounded retries with exponential backoff + jitter
//                       in *modeled* time, a per-command watchdog timeout,
//                       and status re-polls before declaring a malfunction
//                       (so a stale read is never confused with damage);
//   * the escalation ladder — retry → re-poll → quarantine the device →
//                       execute a safe-state sequence (park arms, close
//                       doors, stop heaters) → halt;
//   * RecoveryReport  — a structured account of everything the ladder did,
//                       serializable for post-mortems and benches.
//
// The trace::Supervisor drives the ladder; this library keeps the policy,
// the deterministic backoff math, and the safe-state builder.
#pragma once

#include <random>
#include <set>

#include "assurance/assurance.hpp"
#include "devices/device.hpp"
#include "json/json.hpp"
#include "sim/backend.hpp"

namespace rabit::recovery {

/// Tunable knobs of the supervised-recovery ladder. Defaults absorb the
/// chaos campaign's transient faults (clear ≤ 3 attempts or ≤ 4 modeled
/// seconds) with margin.
struct RecoveryPolicy {
  /// Retry budget per command (shared by firmware rejections and
  /// postcondition divergences). 0 disables retries.
  std::size_t max_retries = 4;
  /// Exponential backoff in modeled seconds: wait base * factor^(attempt-1),
  /// times a deterministic jitter in [1 - jitter, 1 + jitter].
  double backoff_base_s = 0.5;
  double backoff_factor = 2.0;
  double backoff_jitter = 0.25;
  /// Seed for the jitter stream (same seed ⇒ same waits ⇒ same trace).
  unsigned jitter_seed = 1;
  /// Status re-polls taken before a divergence is judged real (stale-read
  /// filter), and the modeled wait between them.
  std::size_t max_status_repolls = 3;
  double repoll_interval_s = 0.5;
  /// Per-command watchdog: once a command has consumed this much modeled
  /// time across attempts and waits, the ladder stops retrying and
  /// escalates.
  double watchdog_timeout_s = 60.0;
  /// Run the safe-state sequence when escalating (park arms, close doors,
  /// stop heaters) before halting.
  bool safe_state_on_escalation = true;
};

/// One problem validate() found with a policy. Fatal issues make the ladder
/// nonsensical (the Supervisor refuses the policy); advisory ones are merely
/// suspicious and surface as config-lint warnings.
struct PolicyIssue {
  bool fatal = false;
  std::string message;
};

/// Sum of the worst-case ladder for ONE command under `policy`: every retry
/// wait at maximum jitter plus every status re-poll interval. A watchdog
/// shorter than this can expire mid-ladder on a fault the ladder was sized
/// to absorb.
[[nodiscard]] double worst_case_ladder_s(const RecoveryPolicy& policy);

/// Validates a policy. Fatal: non-positive backoff_base_s/repoll_interval_s/
/// watchdog_timeout_s, backoff_factor < 1, jitter outside [0, 1). Advisory:
/// watchdog_timeout_s < worst_case_ladder_s (the ladder cannot finish).
[[nodiscard]] std::vector<PolicyIssue> validate(const RecoveryPolicy& policy);

/// Parses the optional top-level "recovery" object of a RABIT config:
///   {"max_retries": 4, "backoff_base_s": 0.5, "backoff_factor": 2.0,
///    "backoff_jitter": 0.25, "jitter_seed": 1, "max_status_repolls": 3,
///    "repoll_interval_s": 0.5, "watchdog_timeout_s": 60.0,
///    "safe_state_on_escalation": true}
/// Unknown keys throw std::runtime_error naming the key, and so does a
/// max_retries, max_status_repolls or jitter_seed that is not an exact
/// integer in its type's range. All fields are optional and default to
/// RecoveryPolicy{}. Checking the other values is validate()'s job.
[[nodiscard]] RecoveryPolicy policy_from_json(const json::Value& doc);
[[nodiscard]] json::Value policy_to_json(const RecoveryPolicy& policy);

/// Deterministic backoff-wait generator. One instance per supervised run.
class BackoffClock {
 public:
  explicit BackoffClock(const RecoveryPolicy& policy)
      : policy_(policy), rng_(policy.jitter_seed) {}

  /// Modeled wait before retry number `attempt` (1-based).
  [[nodiscard]] double wait_s(std::size_t attempt);

  /// Restarts the jitter stream (call from Supervisor::start so that
  /// re-running a workflow reproduces the identical trace).
  void reset() { rng_.seed(policy_.jitter_seed); }

 private:
  RecoveryPolicy policy_;
  std::mt19937 rng_;
};

/// What one entry of the ladder did.
struct RecoveryEvent {
  enum class Kind { Demoted, Retry, Repoll, WatchdogExpired, Quarantine, SafeState, Halt };
  Kind kind = Kind::Retry;
  std::string device;
  std::string action;
  std::size_t attempt = 0;     ///< retry/re-poll ordinal (1-based) where meaningful
  double modeled_time_s = 0.0; ///< backend clock when the event happened
  std::string note;
};

[[nodiscard]] std::string_view to_string(RecoveryEvent::Kind k);

/// Structured account of a supervised run's recovery activity.
struct RecoveryReport {
  std::size_t retries = 0;             ///< command re-attempts taken
  std::size_t repolls = 0;             ///< status re-polls taken
  std::size_t transients_absorbed = 0; ///< commands that needed the ladder but completed
  std::size_t watchdog_expirations = 0;
  std::vector<std::string> quarantined;  ///< devices removed from service
  bool safe_state_executed = false;
  std::size_t safe_state_commands = 0;
  std::size_t safe_state_failures = 0;
  bool halted = false;
  double recovery_time_s = 0.0;  ///< modeled time spent waiting and re-polling
  std::vector<RecoveryEvent> events;
  /// Runtime-assurance rung (top of the ladder): commands demoted to the
  /// verified-safe controller before execution, with the barrier math that
  /// justified each switch.
  std::size_t demotions = 0;
  std::vector<assurance::AssuranceEvent> assurance;

  [[nodiscard]] bool escalated() const { return !quarantined.empty() || halted; }
  [[nodiscard]] json::Value to_json() const;
  [[nodiscard]] std::string describe() const;
};

/// Builds the open-loop safe-state sequence for `backend`: park every arm
/// (go_sleep), then close every software-controlled door, then stop every
/// heater/shaker/spinner/doser. Arms park first so no door closes onto an
/// arm still inside a station. Commands targeting `quarantined` devices are
/// skipped — a quarantined controller cannot be trusted to execute them.
[[nodiscard]] std::vector<dev::Command> safe_state_sequence(
    const sim::LabBackend& backend, const std::set<std::string>& quarantined = {});

}  // namespace rabit::recovery
