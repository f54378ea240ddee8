// rabit::trace — the RATracer-equivalent interception layer (paper §II-C).
//
// The paper reconfigures RATracer so that every traced device command is
// first checked with RABIT: on an alert the experiment halts (a Python
// exception in the original); otherwise the command is forwarded to the
// device. This module provides the same intercept-check-forward pipeline
// (Supervisor), plus trace recording and replay in a JSONL format shared
// with the RAD dataset tooling.
//
// Fig. 2 lines 12-16 (execute, FetchState, compare, alertAndStop, resync)
// run in one place: the recovery::RecoveryPolicy ladder. The paper's
// alert-and-stop is that ladder with no budget, which is what a Supervisor
// without Options::recovery runs. With a policy, transient firmware
// rejections and postcondition divergences are retried with backoff in
// modeled time, suspicious status reads are re-polled before a malfunction
// is declared, and exhausted recovery escalates (quarantine → safe state →
// halt). Every retry and re-poll is a first-class trace record, so a
// replayed JSONL shows exactly what the ladder did.
#pragma once

#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "assurance/assurance.hpp"
#include "core/engine.hpp"
#include "devices/device.hpp"
#include "obs/obs.hpp"
#include "recovery/recovery.hpp"
#include "sim/backend.hpp"

namespace rabit::trace {

/// What happened to one intercepted command (or recovery sub-step).
enum class Outcome {
  Executed,        ///< forwarded and executed normally
  SilentlySkipped, ///< controller quietly ignored it (unreachable target)
  FirmwareError,   ///< the device's own firmware refused it
  Blocked,         ///< RABIT alerted before execution; never forwarded
  MalfunctionFlagged,  ///< executed, then the postcondition check alerted
  TransientRetry,  ///< recovery ladder re-attempted the command
  StatusRepoll,    ///< recovery ladder re-polled status before judging
  SafeState,       ///< command issued by the safe-state escalation sequence
  Quarantined,     ///< the command's device was removed from service
  Demoted,         ///< runtime assurance switched to the verified-safe
                   ///< controller before the barrier floor could be crossed;
                   ///< the advanced command was never forwarded
};

[[nodiscard]] std::string_view to_string(Outcome o);

struct TraceRecord {
  dev::Command command;
  Outcome outcome = Outcome::Executed;
  std::string alert_rule;     ///< rule id when RABIT alerted
  std::string alert_message;
  std::size_t damage_events = 0;  ///< ground-truth damage caused by this command
  std::size_t attempt = 0;  ///< recovery attempt / re-poll ordinal (1-based; 0 = n/a)
};

/// Raised by TraceLog::from_jsonl in strict mode: carries the 1-based JSONL
/// line number of the offending record so tools can point at it.
class TraceParseError : public std::runtime_error {
 public:
  TraceParseError(const std::string& message, std::size_t line_number)
      : std::runtime_error("line " + std::to_string(line_number) + ": " + message),
        line_number_(line_number) {}

  [[nodiscard]] std::size_t line_number() const { return line_number_; }

 private:
  std::size_t line_number_;
};

/// An append-only command trace, serializable to JSON-lines.
class TraceLog {
 public:
  void append(TraceRecord record) { records_.push_back(std::move(record)); }
  [[nodiscard]] const std::vector<TraceRecord>& records() const { return records_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  void clear() { records_.clear(); }

  [[nodiscard]] std::string to_jsonl() const;

  /// Parses a JSONL trace. In strict mode (the default) any malformed line
  /// raises TraceParseError naming the line and what is wrong with it; with
  /// strict=false malformed lines are skipped and counted into
  /// `*skipped_lines` (when non-null) so callers can report data loss.
  [[nodiscard]] static TraceLog from_jsonl(std::string_view text, bool strict = true,
                                           std::size_t* skipped_lines = nullptr);

 private:
  std::vector<TraceRecord> records_;
};

/// Result of supervising one command. The command itself is the caller's
/// (and the trace record's); retries and repolls stay 0 without a policy.
struct SupervisedStep {
  std::optional<core::Alert> alert;
  std::optional<sim::ExecResult> exec;  ///< absent when blocked pre-execution
  bool halted = false;                  ///< the experiment was stopped
  std::size_t retries = 0;              ///< recovery re-attempts this command consumed
  std::size_t repolls = 0;              ///< recovery status re-polls this command consumed
  /// Runtime assurance demoted this command to the verified-safe controller.
  bool demoted = false;
  /// Real (thread-CPU, not modeled) microseconds spent inside engine check
  /// calls for this command — what bench_throughput aggregates into
  /// p50/p99/p999. Thread CPU time, not wall clock: a check preempted by
  /// the scheduler mid-flight reports what it computed, not what it waited
  /// (see obs::thread_cpu_now_us).
  double check_cpu_us = 0.0;
};

/// Full-workflow report, with the indices benches need to score detection:
/// an unsafe behaviour counts as *detected* only when RABIT's alert came at
/// or before the command that caused the first ground-truth damage.
struct RunReport {
  std::vector<SupervisedStep> steps;
  bool halted = false;
  std::size_t alerts = 0;
  std::optional<std::size_t> first_alert_step;
  std::optional<std::size_t> first_damage_step;
  std::vector<sim::DamageEvent> damage;
  double modeled_runtime_s = 0.0;   ///< backend execution time
  double modeled_overhead_s = 0.0;  ///< RABIT + simulator check time
  /// Real thread-CPU seconds spent inside engine check calls across the
  /// whole run (sum of the per-step check_cpu_us samples).
  double check_cpu_s = 0.0;
  /// What the recovery ladder did, when Options::recovery or
  /// Options::assurance was set.
  std::optional<recovery::RecoveryReport> recovery;
  /// Motion commands checked at V2 level because the V3 simulator was
  /// detached (degraded mode).
  std::size_t degraded_checks = 0;

  /// Appends one supervised step, folding in its alert, damage and halt.
  void record(SupervisedStep step);

  /// Damage that RABIT prevented or at least flagged in time.
  [[nodiscard]] bool alert_preceded_damage() const;
  /// Worst severity that physically occurred.
  [[nodiscard]] std::optional<dev::Severity> max_damage_severity() const;
};

/// The intercept-check-forward pipeline. The engine is optional: running
/// without one measures the uninstrumented baseline for the latency bench.
class Supervisor {
 public:
  struct Options {
    bool halt_on_alert = true;  ///< the Hein Lab's preemptive-stop policy
    /// The recovery ladder's budgets. When set, transient faults are
    /// absorbed instead of stopping the run, and exhausted recovery
    /// escalates to quarantine + safe state before halting. When unset, the
    /// same ladder runs with no retry and no re-poll budget: the paper's
    /// alert-and-stop, with no escalation.
    std::optional<recovery::RecoveryPolicy> recovery{};
    /// When set (and an engine with a V3 simulator is attached), every
    /// motion command is screened by the runtime-assurance decision module
    /// BEFORE execution: if the planned path would dip below the barrier
    /// floor, the command is demoted to the verified-safe controller — a
    /// truncated advance to the last safe switching point, then park — and
    /// recorded as Outcome::Demoted with a structured AssuranceEvent. The
    /// ladder becomes predict → demote-to-safe → retry/re-poll → quarantine
    /// → safe-state → halt.
    std::optional<assurance::AssuranceConfig> assurance{};
    /// Observability (all non-owning; null = disabled, a single branch per
    /// hook). The sink receives one SpanRecord per intercepted command —
    /// phase timeline (canonicalize → precondition → assurance →
    /// expectation → dispatch → postcondition → recovery) plus verdict —
    /// and one RungRecord per recovery-ladder rung. A command that reaches
    /// line 11 carries expectation; an executed command always carries
    /// dispatch and (with an engine) postcondition; assurance only when the
    /// decision's slow path (the margin profile) ran; recovery only when a
    /// rung was taken. The registry accumulates counters and the
    /// check-latency histogram; run() additionally absorbs the engine's
    /// Stats counters into it.
    obs::Sink* obs_sink = nullptr;
    obs::Registry* obs_metrics = nullptr;
    /// Stream label stamped on every span/rung (each campaign shard sets
    /// it to "shard-<k>"); empty for single-stream runs.
    std::string obs_stream{};
  };

  Supervisor(core::RabitEngine* engine, sim::LabBackend* backend)
      : Supervisor(engine, backend, Options{}) {}
  Supervisor(core::RabitEngine* engine, sim::LabBackend* backend, Options options);

  /// Fig. 2 line 3: fetches the initial state and primes the engine. Also
  /// resets the recovery ladder (jitter stream, quarantine set, report).
  void start();

  /// Intercepts one command.
  SupervisedStep step(const dev::Command& cmd);

  /// Runs a whole workflow; stops early on alert when halt_on_alert is set.
  /// start(), then RunReport::record(step(cmd)) per command until a halt;
  /// the report then gets the run's modeled runtime and overhead, the
  /// recovery report and degraded checks, and the engine's Stats are
  /// exported into Options::obs_metrics.
  RunReport run(const std::vector<dev::Command>& workflow);

  [[nodiscard]] const TraceLog& log() const { return log_; }
  [[nodiscard]] sim::LabBackend& backend() { return *backend_; }
  [[nodiscard]] core::RabitEngine* engine() { return engine_; }
  [[nodiscard]] bool halted() const { return halted_; }
  [[nodiscard]] const recovery::RecoveryReport& recovery_report() const {
    return recovery_report_;
  }
  [[nodiscard]] const std::set<std::string>& quarantined() const { return quarantined_; }

 private:
  /// step() without the observability bracket (span open/finalize).
  SupervisedStep step_impl(const dev::Command& cmd);
  /// Runtime-assurance decision module: computes the barrier profile of a
  /// motion command (inflated fast query first, full margin profile only
  /// when that trips) and, on a violation, runs the verified-safe controller
  /// at the last safe switching point. Returns true when the command was
  /// demoted (the caller must not execute it).
  bool maybe_demote(const dev::Command& cmd, SupervisedStep& result, TraceRecord& record);
  /// Fig. 2 lines 12-16 with the recovery ladder's rungs between them: the
  /// one place the supervised command executes. Fills result/record.
  void execute_and_verify(const dev::Command& cmd, SupervisedStep& result, TraceRecord& record);
  /// Options::recovery, or the zero-budget policy when it is unset.
  [[nodiscard]] const recovery::RecoveryPolicy& policy() const;
  /// Raises `alert` on the step: record outcome, rule and message, and the
  /// halt when halt_on_alert is set.
  void raise_alert(core::Alert alert, Outcome outcome, SupervisedStep& result,
                   TraceRecord& record);
  /// One status re-poll rung: waits the policy's interval in modeled time,
  /// records the rung, and returns a fresh status fetch.
  sim::LabBackend::StatusFetch repoll_status(const dev::Command& cmd, SupervisedStep& result,
                                             std::size_t repoll, std::string note);
  /// Quarantine (optionally) + safe state + halt, recording every action.
  /// Does nothing without Options::recovery.
  void escalate(const dev::Command& cmd, bool quarantine_device);
  void append_recovery_record(const dev::Command& cmd, Outcome outcome, std::size_t attempt,
                              const std::string& note);

  /// The combined modeled lab clock: backend execution time plus RABIT's own
  /// modeled check overhead — the deterministic timeline obs spans live on.
  [[nodiscard]] double modeled_now() const;
  /// Emits one recovery-ladder rung to the obs sink (no-op when disabled).
  void emit_rung(std::string_view kind, const dev::Command& cmd, std::size_t attempt,
                 const std::string& note);
  void finalize_span(obs::SpanRecord& span, const SupervisedStep& result) const;
  void update_metrics(const obs::SpanRecord& span, const SupervisedStep& result);

  core::RabitEngine* engine_;
  sim::LabBackend* backend_;
  Options options_;
  TraceLog log_;
  bool halted_ = false;
  std::optional<recovery::BackoffClock> backoff_;
  recovery::RecoveryReport recovery_report_;
  std::set<std::string> quarantined_;
  /// Escalation re-entrancy guard: true while the verified-safe controller
  /// (demotion stop or safe-state sequence) is issuing commands. A permanent
  /// fault arriving *during* those commands must not re-enter the retry
  /// ladder or restart the escalation — the safe controller is open-loop by
  /// design and failures are only counted.
  bool safe_controller_active_ = false;
  obs::SpanRecord* active_span_ = nullptr;
  std::uint64_t span_seq_ = 0;
};

}  // namespace rabit::trace
