// Transient-fault schedule + supervised-recovery ladder tests: deterministic
// backoff, transient absorption (busy / dead-action / stale-status),
// watchdog and permanent-fault escalation, degraded-mode fallback, and the
// seed-reproducibility guarantee (same seed ⇒ same trace JSONL).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "analysis/analysis.hpp"
#include "core/engine.hpp"
#include "core/lab.hpp"
#include "recovery/recovery.hpp"
#include "script/workflows.hpp"
#include "sim/deck.hpp"
#include "trace/trace.hpp"

namespace rabit::trace {
namespace {

using dev::Command;
using dev::FaultSchedule;
using dev::TransientFault;
using dev::TransientKind;
namespace ids = sim::deck_ids;

Command make_cmd(std::string device, std::string action, json::Object args = {}) {
  Command c;
  c.device = std::move(device);
  c.action = std::move(action);
  c.args = json::Value(std::move(args));
  return c;
}

json::Object door(const char* state) {
  json::Object o;
  o["state"] = std::string(state);
  return o;
}

TransientFault busy_fault(const char* device, const char* action, std::size_t clears_after) {
  TransientFault f;
  f.device = device;
  f.action = action;
  f.kind = TransientKind::FirmwareBusy;
  f.clear_after_attempts = clears_after;
  return f;
}

Supervisor::Options with_recovery() {
  Supervisor::Options opts;
  opts.recovery = recovery::RecoveryPolicy{};
  return opts;
}

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : backend(sim::testbed_profile()) {
    sim::build_hein_testbed_deck(backend);
  }

  void make_engine(core::Variant variant = core::Variant::Modified) {
    engine = std::make_unique<core::RabitEngine>(core::config_from_backend(backend, variant));
  }

  sim::LabBackend backend;
  std::unique_ptr<core::RabitEngine> engine;
};

// --- deterministic backoff ---------------------------------------------------

TEST(BackoffClock, DeterministicPerSeed) {
  recovery::RecoveryPolicy policy;
  recovery::BackoffClock a(policy);
  recovery::BackoffClock b(policy);
  for (std::size_t attempt = 1; attempt <= 5; ++attempt) {
    EXPECT_DOUBLE_EQ(a.wait_s(attempt), b.wait_s(attempt)) << "attempt " << attempt;
  }
  // reset() replays the stream from the start.
  double first = b.wait_s(1);
  a.reset();
  EXPECT_DOUBLE_EQ(a.wait_s(1), recovery::BackoffClock(policy).wait_s(1));
  (void)first;
}

TEST(BackoffClock, GrowsExponentiallyWithinJitterBand) {
  recovery::RecoveryPolicy policy;
  policy.backoff_jitter = 0.25;
  recovery::BackoffClock clock(policy);
  for (std::size_t attempt = 1; attempt <= 4; ++attempt) {
    double nominal = policy.backoff_base_s;
    for (std::size_t i = 1; i < attempt; ++i) nominal *= policy.backoff_factor;
    double w = clock.wait_s(attempt);
    EXPECT_GE(w, nominal * 0.75);
    EXPECT_LE(w, nominal * 1.25);
  }
}

TEST(BackoffClock, ResetReplaysTheFullJitterStream) {
  recovery::RecoveryPolicy policy;
  recovery::BackoffClock clock(policy);
  std::vector<double> first;
  for (std::size_t attempt = 1; attempt <= 6; ++attempt) first.push_back(clock.wait_s(attempt));
  clock.reset();
  for (std::size_t attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_DOUBLE_EQ(clock.wait_s(attempt), first[attempt - 1]) << "attempt " << attempt;
  }
}

// --- policy validation + CFG11 lint ------------------------------------------

TEST(RecoveryPolicyValidation, DefaultPolicyIsClean) {
  EXPECT_TRUE(recovery::validate(recovery::RecoveryPolicy{}).empty());
}

TEST(RecoveryPolicyValidation, EveryFatalRuleFires) {
  recovery::RecoveryPolicy bad;
  bad.backoff_base_s = 0.0;
  bad.backoff_factor = 0.5;
  bad.backoff_jitter = 1.0;
  bad.repoll_interval_s = 0.0;
  bad.watchdog_timeout_s = -1.0;
  std::vector<recovery::PolicyIssue> issues = recovery::validate(bad);
  ASSERT_EQ(issues.size(), 5u);
  for (const recovery::PolicyIssue& issue : issues) EXPECT_TRUE(issue.fatal) << issue.message;
}

TEST(RecoveryPolicyValidation, ShortWatchdogIsAdvisoryOnly) {
  recovery::RecoveryPolicy tight;
  tight.watchdog_timeout_s = recovery::worst_case_ladder_s(tight) / 2.0;
  std::vector<recovery::PolicyIssue> issues = recovery::validate(tight);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_FALSE(issues[0].fatal);
  EXPECT_NE(issues[0].message.find("worst-case"), std::string::npos);
}

TEST(RecoveryPolicyValidation, ExactBoundaryValuesAreClean) {
  // Every validate() comparison sits exactly at its threshold: factor == 1,
  // jitter == 0, watchdog == one worst-case ladder. All are the last
  // admissible values, so the policy must lint clean — a drift to >= / <=
  // in any comparison flips this test.
  recovery::RecoveryPolicy edge;
  edge.backoff_factor = 1.0;
  edge.backoff_jitter = 0.0;
  edge.watchdog_timeout_s = recovery::worst_case_ladder_s(edge);
  EXPECT_TRUE(recovery::validate(edge).empty());
  EXPECT_TRUE(analysis::lint_recovery_policy(edge).diagnostics.empty());

  // One ulp-scale step past the jitter boundary is fatal: jitter == 1 can
  // zero the wait entirely.
  recovery::RecoveryPolicy over = edge;
  over.backoff_jitter = 1.0;
  // Jitter feeds the worst-case ladder; re-pin the watchdog at the new
  // ladder so only the jitter rule decides the outcome.
  over.watchdog_timeout_s = recovery::worst_case_ladder_s(over);
  std::vector<recovery::PolicyIssue> issues = recovery::validate(over);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_TRUE(issues[0].fatal);
  analysis::AnalysisReport report = analysis::lint_recovery_policy(over);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].severity, analysis::Severity::Error);
  EXPECT_EQ(report.diagnostics[0].rule, "CFG11");
}

TEST(RecoveryPolicyValidation, Cfg11LintMirrorsValidate) {
  recovery::RecoveryPolicy bad;
  bad.backoff_factor = 0.9;      // fatal → Error
  bad.watchdog_timeout_s = 0.1;  // shorter than one worst-case ladder → Warning
  analysis::AnalysisReport report = analysis::lint_recovery_policy(bad);
  ASSERT_EQ(report.diagnostics.size(), 2u);
  EXPECT_TRUE(report.has_errors());
  for (const analysis::Diagnostic& d : report.diagnostics) EXPECT_EQ(d.rule, "CFG11");
  EXPECT_EQ(report.diagnostics[0].severity, analysis::Severity::Error);
  EXPECT_EQ(report.diagnostics[1].severity, analysis::Severity::Warning);
  EXPECT_TRUE(analysis::lint_recovery_policy(recovery::RecoveryPolicy{}).diagnostics.empty());
}

TEST(RecoveryPolicyValidation, LadderSumIsClosedForm) {
  recovery::RecoveryPolicy p;  // retries wait 0.5, 1, 2, 4 s at 1.25x; 3 re-polls of 0.5 s
  EXPECT_DOUBLE_EQ(recovery::worst_case_ladder_s(p), (0.5 + 1.0 + 2.0 + 4.0) * 1.25 + 1.5);
  p.backoff_factor = 1.0;
  EXPECT_DOUBLE_EQ(recovery::worst_case_ladder_s(p), 4 * 0.5 * 1.25 + 1.5);
  p.max_retries = 0;
  EXPECT_DOUBLE_EQ(recovery::worst_case_ladder_s(p), 1.5);

  // The largest budget returns at once. A growing backoff makes the ladder
  // unbounded, so every finite watchdog is the advisory, never fatal.
  p.backoff_factor = 2.0;
  p.max_retries = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(recovery::worst_case_ladder_s(p), std::numeric_limits<double>::infinity());
  std::vector<recovery::PolicyIssue> issues = recovery::validate(p);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_FALSE(issues[0].fatal);
}

TEST(RecoveryPolicyParsing, CountsMustBeExactIntegersInRange) {
  // A negative count would wrap to 2^64 - 1 on the cast, 1e300 is undefined
  // behaviour, and 2.5 would truncate: each is an error naming its key.
  for (const char* key : {"max_retries", "max_status_repolls", "jitter_seed"}) {
    for (const char* value : {"-1", "1e300", "2.5", "18446744073709551616", "\"3\"", "true",
                              "null"}) {
      std::string text = std::string("{\"") + key + "\": " + value + "}";
      SCOPED_TRACE(text);
      try {
        (void)recovery::policy_from_json(json::parse(text));
        ADD_FAILURE() << "accepted";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
      }
    }
  }
  EXPECT_THROW((void)recovery::policy_from_json(json::parse(R"({"jitter_seed": 4294967296})")),
               std::runtime_error);

  // Exact integers anywhere in range parse, written as JSON doubles too.
  recovery::RecoveryPolicy p = recovery::policy_from_json(json::parse(
      R"({"max_retries": 0, "max_status_repolls": 7.0, "jitter_seed": 4294967295})"));
  EXPECT_EQ(p.max_retries, 0u);
  EXPECT_EQ(p.max_status_repolls, 7u);
  EXPECT_EQ(p.jitter_seed, 4294967295u);

  // What policy_to_json writes parses back.
  recovery::RecoveryPolicy round =
      recovery::policy_from_json(recovery::policy_to_json(recovery::RecoveryPolicy{}));
  EXPECT_EQ(round.max_retries, recovery::RecoveryPolicy{}.max_retries);
  EXPECT_EQ(round.max_status_repolls, recovery::RecoveryPolicy{}.max_status_repolls);
  EXPECT_EQ(round.jitter_seed, recovery::RecoveryPolicy{}.jitter_seed);
}

// --- transient absorption ----------------------------------------------------

TEST_F(RecoveryTest, FirmwareBusyAbsorbedByRetries) {
  FaultSchedule schedule;
  schedule.add(busy_fault(ids::kDosingDevice, "set_door", 2));
  backend.set_fault_schedule(std::move(schedule));

  make_engine();
  Supervisor sup(engine.get(), &backend, with_recovery());
  sup.start();
  SupervisedStep step = sup.step(make_cmd(ids::kDosingDevice, "set_door", door("open")));

  EXPECT_FALSE(step.alert.has_value());
  EXPECT_FALSE(step.halted);
  EXPECT_EQ(step.retries, 2u);
  ASSERT_TRUE(step.exec.has_value());
  EXPECT_TRUE(step.exec->executed);
  EXPECT_EQ(sup.recovery_report().retries, 2u);
  EXPECT_EQ(sup.recovery_report().transients_absorbed, 1u);
  EXPECT_GT(sup.recovery_report().recovery_time_s, 0.0);

  // Retry attempts are first-class trace entries, before the final record.
  const auto& records = sup.log().records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].outcome, Outcome::TransientRetry);
  EXPECT_EQ(records[0].attempt, 1u);
  EXPECT_EQ(records[1].outcome, Outcome::TransientRetry);
  EXPECT_EQ(records[1].attempt, 2u);
  EXPECT_EQ(records[2].outcome, Outcome::Executed);
}

TEST_F(RecoveryTest, FirmwareBusyWithoutRecoveryIsAFalseHalt) {
  FaultSchedule schedule;
  schedule.add(busy_fault(ids::kDosingDevice, "set_door", 2));
  backend.set_fault_schedule(std::move(schedule));

  make_engine();
  Supervisor sup(engine.get(), &backend);  // paper policy: alert-and-stop
  sup.start();
  SupervisedStep step = sup.step(make_cmd(ids::kDosingDevice, "set_door", door("open")));

  // The transient rejection leaves the door closed while RABIT expected it
  // open — without recovery the run halts on a fault a retry would absorb.
  ASSERT_TRUE(step.alert.has_value());
  EXPECT_EQ(step.alert->kind, core::AlertKind::DeviceMalfunction);
  EXPECT_TRUE(step.halted);
}

TEST_F(RecoveryTest, DeadActionRetriedToCompletion) {
  TransientFault f;
  f.device = ids::kDosingDevice;
  f.action = "set_door";
  f.kind = TransientKind::DeadAction;
  f.clear_after_attempts = 1;
  FaultSchedule schedule;
  schedule.add(f);
  backend.set_fault_schedule(std::move(schedule));

  make_engine();
  Supervisor sup(engine.get(), &backend, with_recovery());
  sup.start();
  SupervisedStep step = sup.step(make_cmd(ids::kDosingDevice, "set_door", door("open")));

  EXPECT_FALSE(step.alert.has_value());
  EXPECT_GE(step.repolls, 1u);  // the divergence was re-polled before retrying
  EXPECT_GE(step.retries, 1u);
  const auto& hp = backend.registry().at(ids::kDosingDevice);
  EXPECT_EQ(hp.observed_state().at("doorStatus").as_string(), "open");
  EXPECT_EQ(engine->stats().malfunction_alerts, 0u);
}

TEST_F(RecoveryTest, CommandTheLadderDidNotSaveIsNotAbsorbed) {
  // A busy fault that never clears outlasts a one-retry budget. The ladder
  // ran, but the command never executed, so no transient was absorbed.
  FaultSchedule schedule;
  schedule.add(busy_fault(ids::kViperX, "open_gripper", 0));
  backend.set_fault_schedule(std::move(schedule));

  recovery::RecoveryPolicy policy;
  policy.max_retries = 1;
  Supervisor::Options opts;
  opts.recovery = policy;

  make_engine();
  Supervisor sup(engine.get(), &backend, opts);
  sup.start();
  SupervisedStep step = sup.step(make_cmd(ids::kViperX, "open_gripper"));

  ASSERT_TRUE(step.exec.has_value());
  EXPECT_FALSE(step.exec->executed);
  EXPECT_EQ(step.retries, 1u);
  EXPECT_EQ(sup.log().records().back().outcome, Outcome::FirmwareError);
  EXPECT_EQ(sup.recovery_report().transients_absorbed, 0u);
}

/// A dosing run whose step takes a rung before and after its check: the
/// door is closed behind RABIT's back, so G9 fires on the stale tracked
/// door and clears on the first re-poll; then run_action meets a
/// FirmwareBusy fault that clears after `busy_attempts` (0: never).
SupervisedStep repolled_then_busy_run_action(core::Lab& lab, Supervisor& sup,
                                             std::size_t busy_attempts) {
  sup.start();
  EXPECT_FALSE(sup.step(make_cmd(ids::kDosingDevice, "set_door", door("open"))).alert);
  (void)lab.backend.execute(make_cmd(ids::kDosingDevice, "set_door", door("closed")));
  FaultSchedule schedule;
  schedule.add(busy_fault(ids::kDosingDevice, "run_action", busy_attempts));
  lab.backend.set_fault_schedule(std::move(schedule));
  json::Object quantity;
  quantity["quantity"] = 5;
  return sup.step(make_cmd(ids::kDosingDevice, "run_action", std::move(quantity)));
}

TEST(RecoveryAbsorption, PreconditionRepollAndRetryCountOneCommandOnce) {
  core::Lab lab{core::Variant::Modified};
  Supervisor::Options opts = with_recovery();
  opts.halt_on_alert = false;
  Supervisor sup(&lab.engine, &lab.backend, opts);
  SupervisedStep step = repolled_then_busy_run_action(lab, sup, 1);

  EXPECT_FALSE(step.alert.has_value());
  EXPECT_EQ(step.repolls, 1u);
  EXPECT_EQ(step.retries, 1u);
  ASSERT_TRUE(step.exec.has_value());
  EXPECT_TRUE(step.exec->executed);
  EXPECT_EQ(sup.recovery_report().transients_absorbed, 1u);
}

TEST(RecoveryAbsorption, PreconditionRepollOnACommandThatNeverExecutesIsNotAbsorbed) {
  core::Lab lab{core::Variant::Modified};
  Supervisor::Options opts = with_recovery();
  opts.halt_on_alert = false;
  Supervisor sup(&lab.engine, &lab.backend, opts);
  SupervisedStep step = repolled_then_busy_run_action(lab, sup, 0);

  ASSERT_TRUE(step.alert.has_value());
  EXPECT_EQ(step.alert->rule, "POST");
  ASSERT_TRUE(step.exec.has_value());
  EXPECT_FALSE(step.exec->executed);
  EXPECT_EQ(sup.recovery_report().transients_absorbed, 0u);
}

TEST_F(RecoveryTest, PreconditionRepollWaitsAreRecoveryTime) {
  // A move_to without a position is a G3 alert that re-checks identically,
  // so every precondition re-poll is taken, and each one waits.
  make_engine();
  Supervisor::Options opts = with_recovery();
  opts.halt_on_alert = false;  // no safe-state sequence to advance the clock
  Supervisor sup(engine.get(), &backend, opts);
  sup.start();
  const double clock_before = backend.modeled_clock_s();
  SupervisedStep step = sup.step(make_cmd(ids::kViperX, "move_to"));

  ASSERT_TRUE(step.alert.has_value());
  EXPECT_EQ(step.alert->rule, "G3");
  const recovery::RecoveryPolicy& policy = *opts.recovery;
  EXPECT_EQ(step.repolls, policy.max_status_repolls);
  const double waited = backend.modeled_clock_s() - clock_before;
  EXPECT_DOUBLE_EQ(waited, static_cast<double>(policy.max_status_repolls) *
                               policy.repoll_interval_s);
  EXPECT_DOUBLE_EQ(sup.recovery_report().recovery_time_s, waited);
}

TEST_F(RecoveryTest, StaleStatusClearedByRepollAlone) {
  TransientFault f;
  f.device = ids::kDosingDevice;
  f.kind = TransientKind::StaleStatus;
  f.clear_after_attempts = 3;  // start() reads once; the verify read is stale
  FaultSchedule schedule;
  schedule.add(f);
  backend.set_fault_schedule(std::move(schedule));

  make_engine();
  Supervisor sup(engine.get(), &backend, with_recovery());
  sup.start();
  SupervisedStep step = sup.step(make_cmd(ids::kDosingDevice, "set_door", door("open")));

  EXPECT_FALSE(step.alert.has_value());
  EXPECT_GE(step.repolls, 1u);
  EXPECT_EQ(step.retries, 0u);  // no command re-issue: the read was the lie
  EXPECT_EQ(sup.recovery_report().transients_absorbed, 1u);
}

TEST_F(RecoveryTest, StatusTimeoutSubstitutesCachedSnapshot) {
  (void)backend.fetch_status();  // prime the cache

  TransientFault f;
  f.device = ids::kHotplate;
  f.kind = TransientKind::StatusTimeout;
  f.clear_after_attempts = 1;
  FaultSchedule schedule;
  schedule.add(f);
  backend.set_fault_schedule(std::move(schedule));

  sim::LabBackend::StatusFetch fetch = backend.fetch_status();
  ASSERT_EQ(fetch.timed_out.size(), 1u);
  EXPECT_EQ(fetch.timed_out[0], ids::kHotplate);
  EXPECT_FALSE(fetch.complete());
  EXPECT_TRUE(fetch.snapshot().contains(ids::kHotplate));  // cache substituted

  sim::LabBackend::StatusFetch after = backend.fetch_status();
  EXPECT_TRUE(after.complete());  // fault cleared by attempts
}

// --- escalation --------------------------------------------------------------

TEST_F(RecoveryTest, PermanentFaultEscalatesThroughTheLadder) {
  dev::FaultPlan plan;
  plan.dead_actions = {"set_door"};
  FaultSchedule schedule;
  schedule.add_permanent(ids::kDosingDevice, plan);
  backend.set_fault_schedule(std::move(schedule));

  make_engine();
  Supervisor sup(engine.get(), &backend, with_recovery());
  RunReport report = sup.run({make_cmd(ids::kDosingDevice, "set_door", door("open"))});

  EXPECT_TRUE(report.halted);
  EXPECT_EQ(report.alerts, 1u);
  ASSERT_TRUE(report.recovery.has_value());
  const recovery::RecoveryReport& rec = *report.recovery;
  EXPECT_TRUE(rec.halted);
  EXPECT_TRUE(rec.escalated());
  ASSERT_EQ(rec.quarantined.size(), 1u);
  EXPECT_EQ(rec.quarantined[0], ids::kDosingDevice);
  EXPECT_TRUE(rec.safe_state_executed);
  EXPECT_GT(rec.retries, 0u);
  EXPECT_GT(rec.repolls, 0u);

  // Ladder events land in the trace as first-class records.
  bool saw_quarantine = false, saw_safe_state = false;
  for (const TraceRecord& r : sup.log().records()) {
    saw_quarantine |= r.outcome == Outcome::Quarantined;
    saw_safe_state |= r.outcome == Outcome::SafeState;
  }
  EXPECT_TRUE(saw_quarantine);
  EXPECT_TRUE(saw_safe_state);

  // The report serializes and describes itself.
  json::Value doc = rec.to_json();
  EXPECT_TRUE(doc.is_object());
  EXPECT_NE(rec.describe().find("quarantined"), std::string::npos);
}

TEST_F(RecoveryTest, WatchdogExpiryStopsRetrying) {
  TransientFault f = busy_fault(ids::kDosingDevice, "set_door", 0);  // never clears
  FaultSchedule schedule;
  schedule.add(f);
  backend.set_fault_schedule(std::move(schedule));

  recovery::RecoveryPolicy policy;
  // Zero is now rejected by Supervisor's policy validation; any budget
  // smaller than one command's modeled latency expires before the first
  // retry is considered, which is the behavior under test.
  policy.watchdog_timeout_s = 1e-6;
  Supervisor::Options opts;
  opts.recovery = policy;

  make_engine();
  Supervisor sup(engine.get(), &backend, opts);
  sup.start();
  SupervisedStep step = sup.step(make_cmd(ids::kDosingDevice, "set_door", door("open")));

  ASSERT_TRUE(step.alert.has_value());
  EXPECT_TRUE(step.halted);
  EXPECT_EQ(step.retries, 0u);  // the watchdog forbade every retry
  EXPECT_GE(sup.recovery_report().watchdog_expirations, 1u);
}

TEST_F(RecoveryTest, WatchdogBoundaryIsStrict) {
  // The retry gate is `clock < deadline`, with the deadline fixed when the
  // command enters the ladder. A rejected attempt charges exactly one
  // command latency, so a budget of exactly that latency lands the clock ON
  // the deadline — and the strict comparison forbids the retry.
  FaultSchedule schedule;
  schedule.add(busy_fault(ids::kDosingDevice, "set_door", 0));  // never clears
  backend.set_fault_schedule(std::move(schedule));

  recovery::RecoveryPolicy policy;
  policy.watchdog_timeout_s = sim::testbed_profile().command_latency_s;
  Supervisor::Options opts;
  opts.recovery = policy;

  make_engine();
  Supervisor sup(engine.get(), &backend, opts);
  sup.start();
  SupervisedStep step = sup.step(make_cmd(ids::kDosingDevice, "set_door", door("open")));

  EXPECT_TRUE(step.halted);
  EXPECT_EQ(step.retries, 0u);  // at the exact boundary, < is false
  EXPECT_GE(sup.recovery_report().watchdog_expirations, 1u);
}

TEST_F(RecoveryTest, WatchdogJustPastBoundaryAdmitsExactlyOneRetry) {
  FaultSchedule schedule;
  schedule.add(busy_fault(ids::kDosingDevice, "set_door", 0));  // never clears
  backend.set_fault_schedule(std::move(schedule));

  recovery::RecoveryPolicy policy;
  // Epsilon past the first attempt's cost: retry #1 is admitted, and the
  // retry itself (backoff wait + command latency) blows the budget long
  // before retry #2 is considered.
  policy.watchdog_timeout_s = sim::testbed_profile().command_latency_s + 1e-3;
  Supervisor::Options opts;
  opts.recovery = policy;

  make_engine();
  Supervisor sup(engine.get(), &backend, opts);
  sup.start();
  SupervisedStep step = sup.step(make_cmd(ids::kDosingDevice, "set_door", door("open")));

  EXPECT_TRUE(step.halted);
  EXPECT_EQ(step.retries, 1u);
  EXPECT_GE(sup.recovery_report().watchdog_expirations, 1u);
}

TEST_F(RecoveryTest, ZeroRetryBudgetEscalatesImmediately) {
  FaultSchedule schedule;
  schedule.add(busy_fault(ids::kDosingDevice, "set_door", 0));  // never clears
  backend.set_fault_schedule(std::move(schedule));

  recovery::RecoveryPolicy policy;
  policy.max_retries = 0;  // documented: 0 disables retries
  Supervisor::Options opts;
  opts.recovery = policy;

  make_engine();
  Supervisor sup(engine.get(), &backend, opts);
  sup.start();
  SupervisedStep step = sup.step(make_cmd(ids::kDosingDevice, "set_door", door("open")));

  ASSERT_TRUE(step.alert.has_value());
  EXPECT_TRUE(step.halted);
  EXPECT_EQ(step.retries, 0u);
  const recovery::RecoveryReport& rec = sup.recovery_report();
  EXPECT_TRUE(rec.escalated());
  ASSERT_EQ(rec.quarantined.size(), 1u);
  EXPECT_EQ(rec.quarantined[0], ids::kDosingDevice);
  EXPECT_TRUE(rec.safe_state_executed);
  EXPECT_EQ(rec.watchdog_expirations, 0u);  // budget, not time, ended the ladder
}

TEST_F(RecoveryTest, StaleStatusClearingOnFinalRepollStillAbsorbs) {
  recovery::RecoveryPolicy policy;  // max_status_repolls = 3

  TransientFault f;
  f.device = ids::kDosingDevice;
  f.kind = TransientKind::StaleStatus;
  // Reads: start() (fresh — nothing cached yet), the verify read, then the
  // re-polls; the fault stays stale through read #clear_after_attempts.
  // Clearing on the LAST allowed re-poll is the boundary the stale-read
  // filter was sized for: one read later and the divergence would cost a
  // command re-issue.
  f.clear_after_attempts = 1 + policy.max_status_repolls;
  FaultSchedule schedule;
  schedule.add(f);
  backend.set_fault_schedule(std::move(schedule));

  make_engine();
  Supervisor::Options opts;
  opts.recovery = policy;
  Supervisor sup(engine.get(), &backend, opts);
  sup.start();
  SupervisedStep step = sup.step(make_cmd(ids::kDosingDevice, "set_door", door("open")));

  EXPECT_FALSE(step.alert.has_value());
  EXPECT_FALSE(step.halted);
  EXPECT_EQ(step.repolls, policy.max_status_repolls);
  EXPECT_EQ(step.retries, 0u);  // absorbed by re-polling alone
  EXPECT_EQ(sup.recovery_report().transients_absorbed, 1u);
}

TEST_F(RecoveryTest, SupervisorRefusesFatallyInvalidPolicy) {
  recovery::RecoveryPolicy bad;
  bad.backoff_base_s = 0.0;
  Supervisor::Options opts;
  opts.recovery = bad;
  make_engine();
  EXPECT_THROW(Supervisor(engine.get(), &backend, opts), std::invalid_argument);
}

TEST_F(RecoveryTest, SafeStateSequenceParksClosesAndStops) {
  // Drive the deck into an unsafe-ish configuration without RABIT watching.
  (void)backend.execute(make_cmd(ids::kDosingDevice, "set_door", door("open")));
  (void)backend.execute(make_cmd(ids::kHotplate, "set_temperature", [] {
    json::Object o;
    o["celsius"] = 80.0;
    return o;
  }()));

  std::vector<Command> seq = recovery::safe_state_sequence(backend);
  bool park_viperx = false, park_ned2 = false, close_dosing = false, stop_hotplate = false;
  for (const Command& c : seq) {
    if (c.action == "go_sleep" && c.device == ids::kViperX) park_viperx = true;
    if (c.action == "go_sleep" && c.device == ids::kNed2) park_ned2 = true;
    if (c.device == ids::kDosingDevice && c.action == "set_door") close_dosing = true;
    if (c.device == ids::kHotplate && c.action == "stop") stop_hotplate = true;
  }
  EXPECT_TRUE(park_viperx);
  EXPECT_TRUE(park_ned2);
  EXPECT_TRUE(close_dosing);
  EXPECT_TRUE(stop_hotplate);

  // Arms park before any door closes (no door may shut on a reaching arm).
  std::size_t last_park = 0, first_door = seq.size();
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (seq[i].action == "go_sleep") last_park = i;
    if (seq[i].action == "set_door" && first_door == seq.size()) first_door = i;
  }
  EXPECT_LT(last_park, first_door);

  for (const Command& c : seq) (void)backend.execute(c);
  EXPECT_EQ(backend.registry().at(ids::kDosingDevice).observed_state().at("doorStatus")
                .as_string(),
            "closed");
  EXPECT_EQ(backend.registry().at(ids::kHotplate).observed_state().at("active").as_int(), 0);

  // Quarantined devices are skipped: nothing may command an untrusted
  // controller.
  (void)backend.execute(make_cmd(ids::kDosingDevice, "set_door", door("open")));
  std::vector<Command> without = recovery::safe_state_sequence(backend, {ids::kDosingDevice});
  for (const Command& c : without) EXPECT_NE(c.device, ids::kDosingDevice);
}

// --- degraded mode -----------------------------------------------------------

TEST_F(RecoveryTest, SimulatorDetachmentDegradesToV2WithCountedWarning) {
  core::Lab lab(core::Variant::ModifiedWithSim);
  core::RabitEngine& engine = lab.engine;
  EXPECT_FALSE(engine.degraded());

  // Mid-run detachment: the simulator process crashed or disconnected.
  engine.attach_simulator(nullptr);
  EXPECT_TRUE(engine.degraded());

  Supervisor sup(&engine, &lab.backend, with_recovery());
  std::vector<Command> workflow =
      script::record_workflow(lab.backend, script::testbed_workflow_source());
  RunReport report = sup.run(workflow);

  EXPECT_FALSE(report.halted);
  EXPECT_GT(report.degraded_checks, 0u);  // skipped replays counted, not lost
  EXPECT_EQ(report.degraded_checks, engine.stats().degraded_checks);
}

// --- seed determinism --------------------------------------------------------

std::vector<std::pair<std::string, std::string>> distinct_pairs(
    const std::vector<Command>& workflow) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const Command& c : workflow) {
    std::pair<std::string, std::string> p{c.device, c.action};
    if (std::find(pairs.begin(), pairs.end(), p) == pairs.end()) pairs.push_back(p);
  }
  return pairs;
}

TEST(ChaosSchedule, SameSeedSameFaults) {
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"dosing_device", "set_door"}, {"hotplate", "set_temperature"}, {"viperx", "move_to"}};
  FaultSchedule a = FaultSchedule::chaos(99, pairs);
  FaultSchedule b = FaultSchedule::chaos(99, pairs);
  ASSERT_EQ(a.transients().size(), b.transients().size());
  for (std::size_t i = 0; i < a.transients().size(); ++i) {
    const TransientFault& fa = a.transients()[i];
    const TransientFault& fb = b.transients()[i];
    EXPECT_EQ(fa.device, fb.device);
    EXPECT_EQ(fa.action, fb.action);
    EXPECT_EQ(fa.kind, fb.kind);
    EXPECT_DOUBLE_EQ(fa.start_s, fb.start_s);
    EXPECT_DOUBLE_EQ(fa.clear_after_s, fb.clear_after_s);
    EXPECT_EQ(fa.clear_after_attempts, fb.clear_after_attempts);
  }
  // DeadAction faults only strike tracked actions — a dead arm move would
  // reproduce the paper's position blind spot, not a recoverable transient.
  FaultSchedule dead_check = FaultSchedule::chaos(3, pairs);
  for (const TransientFault& f : dead_check.transients()) {
    if (f.kind == TransientKind::DeadAction) {
      EXPECT_NE(f.action, "move_to");
    }
  }
}

TEST(ChaosSchedule, SameSeedSameTraceJsonl) {
  struct RunResult {
    std::string jsonl;
    bool halted = false;
    std::size_t absorbed = 0;
  };
  auto run_once = [](unsigned seed) {
    sim::LabBackend backend(sim::testbed_profile());
    sim::build_hein_testbed_deck(backend);
    std::vector<Command> workflow =
        script::record_workflow(backend, script::testbed_workflow_source());
    FaultSchedule::ChaosOptions chaos_opts;
    chaos_opts.horizon_s = 30.0;  // keep fault windows inside the run
    chaos_opts.transient_count = 8;
    backend.set_fault_schedule(
        FaultSchedule::chaos(seed, distinct_pairs(workflow), chaos_opts));

    core::RabitEngine engine(core::config_from_backend(backend, core::Variant::Modified));
    Supervisor sup(&engine, &backend, [] {
      Supervisor::Options o;
      o.recovery = recovery::RecoveryPolicy{};
      return o;
    }());
    RunReport report = sup.run(workflow);
    RunResult result;
    result.jsonl = sup.log().to_jsonl();
    result.halted = report.halted;
    result.absorbed = report.recovery ? report.recovery->transients_absorbed : 0;
    return result;
  };

  // Fault start times are random within the horizon, so not every seed's
  // schedule intersects the workflow; scan for one whose faults strike.
  unsigned striking_seed = 0;
  for (unsigned seed = 1; seed <= 64 && striking_seed == 0; ++seed) {
    if (run_once(seed).absorbed > 0) striking_seed = seed;
  }
  ASSERT_NE(striking_seed, 0u) << "no chaos seed in [1,64] struck the workflow";

  RunResult a = run_once(striking_seed);
  RunResult b = run_once(striking_seed);
  EXPECT_GT(a.absorbed, 0u);  // the schedule visibly shaped this trace
  EXPECT_EQ(a.jsonl, b.jsonl);  // byte-identical trace from the same seed
  EXPECT_EQ(a.halted, b.halted);
  EXPECT_FALSE(a.halted);  // chaos transients are recoverable: no false halt
}

}  // namespace
}  // namespace rabit::trace
