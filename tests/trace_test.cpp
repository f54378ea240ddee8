// Supervisor (RATracer-equivalent) and trace-format tests.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/lab.hpp"
#include "devices/robot_arm.hpp"
#include "sim/deck.hpp"
#include "trace/trace.hpp"

namespace rabit::trace {
namespace {

using dev::Command;
using geom::Vec3;
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

class SupervisorTest : public ::testing::Test {
 protected:
  Vec3 site_local(const char* arm, const char* site) {
    return backend.arm(arm).to_local(backend.find_site(site)->lab_position);
  }

  Command move(const char* arm, const Vec3& local) {
    json::Object args;
    args["position"] = json::Array{local.x, local.y, local.z};
    return make_cmd(arm, "move_to", std::move(args));
  }

  core::Lab lab{core::Variant::Modified};
  sim::LabBackend& backend = lab.backend;
  core::RabitEngine* engine = &lab.engine;
};

TEST_F(SupervisorTest, NullBackendRejected) {
  EXPECT_THROW(Supervisor(engine, nullptr), std::invalid_argument);
}

TEST_F(SupervisorTest, SafeCommandForwarded) {
  Supervisor sup(engine, &backend);
  sup.start();
  SupervisedStep step = sup.step(make_cmd(ids::kDosingDevice, "set_door", door("open")));
  EXPECT_FALSE(step.alert.has_value());
  ASSERT_TRUE(step.exec.has_value());
  EXPECT_TRUE(step.exec->executed);
  EXPECT_FALSE(step.halted);
  EXPECT_EQ(sup.log().records().back().outcome, Outcome::Executed);
}

TEST_F(SupervisorTest, AlertBlocksExecutionAndHalts) {
  Supervisor sup(engine, &backend);
  sup.start();
  // Into the closed dosing device: RABIT must stop it *before* execution.
  SupervisedStep step = sup.step(move(ids::kViperX, site_local(ids::kViperX, "dosing_device")));
  ASSERT_TRUE(step.alert.has_value());
  EXPECT_FALSE(step.exec.has_value());  // the command never reached the device
  EXPECT_TRUE(step.halted);
  EXPECT_TRUE(backend.damage_log().empty());  // nothing physically happened
  // The halted experiment refuses further commands.
  SupervisedStep next = sup.step(make_cmd(ids::kDosingDevice, "stop_action"));
  EXPECT_TRUE(next.halted);
  EXPECT_FALSE(next.exec.has_value());
}

TEST_F(SupervisorTest, HaltOnAlertCanBeDisabled) {
  Supervisor sup(engine, &backend, Supervisor::Options{/*halt_on_alert=*/false, /*recovery=*/{}});
  sup.start();
  SupervisedStep step = sup.step(move(ids::kViperX, site_local(ids::kViperX, "dosing_device")));
  ASSERT_TRUE(step.alert.has_value());
  EXPECT_FALSE(step.halted);
  // Follow-up commands still execute (the fail-operational mode the paper
  // discusses as an alternative to preemptive stopping).
  SupervisedStep next = sup.step(make_cmd(ids::kDosingDevice, "stop_action"));
  EXPECT_TRUE(next.exec.has_value());
}

TEST_F(SupervisorTest, WithoutEngineEverythingForwards) {
  Supervisor sup(nullptr, &backend);
  sup.start();
  // The unsafe move executes and causes real damage — no RABIT, no guard.
  SupervisedStep step = sup.step(move(ids::kViperX, site_local(ids::kViperX, "dosing_device")));
  EXPECT_FALSE(step.alert.has_value());
  ASSERT_TRUE(step.exec.has_value());
  EXPECT_FALSE(step.exec->damage.empty());
}

TEST_F(SupervisorTest, SilentSkipRecorded) {
  Supervisor sup(engine, &backend);
  sup.start();
  SupervisedStep step = sup.step(move(ids::kViperX, Vec3(0.3, 0.3, 2.0)));
  ASSERT_TRUE(step.exec.has_value());
  EXPECT_TRUE(step.exec->silently_skipped);
  EXPECT_EQ(sup.log().records().back().outcome, Outcome::SilentlySkipped);
}

TEST_F(SupervisorTest, FirmwareErrorRecorded) {
  Supervisor sup(engine, &backend);
  sup.start();
  // Ned2 throws on unreachable targets (ViperX would skip).
  SupervisedStep step = sup.step(move(ids::kNed2, Vec3(0.3, 0.3, 2.0)));
  ASSERT_TRUE(step.exec.has_value());
  EXPECT_FALSE(step.exec->executed);
  EXPECT_EQ(sup.log().records().back().outcome, Outcome::FirmwareError);
}

TEST_F(SupervisorTest, RunReportIndices) {
  Supervisor sup(engine, &backend);
  std::vector<Command> workflow = {
      make_cmd(ids::kDosingDevice, "set_door", door("open")),
      move(ids::kViperX, site_local(ids::kViperX, "grid.NW") + Vec3(0, 0, 0.22)),
      move(ids::kViperX, site_local(ids::kViperX, "dosing_device")),  // fine: door open
      make_cmd(ids::kDosingDevice, "set_door", door("closed")),       // G2! arm inside
  };
  RunReport report = sup.run(workflow);
  EXPECT_TRUE(report.halted);
  EXPECT_EQ(report.alerts, 1u);
  ASSERT_TRUE(report.first_alert_step.has_value());
  EXPECT_EQ(*report.first_alert_step, 3u);
  EXPECT_FALSE(report.first_damage_step.has_value());
  EXPECT_TRUE(report.alert_preceded_damage());
  EXPECT_FALSE(report.max_damage_severity().has_value());
  EXPECT_GT(report.modeled_runtime_s, 0.0);
  EXPECT_GT(report.modeled_overhead_s, 0.0);
}

TEST_F(SupervisorTest, DamageWithoutAlertIsAMiss) {
  Supervisor sup(nullptr, &backend);
  std::vector<Command> workflow = {
      move(ids::kViperX, site_local(ids::kViperX, "dosing_device")),
  };
  RunReport report = sup.run(workflow);
  ASSERT_TRUE(report.first_damage_step.has_value());
  EXPECT_FALSE(report.alert_preceded_damage());
  EXPECT_EQ(report.max_damage_severity(), dev::Severity::High);
}

TEST_F(SupervisorTest, OverheadScalesWithWorkflowLength) {
  Supervisor sup(engine, &backend);
  std::vector<Command> workflow(10, make_cmd(ids::kDosingDevice, "stop_action"));
  RunReport report = sup.run(workflow);
  EXPECT_NEAR(report.modeled_overhead_s, 10 * core::RabitEngine::kBaseCheckCost_s, 1e-9);
  // The paper's §II-C framing: ~0.03 s per command is ~1.5% of a ~2 s
  // command — imperceptible.
  EXPECT_LT(report.modeled_overhead_s / report.modeled_runtime_s, 0.05);
}

// --- trace log format ---------------------------------------------------------

TEST(TraceLog, JsonlRoundTrip) {
  TraceLog log;
  TraceRecord r1;
  r1.command = make_cmd("viperx", "move_to", [] {
    json::Object o;
    o["position"] = json::Array{0.1, 0.2, 0.3};
    return o;
  }());
  r1.command.source_line = 12;
  r1.outcome = Outcome::Executed;
  log.append(r1);

  TraceRecord r2;
  r2.command = make_cmd("dosing_device", "set_door", door("closed"));
  r2.outcome = Outcome::Blocked;
  r2.alert_rule = "G2";
  r2.alert_message = "door cannot close";
  r2.damage_events = 0;
  log.append(r2);

  TraceLog round = TraceLog::from_jsonl(log.to_jsonl());
  ASSERT_EQ(round.size(), 2u);
  EXPECT_EQ(round.records()[0].command.device, "viperx");
  EXPECT_EQ(round.records()[0].command.source_line, 12);
  EXPECT_EQ(round.records()[1].outcome, Outcome::Blocked);
  EXPECT_EQ(round.records()[1].alert_rule, "G2");
}

TEST(TraceLog, FromJsonlSkipsBlankLines) {
  TraceLog round = TraceLog::from_jsonl(
      "\n{\"device\":\"d\",\"action\":\"a\",\"args\":{},\"line\":0,\"outcome\":\"executed\"}\n\n");
  EXPECT_EQ(round.size(), 1u);
}

TEST(TraceLog, RejectsUnknownOutcome) {
  EXPECT_THROW(TraceLog::from_jsonl(
                   R"({"device":"d","action":"a","args":{},"line":0,"outcome":"vanished"})"),
               std::runtime_error);
}

TEST(OutcomeNames, AllDistinct) {
  EXPECT_EQ(to_string(Outcome::Executed), "executed");
  EXPECT_EQ(to_string(Outcome::SilentlySkipped), "silently_skipped");
  EXPECT_EQ(to_string(Outcome::FirmwareError), "firmware_error");
  EXPECT_EQ(to_string(Outcome::Blocked), "blocked");
  EXPECT_EQ(to_string(Outcome::MalfunctionFlagged), "malfunction_flagged");
  EXPECT_EQ(to_string(Outcome::TransientRetry), "transient_retry");
  EXPECT_EQ(to_string(Outcome::StatusRepoll), "status_repoll");
  EXPECT_EQ(to_string(Outcome::SafeState), "safe_state");
  EXPECT_EQ(to_string(Outcome::Quarantined), "quarantined");
}

TEST(TraceLog, StrictModeNamesTheOffendingLine) {
  const char* text =
      "{\"device\":\"d\",\"action\":\"a\",\"outcome\":\"executed\"}\n"
      "{not json at all\n";
  try {
    (void)TraceLog::from_jsonl(text);
    FAIL() << "expected TraceParseError";
  } catch (const TraceParseError& e) {
    EXPECT_EQ(e.line_number(), 2u);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(TraceLog, StrictModeDescribesMissingFields) {
  try {
    (void)TraceLog::from_jsonl(R"({"action":"a","outcome":"executed"})");
    FAIL() << "expected TraceParseError";
  } catch (const TraceParseError& e) {
    EXPECT_EQ(e.line_number(), 1u);
    EXPECT_NE(std::string(e.what()).find("'device'"), std::string::npos);
  }
}

TEST(TraceLog, StrictModeDescribesTypeMismatches) {
  try {
    (void)TraceLog::from_jsonl(R"({"device":42,"action":"a","outcome":"executed"})");
    FAIL() << "expected TraceParseError";
  } catch (const TraceParseError& e) {
    EXPECT_NE(std::string(e.what()).find("'device'"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("string"), std::string::npos);
  }
}

TEST(TraceLog, LenientModeSkipsAndCounts) {
  const char* text =
      "{\"device\":\"d\",\"action\":\"a\",\"outcome\":\"executed\"}\n"
      "garbage\n"
      "{\"device\":\"d\",\"action\":\"b\",\"outcome\":\"blocked\"}\n"
      "{\"device\":\"d\",\"action\":\"c\",\"outcome\":\"vanished\"}\n";
  std::size_t skipped = 0;
  TraceLog log = TraceLog::from_jsonl(text, /*strict=*/false, &skipped);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(skipped, 2u);
  EXPECT_EQ(log.records()[1].command.action, "b");
}

TEST(TraceLog, AttemptFieldRoundTrips) {
  TraceLog log;
  TraceRecord r;
  r.command = make_cmd("dosing_device", "set_door", door("open"));
  r.outcome = Outcome::TransientRetry;
  r.attempt = 3;
  log.append(r);

  TraceLog round = TraceLog::from_jsonl(log.to_jsonl());
  ASSERT_EQ(round.size(), 1u);
  EXPECT_EQ(round.records()[0].outcome, Outcome::TransientRetry);
  EXPECT_EQ(round.records()[0].attempt, 3u);
}

}  // namespace
}  // namespace rabit::trace
