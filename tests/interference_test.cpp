// Tests for rabit::analysis interference — stream effect summaries, the
// I1..I6 pairwise/campaign checks, and the fleet shared-lab campaign runner
// they are validated against.
#include <gtest/gtest.h>

#include <set>

#include "analysis/interference.hpp"
#include "bugs/bugs.hpp"
#include "fleet/fleet.hpp"
#include "script/workflows.hpp"
#include "sim/deck.hpp"

using namespace rabit;
using analysis::AnalysisReport;
using analysis::CampaignStream;
using analysis::Interval;
using analysis::Severity;
using analysis::StreamSummary;
using bugs::cmd;

namespace {

core::EngineConfig testbed_config() {
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  return core::config_from_backend(backend, core::Variant::Modified);
}

const analysis::Diagnostic* find_rule(const AnalysisReport& report, std::string_view rule) {
  for (const analysis::Diagnostic& d : report.diagnostics) {
    if (d.rule == rule) return &d;
  }
  return nullptr;
}

bool has_subject(const analysis::Diagnostic& d, std::string_view subject) {
  for (const std::string& s : d.subjects) {
    if (s == subject) return true;
  }
  return false;
}

/// First I-family diagnostic whose subjects name `device`, or nullptr.
const analysis::Diagnostic* find_covering(const AnalysisReport& report,
                                          std::string_view device) {
  for (const analysis::Diagnostic& d : report.diagnostics) {
    if (!d.rule.empty() && d.rule[0] == 'I' && has_subject(d, device)) return &d;
  }
  return nullptr;
}

json::Object num_args(std::initializer_list<std::pair<const char*, double>> kv) {
  json::Object args;
  for (const auto& [k, v] : kv) args[k] = v;
  return args;
}

}  // namespace

// --- interval semantics -------------------------------------------------------

TEST(Interference, IntervalAccumulateSumsAndUniteHulls) {
  Interval sum;
  EXPECT_FALSE(sum.set);
  sum.accumulate(1.0, 2.0);
  sum.accumulate(3.0, 5.0);
  EXPECT_TRUE(sum.set);
  EXPECT_DOUBLE_EQ(sum.lo, 4.0);
  EXPECT_DOUBLE_EQ(sum.hi, 7.0);

  Interval hull;
  hull.unite(2.0, 2.0);
  hull.unite(-1.0, 0.5);
  EXPECT_DOUBLE_EQ(hull.lo, -1.0);
  EXPECT_DOUBLE_EQ(hull.hi, 2.0);

  EXPECT_EQ(Interval{}.format(), "[]");
  EXPECT_EQ(hull.format(), "[-1, 2]");
  Interval point;
  point.accumulate(3.0, 3.0);
  EXPECT_EQ(point.format(), "3");
}

TEST(Interference, IntervalFirstWriteSetsRegardlessOfOperator) {
  // On an unset interval both operators behave identically: they install the
  // first contribution verbatim (no phantom [0, 0] summand / hull member).
  Interval via_sum;
  via_sum.accumulate(-2.0, 3.0);
  Interval via_union;
  via_union.unite(-2.0, 3.0);
  EXPECT_TRUE(via_sum.same_as(via_union));
  EXPECT_DOUBLE_EQ(via_sum.lo, -2.0);
  EXPECT_DOUBLE_EQ(via_sum.hi, 3.0);

  // Reversed bounds are normalised on entry, for either operator.
  Interval swapped;
  swapped.accumulate(5.0, 1.0);
  EXPECT_DOUBLE_EQ(swapped.lo, 1.0);
  EXPECT_DOUBLE_EQ(swapped.hi, 5.0);
  Interval swapped_union;
  swapped_union.unite(4.0, -4.0);
  EXPECT_DOUBLE_EQ(swapped_union.lo, -4.0);
  EXPECT_DOUBLE_EQ(swapped_union.hi, 4.0);
}

TEST(Interference, IntervalMixingSumAndUnionIsOrderDependent) {
  // accumulate (Σ) and unite (∪) do not commute; a caller that mixes them on
  // one interval gets whichever lattice the *last* operator implies. The test
  // pins the exact behaviour so an accidental mix in the analyzer shows up as
  // a differential failure rather than a silent near-miss.
  Interval sum_then_union;
  sum_then_union.accumulate(1.0, 2.0);
  sum_then_union.accumulate(1.0, 2.0);  // running sum: [2, 4]
  sum_then_union.unite(10.0, 11.0);     // hull with [10, 11]: [2, 11]
  EXPECT_DOUBLE_EQ(sum_then_union.lo, 2.0);
  EXPECT_DOUBLE_EQ(sum_then_union.hi, 11.0);

  Interval union_then_sum;
  union_then_sum.unite(1.0, 2.0);
  union_then_sum.unite(10.0, 11.0);    // hull: [1, 11]
  union_then_sum.accumulate(1.0, 2.0);  // sum shifts the hull: [2, 13]
  EXPECT_DOUBLE_EQ(union_then_sum.lo, 2.0);
  EXPECT_DOUBLE_EQ(union_then_sum.hi, 13.0);
  EXPECT_FALSE(sum_then_union.same_as(union_then_sum));
}

TEST(Interference, IntervalSameAsDistinguishesNeverWrittenFromZero) {
  // A never-written interval and an explicit [0, 0] contribution are
  // different facts: "no consumable touched" vs "touched with zero net
  // delta". same_as must keep them apart (the I6 budget check relies on it),
  // and format renders them differently.
  Interval never;
  Interval zero;
  zero.accumulate(0.0, 0.0);
  EXPECT_FALSE(never.set);
  EXPECT_TRUE(zero.set);
  EXPECT_FALSE(never.same_as(zero));
  EXPECT_FALSE(zero.same_as(never));
  EXPECT_TRUE(never.same_as(Interval{}));
  EXPECT_EQ(never.format(), "[]");
  EXPECT_EQ(zero.format(), "0");

  // Once written, a zero-delta interval participates in sums normally.
  zero.accumulate(-1.0, 1.0);
  EXPECT_DOUBLE_EQ(zero.lo, -1.0);
  EXPECT_DOUBLE_EQ(zero.hi, 1.0);
}

// --- phase 1: stream summaries ------------------------------------------------

TEST(Interference, SummaryCapturesFootprintsSetpointsAndDeltas) {
  core::EngineConfig config = testbed_config();
  std::vector<dev::Command> commands = {
      cmd("hotplate", "set_temperature", num_args({{"celsius", 50.0}})),
      cmd("hotplate", "stir", num_args({{"rpm", 400.0}})),
      cmd("syringe_pump", "draw_solvent", num_args({{"volume", 2.0}})),
  };
  json::Object dose = num_args({{"volume", 2.0}});
  dose["target"] = std::string("vial_1");
  commands.push_back(cmd("syringe_pump", "dose_solvent", std::move(dose)));

  StreamSummary sum = analysis::summarize_stream(config, "s", commands);
  EXPECT_EQ(sum.name, "s");
  ASSERT_EQ(sum.devices.count("hotplate"), 1u);
  EXPECT_EQ(sum.devices.at("hotplate").commands, 2u);
  EXPECT_EQ(sum.devices.at("hotplate").actions,
            (std::set<std::string>{"set_temperature", "stir"}));

  const Interval& target_c = sum.setpoints.at("hotplate").at("targetC");
  EXPECT_DOUBLE_EQ(target_c.lo, 50.0);
  EXPECT_DOUBLE_EQ(target_c.hi, 50.0);
  EXPECT_DOUBLE_EQ(sum.setpoints.at("hotplate").at("stirRpm").lo, 400.0);

  // draw +2 then dose -2: the pump's held volume nets to zero, the target
  // vial gains the dose.
  EXPECT_DOUBLE_EQ(sum.volume_delta_ml.at("syringe_pump").lo, 0.0);
  EXPECT_DOUBLE_EQ(sum.volume_delta_ml.at("syringe_pump").hi, 0.0);
  EXPECT_DOUBLE_EQ(sum.volume_delta_ml.at("vial_1").lo, 2.0);
  // The dose target is a shared entity.
  EXPECT_EQ(sum.entities.count("vial_1"), 1u);
}

TEST(Interference, ScriptSummaryCoversWorkflowArmsAndIgnores) {
  core::EngineConfig config = testbed_config();
  StreamSummary sum =
      analysis::summarize_script(config, "wf", script::testbed_workflow_source());
  EXPECT_FALSE(sum.truncated);
  EXPECT_EQ(sum.devices.count("viperx"), 1u);
  EXPECT_EQ(sum.devices.count("ned2"), 1u);
  EXPECT_EQ(sum.devices.count("dosing_device"), 1u);
  // Both arms moved, so both have occupancy envelopes.
  EXPECT_EQ(sum.arm_envelopes.count("viperx"), 1u);
  EXPECT_EQ(sum.arm_envelopes.count("ned2"), 1u);
  // Picking from the rack is a deliberate grid interaction; an arm is never
  // its own deliberate interaction.
  ASSERT_EQ(sum.ignores.count("viperx"), 1u);
  EXPECT_EQ(sum.ignores.at("viperx").count("grid"), 1u);
  EXPECT_EQ(sum.ignores.at("viperx").count("viperx"), 0u);
  // The workflow doses 5 mg into whatever sits in the dosing receptacle.
  EXPECT_FALSE(sum.mass_delta_mg.empty());
}

// --- phase 2: the I-diagnostics -----------------------------------------------

TEST(Interference, I1FiresOnSameDeviceAndSharedEntity) {
  core::EngineConfig config = testbed_config();
  std::vector<CampaignStream> streams = {
      {"a", {cmd("hotplate", "set_temperature", num_args({{"celsius", 50.0}}))}},
      {"b", {cmd("hotplate", "stop", {})}},
  };
  AnalysisReport report = analysis::analyze_campaign(config, streams);
  const analysis::Diagnostic* d = find_rule(report, "I1");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_TRUE(has_subject(*d, "hotplate"));

  // Entity race: one stream picks the vial through a site, the other
  // commands the vial directly. No common *device*, but a common entity.
  json::Object pick;
  pick["site"] = std::string("grid.NW");
  std::vector<CampaignStream> entity_streams = {
      {"arm", {cmd("viperx", "pick_object", std::move(pick))}},
      {"prep", {cmd("vial_1", "decap", {})}},
  };
  AnalysisReport entity_report = analysis::analyze_campaign(config, entity_streams);
  const analysis::Diagnostic* covering = find_covering(entity_report, "vial_1");
  ASSERT_NE(covering, nullptr);
  EXPECT_TRUE(has_subject(*covering, "viperx"));
}

TEST(Interference, I2FiresOnOverlappingArmEnvelopes) {
  core::EngineConfig config = testbed_config();
  json::Object pick_a;
  pick_a["site"] = std::string("grid.NW");
  json::Object pick_b;
  pick_b["site"] = std::string("grid.NW");
  std::vector<CampaignStream> streams = {
      {"a", {cmd("viperx", "pick_object", std::move(pick_a))}},
      {"b", {cmd("ned2", "pick_object", std::move(pick_b))}},
  };
  AnalysisReport report = analysis::analyze_campaign(config, streams);
  const analysis::Diagnostic* d = find_rule(report, "I2");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_TRUE(has_subject(*d, "viperx"));
  EXPECT_TRUE(has_subject(*d, "ned2"));
  // The testbed multiplexes motion, so the same pair also races the
  // exclusive-motion token (I1).
  ASSERT_NE(find_rule(report, "I1"), nullptr);
}

TEST(Interference, I3FiresOnSummedCapacityOverflow) {
  core::EngineConfig config = testbed_config();
  // Each stream alone adds 8 mL to the 15 mL vial — fine solo, 16 mL summed.
  std::vector<CampaignStream> streams = {
      {"a", {cmd("vial_1", "add_liquid", num_args({{"volume", 8.0}}))}},
      {"b", {cmd("vial_1", "add_liquid", num_args({{"volume", 8.0}}))}},
  };
  AnalysisReport report = analysis::analyze_campaign(config, streams);
  const analysis::Diagnostic* d = find_rule(report, "I3");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_TRUE(has_subject(*d, "vial_1"));

  // A single stream adding 8 mL twice is the single-stream checks' business:
  // no I3 without at least two contributing streams.
  std::vector<CampaignStream> solo = {
      {"a",
       {cmd("vial_1", "add_liquid", num_args({{"volume", 8.0}})),
        cmd("vial_1", "add_liquid", num_args({{"volume", 8.0}}))}},
  };
  EXPECT_EQ(find_rule(analysis::analyze_campaign(config, solo), "I3"), nullptr);
}

TEST(Interference, I4FiresOnConflictingSetpoints) {
  core::EngineConfig config = testbed_config();
  std::vector<CampaignStream> streams = {
      {"a", {cmd("hotplate", "set_temperature", num_args({{"celsius", 50.0}}))}},
      {"b", {cmd("hotplate", "set_temperature", num_args({{"celsius", 80.0}}))}},
  };
  AnalysisReport report = analysis::analyze_campaign(config, streams);
  const analysis::Diagnostic* d = find_rule(report, "I4");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_TRUE(has_subject(*d, "hotplate"));

  // Identical writes commute: no I4.
  std::vector<CampaignStream> same = {
      {"a", {cmd("hotplate", "set_temperature", num_args({{"celsius", 50.0}}))}},
      {"b", {cmd("hotplate", "set_temperature", num_args({{"celsius", 50.0}}))}},
  };
  EXPECT_EQ(find_rule(analysis::analyze_campaign(config, same), "I4"), nullptr);
}

TEST(Interference, I5FiresOnAsymmetricDeliberateInteraction) {
  core::EngineConfig config = testbed_config();
  // Stream 'arm' opens the dosing door and reaches inside — a declared
  // deliberate interaction. Stream 'doser' drives the same station with no
  // such declaration.
  json::Object open_door;
  open_door["state"] = std::string("open");
  json::Object pick;
  pick["site"] = std::string("dosing_device");
  std::vector<CampaignStream> streams = {
      {"arm",
       {cmd("dosing_device", "set_door", std::move(open_door)),
        cmd("viperx", "pick_object", std::move(pick))}},
      {"doser", {cmd("dosing_device", "run_action", num_args({{"delay", 0.0}, {"quantity", 2.0}}))}},
  };
  AnalysisReport report = analysis::analyze_campaign(config, streams);
  const analysis::Diagnostic* d = find_rule(report, "I5");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_TRUE(has_subject(*d, "viperx"));
  EXPECT_TRUE(has_subject(*d, "dosing_device"));
}

TEST(Interference, I6FiresOnCampaignWideThresholdExhaustion) {
  core::EngineConfig config = testbed_config();
  // The stock dosing device has no G11 threshold; give it one so each 3 mg
  // dose passes rule 11 solo while the campaign total of 6 mg exceeds it.
  for (core::DeviceMeta& d : config.devices) {
    if (d.id == "dosing_device") d.thresholds.push_back({"run_action", "quantity", 5.0});
  }
  std::vector<CampaignStream> streams = {
      {"a", {cmd("dosing_device", "run_action", num_args({{"delay", 0.0}, {"quantity", 3.0}}))}},
      {"b", {cmd("dosing_device", "run_action", num_args({{"delay", 0.0}, {"quantity", 3.0}}))}},
  };
  AnalysisReport report = analysis::analyze_campaign(config, streams);
  const analysis::Diagnostic* d = find_rule(report, "I6");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_TRUE(has_subject(*d, "dosing_device"));
}

TEST(Interference, DisjointStreamsAreClean) {
  core::EngineConfig config = testbed_config();
  std::vector<CampaignStream> streams = {
      {"a", {cmd("hotplate", "set_temperature", num_args({{"celsius", 50.0}}))}},
      {"b", {cmd("thermoshaker", "shake", num_args({{"rpm", 300.0}}))}},
  };
  AnalysisReport report = analysis::analyze_campaign(config, streams);
  EXPECT_TRUE(report.diagnostics.empty())
      << (report.diagnostics.empty() ? "" : report.diagnostics.front().format());
  EXPECT_FALSE(report.truncated);
}

TEST(Interference, SubjectsSurviveJsonRoundTrip) {
  core::EngineConfig config = testbed_config();
  std::vector<CampaignStream> streams = {
      {"a", {cmd("hotplate", "stop", {})}},
      {"b", {cmd("hotplate", "stop", {})}},
  };
  AnalysisReport report = analysis::analyze_campaign(config, streams);
  ASSERT_FALSE(report.diagnostics.empty());
  json::Value doc = analysis::report_to_json(report);
  const json::Array& diags = doc.as_object().at("diagnostics").as_array();
  ASSERT_FALSE(diags.empty());
  const json::Array& subjects = diags[0].as_object().at("subjects").as_array();
  ASSERT_EQ(subjects.size(), 1u);
  EXPECT_EQ(subjects[0].as_string(), "hotplate");
}

TEST(Interference, TruncatedStreamSummaryPropagates) {
  core::EngineConfig config = testbed_config();
  // A statically unresolvable motion target widens the arm to the whole
  // workspace and marks the summary truncated.
  const char* source =
      "let p = camera.measure_solubility(target=vial_1)\n"
      "viperx.move_to(position=[p, p, p])\n";
  StreamSummary sum = analysis::summarize_script(config, "blurry", source);
  EXPECT_TRUE(sum.truncated);
  EXPECT_EQ(sum.arm_envelopes.count("viperx"), 1u);

  AnalysisReport report = analysis::check_interference(config, {sum});
  EXPECT_TRUE(report.truncated);
}

// --- the shared-lab campaign runner -------------------------------------------

TEST(FleetCampaign, CrossStreamAlertsAreClassifiedAndCovered) {
  // Each stream alone is safe: one arm wakes while the other is parked. The
  // shared lab interleaves them, and whichever moves second trips the
  // exclusive-motion rule — an alert that exists only because of the other
  // stream.
  fleet::CampaignSpec spec;
  spec.variant = core::Variant::Modified;
  spec.seed = 7;
  spec.streams = {{"a", {cmd("viperx", "go_home", {})}, ""},
                  {"b", {cmd("ned2", "go_home", {})}, ""}};
  fleet::CampaignReport report = fleet::Fleet::run_campaign(spec);

  EXPECT_EQ(report.commands_checked, 2u);
  EXPECT_EQ(report.schedule.size(), 2u);
  ASSERT_GE(report.alerts.size(), 1u);
  EXPECT_GE(report.cross_stream_alerts(), 1u);
  for (const fleet::CampaignAlert& a : report.alerts) {
    EXPECT_TRUE(a.cross_stream) << a.alert.describe();
  }

  // The static analyzer must cover the runtime alert: some I-diagnostic
  // names the alerting device in its subjects.
  std::vector<CampaignStream> streams;
  for (const fleet::CampaignStreamSpec& s : spec.streams) {
    streams.push_back({s.name, s.commands});
  }
  AnalysisReport static_report = analysis::analyze_campaign(testbed_config(), streams);
  for (const fleet::CampaignAlert& a : report.alerts) {
    EXPECT_NE(find_covering(static_report, a.alert.command.device), nullptr)
        << "no I-diagnostic covers device '" << a.alert.command.device << "'";
  }
}

TEST(FleetCampaign, ScheduleIsDeterministicPerSeed) {
  fleet::CampaignSpec spec;
  spec.seed = 11;
  spec.streams = {{"a", {cmd("hotplate", "stop", {}), cmd("hotplate", "stop", {})}, ""},
                  {"b", {cmd("thermoshaker", "stop", {}), cmd("thermoshaker", "stop", {})}, ""}};
  fleet::CampaignReport first = fleet::Fleet::run_campaign(spec);
  fleet::CampaignReport second = fleet::Fleet::run_campaign(spec);
  EXPECT_EQ(first.schedule, second.schedule);

  spec.seed = 12;
  fleet::CampaignReport reseeded = fleet::Fleet::run_campaign(spec);
  EXPECT_EQ(reseeded.schedule.size(), first.schedule.size());
}

TEST(FleetCampaign, SoloSafeAlertsAreNotCrossStream) {
  // A stream that alerts on its own (closed-door entry) must not be
  // classified cross-stream just because another stream exists.
  json::Object pick;
  pick["site"] = std::string("dosing_device");
  fleet::CampaignSpec spec;
  spec.seed = 3;
  spec.streams = {{"clumsy", {cmd("viperx", "pick_object", std::move(pick))}, ""},
                  {"bystander", {cmd("thermoshaker", "stop", {})}, ""}};
  fleet::CampaignReport report = fleet::Fleet::run_campaign(spec);
  ASSERT_GE(report.alerts.size(), 1u);
  for (const fleet::CampaignAlert& a : report.alerts) {
    EXPECT_FALSE(a.cross_stream) << a.alert.describe();
  }
}

// --- campaign JSON loader -----------------------------------------------------

TEST(FleetCampaign, LoadCampaignParsesFullDocument) {
  fleet::CampaignSpec spec = fleet::load_campaign(json::parse(R"j({
    "seed": 9,
    "variant": "modified+sim",
    "halt_on_alert": true,
    "streams": [
      {"name": "cmds",
       "commands": [{"device": "hotplate", "action": "stir", "args": {"rpm": 300}}]},
      {"script": "viperx.go_home()\n"}
    ]
  })j"));
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.variant, core::Variant::ModifiedWithSim);
  EXPECT_TRUE(spec.halt_on_alert);
  ASSERT_EQ(spec.streams.size(), 2u);
  EXPECT_EQ(spec.streams[0].name, "cmds");
  ASSERT_EQ(spec.streams[0].commands.size(), 1u);
  EXPECT_EQ(spec.streams[0].commands[0].device, "hotplate");
  EXPECT_EQ(spec.streams[0].commands[0].action, "stir");
  // Unnamed streams get a positional default.
  EXPECT_EQ(spec.streams[1].name, "stream-1");
  EXPECT_FALSE(spec.streams[1].script.empty());
}

TEST(FleetCampaign, LoadCampaignRejectsMalformedDocuments) {
  EXPECT_THROW(fleet::load_campaign(json::parse(R"j([1, 2])j")), std::runtime_error);
  EXPECT_THROW(fleet::load_campaign(json::parse(R"j({"streams": []})j")), std::runtime_error);
  EXPECT_THROW(fleet::load_campaign(json::parse(R"j({"streams": [{"name": "x"}]})j")),
               std::runtime_error);
  EXPECT_THROW(
      fleet::load_campaign(json::parse(
          R"j({"streams": [{"commands": [{"device": "hotplate"}]}]})j")),
      std::runtime_error);
  EXPECT_THROW(fleet::load_campaign(json::parse(
                   R"j({"variant": "turbo", "streams": [{"script": "x()"}]})j")),
               std::runtime_error);
  // Seeds must be exact integers that fit an unsigned 32-bit seed.
  for (const char* seed : {"-1", "1.5", "1e20", "4294967296", "\"7\""}) {
    std::string doc = std::string(R"j({"seed": )j") + seed + R"j(, "streams": [{"script": "x()"}]})j";
    try {
      static_cast<void>(fleet::load_campaign(json::parse(doc)));
      ADD_FAILURE() << "seed " << seed << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("'seed'"), std::string::npos) << e.what();
    }
  }
  EXPECT_EQ(fleet::load_campaign(
                json::parse(R"j({"seed": 4294967295, "streams": [{"script": "x()"}]})j"))
                .seed,
            4294967295u);
  // A stream's name must be a string and unique, defaulted names included,
  // and a command's args an object: each error names the stream.
  auto rejects = [](const std::string& doc, const std::string& stream) {
    try {
      static_cast<void>(fleet::load_campaign(json::parse(doc)));
      ADD_FAILURE() << "accepted: " << doc;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(stream), std::string::npos) << e.what();
    }
  };
  rejects(R"j({"streams": [{"script": "x()"}, {"name": 5, "script": "x()"}]})j", "#1");
  for (const char* args : {"5", "[1, 2]", "\"x\""}) {
    rejects(std::string(R"j({"streams": [{"name": "heat", "commands": [{"device": "hotplate",
        "action": "set_temperature", "args": )j") + args + "}]}]}",
            "'heat'");
  }
  rejects(R"j({"streams": [{"name": "a", "script": "x()"}, {"name": "a", "script": "y()"}]})j",
          "'a'");
  rejects(R"j({"streams": [{"script": "x()"}, {"name": "stream-0", "script": "y()"}]})j",
          "'stream-0'");
  // Unknown keys at any level: a misspelled key must not fall back to its
  // default (seed 42, a command without arguments). Each error names the
  // key, and the stream where there is one.
  rejects(R"j({"sead": 7, "streams": [{"script": "x()"}]})j", "'sead'");
  const std::string misspelled_args = R"j({"streams": [{"name": "heat", "commands": [{"device":
      "hotplate", "action": "set_temperature", "arg": {"celsius": 500}}]}]})j";
  rejects(misspelled_args, "'heat'");
  rejects(misspelled_args, "'arg'");
  rejects(R"j({"streams": [{"name": "heat", "scirpt": "x()", "script": "x()"}]})j", "'scirpt'");
  // Absent or null args: a command without arguments.
  fleet::CampaignSpec bare = fleet::load_campaign(json::parse(R"j({"streams": [{"commands": [
      {"device": "hotplate", "action": "stop", "args": null},
      {"device": "hotplate", "action": "stop"}]}]})j"));
  ASSERT_EQ(bare.streams.front().commands.size(), 2u);
  EXPECT_EQ(bare.streams.front().commands[0], bare.streams.front().commands[1]);
}
