// Tests for rabit::analysis — the pre-flight static analyzer and config lint.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/analysis.hpp"
#include "bugs/bugs.hpp"
#include "core/config.hpp"
#include "script/workflows.hpp"
#include "sim/deck.hpp"

using namespace rabit;
using analysis::AbstractValue;
using analysis::AnalysisReport;
using analysis::Severity;

namespace {

core::EngineConfig testbed_config() {
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  return core::config_from_backend(backend, core::Variant::Modified);
}

core::EngineConfig production_config() {
  sim::LabBackend backend(sim::production_profile());
  sim::build_hein_production_deck(backend);
  return core::config_from_backend(backend, core::Variant::Modified);
}

const analysis::Diagnostic* find_rule(const AnalysisReport& report, std::string_view rule) {
  for (const analysis::Diagnostic& d : report.diagnostics) {
    if (d.rule == rule) return &d;
  }
  return nullptr;
}

}  // namespace

// --- abstract value lattice ---------------------------------------------------

TEST(AbstractValue, ConstFoldingAndRanges) {
  AbstractValue two = AbstractValue::make_const(json::Value(2.0));
  AbstractValue three = AbstractValue::make_const(json::Value(3.0));
  AbstractValue sum = analysis::abstract_binary("+", two, three);
  ASSERT_TRUE(sum.is_const());
  EXPECT_DOUBLE_EQ(sum.constant.as_double(), 5.0);

  AbstractValue range = AbstractValue::make_range(1.0, 4.0);
  AbstractValue shifted = analysis::abstract_binary("+", range, two);
  double lo = 0.0, hi = 0.0;
  ASSERT_TRUE(shifted.numeric_bounds(lo, hi));
  EXPECT_DOUBLE_EQ(lo, 3.0);
  EXPECT_DOUBLE_EQ(hi, 6.0);

  // Multiplication considers all corner products.
  AbstractValue neg = AbstractValue::make_range(-2.0, 3.0);
  AbstractValue prod = analysis::abstract_binary("*", neg, range);
  ASSERT_TRUE(prod.numeric_bounds(lo, hi));
  EXPECT_DOUBLE_EQ(lo, -8.0);
  EXPECT_DOUBLE_EQ(hi, 12.0);

  // Division by an interval straddling zero is Top, never a guess.
  EXPECT_TRUE(analysis::abstract_binary("/", two, neg).is_top());
}

TEST(AbstractValue, ThreeValuedComparisons) {
  AbstractValue low = AbstractValue::make_range(0.0, 1.0);
  AbstractValue high = AbstractValue::make_range(2.0, 3.0);
  AbstractValue lt = analysis::abstract_binary("<", low, high);
  ASSERT_TRUE(lt.is_const());
  EXPECT_TRUE(lt.constant.as_bool());

  AbstractValue overlap = AbstractValue::make_range(0.5, 2.5);
  EXPECT_TRUE(analysis::abstract_binary("<", low, overlap).is_top());

  // Three-valued and/or: a decided false short-circuits an unknown side.
  AbstractValue unknown = AbstractValue::top();
  AbstractValue f = AbstractValue::make_const(json::Value(false));
  AbstractValue conj = analysis::abstract_binary("and", unknown, f);
  ASSERT_TRUE(conj.is_const());
  EXPECT_FALSE(conj.constant.as_bool());
  AbstractValue t = AbstractValue::make_const(json::Value(true));
  AbstractValue disj = analysis::abstract_binary("or", t, unknown);
  ASSERT_TRUE(disj.is_const());
  EXPECT_TRUE(disj.constant.as_bool());
  EXPECT_TRUE(analysis::abstract_binary("and", unknown, t).is_top());
}

TEST(AbstractValue, RangeCollapsesToConst) {
  AbstractValue point = AbstractValue::make_range(2.0, 2.0);
  EXPECT_TRUE(point.is_const());
  EXPECT_DOUBLE_EQ(point.constant.as_double(), 2.0);
}

TEST(AbstractValue, DivisionByZeroBearingIntervalsIsTop) {
  AbstractValue two = AbstractValue::make_const(json::Value(2.0));
  // Exact zero, zero-straddling interval, and zero-boundary interval all
  // refuse to guess.
  EXPECT_TRUE(analysis::abstract_binary("/", two, AbstractValue::make_const(json::Value(0.0)))
                  .is_top());
  EXPECT_TRUE(analysis::abstract_binary("/", two, AbstractValue::make_range(-1.0, 1.0)).is_top());
  EXPECT_TRUE(analysis::abstract_binary("/", two, AbstractValue::make_range(0.0, 3.0)).is_top());
  // A divisor interval that excludes zero divides cleanly.
  AbstractValue safe = analysis::abstract_binary("/", AbstractValue::make_range(2.0, 4.0),
                                                 AbstractValue::make_range(1.0, 2.0));
  double lo = 0.0, hi = 0.0;
  ASSERT_TRUE(safe.numeric_bounds(lo, hi));
  EXPECT_DOUBLE_EQ(lo, 1.0);
  EXPECT_DOUBLE_EQ(hi, 4.0);
}

TEST(AbstractValue, TopVersusPointComparisonsStayTop) {
  AbstractValue unknown = AbstractValue::top();
  AbstractValue point = AbstractValue::make_const(json::Value(2.0));
  for (const char* op : {"<", "<=", ">", ">=", "==", "!="}) {
    EXPECT_TRUE(analysis::abstract_binary(op, unknown, point).is_top()) << op;
    EXPECT_TRUE(analysis::abstract_binary(op, point, unknown).is_top()) << op;
  }
  // Arithmetic with Top is equally undecided.
  EXPECT_TRUE(analysis::abstract_binary("+", unknown, point).is_top());
  EXPECT_TRUE(analysis::abstract_binary("*", point, unknown).is_top());
}

// --- clean scripts ------------------------------------------------------------

TEST(Analyzer, TestbedWorkflowIsClean) {
  AnalysisReport report =
      analysis::analyze_script(testbed_config(), script::testbed_workflow_source());
  EXPECT_TRUE(report.diagnostics.empty())
      << (report.diagnostics.empty() ? "" : report.diagnostics.front().format());
}

TEST(Analyzer, SolubilityWorkflowIsClean) {
  // The measurement-driven while loop is statically unbounded: the analyzer
  // must speculate bounded iterations without inventing violations.
  AnalysisReport report =
      analysis::analyze_script(production_config(), script::solubility_workflow_source());
  EXPECT_TRUE(report.diagnostics.empty())
      << (report.diagnostics.empty() ? "" : report.diagnostics.front().format());
}

TEST(Analyzer, SeededLocationsMatchWorkflowTable) {
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  core::EngineConfig config = core::config_from_backend(backend, core::Variant::Modified);
  json::Value expected = script::locations_table(backend);
  json::Value seeded = analysis::seed_locations(config);
  for (const auto& [site, arms] : expected.as_object()) {
    const json::Value* got_site = seeded.find(site);
    ASSERT_NE(got_site, nullptr) << site;
    for (const auto& [arm, coords] : arms.as_object()) {
      const json::Value* got = got_site->find(arm);
      ASSERT_NE(got, nullptr) << site << "/" << arm;
      for (const char* key : {"pickup", "safe"}) {
        const json::Array& want = coords.as_object().at(key).as_array();
        const json::Array& have = got->as_object().at(key).as_array();
        ASSERT_EQ(want.size(), have.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_NEAR(want[i].as_double(), have[i].as_double(), 1e-9)
              << site << "/" << arm << "/" << key << "[" << i << "]";
        }
      }
    }
  }
}

// --- diagnostic categories ----------------------------------------------------

TEST(Analyzer, SyntaxErrorIsReportedWithLine) {
  AnalysisReport report = analysis::analyze_script(testbed_config(), "let x = 1\nif x { }");
  const analysis::Diagnostic* d = find_rule(report, "SYNTAX");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_EQ(d->line, 2);
}

TEST(Analyzer, ClosedDoorEntryIsG1WithLine) {
  // Enter the dosing device without opening its door first (the paper's
  // Bug A shape, statically).
  const char* source =
      "viperx.go_home()\n"
      "viperx.move_to(position=locations[\"dosing_device\"][\"viperx\"][\"safe\"])\n"
      "viperx.move_to(position=locations[\"dosing_device\"][\"viperx\"][\"pickup\"])\n";
  AnalysisReport report = analysis::analyze_script(testbed_config(), source);
  const analysis::Diagnostic* d = find_rule(report, "G1");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_EQ(d->line, 3);
}

TEST(Analyzer, ConstantOverThresholdIsG11Error) {
  AnalysisReport report =
      analysis::analyze_script(testbed_config(), "hotplate.set_temperature(celsius=200)\n");
  const analysis::Diagnostic* d = find_rule(report, "G11");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_EQ(d->line, 1);
}

TEST(Analyzer, IntervalCrossingThresholdIsG11Warning) {
  // rpm ∈ [600, 1800] after the loop: may exceed the 1200 rpm threshold on
  // some path but not all — a warning, not an error.
  const char* source =
      "let rpm = 600\n"
      "let i = 0\n"
      "while (i < 2) {\n"
      "    rpm = rpm * 2 - rpm / 2\n"
      "    i = i + 1\n"
      "}\n"
      "hotplate.stir(rpm=rpm)\n";
  AnalysisReport report = analysis::analyze_script(testbed_config(), source);
  // The decidable loop unrolls fully, so rpm is exactly 1350 — over the
  // threshold deterministically.
  const analysis::Diagnostic* d = find_rule(report, "G11");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 7);
}

TEST(Analyzer, UnresolvableThresholdArgumentIsA5) {
  // A measurement feeds the thresholded argument: statically Top.
  const char* source =
      "let reading = camera.measure_solubility(target=vial_1)\n"
      "hotplate.stir(rpm=reading)\n";
  AnalysisReport report = analysis::analyze_script(production_config(), source);
  const analysis::Diagnostic* d = find_rule(report, "A5");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_EQ(d->line, 2);
}

TEST(Analyzer, UnknownIdentifierIsA6) {
  AnalysisReport report = analysis::analyze_script(testbed_config(), "frobulator.go_home()\n");
  const analysis::Diagnostic* d = find_rule(report, "A6");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_EQ(d->line, 1);
}

TEST(Analyzer, OutOfRangeListIndexIsA6) {
  // Same index conversion as the interpreter: a huge or negative index
  // selects no element, so the lint is no longer clean where the run fails.
  for (const char* index : {"1e300", "-0.5"}) {
    std::string source = std::string("let xs = [10, 20, 30]\nlet x = xs[") + index + "]\n";
    AnalysisReport report = analysis::analyze_script(testbed_config(), source);
    const analysis::Diagnostic* d = find_rule(report, "A6");
    ASSERT_NE(d, nullptr) << index;
    EXPECT_EQ(d->severity, Severity::Error) << index;
    EXPECT_EQ(d->message, "list index out of range") << index;
    EXPECT_EQ(d->line, 2) << index;
  }
  AnalysisReport fraction =
      analysis::analyze_script(testbed_config(), "let xs = [10, 20, 30]\nlet x = xs[1.5]\n");
  EXPECT_EQ(find_rule(fraction, "A6"), nullptr);  // an in-range fraction truncates
}

TEST(Analyzer, SpeculativePathDowngradesToWarning) {
  // The violation only happens when the measurement-driven branch is taken:
  // an error on a speculative path reports as a warning.
  const char* source =
      "let reading = camera.measure_solubility(target=vial_1)\n"
      "if (reading < 0.5) {\n"
      "    hotplate.set_temperature(celsius=200)\n"
      "}\n";
  AnalysisReport report = analysis::analyze_script(production_config(), source);
  const analysis::Diagnostic* d = find_rule(report, "G11");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_EQ(d->line, 3);
  EXPECT_NE(d->message.find("may happen"), std::string::npos);
}

TEST(Analyzer, WorkspaceEscapeIsA4) {
  AnalysisReport report = analysis::analyze_script(
      testbed_config(), "viperx.move_to(position=[0.25, 0.0, 1.9])\n");
  const analysis::Diagnostic* d = find_rule(report, "A4");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 1);
}

TEST(Analyzer, GripperClosingOnAirIsA2) {
  AnalysisReport report =
      analysis::analyze_script(testbed_config(), "viperx.go_home()\nviperx.close_gripper()\n");
  const analysis::Diagnostic* d = find_rule(report, "A2");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_EQ(d->line, 2);
}

TEST(Analyzer, DryRunIsA1) {
  AnalysisReport report = analysis::analyze_script(
      testbed_config(),
      "dosing_device.set_door(state=\"closed\")\ndosing_device.run_action(delay=3, quantity=5)\n");
  const analysis::Diagnostic* d = find_rule(report, "A1");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_EQ(d->line, 2);
}

TEST(Analyzer, UnboundedLoopHitsBudgetNote) {
  const char* source =
      "let i = 0\n"
      "while (i >= 0) {\n"
      "    i = i + 1\n"
      "}\n";
  AnalysisReport report = analysis::analyze_script(testbed_config(), source);
  EXPECT_TRUE(report.truncated);
  EXPECT_NE(find_rule(report, "A8"), nullptr);
}

TEST(Analyzer, TightLoopBudgetWidensAndMarksTruncated) {
  // The loop is bounded (20 iterations) but exceeds a deliberately tiny
  // unroll budget: the analyzer must widen — note A8, set `truncated` — and
  // still terminate, rather than either spinning or silently dropping the
  // tail of the loop.
  const char* source =
      "let i = 0\n"
      "while (i < 20) {\n"
      "    hotplate.set_temperature(celsius=40)\n"
      "    i = i + 1\n"
      "}\n";
  analysis::AnalyzeOptions options;
  options.loop_unroll_budget = 4;
  AnalysisReport tight = analysis::analyze_script(testbed_config(), source, options);
  EXPECT_TRUE(tight.truncated);
  EXPECT_NE(find_rule(tight, "A8"), nullptr);

  // The default budget unrolls the same loop fully: no truncation.
  AnalysisReport full = analysis::analyze_script(testbed_config(), source);
  EXPECT_FALSE(full.truncated);
  EXPECT_EQ(find_rule(full, "A8"), nullptr);
}

TEST(Analyzer, UserFunctionsAreInlined) {
  // The rule hit happens inside a helper, two calls deep: the diagnostic
  // still points at the device command's own line.
  const char* source =
      "def heat(t) {\n"
      "    hotplate.set_temperature(celsius=t)\n"
      "}\n"
      "heat(120)\n"
      "heat(250)\n";
  AnalysisReport report = analysis::analyze_script(testbed_config(), source);
  const analysis::Diagnostic* d = find_rule(report, "G11");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 2);
  // The safe call produced nothing: exactly one finding.
  EXPECT_EQ(report.diagnostics.size(), 1u);
}

// --- the §IV bug catalogue through the analyzer -------------------------------

namespace {

struct ExpectedFinding {
  const char* bug_id;
  const char* rule;
  int line;  ///< 0 = any line
};

// Prints the strings, not their addresses: CTest names parameterized cases
// after this text, and an address would rename the case on every build.
void PrintTo(const ExpectedFinding& f, std::ostream* os) {
  *os << f.bug_id << " " << f.rule << " line ";
  if (f.line > 0) {
    *os << f.line;
  } else {
    *os << "any";
  }
}

}  // namespace

class CatalogueAnalysis : public ::testing::TestWithParam<ExpectedFinding> {};

TEST_P(CatalogueAnalysis, FlagsBugWithRuleAndLine) {
  const ExpectedFinding& expected = GetParam();
  const bugs::BugSpec* spec = nullptr;
  for (const bugs::BugSpec& bug : bugs::bug_catalogue()) {
    if (bug.id == expected.bug_id) spec = &bug;
  }
  ASSERT_NE(spec, nullptr);

  sim::LabBackend staging(sim::testbed_profile());
  sim::build_hein_testbed_deck(staging);
  std::vector<dev::Command> stream = spec->build(staging);
  AnalysisReport report = analysis::analyze_stream(testbed_config(), stream);

  ASSERT_FALSE(report.diagnostics.empty()) << expected.bug_id;
  const analysis::Diagnostic* d = find_rule(report, expected.rule);
  ASSERT_NE(d, nullptr) << expected.bug_id << ": no " << expected.rule << " diagnostic";
  if (expected.line > 0) {
    EXPECT_EQ(d->line, expected.line) << expected.bug_id << ": " << d->format();
  } else {
    EXPECT_GT(d->line, 0);
  }
}

// Line numbers are the recorded commands' script source lines (Fig. 5/6
// workflow), or the 1-based stream index for commands the mutation inserted.
INSTANTIATE_TEST_SUITE_P(
    BuggyWorkflows, CatalogueAnalysis,
    ::testing::Values(ExpectedFinding{"H1", "G1", 5},    // door-closed entry
                      ExpectedFinding{"H2", "G2", 0},    // door closed on arm
                      ExpectedFinding{"H5", "G11", 0},   // over-temperature
                      ExpectedFinding{"M1", "M1", 27},   // two-arm collision (inserted)
                      ExpectedFinding{"M2", "G3", 5},    // platform crash, empty gripper
                      ExpectedFinding{"M3", "G3", 12},   // platform crash with vial
                      ExpectedFinding{"M4", "A4", 15},   // silently-skipped waypoint
                      ExpectedFinding{"M6", "A3", 14},   // frame-misalignment brush
                      ExpectedFinding{"L1", "G8", 0},    // overdose
                      ExpectedFinding{"L2", "A1", 33},   // missing pickup -> dry run
                      ExpectedFinding{"L3", "A2", 6},    // gripper reorder
                      ExpectedFinding{"ML1", "G3", 0}),  // place onto occupied slot
    [](const ::testing::TestParamInfo<ExpectedFinding>& info) {
      return std::string(info.param.bug_id);
    });

TEST(Analyzer, EveryCatalogueBugIsFlaggedAndNoSafeBaselineIs) {
  core::EngineConfig config = testbed_config();
  for (const bugs::BugSpec& bug : bugs::bug_catalogue()) {
    sim::LabBackend buggy_deck(sim::testbed_profile());
    sim::build_hein_testbed_deck(buggy_deck);
    AnalysisReport buggy = analysis::analyze_stream(config, bug.build(buggy_deck));
    EXPECT_FALSE(buggy.diagnostics.empty()) << bug.id << " produced no diagnostics";

    sim::LabBackend safe_deck(sim::testbed_profile());
    sim::build_hein_testbed_deck(safe_deck);
    AnalysisReport safe = analysis::analyze_stream(config, bug.build_safe(safe_deck));
    EXPECT_TRUE(safe.diagnostics.empty())
        << bug.id << " safe baseline flagged: " << safe.diagnostics.front().format();
  }
}

// --- config lint --------------------------------------------------------------

TEST(ConfigLint, CanonicalConfigsAreClean) {
  AnalysisReport testbed = analysis::lint_config(testbed_config());
  EXPECT_TRUE(testbed.diagnostics.empty())
      << (testbed.diagnostics.empty() ? "" : testbed.diagnostics.front().format());
  AnalysisReport production = analysis::lint_config(production_config());
  EXPECT_TRUE(production.diagnostics.empty())
      << (production.diagnostics.empty() ? "" : production.diagnostics.front().format());
}

TEST(ConfigLint, DuplicateDeviceIdIsCFG1Error) {
  core::EngineConfig config = testbed_config();
  config.devices.push_back(config.devices.front());
  AnalysisReport report = analysis::lint_config(config);
  const analysis::Diagnostic* d = find_rule(report, "CFG1");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Error);
}

TEST(ConfigLint, DanglingSiteReferenceIsCFG2Error) {
  core::EngineConfig config = testbed_config();
  core::SiteMeta site;
  site.name = "orphan";
  site.lab_position = geom::Vec3(0.1, 0.1, 0.1);
  site.grid_device = "no_such_grid";
  config.sites.push_back(site);
  AnalysisReport report = analysis::lint_config(config);
  const analysis::Diagnostic* d = find_rule(report, "CFG2");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Error);
}

TEST(ConfigLint, SoftWallOnUnknownArmIsCFG3Error) {
  core::EngineConfig config = testbed_config();
  config.soft_walls.push_back(core::SoftWallSpec{
      "ghost_arm", geom::Aabb(geom::Vec3(0, 0, 0), geom::Vec3(1, 1, 1))});
  AnalysisReport report = analysis::lint_config(config);
  ASSERT_NE(find_rule(report, "CFG3"), nullptr);

  // Referencing a non-arm device is equally wrong.
  core::EngineConfig config2 = testbed_config();
  config2.soft_walls.push_back(core::SoftWallSpec{
      "dosing_device", geom::Aabb(geom::Vec3(0, 0, 0), geom::Vec3(1, 1, 1))});
  AnalysisReport report2 = analysis::lint_config(config2);
  ASSERT_NE(find_rule(report2, "CFG3"), nullptr);
}

TEST(ConfigLint, ThresholdOnUnknownActionIsCFG4) {
  core::EngineConfig config = testbed_config();
  for (core::DeviceMeta& d : config.devices) {
    if (d.id == "hotplate") d.thresholds.push_back({"warp_drive", "speed", 9.0});
  }
  AnalysisReport report = analysis::lint_config(config);
  const analysis::Diagnostic* d = find_rule(report, "CFG4");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Warning);
}

TEST(ConfigLint, AliasShadowingCanonicalActionIsCFG5Error) {
  core::EngineConfig config = testbed_config();
  for (core::DeviceMeta& d : config.devices) {
    if (d.is_arm) d.action_aliases.emplace_back("move_to", "go_home");
  }
  AnalysisReport report = analysis::lint_config(config);
  const analysis::Diagnostic* d = find_rule(report, "CFG5");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Error);
}

TEST(ConfigLint, UnreachableSiteIsCFG6) {
  core::EngineConfig config = testbed_config();
  core::SiteMeta site;
  site.name = "far_away";
  site.lab_position = geom::Vec3(5.0, 5.0, 0.1);
  config.sites.push_back(site);
  AnalysisReport report = analysis::lint_config(config);
  const analysis::Diagnostic* d = find_rule(report, "CFG6");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Warning);
}

TEST(ConfigLint, OverlappingCuboidsAreCFG7) {
  core::EngineConfig config = testbed_config();
  core::DeviceMeta extra;
  extra.id = "phantom_station";
  extra.category = dev::DeviceCategory::ActionDevice;
  // Sits exactly on top of the hotplate.
  for (const core::DeviceMeta& d : config.devices) {
    if (d.id == "hotplate") extra.box = d.box;
  }
  config.devices.push_back(extra);
  AnalysisReport report = analysis::lint_config(config);
  ASSERT_NE(find_rule(report, "CFG7"), nullptr);
}

TEST(ConfigLint, NonPositiveThresholdIsCFG8) {
  core::EngineConfig config = testbed_config();
  for (core::DeviceMeta& d : config.devices) {
    if (d.id == "hotplate") d.thresholds.push_back({"stir", "rpm", -10.0});
  }
  AnalysisReport report = analysis::lint_config(config);
  ASSERT_NE(find_rule(report, "CFG8"), nullptr);
}

TEST(ConfigLint, UndeclaredArmOverlapIsCFG9) {
  // The testbed arms' reach spheres overlap; with time multiplexing switched
  // off and no soft wall, nothing in the config manages the shared region.
  core::EngineConfig config = testbed_config();
  config.time_multiplex = false;
  AnalysisReport report = analysis::lint_config(config);
  const analysis::Diagnostic* d = find_rule(report, "CFG9");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Warning);

  // Time multiplexing is a declared management policy: no CFG9 (this is why
  // the canonical testbed config stays clean).
  config.time_multiplex = true;
  EXPECT_EQ(find_rule(analysis::lint_config(config), "CFG9"), nullptr);

  // So is a soft wall keeping one arm out of the entire shared region.
  core::EngineConfig walled = testbed_config();
  walled.time_multiplex = false;
  walled.soft_walls.push_back(core::SoftWallSpec{
      "viperx", geom::Aabb(geom::Vec3(-10, -10, -10), geom::Vec3(10, 10, 10))});
  EXPECT_EQ(find_rule(analysis::lint_config(walled), "CFG9"), nullptr);
}

TEST(ConfigLint, TouchingWorkspaceEnvelopesAreStillCFG9) {
  // Zero-margin boundary: reach envelopes that share exactly one face.
  // AABB intersection is closed, so a zero-volume shared region still
  // counts — the arms can meet on that plane. One millimetre of daylight
  // between the envelopes clears the warning.
  auto make_arm = [](const std::string& id, double base_x) {
    core::DeviceMeta arm;
    arm.id = id;
    arm.is_arm = true;
    arm.base = geom::Transform::translation(geom::Vec3(base_x, 0.0, 0.0));
    // Home/sleep within 0.24 of the base keep max_arm_reach at its 0.6 floor,
    // making the envelope extents exact (no 2.5x multiplier in play).
    arm.home_position_lab = geom::Vec3(base_x + 0.1, 0.0, 0.1);
    arm.sleep_position_lab = geom::Vec3(base_x + 0.1, 0.0, 0.05);
    return arm;
  };
  core::EngineConfig config;
  config.time_multiplex = false;
  config.devices = {make_arm("arm_a", 0.0), make_arm("arm_b", 1.2)};

  AnalysisReport touching = analysis::lint_config(config);
  const analysis::Diagnostic* d = find_rule(touching, "CFG9");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Warning);

  config.devices[1] = make_arm("arm_b", 1.201);
  EXPECT_EQ(find_rule(analysis::lint_config(config), "CFG9"), nullptr);
}

TEST(ConfigLint, CapacityBelowSummedDosingThresholdsIsCFG10) {
  core::EngineConfig config = testbed_config();
  // Two devices with mass-dosing thresholds of 6 mg each: any single command
  // passes rule 11, but the 10 mg vials cannot hold the 12 mg sum.
  core::DeviceMeta second_doser;
  second_doser.id = "dosing_device_2";
  second_doser.category = dev::DeviceCategory::DosingSystem;
  second_doser.thresholds.push_back({"run_action", "quantity", 6.0});
  config.devices.push_back(second_doser);
  for (core::DeviceMeta& d : config.devices) {
    if (d.id == "dosing_device") d.thresholds.push_back({"run_action", "quantity", 6.0});
  }
  AnalysisReport report = analysis::lint_config(config);
  const analysis::Diagnostic* d = find_rule(report, "CFG10");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Warning);

  // A single dosing device never triggers it: one device's threshold against
  // one capacity is rule 11's own job.
  core::EngineConfig single = testbed_config();
  for (core::DeviceMeta& d : single.devices) {
    if (d.id == "dosing_device") d.thresholds.push_back({"run_action", "quantity", 60.0});
  }
  EXPECT_EQ(find_rule(analysis::lint_config(single), "CFG10"), nullptr);
}

// --- report plumbing ----------------------------------------------------------

TEST(Report, JsonSerializationRoundTrips) {
  AnalysisReport report;
  report.diagnostics.push_back(
      analysis::Diagnostic{Severity::Error, "G7", "door of dosing may be closed", 14});
  report.diagnostics.push_back(analysis::Diagnostic{Severity::Info, "A7", "skipped", 3});
  json::Value doc = analysis::report_to_json(report);
  const json::Object& root = doc.as_object();
  EXPECT_EQ(root.at("errors").as_int(), 1);
  EXPECT_EQ(root.at("warnings").as_int(), 0);
  const json::Array& diags = root.at("diagnostics").as_array();
  ASSERT_EQ(diags.size(), 2u);
  const json::Object& first = diags[0].as_object();
  EXPECT_EQ(first.at("rule").as_string(), "G7");
  EXPECT_EQ(first.at("line").as_int(), 14);
  EXPECT_EQ(first.at("severity").as_string(), "error");
}

TEST(Report, FormatIncludesLineSeverityAndRule) {
  analysis::Diagnostic d{Severity::Error, "G7", "door of dosing may be closed", 14};
  EXPECT_EQ(d.format(), "line 14: error G7 — door of dosing may be closed");
}
