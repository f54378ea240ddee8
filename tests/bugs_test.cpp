// Bug-injection tests: the StreamEditor operations, the 16-bug catalogue
// (the heart of the §IV evaluation), and the synthetic-bug generator.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string_view>

#include "bugs/bugs.hpp"
#include "sim/deck.hpp"

namespace rabit::bugs {
namespace {

using dev::Command;
using dev::Severity;
using geom::Vec3;
namespace ids = sim::deck_ids;

std::vector<Command> small_stream() {
  return {
      cmd("a", "one"),
      cmd("a", "two"),
      cmd("b", "one"),
      move_cmd("a", Vec3(1, 2, 3)),
  };
}

TEST(StreamEditor, FindByDeviceActionAndNth) {
  StreamEditor e(small_stream());
  EXPECT_EQ(e.find("a", "one"), 0u);
  EXPECT_EQ(e.find("b", "one"), 2u);
  EXPECT_EQ(e.find("a", "two", 0), 1u);
  EXPECT_THROW(static_cast<void>(e.find("a", "one", 1)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(e.find("z", "one")), std::out_of_range);
}

TEST(StreamEditor, FindWithArgPredicate) {
  StreamEditor e(small_stream());
  std::size_t i = e.find("a", "move_to", 0, [](const json::Value& args) {
    return args.find("position") != nullptr;
  });
  EXPECT_EQ(i, 3u);
}

TEST(StreamEditor, EraseInsertSwap) {
  StreamEditor e(small_stream());
  e.erase(1);
  EXPECT_EQ(e.size(), 3u);
  EXPECT_EQ(e.commands()[1].device, "b");
  e.insert(0, cmd("z", "zero"));
  EXPECT_EQ(e.commands()[0].device, "z");
  e.swap(0, 1);
  EXPECT_EQ(e.commands()[0].device, "a");
  EXPECT_THROW(e.erase(10), std::out_of_range);
  EXPECT_THROW(e.insert(99, cmd("x", "y")), std::out_of_range);
  EXPECT_THROW(e.swap(0, 99), std::out_of_range);
}

TEST(StreamEditor, SetArg) {
  StreamEditor e(small_stream());
  e.set_arg(0, "quantity", json::Value(50.0));
  EXPECT_DOUBLE_EQ(e.commands()[0].args.as_object().at("quantity").as_double(), 50.0);
}

TEST(StreamEditor, ReplacePositionEditsAllMatches) {
  std::vector<Command> stream = {
      move_cmd("a", Vec3(1, 2, 3)),
      move_cmd("a", Vec3(1, 2, 3)),
      move_cmd("a", Vec3(9, 9, 9)),
      move_cmd("b", Vec3(1, 2, 3)),  // different device: untouched
  };
  StreamEditor e(std::move(stream));
  std::size_t edits = e.replace_position("a", Vec3(1, 2, 3), Vec3(1, 2, 0.5));
  EXPECT_EQ(edits, 2u);
  EXPECT_DOUBLE_EQ(e.commands()[0].args.as_object().at("position").as_array()[2].as_double(),
                   0.5);
  EXPECT_DOUBLE_EQ(e.commands()[3].args.as_object().at("position").as_array()[2].as_double(),
                   3.0);
}

// --- the catalogue -------------------------------------------------------------

TEST(BugCatalogue, HasSixteenBugsWithPaperSeverityTotals) {
  const auto& bugs = bug_catalogue();
  ASSERT_EQ(bugs.size(), 16u);
  std::map<Severity, int> totals;
  for (const BugSpec& b : bugs) ++totals[b.severity];
  // Table V: Low 3, Medium-Low 1, Medium-High 6, High 6.
  EXPECT_EQ(totals[Severity::Low], 3);
  EXPECT_EQ(totals[Severity::MediumLow], 1);
  EXPECT_EQ(totals[Severity::MediumHigh], 6);
  EXPECT_EQ(totals[Severity::High], 6);
}

TEST(BugCatalogue, AllFourPaperCategoriesPresent) {
  std::set<BugCategory> seen;
  for (const BugSpec& b : bug_catalogue()) seen.insert(b.category);
  EXPECT_TRUE(seen.contains(BugCategory::DoorInteraction));
  EXPECT_TRUE(seen.contains(BugCategory::ArmArmCollision));
  EXPECT_TRUE(seen.contains(BugCategory::MissingVial));
  EXPECT_TRUE(seen.contains(BugCategory::CoordinateChange));
}

TEST(BugCatalogue, IdsUnique) {
  std::set<std::string> ids_seen;
  for (const BugSpec& b : bug_catalogue()) {
    EXPECT_TRUE(ids_seen.insert(b.id).second) << "duplicate id " << b.id;
    EXPECT_FALSE(b.description.empty());
  }
}

/// Per-bug end-to-end parameterized check: under every variant, the bug is
/// detected exactly from its documented variant onward, and the detection
/// rate never regresses as RABIT improves.
struct BugVariantCase {
  std::size_t bug_index;
  core::Variant variant;
};

class BugDetection : public ::testing::TestWithParam<BugVariantCase> {};

/// The rule of each catalogue bug's first alert under V1, V2 and V3 (empty:
/// no alert), pinned so that no change to rule order or config lookups can
/// silently swap which rule catches a bug.
const std::map<std::string, std::array<std::string_view, 3>, std::less<>> kAlertRules = {
    {"H1", {"G1", "G1", "G1"}},   {"H2", {"G2", "G2", "G2"}},    {"H3", {"G3", "G3", "G3"}},
    {"H4", {"G3", "G3", "G3"}},   {"H5", {"G11", "G11", "G11"}}, {"H6", {"G1", "G1", "G1"}},
    {"M1", {"", "M1", "M1"}},     {"M2", {"", "G3", "G3"}},      {"M3", {"", "G3", "G3"}},
    {"M4", {"", "", "SIM"}},      {"M5", {"", "G3", "G3"}},      {"M6", {"", "", ""}},
    {"L1", {"G8", "G8", "G8"}},   {"L2", {"", "", ""}},          {"L3", {"", "", ""}},
    {"ML1", {"G3", "G3", "G3"}},
};

TEST_P(BugDetection, MatchesDocumentedVariant) {
  const BugSpec& bug = bug_catalogue()[GetParam().bug_index];
  core::Variant variant = GetParam().variant;
  BugOutcome outcome = evaluate_bug(bug, variant);

  bool expect_detected =
      bug.detected_from.has_value() &&
      static_cast<int>(variant) >= static_cast<int>(*bug.detected_from);
  EXPECT_EQ(outcome.detected, expect_detected)
      << bug.id << " under " << core::to_string(variant) << " (alert rule '"
      << outcome.alert_rule << "')";
  EXPECT_EQ(outcome.alert_rule, kAlertRules.at(bug.id)[static_cast<std::size_t>(variant)])
      << bug.id << " under " << core::to_string(variant);

  if (!outcome.detected) {
    // A missed bug must actually damage something — otherwise it isn't a bug.
    EXPECT_TRUE(outcome.damaged) << bug.id;
    ASSERT_TRUE(outcome.damage_severity.has_value());
    EXPECT_EQ(*outcome.damage_severity, bug.severity) << bug.id;
  } else {
    // A detected bug is stopped before its damage materializes.
    EXPECT_FALSE(outcome.damaged) << bug.id << ": " << outcome.report.damage.size()
                                  << " damage events despite detection";
  }
}

std::vector<BugVariantCase> all_bug_variant_cases() {
  std::vector<BugVariantCase> cases;
  for (std::size_t i = 0; i < bug_catalogue().size(); ++i) {
    for (core::Variant v :
         {core::Variant::Initial, core::Variant::Modified, core::Variant::ModifiedWithSim}) {
      cases.push_back(BugVariantCase{i, v});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Catalogue, BugDetection, ::testing::ValuesIn(all_bug_variant_cases()),
                         [](const ::testing::TestParamInfo<BugVariantCase>& info) {
                           return bug_catalogue()[info.param.bug_index].id + "_" +
                                  std::string(core::to_string(info.param.variant) ==
                                                      "modified+sim"
                                                  ? "modified_sim"
                                                  : core::to_string(info.param.variant));
                         });

TEST(BugDetectionSummary, PaperProgression) {
  // The headline §IV numbers: 8/16 -> 12/16 -> 13/16.
  int detected_v1 = 0;
  int detected_v2 = 0;
  int detected_v3 = 0;
  for (const BugSpec& b : bug_catalogue()) {
    if (evaluate_bug(b, core::Variant::Initial).detected) ++detected_v1;
    if (evaluate_bug(b, core::Variant::Modified).detected) ++detected_v2;
    if (evaluate_bug(b, core::Variant::ModifiedWithSim).detected) ++detected_v3;
  }
  EXPECT_EQ(detected_v1, 8);
  EXPECT_EQ(detected_v2, 12);
  EXPECT_EQ(detected_v3, 13);
}

/// Zero false positives (the paper's alarm-fatigue argument): every bug's
/// safe baseline runs alert-free and damage-free under every variant.
class SafeBaselines : public ::testing::TestWithParam<BugVariantCase> {};

TEST_P(SafeBaselines, NoFalsePositives) {
  const BugSpec& bug = bug_catalogue()[GetParam().bug_index];
  sim::LabBackend staging(sim::testbed_profile());
  sim::build_hein_testbed_deck(staging);
  BugOutcome outcome = evaluate_stream(bug.build_safe(staging), GetParam().variant);
  EXPECT_FALSE(outcome.alerted) << bug.id << ": false alarm '" << outcome.alert_rule << "'";
  EXPECT_FALSE(outcome.damaged) << bug.id << ": baseline caused damage";
}

INSTANTIATE_TEST_SUITE_P(Catalogue, SafeBaselines, ::testing::ValuesIn(all_bug_variant_cases()),
                         [](const ::testing::TestParamInfo<BugVariantCase>& info) {
                           return bug_catalogue()[info.param.bug_index].id + "_" +
                                  std::string(core::to_string(info.param.variant) ==
                                                      "modified+sim"
                                                  ? "modified_sim"
                                                  : core::to_string(info.param.variant));
                         });

// --- synthetic generator --------------------------------------------------------

TEST(RandomMutation, DeterministicPerSeed) {
  sim::LabBackend staging(sim::testbed_profile());
  sim::build_hein_testbed_deck(staging);
  auto base = bug_catalogue()[0].build_safe(staging);

  std::mt19937 rng_a(5);
  std::mt19937 rng_b(5);
  SyntheticBug a = random_mutation(base, rng_a);
  SyntheticBug b = random_mutation(base, rng_b);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.detail, b.detail);
  EXPECT_EQ(a.commands.size(), b.commands.size());
}

TEST(RandomMutation, ProducesValidStreams) {
  sim::LabBackend staging(sim::testbed_profile());
  sim::build_hein_testbed_deck(staging);
  auto base = bug_catalogue()[0].build_safe(staging);

  std::mt19937 rng(123);
  for (int i = 0; i < 50; ++i) {
    SyntheticBug bug = random_mutation(base, rng);
    EXPECT_FALSE(bug.detail.empty());
    EXPECT_GE(bug.commands.size(), base.size() - 1);
    // Every mutant stream still evaluates end to end without crashing the
    // harness (alerts and damage are legitimate outcomes).
    EXPECT_NO_THROW({
      BugOutcome outcome = evaluate_stream(bug.commands, core::Variant::Modified);
      (void)outcome;
    }) << bug.detail;
  }
}

TEST(RandomMutation, RejectsEmptyBase) {
  std::mt19937 rng(1);
  EXPECT_THROW(static_cast<void>(random_mutation({}, rng)), std::invalid_argument);
}

TEST(BugCategoryNames, Distinct) {
  std::set<std::string_view> names;
  for (BugCategory c :
       {BugCategory::DoorInteraction, BugCategory::ArmArmCollision, BugCategory::MissingVial,
        BugCategory::CoordinateChange, BugCategory::ArgumentChange, BugCategory::OrderChange}) {
    names.insert(to_string(c));
  }
  EXPECT_EQ(names.size(), 6u);
}

}  // namespace
}  // namespace rabit::bugs
