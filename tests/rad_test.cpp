// RAD dataset generator and rule miner tests (paper §II-A).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "devices/robot_arm.hpp"
#include "kinematics/kinematics.hpp"
#include "rad/rad.hpp"
#include "sim/deck.hpp"

namespace rabit::rad {
namespace {

namespace ids = sim::deck_ids;

class RadTest : public ::testing::Test {
 protected:
  RadTest() : deck(sim::testbed_profile()) { sim::build_hein_testbed_deck(deck); }
  sim::LabBackend deck;
};

TEST_F(RadTest, AbstractionMapsCommandsToSymbols) {
  std::vector<dev::Command> cmds;
  auto push = [&](const char* device, const char* action, json::Object args = {}) {
    dev::Command c;
    c.device = device;
    c.action = action;
    c.args = json::Value(std::move(args));
    cmds.push_back(std::move(c));
  };
  push(ids::kDosingDevice, "set_door", [] {
    json::Object o;
    o["state"] = std::string("open");
    return o;
  }());
  push(ids::kVial1, "decap");
  // A move whose target lands inside the dosing device is an entry.
  geom::Vec3 local =
      deck.arm(ids::kViperX).to_local(deck.find_site("dosing_device")->lab_position);
  push(ids::kViperX, "move_to", [&] {
    json::Object o;
    o["position"] = json::Array{local.x, local.y, local.z};
    return o;
  }());
  // A move in free space is dropped.
  push(ids::kViperX, "move_to", [] {
    json::Object o;
    o["position"] = json::Array{0.2, -0.2, 0.35};
    return o;
  }());
  push(ids::kViperX, "close_gripper");
  push(ids::kDosingDevice, "run_action", [] {
    json::Object o;
    o["quantity"] = 5.0;
    return o;
  }());

  auto events = abstract_events(cmds, deck);
  EXPECT_EQ(events,
            (std::vector<Event>{"open:dosing_device", "decap:vial_1", "enter:dosing_device",
                                "grab:viperx", "dose_solid:dosing_device"}));
}

TEST_F(RadTest, GeneratorIsDeterministicPerSeed) {
  GeneratorOptions opts;
  opts.days = 5;
  auto a = generate_dataset(deck, opts);
  auto b = generate_dataset(deck, opts);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].commands.size(), b[i].commands.size());
  }
  opts.seed = 99;
  auto c = generate_dataset(deck, opts);
  bool any_difference = a.size() != c.size();
  for (std::size_t i = 0; !any_difference && i < a.size(); ++i) {
    any_difference = a[i].commands.size() != c[i].commands.size();
  }
  EXPECT_TRUE(any_difference);
}

TEST_F(RadTest, GeneratorScalesWithDays) {
  GeneratorOptions opts;
  opts.days = 10;
  opts.experiments_per_day_min = 2;
  opts.experiments_per_day_max = 4;
  auto sessions = generate_dataset(deck, opts);
  EXPECT_GE(sessions.size(), 20u);
  EXPECT_LE(sessions.size(), 40u);
  for (const TraceSession& s : sessions) {
    EXPECT_GE(s.day, 0);
    EXPECT_LT(s.day, 10);
    EXPECT_GT(s.commands.size(), 15u);
  }
}

TEST_F(RadTest, MinerRecoversPlantedRules) {
  GeneratorOptions opts;  // default: 90 days, RAD scale
  auto sessions = generate_dataset(deck, opts);
  std::vector<std::vector<Event>> abstracted;
  abstracted.reserve(sessions.size());
  for (const TraceSession& s : sessions) abstracted.push_back(abstract_events(s.commands, deck));

  auto mined = mine_rules(abstracted, MinerOptions{});
  MiningScore score = score_mining(mined);
  EXPECT_EQ(score.false_negatives, 0u) << "a planted rule was not recovered";
  EXPECT_DOUBLE_EQ(score.recall(), 1.0);
  EXPECT_GE(score.precision(), 0.8);
}

TEST_F(RadTest, MinerConfidenceThresholdFiltersNoise) {
  // A rule violated in a third of sessions must not survive a 0.97 bar.
  std::vector<std::vector<Event>> sessions;
  for (int i = 0; i < 30; ++i) {
    if (i % 3 == 0) {
      sessions.push_back({"b", "a"});  // violation: a not preceded by b
    } else {
      sessions.push_back({"a", "b"});
    }
  }
  MinerOptions opts;
  opts.min_support = 10;
  opts.min_confidence = 0.97;
  auto mined = mine_rules(sessions, opts);
  for (const MinedRule& r : mined) {
    EXPECT_FALSE(r.antecedent == "a" && r.consequent == "b");
  }
  // Lowering the bar lets it through.
  opts.min_confidence = 0.6;
  mined = mine_rules(sessions, opts);
  bool found = false;
  for (const MinedRule& r : mined) found |= r.antecedent == "a" && r.consequent == "b";
  EXPECT_TRUE(found);
}

TEST_F(RadTest, MinerSupportThreshold) {
  std::vector<std::vector<Event>> sessions = {{"x", "y"}, {"x", "y"}};
  MinerOptions opts;
  opts.min_support = 20;
  EXPECT_TRUE(mine_rules(sessions, opts).empty());
  opts.min_support = 2;
  EXPECT_FALSE(mine_rules(sessions, opts).empty());
}

TEST_F(RadTest, MinedRulesSortedByConfidenceThenSupport) {
  GeneratorOptions opts;
  opts.days = 30;
  auto sessions = generate_dataset(deck, opts);
  std::vector<std::vector<Event>> abstracted;
  for (const TraceSession& s : sessions) abstracted.push_back(abstract_events(s.commands, deck));
  auto mined = mine_rules(abstracted, MinerOptions{});
  for (std::size_t i = 1; i < mined.size(); ++i) {
    EXPECT_GE(mined[i - 1].confidence, mined[i].confidence);
  }
}

TEST(MiningScoreMath, PrecisionRecallEdgeCases) {
  MiningScore empty;
  EXPECT_DOUBLE_EQ(empty.precision(), 0.0);
  EXPECT_DOUBLE_EQ(empty.recall(), 0.0);
  MiningScore s;
  s.true_positives = 3;
  s.false_positives = 1;
  s.false_negatives = 2;
  EXPECT_DOUBLE_EQ(s.precision(), 0.75);
  EXPECT_DOUBLE_EQ(s.recall(), 0.6);
}

TEST(MinedRuleDescribe, MentionsBothEvents) {
  MinedRule r{"open:dosing_device", "enter:dosing_device", 42, 0.99};
  std::string d = r.describe();
  EXPECT_NE(d.find("open:dosing_device"), std::string::npos);
  EXPECT_NE(d.find("enter:dosing_device"), std::string::npos);
}

TEST(PlantedRules, MapToPaperTables) {
  auto rules = planted_rules();
  EXPECT_EQ(rules.size(), 5u);
  // The two flagship examples from §II-A: doors open before entry (general)
  // and solids before liquids (Hein-custom).
  bool door_rule = false;
  bool solid_rule = false;
  for (const auto& [a, b] : rules) {
    door_rule |= a == "open:dosing_device" && b == "enter:dosing_device";
    solid_rule |= a == "dose_solid:dosing_device" && b == "dose_liquid:syringe_pump";
  }
  EXPECT_TRUE(door_rule);
  EXPECT_TRUE(solid_rule);
}

/// The message of the std::invalid_argument synth_session throws on `deck`.
std::string synth_error(const sim::LabBackend& deck) {
  std::mt19937_64 rng(7);
  try {
    (void)synth_session(deck, rng);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no std::invalid_argument";
}

TEST(RadSynthSession, ProductionDeckHasNoViperXAndSaysSo) {
  sim::LabBackend deck(sim::production_profile());
  sim::build_hein_production_deck(deck);
  EXPECT_EQ(synth_error(deck), "rad session: the deck has no 'viperx' arm");
}

TEST(RadSynthSession, ADeckWithoutTheDosingSiteSaysSo) {
  sim::LabBackend deck(sim::testbed_profile());
  deck.registry().add(std::make_unique<dev::RobotArmDevice>(
      ids::kViperX, kin::make_viperx300(geom::Transform::translation(geom::Vec3(0, 0, 0))),
      dev::MotionPolicy::SilentSkipOnUnreachable));
  EXPECT_EQ(synth_error(deck), "rad session: the deck has no 'dosing_device' site");
}

}  // namespace
}  // namespace rabit::rad
