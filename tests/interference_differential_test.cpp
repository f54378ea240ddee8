// Differential soundness sweep for the whole-campaign interference analyzer:
// seeded multi-stream campaigns run for real on one shared lab
// (fleet::Fleet::run_campaign), and every *cross-stream* runtime precondition
// alert — one the same stream does not raise solo — must be covered by a
// static I1..I6 diagnostic whose subjects name the alerting device. The
// static report may over-approximate (warn about races a particular
// interleaving dodges) but must never miss the regime the runtime proved.
//
// A failing seed replays in one line:
//   campaign_for(<seed>)  +  fleet::Fleet::run_campaign / analyze_campaign
#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "analysis/interference.hpp"
#include "analysis/shard_plan.hpp"
#include "interference_sweep.hpp"

using namespace rabit;
using sweep::campaign_for;
using sweep::kSeedBase;
using sweep::kSeedCount;
using sweep::testbed_config;

namespace {

bool covered_by(const analysis::AnalysisReport& report, const std::string& device) {
  for (const analysis::Diagnostic& d : report.diagnostics) {
    if (d.rule.empty() || d.rule[0] != 'I') continue;
    for (const std::string& s : d.subjects) {
      if (s == device) return true;
    }
  }
  return false;
}

struct Miss {
  unsigned seed;
  std::size_t stream;
  std::size_t command_index;
  std::string rule;
  std::string device;
};

}  // namespace

TEST(InterferenceDifferential, EveryCrossStreamAlertHasAStaticCover) {
  core::EngineConfig config = testbed_config();
  std::vector<Miss> misses;
  std::size_t cross_stream_alerts = 0;
  std::size_t campaigns_with_interference = 0;

  for (unsigned i = 0; i < kSeedCount; ++i) {
    unsigned seed = kSeedBase + i;
    fleet::CampaignSpec spec = campaign_for(seed);
    fleet::CampaignReport runtime = fleet::Fleet::run_campaign(spec);

    std::vector<analysis::CampaignStream> streams;
    streams.reserve(spec.streams.size());
    for (const fleet::CampaignStreamSpec& s : spec.streams) {
      streams.push_back({s.name, s.commands});
    }
    analysis::AnalysisReport report = analysis::analyze_campaign(config, streams);

    bool any_cross = false;
    for (const fleet::CampaignAlert& a : runtime.alerts) {
      if (!a.cross_stream) continue;
      if (a.alert.kind != core::AlertKind::InvalidCommand) continue;
      any_cross = true;
      ++cross_stream_alerts;
      if (!covered_by(report, a.alert.command.device)) {
        misses.push_back(Miss{seed, a.stream, a.command_index, a.alert.rule,
                              a.alert.command.device});
      }
    }
    if (any_cross) ++campaigns_with_interference;
  }

  for (const Miss& m : misses) {
    std::printf(
        "UNCOVERED: seed %u stream %zu cmd %zu rule %s device '%s' — replay with "
        "fleet::Fleet::run_campaign(campaign_for(%u)) vs analyze_campaign\n",
        m.seed, m.stream, m.command_index, m.rule.c_str(), m.device.c_str(), m.seed);
  }
  EXPECT_TRUE(misses.empty()) << misses.size() << " cross-stream runtime alerts had no "
                              << "covering I-diagnostic (seeds listed above)";

  // Non-vacuity: racing mutated copies of the same workflow on one lab must
  // actually interfere, or this sweep proves nothing.
  EXPECT_GT(cross_stream_alerts, 10u);
  EXPECT_GT(campaigns_with_interference, 5u);
  std::printf("interference sweep: %u campaigns, %zu with cross-stream alerts, "
              "%zu cross-stream alerts total, %zu uncovered\n",
              kSeedCount, campaigns_with_interference, cross_stream_alerts, misses.size());
}

TEST(InterferenceDifferential, ShardPlansAreSoundAcrossTheSweep) {
  // The shard planner's static certificates must hold up against the same
  // 120-campaign sweep: verify_plan replays cleanly for every seed, every
  // emitted S-diagnostic carries concrete conflict evidence, and whenever a
  // campaign splits into >1 shard, the plan-driven sharded run agrees with
  // the monolithic run (the fleet validation oracle stays silent).
  core::EngineConfig config = testbed_config();
  std::size_t multi_shard_campaigns = 0;
  std::size_t s_diagnostics = 0;

  for (unsigned i = 0; i < kSeedCount; ++i) {
    unsigned seed = kSeedBase + i;
    fleet::CampaignSpec spec = campaign_for(seed);

    std::vector<analysis::StreamSummary> summaries;
    summaries.reserve(spec.streams.size());
    for (const fleet::CampaignStreamSpec& s : spec.streams) {
      summaries.push_back(analysis::summarize_stream(config, s.name, s.commands, {}, nullptr));
    }
    analysis::ShardPlan plan = analysis::plan_shards(config, summaries);

    std::vector<std::string> static_violations = analysis::verify_plan(config, summaries, plan);
    for (const std::string& v : static_violations) {
      std::printf("PLAN VIOLATION: seed %u: %s\n", seed, v.c_str());
    }
    ASSERT_TRUE(static_violations.empty()) << "seed " << seed;

    for (const analysis::Diagnostic& d : plan.diagnostics.diagnostics) {
      if (d.rule.empty() || d.rule[0] != 'S') continue;
      ++s_diagnostics;
      EXPECT_FALSE(d.streams.empty()) << "seed " << seed << " " << d.rule
                                      << " names no streams";
      // Every S-diagnostic must cite concrete conflict evidence, not just a
      // verdict: the message embeds a kind tag like "shared-device ...".
      bool has_evidence = false;
      for (const char* kind :
           {"shared-device", "multiplex-token", "shared-entity", "envelope-overlap",
            "consumable-budget", "setpoint-race", "ignore-asymmetry", "threshold-budget",
            "truncated-summary"}) {
        if (d.message.find(kind) != std::string::npos) has_evidence = true;
      }
      EXPECT_TRUE(has_evidence) << "seed " << seed << " " << d.rule
                                << " lacks conflict evidence: " << d.message;
    }

    if (plan.shards.size() > 1) {
      ++multi_shard_campaigns;
      fleet::ShardedCampaignOptions options;
      options.workers = 2;
      options.validate_certificates = true;
      fleet::CampaignReport sharded = fleet::Fleet::run_campaign(spec, plan, options);
      for (const std::string& v : sharded.oracle_violations) {
        std::printf("ORACLE VIOLATION: seed %u: %s\n", seed, v.c_str());
      }
      EXPECT_TRUE(sharded.oracle_violations.empty()) << "seed " << seed;
      EXPECT_EQ(sharded.shards, plan.shards.size()) << "seed " << seed;
    }
  }
  std::printf("shard sweep: %u campaigns, %zu multi-shard, %zu S-diagnostics\n",
              kSeedCount, multi_shard_campaigns, s_diagnostics);
}

TEST(InterferenceDifferential, MixedCampaignShardsNonVacuouslyWithCleanOracle) {
  // Mutated copies of the Fig. 5 workflow always contend (same devices), so
  // the sweep above mostly exercises the single-shard path. This campaign
  // mixes one contended pair with station streams on otherwise-untouched
  // devices, forcing a genuinely multi-shard plan whose certificates the
  // runtime oracle then has to confirm.
  core::EngineConfig config = testbed_config();
  fleet::CampaignSpec spec;
  spec.variant = core::Variant::Modified;
  spec.seed = 4242;
  spec.halt_on_alert = false;

  auto station = [](std::string name, std::string device, std::string action,
                    json::Object args) {
    fleet::CampaignStreamSpec stream;
    stream.name = std::move(name);
    dev::Command command;
    command.device = std::move(device);
    command.action = std::move(action);
    command.args = std::move(args);
    stream.commands.push_back(std::move(command));
    return stream;
  };
  json::Object heat_a;
  heat_a["celsius"] = 55.0;
  json::Object heat_b;
  heat_b["celsius"] = 90.0;
  json::Object shake;
  shake["celsius"] = 40.0;
  json::Object door;
  door["state"] = std::string("open");
  spec.streams.push_back(station("anneal-a", "hotplate", "set_temperature", heat_a));
  spec.streams.push_back(station("anneal-b", "hotplate", "set_temperature", heat_b));
  spec.streams.push_back(station("shake", "thermoshaker", "set_temperature", shake));
  spec.streams.push_back(station("spin-prep", "centrifuge", "set_door", door));

  std::vector<analysis::StreamSummary> summaries;
  for (const fleet::CampaignStreamSpec& s : spec.streams) {
    summaries.push_back(analysis::summarize_stream(config, s.name, s.commands, {}, nullptr));
  }
  analysis::ShardPlan plan = analysis::plan_shards(config, summaries);
  ASSERT_EQ(plan.shards.size(), 3u);  // {anneal-a, anneal-b}, {shake}, {spin-prep}
  EXPECT_TRUE(analysis::verify_plan(config, summaries, plan).empty());
  EXPECT_FALSE(plan.certificates.empty());

  fleet::ShardedCampaignOptions options;
  options.workers = 3;
  options.validate_certificates = true;
  fleet::CampaignReport sharded = fleet::Fleet::run_campaign(spec, plan, options);
  for (const std::string& v : sharded.oracle_violations) {
    std::printf("ORACLE VIOLATION: %s\n", v.c_str());
  }
  EXPECT_TRUE(sharded.oracle_violations.empty());
  EXPECT_EQ(sharded.shards, 3u);
}

TEST(InterferenceDifferential, SingleStreamCatalogueVerdictsUnchanged) {
  // The campaign machinery must not disturb the paper's single-stream
  // headline: the 16-bug catalogue still detects 8/12/13 across variants.
  const core::Variant variants[] = {core::Variant::Initial, core::Variant::Modified,
                                    core::Variant::ModifiedWithSim};
  const std::size_t expected[] = {8, 12, 13};
  for (std::size_t v = 0; v < 3; ++v) {
    std::size_t detected = 0;
    for (const bugs::BugSpec& bug : bugs::bug_catalogue()) {
      if (bugs::evaluate_bug(bug, variants[v]).detected) ++detected;
    }
    EXPECT_EQ(detected, expected[v]) << "variant " << core::to_string(variants[v]);
  }
}
