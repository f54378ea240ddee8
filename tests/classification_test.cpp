// Solo classification against its full-replay reference, and the work a
// campaign does. Fleet::run and Fleet::run_campaign record each distinct
// script once and replay each distinct alerted command list once, cut after
// its furthest alert. The reference below keeps the plain semantics: every
// script stream recorded on its own staging lab, every alerted stream
// replayed alone, in full and serially, on a fresh lab. Every cross_stream
// flag must agree with it.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bugs/bugs.hpp"
#include "core/lab.hpp"
#include "fleet/fleet.hpp"
#include "interference_sweep.hpp"
#include "scenario/fuzz.hpp"
#include "scenario/scenario.hpp"
#include "script/workflows.hpp"
#include "trace/trace.hpp"

#ifndef RABIT_SOURCE_DIR
#error "tests/CMakeLists.txt must define RABIT_SOURCE_DIR"
#endif

namespace rabit {
namespace {

using bugs::cmd;

/// (stream, command index, rule, cross_stream) of every alert.
using Verdicts = std::vector<std::tuple<std::size_t, std::size_t, std::string, bool>>;

Verdicts verdicts(const fleet::CampaignReport& report) {
  Verdicts out;
  for (const fleet::CampaignAlert& a : report.alerts) {
    out.emplace_back(a.stream, a.command_index, a.alert.rule, a.cross_stream);
  }
  return out;
}

/// Stream `s` as the reference resolves it: a script stream is recorded on
/// its own staging lab, built with the campaign's seed and deck.
std::vector<dev::Command> reference_commands(const fleet::CampaignSpec& spec, std::size_t s) {
  const fleet::CampaignStreamSpec& stream = spec.streams[s];
  if (!stream.commands.empty() || stream.script.empty()) return stream.commands;
  sim::LabBackend staging(sim::testbed_profile(), spec.seed);
  core::build_deck(staging, spec.deck);
  return script::record_workflow(staging, stream.script);
}

/// The reference classifier: the report's alerts, each flagged cross-stream
/// unless the full solo replay of its stream raises the same rule at the
/// same command index.
Verdicts reference_verdicts(const fleet::CampaignSpec& spec, const fleet::CampaignReport& report) {
  std::map<std::size_t, std::set<std::pair<std::size_t, std::string>>> solo;
  for (const fleet::CampaignAlert& a : report.alerts) {
    if (solo.contains(a.stream)) continue;
    std::set<std::pair<std::size_t, std::string>>& alerts = solo[a.stream];
    core::Lab lab(spec.variant, spec.seed, spec.deck);
    trace::Supervisor::Options options;
    options.halt_on_alert = false;
    trace::Supervisor supervisor(&lab.engine, &lab.backend, options);
    supervisor.start();
    std::vector<dev::Command> commands = reference_commands(spec, a.stream);
    for (std::size_t k = 0; k < commands.size() && !supervisor.halted(); ++k) {
      trace::SupervisedStep step = supervisor.step(commands[k]);
      if (step.alert) alerts.emplace(k, step.alert->rule);
    }
  }
  Verdicts out;
  for (const fleet::CampaignAlert& a : report.alerts) {
    bool solo_alert = solo[a.stream].contains({a.command_index, a.alert.rule});
    out.emplace_back(a.stream, a.command_index, a.alert.rule, !solo_alert);
  }
  return out;
}

/// Checks Fleet::run and the monolithic Fleet::run_campaign(spec) against
/// the reference; returns Fleet::run's report.
fleet::CampaignReport expect_reference_classification(const fleet::CampaignSpec& spec,
                                                      std::size_t workers = 2) {
  fleet::ShardedCampaignOptions options;
  options.workers = workers;
  fleet::CampaignReport sharded = fleet::Fleet::run(spec, options);
  EXPECT_EQ(verdicts(sharded), reference_verdicts(spec, sharded)) << "Fleet::run";
  fleet::CampaignReport monolithic = fleet::Fleet::run_campaign(spec);
  EXPECT_EQ(verdicts(monolithic), reference_verdicts(spec, monolithic)) << "run_campaign";
  return sharded;
}

/// A corpus spec as the scenario runner submits a multi-stream one.
fleet::CampaignSpec corpus_campaign(const scenario::ScenarioSpec& genome) {
  fleet::CampaignSpec spec;
  spec.variant = genome.variant;
  spec.seed = static_cast<unsigned>(genome.seed);
  spec.halt_on_alert = genome.halt_on_alert;
  spec.streams = scenario::materialize(genome).streams;
  return spec;
}

/// Twenty scenario-genome streams cycling testbed, hotplate, dosing,
/// rad_dosing and park on the stock deck, V3, with testbed streams given as
/// DSL source: a smaller campaign_contended.
fleet::CampaignSpec contended_cycle_campaign() {
  using scenario::WorkflowKind;
  constexpr WorkflowKind kCycle[] = {WorkflowKind::Testbed, WorkflowKind::Hotplate,
                                     WorkflowKind::Dosing, WorkflowKind::RadDosing,
                                     WorkflowKind::Park};
  scenario::ScenarioSpec genome;
  genome.seed = 20;
  genome.variant = core::Variant::ModifiedWithSim;
  genome.halt_on_alert = false;
  for (std::size_t i = 0; i < 20; ++i) {
    scenario::StreamGene gene;
    gene.workflow = kCycle[i % std::size(kCycle)];
    gene.seed = scenario::derive_seed(genome.seed, 100 + i) | 1;
    genome.streams.push_back(gene);
  }
  fleet::CampaignSpec spec = corpus_campaign(genome);
  for (std::size_t i = 0; i < spec.streams.size(); ++i) {
    if (genome.streams[i].workflow != WorkflowKind::Testbed) continue;
    spec.streams[i].commands.clear();
    spec.streams[i].script = script::testbed_workflow_source();
  }
  return spec;
}

std::vector<scenario::CorpusEntry> corpus() {
  return scenario::load_corpus_dir(std::string(RABIT_SOURCE_DIR) + "/corpus");
}

TEST(SoloClassification, MatchesTheFullReplayReferenceOnTheSweep) {
  std::size_t alerts = 0;
  std::size_t cross = 0;
  for (unsigned seed = sweep::kSeedBase; seed < sweep::kSeedBase + sweep::kSeedCount; ++seed) {
    SCOPED_TRACE("sweep seed " + std::to_string(seed));
    fleet::CampaignReport report = expect_reference_classification(sweep::campaign_for(seed));
    alerts += report.alerts.size();
    cross += report.cross_stream_alerts();
  }
  // Not vacuous: both kinds of verdict occur.
  EXPECT_GT(cross, 0u);
  EXPECT_GT(alerts, cross);
}

TEST(SoloClassification, MatchesTheFullReplayReferenceOnTheCorpus) {
  // Every spec, single-stream ones too, submitted as a campaign.
  std::vector<scenario::CorpusEntry> entries = corpus();
  ASSERT_GE(entries.size(), 5u);
  for (const scenario::CorpusEntry& entry : entries) {
    SCOPED_TRACE(entry.name);
    (void)expect_reference_classification(corpus_campaign(entry.spec));
  }
}

TEST(SoloClassification, MatchesTheFullReplayReferenceOnTheExampleCampaigns) {
  std::size_t campaigns = 0;
  for (const auto& file :
       std::filesystem::directory_iterator(std::string(RABIT_SOURCE_DIR) + "/examples/campaigns")) {
    SCOPED_TRACE(file.path().filename().string());
    std::ifstream in(file.path());
    std::stringstream text;
    text << in.rdbuf();
    (void)expect_reference_classification(fleet::load_campaign(json::parse(text.str())));
    ++campaigns;
  }
  EXPECT_EQ(campaigns, 3u);
}

TEST(SoloClassification, MatchesTheFullReplayReferenceWithScriptStreams) {
  fleet::CampaignReport report = expect_reference_classification(contended_cycle_campaign(), 4);
  EXPECT_GT(report.cross_stream_alerts(), 0u);
}

TEST(SoloClassification, SameReportOnAnyWorkerCount) {
  // The solo replays run on the worker pool: alerts, their messages and
  // cross_stream flags, and the work counts must not depend on its size.
  std::vector<std::pair<std::string, fleet::CampaignSpec>> campaigns;
  campaigns.emplace_back("contended cycle", contended_cycle_campaign());
  std::vector<scenario::CorpusEntry> entries = corpus();
  for (const scenario::CorpusEntry& entry : entries) {
    if (entry.name == "stress_64_streams") {
      campaigns.emplace_back(entry.name, corpus_campaign(entry.spec));
    }
  }
  for (const auto& file :
       std::filesystem::directory_iterator(std::string(RABIT_SOURCE_DIR) + "/examples/campaigns")) {
    std::ifstream in(file.path());
    std::stringstream text;
    text << in.rdbuf();
    campaigns.emplace_back(file.path().filename().string(),
                           fleet::load_campaign(json::parse(text.str())));
  }
  ASSERT_EQ(campaigns.size(), 5u);

  using Alerts = std::vector<std::tuple<std::size_t, std::size_t, std::string, std::string, bool>>;
  std::size_t replays = 0;
  for (const auto& [name, spec] : campaigns) {
    SCOPED_TRACE(name);
    Alerts first_alerts;
    fleet::CampaignReport first;
    for (std::size_t workers : {1u, 2u, 4u, 8u}) {
      fleet::ShardedCampaignOptions options;
      options.workers = workers;
      fleet::CampaignReport report = fleet::Fleet::run(spec, options);
      Alerts alerts;
      for (const fleet::CampaignAlert& a : report.alerts) {
        alerts.emplace_back(a.stream, a.command_index, a.alert.rule, a.alert.message,
                            a.cross_stream);
      }
      if (workers == 1) {
        first_alerts = std::move(alerts);
        first = std::move(report);
        replays += first.solo_replays;
        continue;
      }
      EXPECT_EQ(alerts, first_alerts) << "workers " << workers;
      EXPECT_EQ(report.solo_replays, first.solo_replays) << "workers " << workers;
      EXPECT_EQ(report.labs_built, first.labs_built) << "workers " << workers;
    }
  }
  EXPECT_GT(replays, 0u);  // not vacuous: the pool has replays to run
}

json::Object one_arg(const char* key, json::Value value) {
  json::Object args;
  args[key] = std::move(value);
  return args;
}

TEST(SoloClassification, SharedListReplaysThroughItsFurthestAlert) {
  // Streams a and b carry one command list. Solo, it alerts only at command
  // 1 (G10: the door opens while the dosing device runs). In the seed-0
  // interleaving, b runs both commands first and alerts at 1, as solo. Then
  // c stops the device and opens the door, so a alerts at 0 (G9: run with
  // the door open, cross-stream) and its door opening at 1 is safe. a and b
  // share one replay. Cut after a's alert at 0, it would miss b's solo G10
  // and flag it cross-stream; it has to run through command 1.
  const std::vector<dev::Command> shared = {
      cmd("dosing_device", "run_action", one_arg("quantity", 1.0)),
      cmd("dosing_device", "set_door", one_arg("state", "open"))};
  fleet::CampaignSpec spec;
  spec.variant = core::Variant::Modified;
  spec.seed = 0;
  spec.streams = {{"a", shared, ""},
                  {"b", shared, ""},
                  {"c",
                   {cmd("dosing_device", "stop_action"),
                    cmd("dosing_device", "set_door", one_arg("state", "open"))},
                   ""}};

  fleet::CampaignReport sharded = fleet::Fleet::run(spec);
  fleet::CampaignReport monolithic = fleet::Fleet::run_campaign(spec);
  for (const fleet::CampaignReport* r : {&sharded, &monolithic}) {
    EXPECT_EQ(verdicts(*r), reference_verdicts(spec, *r));
    EXPECT_EQ(verdicts(*r), (Verdicts{{1, 1, "G10", false}, {0, 0, "G9", true}}));
    EXPECT_EQ(r->solo_replays, 1u);
  }
}

// --- work budgets ------------------------------------------------------------
//
// Work counts do not depend on the machine, so they are held exactly. A
// budget may only tighten.

struct Work {
  std::size_t scripts_recorded;
  std::size_t solo_replays;
  std::size_t labs_built;
  bool operator==(const Work&) const = default;
};

void PrintTo(const Work& w, std::ostream* os) {
  *os << "{scripts_recorded " << w.scripts_recorded << ", solo_replays " << w.solo_replays
      << ", labs_built " << w.labs_built << "}";
}

Work work(const fleet::CampaignReport& r) {
  return Work{r.scripts_recorded, r.solo_replays, r.labs_built};
}

TEST(CampaignWorkBudget, Stress64Streams) {
  const scenario::CorpusEntry* stress = nullptr;
  std::vector<scenario::CorpusEntry> entries = corpus();
  for (const scenario::CorpusEntry& entry : entries) {
    if (entry.name == "stress_64_streams") stress = &entry;
  }
  ASSERT_NE(stress, nullptr);
  fleet::CampaignSpec spec = corpus_campaign(stress->spec);
  fleet::ShardedCampaignOptions options;
  options.workers = 4;
  fleet::CampaignReport report = fleet::Fleet::run(spec, options);
  ASSERT_EQ(report.shards, 2u);
  EXPECT_EQ(work(report), (Work{0, 18, 21}));
}

TEST(CampaignWorkBudget, ContendedCycle20Streams) {
  fleet::CampaignSpec spec = contended_cycle_campaign();
  fleet::ShardedCampaignOptions options;
  options.workers = 4;
  fleet::CampaignReport report = fleet::Fleet::run(spec, options);
  ASSERT_EQ(report.shards, 2u);
  EXPECT_EQ(work(report), (Work{1, 10, 13}));
}

TEST(CampaignReportStages, StageTimesCoverTheCall) {
  fleet::CampaignSpec spec = contended_cycle_campaign();
  fleet::CampaignReport planned = fleet::Fleet::run(spec);
  EXPECT_GT(planned.resolve_s, 0.0);
  EXPECT_GT(planned.plan_s, 0.0);
  EXPECT_GT(planned.classify_s, 0.0);
  EXPECT_GE(planned.total_s,
            planned.resolve_s + planned.plan_s + planned.wall_s + planned.classify_s);
  // A caller-supplied plan costs the call no planning.
  fleet::CampaignReport monolithic = fleet::Fleet::run_campaign(spec);
  EXPECT_EQ(monolithic.plan_s, 0.0);
  EXPECT_GE(monolithic.total_s, monolithic.resolve_s + monolithic.wall_s + monolithic.classify_s);
}

}  // namespace
}  // namespace rabit
