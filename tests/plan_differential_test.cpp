// Shard planning against its per-stream reference. plan_campaign_shards and
// analyze_campaign summarize each distinct command list once and copy that
// summary under every later stream's name; a certificate carries its
// conditions as a bitmask that only the serializers spell out. The
// reference below keeps the plain semantics: every stream summarized on its
// own, and every certificate spelled by a verbatim copy of the original
// string-building certificate_conditions. plan_to_json, format_plan,
// verify_plan and analyze_campaign's report must match it byte for byte.
//
// The same binary replaces the global operator new with a counting one and
// holds the heap allocations of one plan_campaign_shards call on a fixed
// 64-stream campaign and on the contended cycle campaign to budgets, which
// may only tighten.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/shard_plan.hpp"
#include "core/lab.hpp"
#include "fleet/fleet.hpp"
#include "scenario/fuzz.hpp"
#include "scenario/scenario.hpp"
#include "script/workflows.hpp"
#include "sim/deck.hpp"

#ifndef RABIT_SOURCE_DIR
#error "tests/CMakeLists.txt must define RABIT_SOURCE_DIR"
#endif

// ---------------------------------------------------------------------------
// Counting allocator: every operator new of the process, on any thread.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Every non-aligned form is replaced, the nothrow ones included
// (std::stable_sort's buffer uses them): a sanitizer runtime would
// otherwise serve them and see std::free release its memory.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
// Not inlined: GCC would otherwise pair the inlined std::free with the
// operator new call and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace rabit {
namespace {

namespace ids = sim::deck_ids;
using analysis::CampaignStream;
using analysis::ShardPlan;
using analysis::StreamSummary;

// ---------------------------------------------------------------------------
// The per-stream reference
// ---------------------------------------------------------------------------

/// The original certificate_conditions, verbatim: the closed vocabulary in
/// its documented order, as strings.
std::vector<std::string> reference_conditions(const core::EngineConfig& config,
                                              const StreamSummary& a, const StreamSummary& b) {
  std::vector<std::string> out{"devices-disjoint", "entities-disjoint"};
  if (config.time_multiplex) out.emplace_back("no-multiplex-race");
  out.emplace_back("envelopes-disjoint");
  out.emplace_back("no-shared-budget");
  out.emplace_back("setpoints-compatible");
  out.emplace_back("ignores-symmetric");
  if (!a.truncated && !b.truncated) out.emplace_back("summaries-complete");
  return out;
}

/// Every stream summarized on its own, in campaign order.
std::vector<StreamSummary> reference_summaries(const core::EngineConfig& config,
                                               const std::vector<CampaignStream>& streams,
                                               const analysis::AnalyzeOptions& options) {
  std::vector<StreamSummary> out;
  for (const CampaignStream& s : streams) {
    out.push_back(analysis::summarize_stream(config, s.name, s.commands, options));
  }
  return out;
}

/// (a, b, conditions) for every pair of streams in different shards of
/// `plan`, in (a, b) order, spelled by the reference.
struct ReferenceCertificate {
  std::size_t a = 0;
  std::size_t b = 0;
  std::vector<std::string> conditions;
};

std::vector<ReferenceCertificate> reference_certificates(const core::EngineConfig& config,
                                                         const std::vector<StreamSummary>& sums,
                                                         const ShardPlan& plan) {
  std::vector<std::size_t> owner(sums.size(), plan.shards.size());
  for (std::size_t k = 0; k < plan.shards.size(); ++k) {
    for (std::size_t v : plan.shards[k].streams) owner[v] = k;
  }
  std::vector<ReferenceCertificate> out;
  for (std::size_t i = 0; i < sums.size(); ++i) {
    for (std::size_t j = i + 1; j < sums.size(); ++j) {
      if (owner[i] == owner[j]) continue;
      out.push_back({i, j, reference_conditions(config, sums[i], sums[j])});
    }
  }
  return out;
}

/// plan_to_json of the per-stream plan with its certificates spelled by the
/// reference.
std::string reference_json(const core::EngineConfig& config, const std::vector<StreamSummary>& sums,
                           const ShardPlan& plan, const std::vector<ReferenceCertificate>& certs) {
  json::Value doc = analysis::plan_to_json(config, sums, plan);
  json::Array certificates;
  for (const ReferenceCertificate& c : certs) {
    json::Object o;
    o["a"] = plan.stream_names[c.a];
    o["b"] = plan.stream_names[c.b];
    json::Array conditions;
    for (const std::string& cond : c.conditions) conditions.emplace_back(cond);
    o["conditions"] = std::move(conditions);
    certificates.emplace_back(std::move(o));
  }
  doc.as_object()["certificates"] = std::move(certificates);
  return json::serialize(doc);
}

/// format_plan of the per-stream plan with its certificate section written
/// by the reference (the original format: at most 20 pairs listed).
std::string reference_text(const core::EngineConfig& config, const std::vector<StreamSummary>& sums,
                           const ShardPlan& plan, const std::vector<ReferenceCertificate>& certs) {
  std::string text = analysis::format_plan(config, sums, plan);
  std::ostringstream os;
  os << "certified independent pairs: " << certs.size() << "\n";
  constexpr std::size_t kMaxCerts = 20;
  for (std::size_t i = 0; i < certs.size() && i < kMaxCerts; ++i) {
    os << "  " << plan.stream_names[certs[i].a] << " x " << plan.stream_names[certs[i].b] << ": ";
    for (std::size_t j = 0; j < certs[i].conditions.size(); ++j) {
      if (j != 0) os << ", ";
      os << certs[i].conditions[j];
    }
    os << "\n";
  }
  if (certs.size() > kMaxCerts) os << "  (+" << certs.size() - kMaxCerts << " more pairs)\n";
  std::size_t begin = text.find("certified independent pairs: ");
  std::size_t end = text.find("\ndiagnostics", begin);
  if (begin == std::string::npos || end == std::string::npos) return "unparsable: " + text;
  return text.replace(begin, end + 1 - begin, os.str());
}

/// The plan with certificate `index` dropped: verify_plan must then name
/// that pair.
ShardPlan without_certificate(ShardPlan plan, std::size_t index) {
  plan.certificates.erase(plan.certificates.begin() + static_cast<long>(index));
  return plan;
}

struct Tally {
  std::size_t campaigns = 0;
  std::size_t streams = 0;
  std::size_t certificates = 0;
  std::size_t multiplex_certificates = 0;  ///< carry "no-multiplex-race"
  std::size_t plain_certificates = 0;      ///< do not
  std::size_t truncated_streams = 0;
};

/// Plans `streams` both ways and holds every output to the reference.
void expect_matches_reference(const core::EngineConfig& config,
                              const std::vector<CampaignStream>& streams, Tally& tally,
                              const analysis::AnalyzeOptions& options = {}) {
  ShardPlan plan = analysis::plan_campaign_shards(config, streams, {}, options);

  std::vector<StreamSummary> sums = reference_summaries(config, streams, options);
  ShardPlan ref = analysis::plan_shards(config, sums);
  std::vector<ReferenceCertificate> certs = reference_certificates(config, sums, ref);

  EXPECT_EQ(json::serialize(analysis::plan_to_json(config, sums, plan)),
            reference_json(config, sums, ref, certs));
  EXPECT_EQ(analysis::format_plan(config, sums, plan), reference_text(config, sums, ref, certs));
  EXPECT_EQ(analysis::verify_plan(config, sums, plan), analysis::verify_plan(config, sums, ref));
  EXPECT_TRUE(analysis::verify_plan(config, sums, plan).empty());
  if (!plan.certificates.empty()) {
    std::size_t last = plan.certificates.size() - 1;
    std::vector<std::string> violations =
        analysis::verify_plan(config, sums, without_certificate(plan, last));
    EXPECT_EQ(violations, analysis::verify_plan(config, sums, without_certificate(ref, last)));
    EXPECT_EQ(violations.size(), 1u);
  }
  EXPECT_EQ(json::serialize(analysis::report_to_json(
                analysis::analyze_campaign(config, streams, options))),
            json::serialize(analysis::report_to_json(
                analysis::check_interference(config, sums, options))));

  ++tally.campaigns;
  tally.streams += streams.size();
  tally.certificates += certs.size();
  for (const ReferenceCertificate& c : certs) {
    bool multiplex = std::find(c.conditions.begin(), c.conditions.end(), "no-multiplex-race") !=
                     c.conditions.end();
    ++(multiplex ? tally.multiplex_certificates : tally.plain_certificates);
  }
  for (const StreamSummary& s : sums) tally.truncated_streams += s.truncated ? 1 : 0;
}

/// Both certificate vocabularies: the config as given, then with its
/// time-multiplex declaration flipped.
void expect_matches_reference_both_ways(core::EngineConfig config,
                                        const std::vector<CampaignStream>& streams, Tally& tally) {
  expect_matches_reference(config, streams, tally);
  config.time_multiplex = !config.time_multiplex;
  expect_matches_reference(config, streams, tally);
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

dev::Command make(const char* device, const char* action, const char* key = nullptr,
                  json::Value value = {}) {
  dev::Command c;
  c.device = device;
  c.action = action;
  json::Object args;
  if (key != nullptr) args[key] = std::move(value);
  c.args = json::Value(std::move(args));
  return c;
}

/// A campaign of perfbench's campaign_sharded shape: 64 streams of 18
/// commands, stream i on device group i % 7 (the six stock stations and the
/// ViperX), setpoints and volumes drawn from `seed`. Groups 2, 4, 5 and 6
/// draw nothing, so each of them repeats one command list.
std::vector<CampaignStream> sharded_streams(std::uint64_t seed) {
  std::vector<CampaignStream> streams;
  for (std::size_t i = 0; i < 64; ++i) {
    std::mt19937_64 rng(seed * 1000 + i);
    auto draw = [&rng](double lo, double hi) {
      return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    CampaignStream s{"stream-" + std::to_string(i), {}};
    while (s.commands.size() < 18) {
      switch (i % 7) {
        case 0:
          s.commands.push_back(make(ids::kHotplate, "set_temperature", "celsius", draw(30, 140)));
          s.commands.push_back(make(ids::kHotplate, "stop"));
          break;
        case 1:
          s.commands.push_back(
              make(ids::kThermoshaker, "set_temperature", "celsius", draw(25, 90)));
          s.commands.push_back(make(ids::kThermoshaker, "stop"));
          break;
        case 2:
          s.commands.push_back(make(ids::kCentrifuge, "set_door", "state", "open"));
          s.commands.push_back(make(ids::kCentrifuge, "set_door", "state", "closed"));
          break;
        case 3:
          s.commands.push_back(make(ids::kSyringePump, "draw_solvent", "volume", draw(0.02, 0.2)));
          break;
        case 4:
          s.commands.push_back(make(ids::kDosingDevice, "set_door", "state", "open"));
          s.commands.push_back(make(ids::kDosingDevice, "set_door", "state", "closed"));
          break;
        case 5:
          s.commands.push_back(make(ids::kCamera, "start"));
          s.commands.push_back(make(ids::kCamera, "stop"));
          break;
        default:
          s.commands.push_back(make(ids::kViperX, "go_home"));
          s.commands.push_back(make(ids::kViperX, "go_sleep"));
          break;
      }
    }
    streams.push_back(std::move(s));
  }
  return streams;
}

core::EngineConfig testbed_config(core::Variant variant) {
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  return core::config_from_backend(backend, variant);
}

/// A campaign as Fleet::run plans it: script streams recorded on a probe lab
/// built with the campaign's seed and deck, and that lab's config.
struct Resolved {
  core::EngineConfig config;
  std::vector<CampaignStream> streams;
};

Resolved resolve(const fleet::CampaignSpec& spec) {
  sim::LabBackend probe(sim::testbed_profile(), spec.seed);
  core::build_deck(probe, spec.deck);
  Resolved out;
  for (const fleet::CampaignStreamSpec& s : spec.streams) {
    out.streams.push_back({s.name, !s.commands.empty() || s.script.empty()
                                       ? s.commands
                                       : script::record_workflow(probe, s.script)});
  }
  out.config = core::config_from_backend(probe, spec.variant);
  return out;
}

/// The tier-1 contended cycle campaign: twenty scenario-genome streams
/// cycling testbed, hotplate, dosing, rad_dosing and park, V3, testbed
/// streams as DSL source.
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
  fleet::CampaignSpec spec;
  spec.variant = genome.variant;
  spec.seed = static_cast<unsigned>(genome.seed);
  spec.streams = scenario::materialize(genome).streams;
  for (std::size_t i = 0; i < spec.streams.size(); ++i) {
    if (genome.streams[i].workflow != WorkflowKind::Testbed) continue;
    spec.streams[i].commands.clear();
    spec.streams[i].script = script::testbed_workflow_source();
  }
  return spec;
}

const std::vector<dev::Command>& testbed_workflow() {
  static const std::vector<dev::Command> recorded = [] {
    sim::LabBackend staging(sim::testbed_profile());
    sim::build_hein_testbed_deck(staging);
    return script::record_workflow(staging, script::testbed_workflow_source());
  }();
  return recorded;
}

// ---------------------------------------------------------------------------
// Differential tests
// ---------------------------------------------------------------------------

TEST(PlanDifferential, ShardedCampaignsMatchThePerStreamReference) {
  Tally tally;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (core::Variant variant : {core::Variant::Modified, core::Variant::ModifiedWithSim}) {
      expect_matches_reference_both_ways(testbed_config(variant), sharded_streams(seed), tally);
    }
  }
  EXPECT_EQ(tally.campaigns, 20u);
  EXPECT_GT(tally.multiplex_certificates, 0u);
  EXPECT_GT(tally.plain_certificates, 0u);
}

TEST(PlanDifferential, ContendedCycleCampaignMatchesThePerStreamReference) {
  Resolved campaign = resolve(contended_cycle_campaign());
  ASSERT_EQ(campaign.streams.size(), 20u);
  Tally tally;
  expect_matches_reference_both_ways(campaign.config, campaign.streams, tally);
  // A report cap small enough that stream reports pass it: those summaries
  // are marked truncated, and the plan must still match.
  analysis::AnalyzeOptions capped;
  capped.max_diagnostics = 1;
  expect_matches_reference(campaign.config, campaign.streams, tally, capped);
  EXPECT_GT(tally.truncated_streams, 0u);
  EXPECT_GT(tally.certificates, 0u);
}

TEST(PlanDifferential, CorpusCampaignsMatchThePerStreamReference) {
  std::vector<scenario::CorpusEntry> entries =
      scenario::load_corpus_dir(std::string(RABIT_SOURCE_DIR) + "/corpus");
  ASSERT_GE(entries.size(), 5u);
  Tally tally;
  for (const scenario::CorpusEntry& entry : entries) {
    SCOPED_TRACE(entry.name);
    scenario::MaterializedScenario mat = scenario::materialize(entry.spec);
    std::vector<CampaignStream> streams;
    for (const fleet::CampaignStreamSpec& s : mat.streams) streams.push_back({s.name, s.commands});
    expect_matches_reference_both_ways(mat.config, streams, tally);
    expect_matches_reference(mat.linted_config, streams, tally);
  }
  EXPECT_GT(tally.streams, tally.campaigns);  // some entries are multi-stream campaigns
}

TEST(PlanDifferential, ExampleCampaignsMatchThePerStreamReference) {
  Tally tally;
  for (const auto& file :
       std::filesystem::directory_iterator(std::string(RABIT_SOURCE_DIR) + "/examples/campaigns")) {
    SCOPED_TRACE(file.path().filename().string());
    std::ifstream in(file.path());
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    Resolved campaign = resolve(fleet::load_campaign(json::parse(text)));
    expect_matches_reference_both_ways(campaign.config, campaign.streams, tally);
  }
  EXPECT_EQ(tally.campaigns, 6u);
}

TEST(PlanDifferential, IdenticalListsUnderDifferentNames) {
  const std::vector<dev::Command>& workflow = testbed_workflow();
  std::vector<CampaignStream> streams = {
      {"first", workflow},
      {"heat", {make(ids::kHotplate, "set_temperature", "celsius", 60.0),
                make(ids::kHotplate, "stop")}},
      {"second", workflow},
      {"shake", {make(ids::kThermoshaker, "set_temperature", "celsius", 40.0)}},
      {"third", workflow},
      {"heat-again", {make(ids::kHotplate, "set_temperature", "celsius", 60.0),
                      make(ids::kHotplate, "stop")}},
      {"shake-again", {make(ids::kThermoshaker, "set_temperature", "celsius", 40.0)}}};
  Tally tally;
  for (core::Variant variant : {core::Variant::Initial, core::Variant::ModifiedWithSim}) {
    expect_matches_reference_both_ways(testbed_config(variant), streams, tally);
  }
  EXPECT_GT(tally.certificates, 0u);
}

TEST(PlanDifferential, ListsThatDifferOnlyInSourceLine) {
  std::vector<dev::Command> renumbered = testbed_workflow();
  for (dev::Command& c : renumbered) c.source_line += 100;
  std::vector<dev::Command> synthetic = testbed_workflow();
  for (dev::Command& c : synthetic) c.source_line = 0;
  std::vector<CampaignStream> streams = {{"recorded", testbed_workflow()},
                                         {"renumbered", renumbered},
                                         {"synthetic", synthetic},
                                         {"again", testbed_workflow()},
                                         {"camera", {make(ids::kCamera, "start")}}};
  Tally tally;
  expect_matches_reference_both_ways(testbed_config(core::Variant::ModifiedWithSim), streams,
                                     tally);
  EXPECT_EQ(tally.campaigns, 2u);
}

TEST(PlanDifferential, DuplicatedTruncatedStream) {
  // A move_to without a resolvable position: the summary widens the arm to
  // the whole workspace and is truncated, so it conflicts with every other
  // stream under its own name.
  std::vector<dev::Command> lost = {make(ids::kViperX, "go_home"),
                                    make(ids::kViperX, "move_to", "position", std::string("nowhere"))};
  std::vector<CampaignStream> streams = {{"lost-a", lost},
                                         {"camera", {make(ids::kCamera, "start")}},
                                         {"lost-b", lost},
                                         {"heat", {make(ids::kHotplate, "stop")}},
                                         {"camera-2", {make(ids::kCamera, "start")}}};
  Tally tally;
  expect_matches_reference_both_ways(testbed_config(core::Variant::ModifiedWithSim), streams,
                                     tally);
  EXPECT_EQ(tally.truncated_streams, 4u);  // two streams, planned twice
  ShardPlan plan = analysis::plan_campaign_shards(
      testbed_config(core::Variant::ModifiedWithSim), streams);
  EXPECT_TRUE(plan.truncated);
  EXPECT_EQ(plan.shards.size(), 1u);
}

// ---------------------------------------------------------------------------
// Work budget
// ---------------------------------------------------------------------------

/// The heap allocations of one plan_campaign_shards call, after a first
/// call has set up function-local statics.
std::size_t allocations_of_one_plan(const core::EngineConfig& config,
                                    const std::vector<CampaignStream>& streams, ShardPlan& plan) {
  (void)analysis::plan_campaign_shards(config, streams);
  std::size_t before = g_allocations.load(std::memory_order_relaxed);
  plan = analysis::plan_campaign_shards(config, streams);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(PlanWorkBudget, AllocationsOfOnePlanOnA64StreamCampaign) {
  ShardPlan plan;
  std::size_t made = allocations_of_one_plan(testbed_config(core::Variant::ModifiedWithSim),
                                             sharded_streams(3), plan);
  ASSERT_EQ(plan.shards.size(), 7u);
  ASSERT_GT(plan.certificates.size(), 1500u);
  // The per-stream planner with string certificates made 31,741, the
  // planner that formatted every finding's text 5,240. A budget may only
  // tighten.
  constexpr std::size_t kBudget = 3668;
  EXPECT_LE(made, kBudget);
  std::printf("plan_campaign_shards allocations: %zu (budget %zu)\n", made, kBudget);
}

TEST(PlanWorkBudget, AllocationsOfOnePlanOnTheContendedCycleCampaign) {
  Resolved campaign = resolve(contended_cycle_campaign());
  ShardPlan plan;
  std::size_t made = allocations_of_one_plan(campaign.config, campaign.streams, plan);
  ASSERT_EQ(plan.shards.size(), 2u);
  ASSERT_EQ(plan.edges.size(), 110u);
  // The planner that formatted every finding's text made 5,520. A budget
  // may only tighten.
  constexpr std::size_t kBudget = 2856;
  EXPECT_LE(made, kBudget);
  std::printf("plan_campaign_shards allocations: %zu (budget %zu)\n", made, kBudget);
}

}  // namespace
}  // namespace rabit
